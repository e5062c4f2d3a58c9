import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from sparsedoa.coarray import (
    khatri_rao,
    redundancy_average,
    spatial_smoothing,
    vectorize_covariance,
)
from sparsedoa.geometry import ArrayGeometry, difference_coarray, mra_lookup
from sparsedoa.harness import METHOD_FAILED, METHOD_NONE, _music_inputs, preset, trial_snapshots
from sparsedoa.signals import (
    SourceScene,
    draw_angles,
    scene_from_snr,
    steering_matrix,
)
from sparsedoa.spectral import (
    MusicSpectrum,
    _local_maxima,
    crb,
    doa_mse,
    hermitian_eig,
    music_spectrum,
    pick_peaks,
)

from oracles import analytic_covariance, grid_music_spectrum


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        npt.assert_allclose(w, [1, 2, 3])
        npt.assert_allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_scaled_identity(self):
        w, _ = hermitian_eig(0.3 * np.eye(5))
        npt.assert_allclose(w, 0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_residual(self, seed):
        r = random_hermitian(6, np.random.default_rng(seed))
        w, v = hermitian_eig(r)
        assert np.all(np.diff(w) >= 0)
        resid = np.linalg.norm(v @ np.diag(w) @ v.conj().T - r)
        assert resid < 1e-8 * np.linalg.norm(r)
        npt.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_stack_checks_each_matrix(self):
        # a small non-Hermitian matrix next to a large Hermitian one still fails
        big = 1e6 * random_hermitian(4, np.random.default_rng(1))
        small = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.stack([big, small]))
        w, v = hermitian_eig(np.stack([big, np.eye(4)]))
        npt.assert_array_equal(w[0], hermitian_eig(big)[0])
        npt.assert_array_equal(v[1], hermitian_eig(np.eye(4))[1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # one overflowed entry must not yield a finite eigendecomposition
        r = random_hermitian(5, np.random.default_rng(0))
        r[2, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            hermitian_eig(r)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            music_spectrum(r[None], 2)


class TestMusicSpectrum:
    def test_exact_single_source_peak(self):
        geom = mra_lookup(5)
        r_ss = spatial_smoothing(redundancy_average(
            analytic_covariance(geom, scene_from_snr((20.0,), 0.0)), geom))
        spec = music_spectrum(r_ss[None], 1, grid_step=0.1)[0]
        assert spec.grid[np.argmax(spec.values)] == pytest.approx(20.0)

    def test_grid_properties(self):
        spec = music_spectrum(np.eye(4)[None], 1, grid_step=0.5)[0]
        assert spec.grid[0] == -90.0
        assert spec.grid[-1] < 90.0
        npt.assert_allclose(np.diff(spec.grid), 0.5)
        assert np.all(spec.values >= 0)

    def test_max_source_count_finite_spectrum(self):
        # K = dim - 1 on the 4-element ULA, the largest count MUSIC accepts
        geom = ArrayGeometry((0, 1, 2, 3))
        angles = (-40.0, -5.0, 38.0)
        r = analytic_covariance(geom, SourceScene(angles, (1.0,) * 3, 0.2))
        spec = music_spectrum(r[None], 3, grid_step=0.1)[0]
        assert np.isfinite(spec.values).all()
        peaks = pick_peaks(spec, 3)
        npt.assert_allclose(peaks.angles_deg, angles, atol=0.1)

    def test_source_count_bounds(self):
        with pytest.raises(ValueError):
            music_spectrum(np.eye(4)[None], 4)

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="stack"):
            music_spectrum(np.eye(4), 1)

    def test_scale_invariant_peak_locations(self):
        geom = mra_lookup(5)
        r_ss = spatial_smoothing(redundancy_average(
            analytic_covariance(geom, scene_from_snr((-12.0, 31.0), 5.0)), geom))
        s1 = music_spectrum(r_ss[None], 2, grid_step=0.2)[0]
        s2 = music_spectrum(17.0 * r_ss[None], 2, grid_step=0.2)[0]
        assert np.argmax(s1.values) == np.argmax(s2.values)
        npt.assert_array_equal(
            pick_peaks(s1, 2).angles_deg, pick_peaks(s2, 2).angles_deg
        )

    @pytest.mark.parametrize("k", range(1, 10))
    def test_recovers_k_sources_on_exact_pipeline(self, k):
        # one grid step of accuracy for every source count below m_v
        geom = mra_lookup(5)
        angles = tuple(np.linspace(-60, 60, k)) if k > 1 else (7.3,)
        r = analytic_covariance(geom, scene_from_snr(angles, 0.0))
        r_ss = spatial_smoothing(redundancy_average(r, geom))
        peaks = pick_peaks(music_spectrum(r_ss[None], k, grid_step=0.05)[0], k)
        assert not peaks.resolution_failure
        npt.assert_allclose(peaks.angles_deg, angles, atol=0.05)


class TestLagPolynomial:
    """The stacked lag polynomial against the grid-steering form of MUSIC, on the
    smoothed matrices of the intact and the failed array."""

    @pytest.fixture(scope="class", params=["desk", "paper"])
    def case(self, request):
        cfg = preset(request.param, test_snrs_db=(-10.0, 0.0, 10.0, 20.0, 30.0))
        items = [(snr, trial) for snr in cfg.test_snrs_db for trial in range(6)]
        _, inputs, _ = _music_inputs(cfg, (METHOD_NONE, METHOD_FAILED), items, None)
        stack = np.concatenate([inputs[METHOD_NONE], inputs[METHOD_FAILED]])
        return cfg, stack, music_spectrum(stack, cfg.k, grid_step=cfg.grid_step)

    def test_denominators_match_grid_oracle(self, case):
        cfg, stack, spectra = case
        for r, values in zip(stack, spectra.values):
            grid, denom = grid_music_spectrum(r, cfg.k, cfg.grid_step)
            npt.assert_array_equal(spectra.grid, grid)
            assert np.max(np.abs(1.0 / values - denom) / denom) <= 1e-9

    def test_same_peaks_as_grid_oracle(self, case):
        cfg, stack, spectra = case
        for i, r in enumerate(stack):
            grid, denom = grid_music_spectrum(r, cfg.k, cfg.grid_step)
            oracle = pick_peaks(MusicSpectrum(grid, 1.0 / denom), cfg.k)
            got = pick_peaks(spectra[i], cfg.k)
            npt.assert_array_equal(got.angles_deg, oracle.angles_deg)
            assert got.resolution_failure == oracle.resolution_failure


class TestLocalMaxima:
    # scipy's find_peaks is the oracle. The small alphabet makes plateaus, even-length
    # runs, runs at the array ends and runs of +-inf common.
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf]), max_size=64))
    @example([0.0, 1.0, 1.0, 0.0])  # an even plateau peaks left of its middle
    @example([np.inf, 0.0, np.inf, np.inf, np.inf, 0.0, np.inf])  # one peak, on an inf run
    @example([1.0, 1.0, 0.0, 1.0, 1.0])  # plateaus at both ends are no peaks
    def test_equals_find_peaks(self, values):
        x = np.array(values, dtype=np.float64)
        expected = find_peaks(x)[0]
        got = _local_maxima(x)
        assert got.dtype == expected.dtype
        npt.assert_array_equal(got, expected)


class TestPickPeaks:
    def _spectrum(self, values):
        grid = np.linspace(-90, 90, len(values), endpoint=False)
        return MusicSpectrum(grid=grid, values=np.asarray(values, float))

    def test_two_bumps(self):
        values = np.ones(21)
        values[5] = 10.0
        values[15] = 8.0
        spec = self._spectrum(values)
        peaks = pick_peaks(spec, 2)
        npt.assert_allclose(peaks.angles_deg, spec.grid[[5, 15]])
        assert not peaks.resolution_failure

    def test_monotone_pads_with_boundary(self):
        spec = self._spectrum(np.linspace(0, 1, 30))
        peaks = pick_peaks(spec, 1)
        assert peaks.resolution_failure
        assert peaks.angles_deg[0] == spec.grid[-1]

    def test_padding_keeps_found_peaks(self):
        values = np.ones(30)
        values[10] = 5.0
        peaks = pick_peaks(self._spectrum(values), 3)
        assert peaks.resolution_failure
        assert self._spectrum(values).grid[10] in peaks.angles_deg
        assert len(peaks.angles_deg) == 3

    def test_padding_fills_the_whole_grid(self):
        peaks = pick_peaks(self._spectrum([1.0, 3.0, 2.0]), 3)
        assert peaks.resolution_failure and len(peaks.angles_deg) == 3

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_the_grid_rejected(self, k):
        # k=4 on 3 angles returned 3 estimates, and the sweep failed only in doa_mse
        with pytest.raises(ValueError, match=f"k={k} must lie in 1..3"):
            pick_peaks(self._spectrum([1.0, 3.0, 2.0]), k)


class TestDoaMse:
    def test_zero_error(self):
        assert doa_mse([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_single_trial_single_source(self):
        assert doa_mse([[12.0]], [[10.0]]) == pytest.approx(4.0)

    def test_two_by_two(self):
        est = [[11.0, 21.0], [13.0, 21.0]]
        tru = [[10.0, 20.0], [10.0, 20.0]]
        assert doa_mse(est, tru) == pytest.approx(3.0)

    def test_permutation_safe(self):
        rng = np.random.default_rng(0)
        tru = np.sort(rng.uniform(-60, 60, (5, 4)), axis=1)
        est = tru + rng.normal(0, 1, tru.shape)
        shuffled = est.copy()
        for row in shuffled:
            rng.shuffle(row)
        assert doa_mse(est, tru) == pytest.approx(doa_mse(shuffled, tru))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            doa_mse([[1.0]], [[1.0, 2.0]])


def kronecker_crb(geom, scene, n_snapshots):
    """Oracle: the CRB whitened by the M^2 x M^2 matrix (R^T kron R)^{-1/2},
    formed and eigendecomposed directly (its eigenvalues floored at 1e-12 of
    the largest)."""
    pos = np.asarray(geom.active_positions, dtype=np.float64)
    m = pos.size
    a = steering_matrix(pos, scene.angles_deg)
    theta = np.deg2rad(np.asarray(scene.angles_deg, dtype=np.float64))
    a_dot = 1j * np.pi * pos[:, None] * np.cos(theta)[None, :] * a
    r = (a * np.asarray(scene.powers)) @ a.conj().T + scene.noise_power * np.eye(m)
    a_d = khatri_rao(a.conj(), a)
    a_d_dot = khatri_rao(a_dot.conj(), a) + khatri_rao(a.conj(), a_dot)
    w_mat = np.kron(r.T, r)
    lam, u = np.linalg.eigh((w_mat + w_mat.conj().T) / 2.0)
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(np.maximum(lam, 1e-12 * lam[-1]))) @ u.conj().T
    m_theta = inv_sqrt @ (a_d_dot * np.asarray(scene.powers))
    m_s = inv_sqrt @ np.column_stack([a_d, vectorize_covariance(np.eye(m))])
    coupling = m_s @ np.linalg.solve(m_s.conj().T @ m_s, m_s.conj().T @ m_theta)
    fim_schur = m_theta.conj().T @ (m_theta - coupling)
    crb_rad = np.linalg.inv(np.real(fim_schur + fim_schur.conj().T) / 2.0) / n_snapshots
    return (crb_rad + crb_rad.T) / 2.0 * (180 / np.pi) ** 2


def finite_difference_crb(geom, scene, n_snapshots):
    """Oracle: Slepian-Bangs information via central differences of R(eta),
    eta = (angles in rad, powers, noise power), over the active sensors."""
    k = scene.k
    pos = np.asarray(geom.active_positions)
    eta0 = np.concatenate([np.deg2rad(scene.angles_deg), scene.powers, [scene.noise_power]])

    def cov(eta):
        a = steering_matrix(pos, np.rad2deg(eta[:k]))
        return (a * eta[k:2 * k]) @ a.conj().T + eta[-1] * np.eye(pos.size)

    r_inv = np.linalg.inv(cov(eta0))
    h = 1e-6
    derivs = []
    for i in range(eta0.size):
        ep, em = eta0.copy(), eta0.copy()
        ep[i] += h
        em[i] -= h
        derivs.append((cov(ep) - cov(em)) / (2 * h))
    fim = np.array([
        [np.real(np.trace(r_inv @ da @ r_inv @ db)) for db in derivs]
        for da in derivs
    ]) * n_snapshots
    return np.linalg.inv(fim)[:k, :k] * (180 / np.pi) ** 2


def relative_gap(got, oracle):
    return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))


class TestCrb:
    def test_doubling_n_halves_diagonal(self):
        geom = mra_lookup(5)
        scene = scene_from_snr((15.0, 40.0), 0.0)
        c1 = crb(geom, scene, 100)
        c2 = crb(geom, scene, 200)
        npt.assert_allclose(2 * c2, c1, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_psd(self, seed):
        rng = np.random.default_rng(seed)
        geom = mra_lookup(int(rng.integers(4, 6)))
        k = int(rng.integers(1, 4))
        angles = np.sort(rng.uniform(-60, 60, k))
        while np.any(np.diff(angles) < 4):
            angles = np.sort(rng.uniform(-60, 60, k))
        scene = SourceScene(tuple(angles), tuple(rng.uniform(0.5, 2.0, k)),
                            float(rng.uniform(0.05, 5.0)))
        c = crb(geom, scene, 200)
        npt.assert_allclose(c, c.T, atol=1e-12)
        w = np.linalg.eigvalsh(c)
        assert w.min() >= -1e-10 * np.trace(c)

    def test_matches_finite_difference_fisher(self):
        geom = mra_lookup(5)
        scene = scene_from_snr((20.0,), 0.0)
        oracle = finite_difference_crb(geom, scene, 200)
        assert relative_gap(crb(geom, scene, 200), oracle) < 0.01

    def test_matches_finite_difference_fisher_unequal_powers_failed_sensor(self):
        geom = mra_lookup(5).with_failures({3})
        scene = SourceScene((-25.0, 30.0), (1.0, 2.5), 0.4)
        oracle = finite_difference_crb(geom, scene, 200)
        assert relative_gap(crb(geom, scene, 200), oracle) < 0.01

    def test_matches_kronecker_oracle(self):
        # random scenes: M = 3..10, intact or one failed sensor, unequal
        # powers, K up to m_v - 1 (so K >= M occurs). Two kinds of scene are
        # left out, because there neither form is meaningful in float64:
        # K above the U distinct positive lags of the active sensors (2K + 1
        # parameters against the 2U + 1 real degrees of freedom of R, so the
        # Fisher information is singular and both forms return rounding
        # noise), and bounds with condition number 1e6 or more.
        rng = np.random.default_rng(2017)
        checked = 0
        for _ in range(320):
            geom = mra_lookup(int(rng.integers(3, 11)))
            k = int(rng.integers(1, difference_coarray(geom).m_v))
            if rng.random() < 0.5:
                geom = geom.with_failures({int(rng.integers(1, geom.size + 1))})
            scene = SourceScene(tuple(draw_angles(k, -70.0, 70.0, 2.0, rng)),
                                tuple(rng.uniform(0.3, 3.0, k)),
                                float(10.0 ** (-rng.uniform(-10.0, 20.0) / 10.0)))
            if k > sum(1 for lag in difference_coarray(geom).lags if lag > 0):
                continue
            oracle = kronecker_crb(geom, scene, 200)
            if np.linalg.cond(oracle) >= 1e6:
                continue
            assert relative_gap(crb(geom, scene, 200), oracle) < 1e-9, (geom, scene)
            checked += 1
        assert checked >= 200

    def test_matches_kronecker_oracle_on_sweep_and_criterion_3_scenes(self):
        scenes = [(cfg.geometry(), trial_snapshots(cfg, snr, trial)[0], cfg.n_snapshots)
                  for cfg in (preset("desk"), preset("paper"))
                  for snr in cfg.test_snrs_db[::2] for trial in range(3)]
        # K = 9 on the 5-sensor MRA at 20 dB, N = 5000
        angles = np.rad2deg(np.arcsin(np.linspace(-0.87, 0.87, 9)))
        scenes.append((mra_lookup(5), scene_from_snr(tuple(angles), 20.0), 5000))
        for geom, scene, n in scenes:
            assert relative_gap(crb(geom, scene, n), kronecker_crb(geom, scene, n)) < 1e-11

    def test_noise_monotonicity(self):
        geom = mra_lookup(5)
        angles = (12.0, 37.0)
        prev = None
        for sigma in (0.01, 0.1, 1.0, 10.0):
            diag = np.diag(crb(geom, SourceScene(angles, (1.0, 1.0), sigma), 200))
            if prev is not None:
                assert np.all(diag >= prev - 1e-15)
            prev = diag

    def test_zero_power_source_not_identifiable(self):
        geom = mra_lookup(5)
        scene = SourceScene((10.0, 30.0), (1.0, 0.0), 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            crb(geom, scene, 100)

    def test_numerically_singular_fisher_raises(self):
        # Sweep scenes of the desk preset with K = 9 (9 sources 5 deg apart on the
        # 5-sensor MRA), whose Schur complement is numerically singular: inverted,
        # 11 of them gave a negative diagonal entry and the other 19 finite bounds
        # with condition numbers of 1.6e15-1.4e19, whose digits are all rounding.
        cfg = preset("desk", k=9)
        for snr in (0.0, 10.0, 20.0):
            for trial in range(10):
                scene = trial_snapshots(cfg, snr, trial)[0]
                with pytest.raises(np.linalg.LinAlgError, match="not identifiable"):
                    crb(cfg.geometry(), scene, cfg.n_snapshots)

    def test_bound_that_is_not_positive_definite_raises(self, monkeypatch):
        # an inverse that rounding left with a non-positive diagonal entry
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.diag([1.0, -1e-3]))
        with pytest.raises(np.linalg.LinAlgError, match="not identifiable"):
            crb(mra_lookup(5), scene_from_snr((15.0, 40.0), 0.0), 100)

    def test_stacked_scenes_book_nan_alone(self):
        # the zero-power scene of test_zero_power_source_not_identifiable inside a
        # stack: only its bound is NaN, and every other one is its single-scene bound
        geom = mra_lookup(5)
        scenes = [scene_from_snr((15.0, 40.0), 0.0),
                  SourceScene((10.0, 30.0), (1.0, 0.0), 0.1),
                  SourceScene((-25.0, 30.0), (1.0, 2.5), 0.4),
                  scene_from_snr((-50.0, 62.0), -10.0),
                  scene_from_snr((3.0, 9.0), 20.0)]
        bounds = crb(geom, scenes, 100)
        assert bounds.shape == (5, 2, 2)
        assert np.isnan(bounds[1]).all()
        with pytest.raises(np.linalg.LinAlgError, match="not identifiable"):
            crb(geom, scenes[1], 100)
        kept = (0, 2, 3, 4)
        stacked = crb(geom, [scenes[i] for i in kept], 100)  # one stack, no scene-by-scene retry
        for row, i in enumerate(kept):
            alone = crb(geom, scenes[i], 100)
            assert relative_gap(bounds[i], alone) <= 1e-12
            assert relative_gap(stacked[row], alone) <= 1e-12

    def test_stacked_scenes_need_one_source_count(self):
        scenes = [scene_from_snr((15.0, 40.0), 0.0), scene_from_snr((15.0,), 0.0)]
        with pytest.raises(ValueError):
            crb(mra_lookup(5), scenes, 100)

    def test_failed_sensors_raise_bound(self):
        geom = mra_lookup(5)
        scene = scene_from_snr((18.0, 47.0), 0.0)
        full = np.diag(crb(geom, scene, 200))
        damaged = np.diag(crb(geom.with_failures({3}), scene, 200))
        assert np.all(damaged > full)
