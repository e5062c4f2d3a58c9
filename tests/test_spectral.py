import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa.coarray import redundancy_average, spatial_smoothing
from sparsedoa.geometry import ArrayGeometry, mra_lookup
from sparsedoa.signals import (
    SourceScene,
    analytic_covariance,
    scene_from_snr,
)
from sparsedoa.spectral import (
    MusicSpectrum,
    crb,
    doa_mse,
    hermitian_eig,
    music_spectrum,
    pick_peaks,
)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # one overflowed entry must not yield a finite eigendecomposition
        r = random_hermitian(5, np.random.default_rng(0))
        r[2, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            hermitian_eig(r)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            music_spectrum(r, 2)


class TestMusicSpectrum:
    def test_exact_single_source_peak(self):
        geom = mra_lookup(5)
        r_ss = spatial_smoothing(redundancy_average(
            analytic_covariance(geom, scene_from_snr((20.0,), 0.0)), geom))
        spec = music_spectrum(r_ss, 1, grid_step=0.1)
        assert spec.grid[np.argmax(spec.values)] == pytest.approx(20.0)

    def test_grid_properties(self):
        spec = music_spectrum(np.eye(4), 1, grid_step=0.5)
        assert spec.grid[0] == -90.0
        assert spec.grid[-1] < 90.0
        npt.assert_allclose(np.diff(spec.grid), 0.5)
        assert np.all(spec.values >= 0)

    def test_max_source_count_finite_spectrum(self):
        # K = dim - 1 on the 4-element ULA, the largest count MUSIC accepts
        geom = ArrayGeometry((0, 1, 2, 3))
        angles = (-40.0, -5.0, 38.0)
        r = analytic_covariance(geom, SourceScene(angles, (1.0,) * 3, 0.2))
        spec = music_spectrum(r, 3, grid_step=0.1)
        assert np.isfinite(spec.values).all()
        peaks = pick_peaks(spec, 3)
        npt.assert_allclose(peaks.angles_deg, angles, atol=0.1)

    def test_source_count_bounds(self):
        with pytest.raises(ValueError):
            music_spectrum(np.eye(4), 4)

    def test_scale_invariant_peak_locations(self):
        geom = mra_lookup(5)
        r_ss = spatial_smoothing(redundancy_average(
            analytic_covariance(geom, scene_from_snr((-12.0, 31.0), 5.0)), geom))
        s1 = music_spectrum(r_ss, 2, grid_step=0.2)
        s2 = music_spectrum(17.0 * r_ss, 2, grid_step=0.2)
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
        peaks = pick_peaks(music_spectrum(r_ss, k, grid_step=0.05), k)
        assert not peaks.resolution_failure
        npt.assert_allclose(peaks.angles_deg, angles, atol=0.05)


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
        # Slepian-Bangs information via central differences of R(eta)
        geom = mra_lookup(5)
        scene = scene_from_snr((20.0,), 0.0)
        n = 200
        got = crb(geom, scene, n)[0, 0]

        theta0 = np.deg2rad(20.0)
        eta0 = np.array([theta0, 1.0, scene.noise_power])

        def cov(eta):
            sc = SourceScene((np.rad2deg(eta[0]),), (eta[1],), eta[2])
            return analytic_covariance(geom, sc)

        r_inv = np.linalg.inv(cov(eta0))
        h = 1e-6
        derivs = []
        for a in range(3):
            ep, em = eta0.copy(), eta0.copy()
            ep[a] += h
            em[a] -= h
            derivs.append((cov(ep) - cov(em)) / (2 * h))
        fim = np.array([
            [np.real(np.trace(r_inv @ da @ r_inv @ db)) for db in derivs]
            for da in derivs
        ]) * n
        oracle = np.linalg.inv(fim)[0, 0] * (180 / np.pi) ** 2
        assert abs(got - oracle) / oracle < 0.01

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

    def test_failed_sensors_raise_bound(self):
        geom = mra_lookup(5)
        scene = scene_from_snr((18.0, 47.0), 0.0)
        full = np.diag(crb(geom, scene, 200))
        damaged = np.diag(crb(geom.with_failures({3}), scene, 200))
        assert np.all(damaged > full)
