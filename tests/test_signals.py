import zlib

import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa.geometry import ArrayGeometry, mra_lookup
from sparsedoa.signals import (
    SourceScene,
    draw_angles,
    inject_failures,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    steering_matrix,
    stream_rng,
    stream_seed,
)

from oracles import analytic_covariance, item_draws, per_item_snapshots


class TestSourceScene:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceScene((10.0, 10.0), (1.0, 1.0), 0.1)
        with pytest.raises(ValueError):
            SourceScene((95.0,), (1.0,), 0.1)
        with pytest.raises(ValueError):
            SourceScene((10.0,), (-1.0,), 0.1)

    @pytest.mark.parametrize("powers, noise_power", [
        ((np.nan,), 1.0), ((np.inf,), 1.0), ((1.0,), np.nan), ((1.0,), np.inf), ((1.0,), -1.0),
    ])
    def test_non_finite_or_negative_power_rejected(self, powers, noise_power):
        # a NaN scene built and simulated NaN snapshots with no error
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            SourceScene((10.0,), powers, noise_power)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_snr_without_a_finite_noise_power_rejected(self, snr_db):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            scene_from_snr((10.0,), snr_db)

    def test_snr_convention(self):
        scene = scene_from_snr((0.0,), 10.0)
        assert scene.powers == (1.0,)
        npt.assert_allclose(scene.noise_power, 0.1)
        npt.assert_allclose(scene_from_snr((0.0,), -10.0).noise_power, 10.0)


class TestDrawAngles:
    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_and_gaps(self, seed):
        rng = np.random.default_rng(seed)
        angles = draw_angles(9, 10.0, 70.0, 5.0, rng)
        assert angles[0] >= 10.0 and angles[-1] <= 70.0
        assert np.all(np.diff(angles) >= 5.0 - 1e-12)

    def test_infeasible(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_angles(14, 10.0, 70.0, 5.0, rng)


class TestSteeringMatrix:
    def test_broadside_is_ones(self):
        a = steering_matrix(mra_lookup(5).positions, [0.0])
        npt.assert_allclose(a, np.ones((5, 1)))

    def test_endfire_two_sensors(self):
        a = steering_matrix((0, 1), [90.0 - 1e-9])
        npt.assert_allclose(a[:, 0], [1.0, -1.0], atol=1e-7)

    def test_mra4_at_30_degrees(self):
        a = steering_matrix((0, 1, 4, 6), [30.0])
        expected = np.exp(1j * np.pi * 0.5 * np.array([0, 1, 4, 6]))
        npt.assert_allclose(a[:, 0], expected, atol=1e-12)

    def test_unit_modulus(self):
        a = steering_matrix(mra_lookup(5).positions, [-70.0, 3.0, 55.5])
        npt.assert_allclose(np.abs(a), 1.0)

    def test_stack_of_angle_sets(self):
        # the stacked CRB steers a block's scenes at once
        angles = np.array([[-70.0, 3.0], [10.0, 55.5], [0.0, 89.0]])
        a = steering_matrix(mra_lookup(5).positions, angles)
        assert a.shape == (3, 5, 2)
        for i in range(3):
            npt.assert_array_equal(a[i], steering_matrix(mra_lookup(5).positions, angles[i]))


class TestSimulateSnapshots:
    def test_shape(self):
        geom = mra_lookup(4)
        scene = scene_from_snr((10.0, 30.0), 0.0)
        draws = item_draws(np.random.default_rng(0), geom, scene, 17)
        y = simulate_snapshots(geom, [scene], draws)[0]
        assert y.shape == (4, 17)

    def test_noiseless_single_source_rank_one(self):
        geom = mra_lookup(4)
        scene = SourceScene((25.0,), (1.0,), 0.0)
        draws = item_draws(np.random.default_rng(1), geom, scene, 50)
        y = simulate_snapshots(geom, [scene], draws)[0]
        a = steering_matrix(geom.positions, [25.0])[:, 0]
        # every column must lie on span(a)
        coeffs = a.conj() @ y / (a.conj() @ a)
        npt.assert_allclose(y, np.outer(a, coeffs), atol=1e-12)

    def test_deterministic_given_seed(self):
        geom = mra_lookup(4)
        scene = scene_from_snr((10.0, 40.0), 0.0)
        y1 = simulate_snapshots(geom, [scene], item_draws(stream_rng(7, "a"), geom, scene, 32))[0]
        y2 = simulate_snapshots(geom, [scene], item_draws(stream_rng(7, "a"), geom, scene, 32))[0]
        npt.assert_array_equal(y1, y2)

    def test_large_n_matches_analytic(self):
        geom = mra_lookup(4)
        scene = scene_from_snr((20.0,), 0.0)
        y = simulate_snapshots(geom, [scene],
                               item_draws(np.random.default_rng(3), geom, scene, 100_000))[0]
        r = sample_covariance(y)
        r_bar = analytic_covariance(geom, scene)
        rel = np.linalg.norm(r - r_bar) / np.linalg.norm(r_bar)
        assert rel < 0.02


class TestSnapshotMix:
    """The block mix against ``per_item_snapshots``, the per-item form it replaced: each
    row of a block is that item's four draws, mixed with its own scene."""

    @staticmethod
    def _block(geom, scenes, n, seed):
        draws = np.empty((len(scenes), 2 * (scenes[0].k + geom.size), n))
        for j, out in enumerate(draws):
            stream_rng(seed, "mix", j).standard_normal(out.shape, out=out)
        return simulate_snapshots(geom, scenes, draws)

    @pytest.mark.parametrize("m, n", [(4, 1), (5, 37), (10, 200)])
    def test_unequal_powers_match_per_item(self, m, n):
        geom, rng = mra_lookup(m), np.random.default_rng(m)
        scenes = [SourceScene(tuple(np.sort(rng.uniform(-80, 80, 3))),
                              tuple(rng.uniform(0.05, 4.0, 3)), float(rng.uniform(0.0, 2.0)))
                  for _ in range(7)]
        y = self._block(geom, scenes, n, seed=m)
        assert y.shape == (7, m, n)
        for j, scene in enumerate(scenes):
            expected = per_item_snapshots(geom, scene, n, stream_rng(m, "mix", j))
            assert y[j].tobytes() == expected.tobytes()

    def test_noise_only_scenes(self):
        geom = mra_lookup(5)
        scenes = [SourceScene((), (), 0.3), SourceScene((), (), 1.7)]
        y = self._block(geom, scenes, 16, seed=2)
        for j, scene in enumerate(scenes):
            expected = per_item_snapshots(geom, scene, 16, stream_rng(2, "mix", j))
            assert y[j].tobytes() == expected.tobytes()

    def test_block_of_one(self):
        geom, scene = mra_lookup(4), SourceScene((-12.0, 40.0), (2.0, 0.5), 0.8)
        y = self._block(geom, [scene], 9, seed=5)
        assert y.shape == (1, 4, 9)
        assert y[0].tobytes() == per_item_snapshots(geom, scene, 9,
                                                    stream_rng(5, "mix", 0)).tobytes()

    @pytest.mark.parametrize("shape", [(2, 12, 8), (1, 14, 8), (1, 12, 0), (12, 8)])
    def test_draws_that_do_not_fit_rejected(self, shape):
        # one scene of K=2 on 4 sensors needs a (1, 12, N) block with N >= 1
        with pytest.raises(ValueError, match="do not fit 1 scenes of 2 sources on 4 sensors"):
            simulate_snapshots(mra_lookup(4), [scene_from_snr((10.0, 30.0), 0.0)],
                               np.zeros(shape))


class TestSampleCovariance:
    def test_single_snapshot(self):
        y = np.array([[1.0 + 1j], [2.0 - 1j]])
        npt.assert_allclose(sample_covariance(y), y @ y.conj().T)

    def test_zero_input(self):
        npt.assert_array_equal(sample_covariance(np.zeros((3, 5))), 0)

    def test_scaled_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        y = np.sqrt(6) * q
        npt.assert_allclose(sample_covariance(y), np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        r = sample_covariance(y)
        assert np.linalg.norm(r - r.conj().T) <= 1e-10 * np.linalg.norm(r)
        w = np.linalg.eigvalsh(r)
        assert w.min() >= -1e-10 * max(np.trace(r).real, 1.0)

    def test_estimator_consistency(self):
        # median Frobenius error over seeds must drop as N quadruples
        geom = mra_lookup(4)
        scene = scene_from_snr((15.0, 42.0), 0.0)
        r_bar = analytic_covariance(geom, scene)
        medians = []
        for n in (100, 400, 1600):
            errs = [
                np.linalg.norm(
                    sample_covariance(
                        simulate_snapshots(geom, [scene],
                                           item_draws(stream_rng(s, "c", n), geom, scene, n))[0]
                    )
                    - r_bar
                )
                for s in range(50)
            ]
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


def ula(m, failed=()):
    return ArrayGeometry(tuple(range(m)), frozenset(failed))


class TestInjectFailures:
    def _dense_cov(self, m):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((m, 3 * m)) + 1j * rng.standard_normal((m, 3 * m))
        return sample_covariance(y)

    @pytest.mark.parametrize("m,failed", [(10, {1, 5}), (4, {2}), (6, {1, 3, 6})])
    def test_zero_count_formula(self, m, failed):
        r = self._dense_cov(m)
        assert np.count_nonzero(r == 0) == 0
        out = inject_failures(r, ula(m, failed))
        m1 = len(failed)
        assert np.count_nonzero(out == 0) == 2 * m * m1 - m1**2

    def test_no_failures_is_identity(self):
        r = self._dense_cov(4)
        out = inject_failures(r, ula(4))
        npt.assert_array_equal(out, r)
        assert not np.shares_memory(out, r)

    def test_untouched_entries(self):
        r = self._dense_cov(5)
        out = inject_failures(r, ula(5, {2}))
        keep = [0, 2, 3, 4]
        npt.assert_array_equal(out[np.ix_(keep, keep)], r[np.ix_(keep, keep)])

    def test_idempotent_and_commutes(self):
        r = self._dense_cov(6)
        once = inject_failures(r, ula(6, {2, 5}))
        npt.assert_array_equal(inject_failures(once, ula(6, {2, 5})), once)
        ab = inject_failures(inject_failures(r, ula(6, {1})), ula(6, {4}))
        ba = inject_failures(inject_failures(r, ula(6, {4})), ula(6, {1}))
        npt.assert_array_equal(ab, ba)

    def test_out_of_range(self):
        # the failure set travels in the geometry, which rejects index 5 on M=4
        with pytest.raises(ValueError):
            inject_failures(self._dense_cov(4), ula(4, {5}))

    @pytest.mark.parametrize("m", [3, 5])
    def test_size_mismatch(self, m):
        # a 4x4 covariance is not the covariance of a 3- or 5-sensor array
        with pytest.raises(ValueError, match="does not match"):
            inject_failures(self._dense_cov(4), ula(m, {1}))

    def test_snapshot_domain_equivalence(self):
        geom = mra_lookup(5)
        scene = scene_from_snr((12.0, 33.0), 5.0)
        draws = item_draws(np.random.default_rng(9), geom, scene, 64)
        y = simulate_snapshots(geom, [scene], draws)[0]
        via_cov = inject_failures(sample_covariance(y), geom.with_failures({1, 4}))
        y_failed = y.copy()
        y_failed[[0, 3], :] = 0.0  # snapshot-domain oracle: sensors 1 and 4 read zero
        via_snap = sample_covariance(y_failed)
        npt.assert_allclose(via_snap, via_cov, atol=1e-14)


class TestAnalyticCovariance:
    def test_noise_only(self):
        scene = SourceScene((), (), 0.7)
        r = analytic_covariance(mra_lookup(4), scene)
        npt.assert_allclose(r, 0.7 * np.eye(4))

    def test_single_source_rank_one(self):
        geom = mra_lookup(5)
        r = analytic_covariance(geom, SourceScene((33.0,), (2.0,), 0.0))
        w = np.linalg.eigvalsh(r)
        npt.assert_allclose(w[-1], 10.0, atol=1e-10)  # trace = M * power
        npt.assert_allclose(w[:-1], 0.0, atol=1e-10)

    def test_two_source_eigenvalues(self):
        geom = mra_lookup(4)
        sigma = 0.3
        r = analytic_covariance(geom, SourceScene((-20.0, 35.0), (1.0, 1.0), sigma))
        w = np.linalg.eigvalsh(r)
        npt.assert_allclose(w[:2], sigma, atol=1e-10)
        assert np.all(w[2:] > sigma + 0.1)


class TestStreams:
    def test_deterministic(self):
        assert stream_seed(1, "x", 2.0, 3).entropy == stream_seed(1, "x", 2.0, 3).entropy
        npt.assert_array_equal(
            stream_rng(5, "scene", -4.0, 7).standard_normal(4),
            stream_rng(5, "scene", -4.0, 7).standard_normal(4),
        )

    def test_distinct_keys_distinct_streams(self):
        a = stream_rng(5, "scene", -4.0, 7).standard_normal(8)
        b = stream_rng(5, "scene", -4.0, 8).standard_normal(8)
        c = stream_rng(5, "noise", -4.0, 7).standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_encoding_is_pinned(self):
        # rejecting unrepresentable keys must not move any existing stream
        words = [20230, zlib.crc32(b"scene"), -4000 & 0xFFFFFFFF, 7, 0]
        assert stream_seed(20230, "scene", -4.0, 7).entropy == words
        assert stream_seed(2**64 - 1, 2**64 - 1).entropy == [2**64 - 1, 2**32 - 1, 2**32 - 1]

    # Each rejected key below shares its seed words with another key.
    @pytest.mark.parametrize("key", [-1, -(2**63), 2**64, 2**64 + 5])
    def test_rejects_int_key_outside_uint64(self, key):
        with pytest.raises(ValueError, match="int seed key"):
            stream_seed(1, "scene", 0.0, key)

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_rejects_master_seed_outside_uint64(self, master):
        with pytest.raises(ValueError, match="master seed"):
            stream_seed(master, "scene")

    @pytest.mark.parametrize("key", [0.0004, 1e-9, 10.0005, -3.2501])
    def test_rejects_float_key_finer_than_milli(self, key):
        with pytest.raises(ValueError, match="multiple of 1e-3"):
            stream_seed(1, "scene", key, 0)

    def test_accepts_float_key_off_by_rounding_or_at_the_limit(self):
        assert (stream_seed(1, "scene", 0.30000000000000004, 0).entropy
                == stream_seed(1, "scene", 0.3, 0).entropy)
        stream_seed(1, "scene", (2.0**31 - 1) / 1000, 0)

    @pytest.mark.parametrize("key", [2.0**31 / 1000, -(2.0**31) / 1000, 1e300,
                                     np.inf, -np.inf, np.nan])
    def test_rejects_float_key_beyond_one_word(self, key):
        with pytest.raises(ValueError, match="multiple of 1e-3"):
            stream_seed(1, "scene", key, 0)
