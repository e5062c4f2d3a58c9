import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa.coarray import (
    CoarraySignal,
    flatten_features,
    khatri_rao,
    redundancy_average,
    spatial_smoothing,
    unflatten_features,
    vectorize_covariance,
)
from sparsedoa.geometry import ArrayGeometry, mra_lookup
from sparsedoa.signals import (
    SourceScene,
    analytic_covariance,
    inject_failures,
    scene_from_snr,
    steering_matrix,
)
from sparsedoa.spectral import hermitian_eig, music_spectrum, pick_peaks


class TestVectorize:
    def test_column_stacking(self):
        npt.assert_array_equal(
            vectorize_covariance(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4]
        )

    def test_identity(self):
        npt.assert_array_equal(vectorize_covariance(np.eye(2)), [1, 0, 0, 1])

    def test_matches_khatri_rao_model(self):
        # vec(R) = (A* (.) A) rho + sigma^2 vec(I)
        geom = mra_lookup(4)
        scene = SourceScene((-15.0, 10.0, 44.0), (1.0, 2.0, 0.5), 0.3)
        lhs = vectorize_covariance(analytic_covariance(geom, scene))
        a = steering_matrix(geom, scene.angles_deg)
        rhs = khatri_rao(a.conj(), a) @ np.asarray(scene.powers) \
            + scene.noise_power * vectorize_covariance(np.eye(4))
        npt.assert_allclose(lhs, rhs, atol=1e-12)


class TestRedundancyAverage:
    def test_single_source_closed_form(self):
        geom = mra_lookup(4)
        theta, power = 27.0, 1.7
        r = analytic_covariance(geom, SourceScene((theta,), (power,), 0.0))
        signal = redundancy_average(r, geom)
        lags = np.arange(-6, 7)
        expected = power * np.exp(1j * np.pi * lags * np.sin(np.deg2rad(theta)))
        npt.assert_allclose(signal.z, expected, atol=1e-12)
        assert signal.available.all()

    def test_zero_lag_is_total_power(self):
        geom = mra_lookup(5)
        scene = SourceScene((10.0, 40.0), (1.0, 2.0), 0.25)
        signal = redundancy_average(analytic_covariance(geom, scene), geom)
        npt.assert_allclose(signal.z[signal.m_v - 1], 3.25, atol=1e-12)  # lag 0

    def test_holes_from_failed_sensor(self):
        geom = ArrayGeometry((0, 1, 4, 6), frozenset({1}))
        r = inject_failures(
            analytic_covariance(geom.with_failures(()), scene_from_snr((20.0,), 10.0)),
            {1},
        )
        signal = redundancy_average(r, geom)
        assert signal.m_v == 7  # fixed by the intact geometry
        assert not signal.available.all()
        for lag in (1, -1, 4, -4, 6, -6):
            idx = lag + signal.m_v - 1
            assert not signal.available[idx]
            assert signal.z[idx] == 0
        for lag in (0, 2, 3, 5):
            assert signal.available[lag + signal.m_v - 1]

    @pytest.mark.parametrize("seed", range(10))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        geom = mra_lookup(5)
        y = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        signal = redundancy_average(y @ y.conj().T / 40, geom)
        for lag in range(signal.m_v):
            a, b = signal.z[signal.m_v - 1 + lag], signal.z[signal.m_v - 1 - lag]
            assert abs(b - np.conj(a)) <= 1e-10 * max(abs(a), 1e-30)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            redundancy_average(np.eye(3), mra_lookup(4))


class TestSpatialSmoothing:
    def test_trivial_single_lag(self):
        signal = CoarraySignal(z=np.array([2.0 - 1j]), available=np.array([True]), m_v=1)
        npt.assert_allclose(spatial_smoothing(signal), [[5.0]])

    def test_single_source_rank_one_outer_product(self):
        geom = mra_lookup(5)
        theta, power = -18.0, 1.3
        r = analytic_covariance(geom, SourceScene((theta,), (power,), 0.0))
        r_ss = spatial_smoothing(redundancy_average(r, geom))
        m_v = 10
        a_v = np.exp(1j * np.pi * np.arange(m_v) * np.sin(np.deg2rad(theta)))
        npt.assert_allclose(r_ss, power**2 * np.outer(a_v, a_v.conj()), atol=1e-12)

    def test_rank_equals_source_count(self):
        geom = mra_lookup(5)
        for k in (1, 3, 6, 9):
            angles = tuple(np.linspace(-50, 50, k))
            r = analytic_covariance(geom, SourceScene(angles, (1.0,) * k, 0.0))
            r_ss = spatial_smoothing(redundancy_average(r, geom))
            w = np.linalg.eigvalsh(r_ss)
            assert np.sum(w > 1e-8 * w[-1]) == k

    @pytest.mark.parametrize("seed", range(10))
    def test_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        m_v = 6
        half = rng.standard_normal(m_v - 1) + 1j * rng.standard_normal(m_v - 1)
        z = np.concatenate([np.conj(half[::-1]), [rng.random() + 0j], half])
        signal = CoarraySignal(z=z, available=np.ones(2 * m_v - 1, bool), m_v=m_v)
        r_ss = spatial_smoothing(signal)
        dev = np.linalg.norm(r_ss - r_ss.conj().T)
        assert dev <= 1e-10 * np.linalg.norm(r_ss)
        w = np.linalg.eigvalsh(r_ss)
        assert w.min() >= -1e-10 * np.trace(r_ss).real

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            CoarraySignal(z=np.zeros(4), available=np.ones(4, bool), m_v=2)

    def test_ten_sensor_mra_gives_36(self):
        geom = mra_lookup(10)
        r = analytic_covariance(geom, scene_from_snr((0.0,), 0.0))
        r_ss = spatial_smoothing(redundancy_average(r, geom))
        assert r_ss.shape == (36, 36)

    def test_music_end_to_end_on_exact_smoothing(self):
        geom = mra_lookup(5)
        angles = (-30.0, 5.0, 41.5)
        r = analytic_covariance(geom, scene_from_snr(angles, 0.0))
        r_ss = spatial_smoothing(redundancy_average(r, geom))
        peaks = pick_peaks(music_spectrum(r_ss, 3, grid_step=0.05), 3)
        assert not peaks.resolution_failure
        npt.assert_allclose(peaks.angles_deg, angles, atol=0.05)


class TestFeaturePacking:
    def test_identity_example(self):
        npt.assert_array_equal(
            flatten_features(np.eye(2)), [1, 0, 0, 1, 0, 0, 0, 0]
        )

    def test_round_trip_on_hermitian(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = (z + z.conj().T) / 2
        out = unflatten_features(flatten_features(r), 4)
        npt.assert_array_equal(out, r)

    def test_projection_makes_hermitian(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(2 * 9)
        out = unflatten_features(v, 3)
        npt.assert_array_equal(out, out.conj().T)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_features(np.zeros(10), 3)

    def test_khatri_rao_column_count_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))
