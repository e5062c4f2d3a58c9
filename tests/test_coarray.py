import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedoa.coarray import (
    _lag_bins,
    _window_index,
    flatten_features,
    khatri_rao,
    redundancy_average,
    spatial_smoothing,
    unflatten_features,
    vectorize_covariance,
)
from sparsedoa.geometry import ArrayGeometry, _pair_table, difference_coarray, mra_lookup
from sparsedoa.neural import DATA_DRIVEN, HYBRID, repair_input
from sparsedoa.signals import (
    SourceScene,
    inject_failures,
    sample_covariance,
    scene_from_snr,
    steering_matrix,
)
from sparsedoa.spectral import hermitian_eig, music_spectrum, pick_peaks

from oracles import analytic_covariance


def loop_redundancy_average(r, geom):
    """Pair-by-pair running sums over the active sensors, the form the cached
    lag table replaced; kept as its oracle."""
    intact_lags = {a - b for a in geom.positions for b in geom.positions}
    m_v = 0
    while m_v in intact_lags:
        m_v += 1
    sums = np.zeros(2 * m_v - 1, dtype=np.complex128)
    counts = np.zeros(2 * m_v - 1, dtype=np.int64)
    active = [i - 1 for i in geom.active_indices]
    for i in active:
        for j in active:
            lag = geom.positions[i] - geom.positions[j]
            if abs(lag) < m_v:
                sums[lag + m_v - 1] += r[i, j]
                counts[lag + m_v - 1] += 1
    available = counts > 0
    z = np.zeros(2 * m_v - 1, dtype=np.complex128)
    z[available] = sums[available] / counts[available]
    return z


def window_view_smoothing(z):
    """Smoothing over a strided window view, the form the cached window index
    replaced; kept as its oracle."""
    m_v = (z.size + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(z, m_v)
    return (windows.T @ windows.conj()) / m_v


@st.composite
def failed_mra_and_hermitian(draw):
    """A tabulated MRA with M = 3..10 and 0-2 failed sensors, and a random
    Hermitian matrix of its size with entries of varied scale."""
    m = draw(st.integers(3, 10))
    geom = mra_lookup(m).with_failures(draw(st.frozensets(st.integers(1, m), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a *= 10.0 ** rng.uniform(-3, 3, size=(m, m))
    return geom, (a + a.conj().T) / 2


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
        a = steering_matrix(geom.positions, scene.angles_deg)
        rhs = khatri_rao(a.conj(), a) @ np.asarray(scene.powers) \
            + scene.noise_power * vectorize_covariance(np.eye(4))
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stacks_match_each_matrix(self):
        # the stacked CRB vectorizes and Khatri-Rao-multiplies (B, M, K) stacks
        rng = np.random.default_rng(3)
        a, b = (rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
                for _ in range(2))
        r = rng.standard_normal((3, 4, 4))
        stacked_kr, stacked_vec = khatri_rao(a, b), vectorize_covariance(r)
        assert stacked_kr.shape == (3, 16, 2) and stacked_vec.shape == (3, 16)
        for i in range(3):
            npt.assert_array_equal(stacked_kr[i], khatri_rao(a[i], b[i]))
            npt.assert_array_equal(stacked_vec[i], vectorize_covariance(r[i]))


class TestRedundancyAverage:
    def test_single_source_closed_form(self):
        geom = mra_lookup(4)
        theta, power = 27.0, 1.7
        r = analytic_covariance(geom, SourceScene((theta,), (power,), 0.0))
        z = redundancy_average(r, geom)
        lags = np.arange(-6, 7)
        expected = power * np.exp(1j * np.pi * lags * np.sin(np.deg2rad(theta)))
        npt.assert_allclose(z, expected, atol=1e-12)
        assert np.all(z != 0)

    def test_zero_lag_is_total_power(self):
        geom = mra_lookup(5)
        scene = SourceScene((10.0, 40.0), (1.0, 2.0), 0.25)
        z = redundancy_average(analytic_covariance(geom, scene), geom)
        npt.assert_allclose(z[z.size // 2], 3.25, atol=1e-12)  # lag 0

    def test_holes_from_failed_sensor(self):
        geom = ArrayGeometry((0, 1, 4, 6), frozenset({1}))
        r = inject_failures(
            analytic_covariance(geom.with_failures(()), scene_from_snr((20.0,), 10.0)), geom)
        z = redundancy_average(r, geom)
        assert z.shape == (13,)  # m_v = 7, fixed by the intact geometry
        for lag in (1, -1, 4, -4, 6, -6):
            assert z[lag + 6] == 0
        for lag in (0, 2, 3, 5):
            assert z[lag + 6] != 0

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 7), data=st.data())
    def test_exact_zeros_are_the_holes(self, m, data):
        geom = mra_lookup(m)
        failures = data.draw(st.frozensets(st.integers(1, m), min_size=1, max_size=2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
        z = redundancy_average(y @ y.conj().T, geom.with_failures(failures))
        m_v = difference_coarray(geom).m_v
        present = difference_coarray(geom.with_failures(failures)).weights
        assert z.shape == (2 * m_v - 1,)
        for lag in range(1 - m_v, m_v):
            assert (z[lag + m_v - 1] == 0) == (lag not in present)

    @pytest.mark.parametrize("seed", range(10))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        geom = mra_lookup(5)
        y = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
        z = redundancy_average(y @ y.conj().T / 40, geom)
        m_v = (z.size + 1) // 2
        for lag in range(m_v):
            a, b = z[m_v - 1 + lag], z[m_v - 1 - lag]
            assert abs(b - np.conj(a)) <= 1e-10 * max(abs(a), 1e-30)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            redundancy_average(np.eye(3), mra_lookup(4))
        with pytest.raises(ValueError, match=r"shape \(4, 5\)"):
            redundancy_average(np.zeros((4, 5)), mra_lookup(4))

    @settings(max_examples=200, deadline=None)
    @given(case=failed_mra_and_hermitian())
    def test_matches_loop_oracle_bit_for_bit(self, case):
        # np.add.at adds each bin's entries in pair order, as the loop's running sum did,
        # on a single matrix and on every matrix of a stack
        geom, r = case
        assert redundancy_average(r, geom).tobytes() == loop_redundancy_average(r, geom).tobytes()
        stack = np.stack([r, r.T, 1e3 * r, np.zeros_like(r)]).reshape(2, 2, *r.shape)
        got = redundancy_average(stack, geom)
        assert got.shape == (2, 2, _lag_bins(geom)[2].size)
        for row, one in zip(got.reshape(4, -1), stack.reshape(4, *r.shape)):
            assert row.tobytes() == loop_redundancy_average(one, geom).tobytes()

    def test_cached_tables_are_read_only(self):
        geom = mra_lookup(5).with_failures({1, 3})
        for table in (*_pair_table(geom), *_lag_bins(geom), _window_index(10)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1


class TestSpatialSmoothing:
    def test_trivial_single_lag(self):
        npt.assert_allclose(spatial_smoothing(np.array([2.0 - 1j])), [[5.0]])

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
        r_ss = spatial_smoothing(z)
        assert r_ss.shape == (m_v, m_v)
        dev = np.linalg.norm(r_ss - r_ss.conj().T)
        assert dev <= 1e-10 * np.linalg.norm(r_ss)
        w = np.linalg.eigvalsh(r_ss)
        assert w.min() >= -1e-10 * np.trace(r_ss).real

    @staticmethod
    def _toeplitz(z):
        """T[a, c] = z[m_v - 1 + a - c], the Toeplitz matrix of the lag vector."""
        m_v = (z.size + 1) // 2
        return z[m_v - 1 + np.arange(m_v)[:, None] - np.arange(m_v)[None, :]]

    @staticmethod
    def _close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(m_v=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_smoothing_is_toeplitz_gram(self, m_v, seed):
        # R_ss = T T^H / m_v for any lag vector, conjugate-symmetric or not
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(2 * m_v - 1) + 1j * rng.standard_normal(2 * m_v - 1)
        t = self._toeplitz(z)
        assert self._close(spatial_smoothing(z), t @ t.conj().T / m_v)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 7), data=st.data())
    def test_smoothing_of_averaged_lags_is_toeplitz_square(self, m, data):
        # Liu & Vaidyanathan (IEEE SPL 2015): the averaged lags of a Hermitian
        # covariance give a Hermitian T, so R_ss = T^2 / m_v, holes included
        geom = mra_lookup(m).with_failures(
            data.draw(st.frozensets(st.integers(1, m), max_size=2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
        z = redundancy_average(y @ y.conj().T / (2 * m), geom)
        t = self._toeplitz(z)
        assert self._close(t.conj().T, t)
        assert self._close(spatial_smoothing(z), t @ t / t.shape[0])

    @settings(max_examples=200, deadline=None)
    @given(case=failed_mra_and_hermitian())
    def test_matches_window_view_oracle_bit_for_bit(self, case):
        geom, r = case
        z = redundancy_average(r, geom)
        assert spatial_smoothing(z).tobytes() == window_view_smoothing(z).tobytes()
        stack = np.stack([z, z.conj(), 1e-3 * z]).reshape(3, 1, z.size)
        got = spatial_smoothing(stack)
        assert got.shape == (3, 1, (z.size + 1) // 2, (z.size + 1) // 2)
        for row, one in zip(got[:, 0], stack[:, 0]):
            assert row.tobytes() == window_view_smoothing(one).tobytes()

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            spatial_smoothing(np.zeros(4, dtype=np.complex128))

    def test_matrix_input_smoothed_row_by_row(self):
        # a 2-D input is a stack of coarray signals, one per row
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        got = spatial_smoothing(z)
        assert got.shape == (4, 4, 4)
        for row, one in zip(got, z):
            assert row.tobytes() == spatial_smoothing(one).tobytes()
        with pytest.raises(ValueError):
            spatial_smoothing(np.zeros((3, 4), dtype=np.complex128))

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
        peaks = pick_peaks(music_spectrum(r_ss[None], 3, grid_step=0.05)[0], 3)
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
        out = unflatten_features(flatten_features(r))
        npt.assert_array_equal(out, r)

    def test_projection_makes_hermitian(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(2 * 9)
        out = unflatten_features(v)
        assert out.shape == (3, 3)
        npt.assert_array_equal(out, out.conj().T)

    def test_length_mismatch(self):
        for n in (1, 7, 10, 17, 19, 31):  # none is 2*d^2
            with pytest.raises(ValueError):
                unflatten_features(np.zeros(n))

    def test_khatri_rao_column_count_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


STACK_GEOMETRIES = {
    "desk": mra_lookup(5),
    "desk-failed": mra_lookup(5).with_failures({1, 3}),
    "paper": mra_lookup(10),
    "paper-failed": mra_lookup(10).with_failures({1, 5}),
}


class TestStacksEqualItems:
    """Every per-trial covariance layer broadcasts over leading axes: each row of a
    stacked call holds the bytes of the single call on that row."""

    @staticmethod
    def _rows_match(layer, stack, *args):
        got = layer(stack, *args)
        lead = stack.shape[:2]
        for index in np.ndindex(lead):
            assert got[index].tobytes() == layer(stack[index], *args).tobytes(), index
        return got

    @pytest.mark.parametrize("name", STACK_GEOMETRIES)
    def test_rows_equal_single_calls(self, name):
        geom = STACK_GEOMETRIES[name]
        if geom.failed:  # the failed arrays leave holes in the coarray
            assert (_lag_bins(geom)[2] == 0).any()
        rng = np.random.default_rng(len(name))
        y = rng.standard_normal((2, 3, geom.size, 20)) + 1j * rng.standard_normal(
            (2, 3, geom.size, 20))
        r = self._rows_match(sample_covariance, y)
        assert r.shape == (2, 3, geom.size, geom.size)
        self._rows_match(inject_failures, r, geom)
        z = self._rows_match(redundancy_average, r, geom)
        r_ss = self._rows_match(spatial_smoothing, z)
        for matrices in (r, r_ss):
            features = self._rows_match(flatten_features, matrices)
            assert self._rows_match(unflatten_features, features).shape == matrices.shape
        for variant in (HYBRID, DATA_DRIVEN):
            self._rows_match(lambda x, g: repair_input(variant, x, g), r, geom)
