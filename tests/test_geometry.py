import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedoa.geometry import (
    ArrayGeometry,
    difference_coarray,
    essential_sensors,
    is_hole_free,
    mra_lookup,
)

from oracles import mra_search


def brute_lags(positions):
    """Independent lag-set oracle: raw set comprehension over pairs."""
    return {a - b for a in positions for b in positions}


def loop_coarray(geom):
    """(lags, weights, m_v) by a walk over the active ordered pairs, the form
    the cached pair table replaced; kept as its oracle."""
    weights = {}
    for a in geom.active_positions:
        for b in geom.active_positions:
            weights[a - b] = weights.get(a - b, 0) + 1
    m_v = 0
    while m_v in weights:
        m_v += 1
    return tuple(sorted(weights)), weights, m_v


class TestArrayGeometry:
    def test_normalizes_to_zero(self):
        geom = ArrayGeometry((2, 3, 6))
        assert geom.positions == (0, 1, 4)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ArrayGeometry((0, 4, 4))

    def test_failed_bounds(self):
        with pytest.raises(ValueError):
            ArrayGeometry((0, 1, 3), frozenset({4}))

    def test_all_failed_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry((0, 1), frozenset({1, 2}))

    @pytest.mark.parametrize("build, match", [
        # int() truncated each: positions (0, 1, 3, 7, 9), and sensor 1 failed
        (lambda: ArrayGeometry((0, 1.5, 3.2, 7, 9.9)), "sensor position 1.5 is not an integer"),
        (lambda: ArrayGeometry((0, 1.0, 3)), "sensor position 1.0 is not an integer"),
        (lambda: ArrayGeometry((0, True, 3)), "sensor position True is not an integer"),
        (lambda: ArrayGeometry((0, 1, 3)).with_failures([1.9]),
         "failed sensor index 1.9 is not an integer"),
        (lambda: ArrayGeometry((0, 1, 3)).with_failures([np.True_]),
         "failed sensor index np.True_ is not an integer"),
    ])
    def test_non_integral_entry_rejected(self, build, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            build()

    def test_numpy_integers_accepted(self):
        # draw_failures passes the arrays rng.choice returns
        geom = ArrayGeometry(np.array([0, 1, 3], dtype=np.int32)).with_failures(np.array([2]))
        assert geom == ArrayGeometry((0, 1, 3), frozenset({2}))
        assert all(type(v) is int for v in geom.positions + tuple(geom.failed))

    def test_active_positions(self):
        geom = ArrayGeometry((0, 1, 4, 6), frozenset({1}))
        assert geom.active_indices == (2, 3, 4)
        assert geom.active_positions == (1, 4, 6)


class TestDifferenceCoarray:
    def test_mra4_hole_free(self):
        co = difference_coarray(ArrayGeometry((0, 1, 4, 6)))
        assert co.lags == tuple(range(-6, 7))
        assert co.m_v == 7
        assert is_hole_free(co, 6)

    def test_failed_sensor_creates_holes(self):
        geom = ArrayGeometry((0, 1, 4, 6), frozenset({1}))
        co = difference_coarray(geom)
        for lag in (1, 4, 6):
            assert lag not in co.weights and -lag not in co.weights
        assert not is_hole_free(co, 6)

    def test_single_sensor(self):
        co = difference_coarray(ArrayGeometry((0,)))
        assert co.lags == (0,)
        assert co.weights[0] == 1
        assert co.m_v == 1
        assert is_hole_free(co, 0)

    def test_weight_zero_counts_active(self):
        geom = ArrayGeometry((0, 1, 4, 6), frozenset({2}))
        co = difference_coarray(geom)
        assert co.weights[0] == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_identities(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        positions = np.sort(rng.choice(40, size=m, replace=False))
        n_failed = int(rng.integers(0, m))
        failed = frozenset(
            int(i) for i in rng.choice(np.arange(1, m + 1), size=n_failed, replace=False)
        )
        geom = ArrayGeometry(tuple(int(p) for p in positions), failed)
        co = difference_coarray(geom)
        active = len(geom.active_indices)
        assert sum(co.weights.values()) == active**2
        assert co.weights[0] == active
        for lag, w in co.weights.items():
            assert co.weights[-lag] == w


    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(3, 10), data=st.data())
    def test_matches_loop_oracle(self, m, data):
        geom = mra_lookup(m).with_failures(
            data.draw(st.frozensets(st.integers(1, m), max_size=2)))
        co = difference_coarray(geom)
        assert (co.lags, co.weights, co.m_v) == loop_coarray(geom)
        # plain ints, as the CLI's JSON output needs
        assert all(type(v) is int for item in co.weights.items() for v in item)


class TestEssentialSensors:
    def test_mra4_all_essential(self):
        assert essential_sensors(ArrayGeometry((0, 1, 4, 6))) == frozenset({1, 2, 3, 4})

    def test_ula4_endpoints_only(self):
        assert essential_sensors(ArrayGeometry((0, 1, 2, 3))) == frozenset({1, 4})

    def test_ula3_all_essential(self):
        # deleting the middle of {0,1,2} drops lag 1, so all three matter
        assert essential_sensors(ArrayGeometry((0, 1, 2))) == frozenset({1, 2, 3})

    def test_single_sensor(self):
        assert essential_sensors(ArrayGeometry((0,))) == frozenset({1})

    @pytest.mark.parametrize("m", range(4, 9))
    def test_ula_endpoints(self, m):
        assert essential_sensors(ArrayGeometry(tuple(range(m)))) == frozenset({1, m})

    def test_requires_intact_array(self):
        with pytest.raises(ValueError):
            essential_sensors(ArrayGeometry((0, 1, 3), frozenset({1})))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_delete_one_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(2, 9))
        positions = tuple(int(p) for p in np.sort(rng.choice(30, size=m, replace=False)))
        geom = ArrayGeometry(positions)
        full = brute_lags(geom.positions)
        oracle = {
            i + 1
            for i in range(m)
            if brute_lags(geom.positions[:i] + geom.positions[i + 1 :]) != full
        }
        assert essential_sensors(geom) == frozenset(oracle)


class TestMraTable:
    def test_paper_entries(self):
        assert mra_lookup(4).positions == (0, 1, 4, 6)
        assert mra_lookup(5).positions == (0, 2, 5, 8, 9)

    def test_mra3(self):
        assert mra_lookup(3).positions == (0, 1, 3)

    def test_ten_sensor_virtual_array(self):
        geom = mra_lookup(10)
        co = difference_coarray(geom)
        assert co.m_v == 36
        assert co.virtual_size == 71
        assert is_hole_free(co, geom.aperture)

    def test_out_of_table(self):
        with pytest.raises(ValueError, match="no tabulated MRA"):
            mra_lookup(99)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_tabulated_hole_free(self, m):
        geom = mra_lookup(m)
        co = difference_coarray(geom)
        assert is_hole_free(co, geom.aperture)
        assert co.m_v == geom.aperture + 1

    def test_all_mra_sensors_essential(self):
        for m in (4, 5):
            geom = mra_lookup(m)
            assert essential_sensors(geom) == frozenset(range(1, m + 1))


class TestMraSearch:
    def test_two_sensors(self):
        assert mra_search(2, 3).positions == (0, 1)

    def test_four_sensors(self):
        geom = mra_search(4, 6)
        assert geom.positions == (0, 1, 4, 6)
        assert geom.aperture == 6

    def test_five_sensor_aperture(self):
        assert mra_search(5, 10).aperture == 9

    def test_infeasible_aperture(self):
        with pytest.raises(ValueError):
            mra_search(4, 2)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_lookup_matches_search_aperture(self, m):
        lookup = mra_lookup(m)
        found = mra_search(m, lookup.aperture + 2)
        assert found.aperture == lookup.aperture
        co = difference_coarray(found)
        assert is_hole_free(co, found.aperture)
