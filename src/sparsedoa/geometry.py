"""Sparse linear array geometry and difference-coarray analysis.

Sensor positions are non-negative integers in units of the fundamental
spacing d0 (fixed at half a wavelength throughout the package). Sensor
indices are 1-based everywhere in the public API, so a failure set like
``{1, 5}`` means "the first and the fifth sensor", matching the usual
array-processing convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "ArrayGeometry",
    "DifferenceCoarray",
    "difference_coarray",
    "is_hole_free",
    "essential_sensors",
    "mra_lookup",
    "mra_search",
    "MRA_TABLE_LIMIT",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Integer sensor positions plus an optional set of failed sensors.

    Positions are normalized so the first sensor sits at 0; they must be
    strictly increasing. ``failed`` holds 1-based sensor indices and must
    leave at least one sensor alive.
    """

    positions: tuple[int, ...]
    failed: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        if len(pos) == 0:
            raise ValueError("geometry needs at least one sensor")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError(f"positions must be strictly increasing, got {pos}")
        if pos[0] != 0:
            pos = tuple(p - pos[0] for p in pos)
        object.__setattr__(self, "positions", pos)
        failed = frozenset(int(i) for i in self.failed)
        if not failed <= set(range(1, len(pos) + 1)):
            raise ValueError(f"failed indices {sorted(failed)} outside 1..{len(pos)}")
        if len(failed) >= len(pos):
            raise ValueError("at least one sensor must remain active")
        object.__setattr__(self, "failed", failed)

    @property
    def size(self) -> int:
        """Number of sensors, failed ones included."""
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1]

    @property
    def active_indices(self) -> tuple[int, ...]:
        """1-based indices of the sensors that are still alive."""
        return tuple(i for i in range(1, self.size + 1) if i not in self.failed)

    @property
    def active_positions(self) -> tuple[int, ...]:
        return tuple(self.positions[i - 1] for i in self.active_indices)

    def with_failures(self, failed) -> "ArrayGeometry":
        """Same positions with a replaced failure set."""
        return ArrayGeometry(self.positions, frozenset(failed))


@dataclass(frozen=True)
class DifferenceCoarray:
    """Lag set of all pairwise position differences among active sensors.

    ``weights`` counts the ordered sensor pairs generating each lag.
    ``m_v`` is the length of the maximal contiguous run {0, 1, ..., m_v - 1}
    contained in the lag set; the virtual ULA usable by spatial smoothing
    spans lags -(m_v - 1) .. m_v - 1.
    """

    lags: tuple[int, ...]
    weights: dict[int, int]
    m_v: int

    @property
    def virtual_size(self) -> int:
        """Number of contiguous virtual elements, 2 m_v - 1."""
        return 2 * self.m_v - 1


def difference_coarray(geom: ArrayGeometry) -> DifferenceCoarray:
    """Enumerates the difference coarray of the active sensors.

    All ordered pairs (m, n) of non-failed sensors contribute the lag
    d_m - d_n, so the lag set is symmetric about zero and lag 0 carries
    one count per active sensor.
    """
    active = geom.active_positions
    weights: dict[int, int] = {}
    for pm in active:
        for pn in active:
            lag = pm - pn
            weights[lag] = weights.get(lag, 0) + 1
    lags = tuple(sorted(weights))
    m_v = 0
    while m_v in weights:
        m_v += 1
    return DifferenceCoarray(lags=lags, weights=weights, m_v=m_v)


def is_hole_free(co: DifferenceCoarray, aperture: int) -> bool:
    """True iff every lag in [-aperture, aperture] is present."""
    return all(lag in co.weights for lag in range(-aperture, aperture + 1))


def essential_sensors(geom: ArrayGeometry) -> frozenset[int]:
    """Sensors (1-based) whose removal changes the coarray lag set.

    Requires a failure-free geometry: essentialness is a property of the
    intact array.
    """
    if geom.failed:
        raise ValueError("essentialness is defined on the failure-free array")
    if geom.size == 1:
        return frozenset({1})  # its removal leaves no lag at all
    full = difference_coarray(geom).weights.keys()
    return frozenset(i for i in range(1, geom.size + 1)
                     if difference_coarray(geom.with_failures({i})).weights.keys() != full)


# Restricted (hole-free) minimum-redundancy arrays from the classic
# Moffet/Ishiguro tables. The 5-sensor row is the mirror image of the
# tabulated {0,1,4,7,9}; mirrored layouts have identical coarrays.
_MRA_TABLE = {
    1: (0,),
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 2, 5, 8, 9),
    6: (0, 1, 6, 9, 11, 13),
    7: (0, 1, 8, 11, 13, 15, 17),
    8: (0, 1, 4, 10, 16, 18, 21, 23),
    9: (0, 1, 4, 10, 16, 22, 24, 27, 29),
    10: (0, 1, 4, 10, 16, 22, 28, 30, 33, 35),
    11: (0, 1, 6, 14, 22, 30, 32, 34, 37, 39, 41),
    12: (0, 1, 6, 14, 22, 30, 38, 40, 42, 45, 47, 49),
}

MRA_TABLE_LIMIT = max(_MRA_TABLE)

# The 10-sensor layout must produce a 36-element one-sided virtual ULA
# (71 contiguous lags); tables listing aperture 36 for 10 sensors would
# violate that and are rejected here.
_EXPECTED_M_V = {10: 36}


def _verify_mra_table() -> None:
    for m, positions in _MRA_TABLE.items():
        geom = ArrayGeometry(positions)
        co = difference_coarray(geom)
        if not is_hole_free(co, geom.aperture):
            raise AssertionError(f"MRA table entry M={m} is not hole-free: {positions}")
        if co.m_v != geom.aperture + 1:
            raise AssertionError(
                f"MRA table entry M={m}: m_v={co.m_v} != aperture+1={geom.aperture + 1}"
            )
        expected = _EXPECTED_M_V.get(m)
        if expected is not None and co.m_v != expected:
            raise AssertionError(
                f"MRA table entry M={m}: m_v={co.m_v}, expected {expected}"
            )


_verify_mra_table()


def mra_lookup(m: int) -> ArrayGeometry:
    """Tabulated restricted MRA with ``m`` sensors (verified hole-free)."""
    if m not in _MRA_TABLE:
        raise ValueError(f"no tabulated MRA for M={m} (table covers 1..{MRA_TABLE_LIMIT})")
    return ArrayGeometry(_MRA_TABLE[m])


def mra_search(m: int, max_aperture: int) -> ArrayGeometry:
    """Brute-force restricted-MRA search.

    Returns the sensor layout with the largest aperture not exceeding
    ``max_aperture`` whose difference coarray is hole-free over that
    aperture; ties break to the lexicographically smallest position
    vector. Exponential in ``m``; intended for m <= 7.
    """
    if m < 1:
        raise ValueError("need at least one sensor")
    if m == 1:
        return ArrayGeometry((0,))
    if max_aperture < m - 1:
        raise ValueError(
            f"no hole-free configuration with {m} sensors fits aperture {max_aperture}"
        )
    upper = min(max_aperture, m * (m - 1) // 2)
    for aperture in range(upper, m - 2, -1):
        for inner in itertools.combinations(range(1, aperture), m - 2):
            positions = (0,) + inner + (aperture,)
            if _covers_all_lags(positions, aperture):
                return ArrayGeometry(positions)
    raise ValueError(f"no hole-free configuration found for M={m}")  # pragma: no cover


def _covers_all_lags(positions, aperture: int) -> bool:
    seen = 0
    for i, a in enumerate(positions):
        for b in positions[i + 1 :]:
            seen |= 1 << (b - a)
    return seen == ((1 << (aperture + 1)) - 2)
