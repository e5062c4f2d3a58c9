"""Sparse linear array geometry and difference-coarray analysis.

Sensor positions are non-negative integers in units of the fundamental
spacing d0 (fixed at half a wavelength throughout the package). Sensor
indices are 1-based everywhere in the public API, so a failure set like
``{1, 5}`` means "the first and the fifth sensor", matching the usual
array-processing convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "DifferenceCoarray",
    "difference_coarray",
    "is_hole_free",
    "essential_sensors",
    "mra_lookup",
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
        pos = tuple(_integer(p, "sensor position") for p in self.positions)
        if len(pos) == 0:
            raise ValueError("geometry needs at least one sensor")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError(f"positions must be strictly increasing, got {pos}")
        if pos[0] != 0:
            pos = tuple(p - pos[0] for p in pos)
        object.__setattr__(self, "positions", pos)
        failed = frozenset(_integer(i, "failed sensor index") for i in self.failed)
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


def _integer(value, what: str) -> int:
    """``value`` as an int: a bool, or a float even when whole, is no position or index."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


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
    lags, counts = np.unique(_pair_table(geom)[1], return_counts=True)
    weights = dict(zip(lags.tolist(), counts.tolist()))
    m_v = 0
    while m_v in weights:
        m_v += 1
    return DifferenceCoarray(lags=tuple(weights), weights=weights, m_v=m_v)


@functools.cache  # one entry per array and failure set: a few dozen at paper shape
def _pair_table(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Flat index i*M + j and lag d_i - d_j of each active ordered sensor pair
    (i, j), in row-major order; read-only, as every caller shares them."""
    active = np.asarray(geom.active_indices) - 1
    pos = np.asarray(geom.positions)[active]
    flat = (active[:, None] * geom.size + active).ravel()
    lags = (pos[:, None] - pos).ravel()
    flat.flags.writeable = lags.flags.writeable = False
    return flat, lags


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
# tabulated {0,1,4,7,9}; mirrored layouts have identical coarrays. Every
# row has m_v = aperture + 1; the 10-sensor one gives m_v = 36.
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


def mra_lookup(m: int) -> ArrayGeometry:
    """Tabulated restricted MRA with ``m`` sensors."""
    if m not in _MRA_TABLE:
        raise ValueError(f"no tabulated MRA for M={m} (table covers 1..{max(_MRA_TABLE)})")
    return ArrayGeometry(_MRA_TABLE[m])
