"""Snapshot simulation and covariance estimation for narrow-band sources.

The snapshot model is y(t) = A(theta) x(t) + n(t) with x(t) and n(t)
i.i.d. circularly-symmetric complex Gaussian. With unit source powers and
noise power 10**(-snr_db/10), the per-source SNR equals ``snr_db`` by
construction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry

__all__ = [
    "SourceScene",
    "scene_from_snr",
    "draw_angles",
    "steering_matrix",
    "simulate_snapshots",
    "sample_covariance",
    "inject_failures",
    "analytic_covariance",
    "stream_seed",
    "stream_rng",
]

@dataclass(frozen=True)
class SourceScene:
    """Source angles (degrees), per-source powers, and noise power.

    Angles must be strictly increasing inside (-90, 90). An empty angle
    list describes a noise-only scene.
    """

    angles_deg: tuple[float, ...]
    powers: tuple[float, ...]
    noise_power: float

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        powers = tuple(float(p) for p in self.powers)
        if len(angles) != len(powers):
            raise ValueError("angles and powers must have equal length")
        if any(not -90.0 < a < 90.0 for a in angles):
            raise ValueError(f"angles must lie in (-90, 90), got {angles}")
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValueError("angles must be strictly increasing")
        if any(p < 0 for p in powers) or self.noise_power < 0:
            raise ValueError("powers must be non-negative")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "noise_power", float(self.noise_power))

    @property
    def k(self) -> int:
        return len(self.angles_deg)


def scene_from_snr(angles_deg, snr_db: float) -> SourceScene:
    """Equal unit-power sources with noise power set by the per-source SNR."""
    angles = tuple(float(a) for a in angles_deg)
    return SourceScene(angles, (1.0,) * len(angles), 10.0 ** (-snr_db / 10.0))


def draw_angles(k: int, lo: float, hi: float, min_gap: float,
                rng: np.random.Generator) -> np.ndarray:
    """K sorted angles uniform over [lo, hi] with pairwise gaps >= min_gap."""
    span = hi - lo - (k - 1) * min_gap
    if span < 0:
        raise ValueError(
            f"cannot place {k} angles with gap {min_gap} inside [{lo}, {hi}]"
        )
    u = np.sort(rng.uniform(0.0, span, size=k))
    return lo + u + min_gap * np.arange(k)


def steering_matrix(positions, angles_deg) -> np.ndarray:
    """Steering matrix with entries exp(j*pi*d_i*sin(theta_k)) for sensor
    positions d_i in units of d0 = lambda/2."""
    pos = np.asarray(positions, dtype=np.float64)
    theta = np.deg2rad(np.atleast_1d(np.asarray(angles_deg, dtype=np.float64)))
    return np.exp(1j * np.pi * np.outer(pos, np.sin(theta)))


def simulate_snapshots(geom: ArrayGeometry, scene: SourceScene, n_snapshots: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draws an M x N snapshot matrix from the unconditional signal model.

    Source waveforms are drawn first, then noise, so the realization is
    reproducible for a given Generator state. Failed sensors still produce
    rows; failure handling lives in the covariance domain.
    """
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    m = geom.size
    a = steering_matrix(geom.positions, scene.angles_deg)
    amp = np.sqrt(np.asarray(scene.powers) / 2.0)
    x = amp[:, None] * (
        rng.standard_normal((scene.k, n_snapshots))
        + 1j * rng.standard_normal((scene.k, n_snapshots))
    )
    noise = np.sqrt(scene.noise_power / 2.0) * (
        rng.standard_normal((m, n_snapshots))
        + 1j * rng.standard_normal((m, n_snapshots))
    )
    return a @ x + noise


def sample_covariance(y: np.ndarray) -> np.ndarray:
    """Sample covariance (1/N) * Y Y^H of an M x N snapshot matrix."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2 or y.shape[1] < 1:
        raise ValueError("snapshot matrix must be M x N with N >= 1")
    return (y @ y.conj().T) / y.shape[1]


def inject_failures(r: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Copy of R with the rows and columns of ``geom``'s failed sensors zeroed
    (2*M*M1 - M1^2 entries)."""
    values = np.array(r, dtype=np.complex128)
    if values.shape != (geom.size, geom.size):
        raise ValueError(f"covariance shape {values.shape} does not match {geom.size} sensors")
    idx = [i - 1 for i in sorted(geom.failed)]
    values[idx, :] = 0.0
    values[:, idx] = 0.0
    return values


def analytic_covariance(geom: ArrayGeometry, scene: SourceScene) -> np.ndarray:
    """Exact covariance A diag(powers) A^H + noise_power * I (no sampling)."""
    m = geom.size
    r = scene.noise_power * np.eye(m, dtype=np.complex128)
    if scene.k:
        a = steering_matrix(geom.positions, scene.angles_deg)
        r = r + (a * np.asarray(scene.powers)) @ a.conj().T
    return r


def _uint64(value, what: str) -> int:
    value = int(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{what} {value} is outside 0 .. 2**64 - 1")
    return value


def _key_words(key) -> list[int]:
    """Seed words of one key. Keys the encoding would confuse with another
    key raise instead of being re-encoded, so existing streams stay put."""
    if isinstance(key, (bool, np.bool_)):
        return [int(key)]
    if isinstance(key, (int, np.integer)):
        key = _uint64(key, "int seed key")
        return [key & 0xFFFFFFFF, key >> 32]
    if isinstance(key, float):
        # One word of milli-units: sweep keys are multiples of 1e-3 or coarser.
        milli = key * 1000.0
        if (not np.isfinite(milli) or abs(milli - round(milli)) > 1e-6
                or abs(round(milli)) >= 2**31):
            raise ValueError(f"float seed key {key!r} is not a multiple of 1e-3 "
                             "below 2**31 / 1000 in magnitude")
        return [int(round(milli)) & 0xFFFFFFFF]
    if isinstance(key, str):
        return [zlib.crc32(key.encode("utf-8"))]
    raise TypeError(f"unsupported seed key type {type(key)!r}")


def stream_seed(master_seed: int, *keys) -> np.random.SeedSequence:
    """Named substream seed: deterministic in the master seed and keys.

    Keys may be ints in 0 .. 2**64 - 1, floats (millidegree/millidB
    resolution), or strings, so e.g. stream_seed(master, "scene", snr_db,
    trial) gives every method the same per-trial realization.
    """
    words = [_uint64(master_seed, "master seed")]
    for key in keys:
        words.extend(_key_words(key))
    return np.random.SeedSequence(words)


def stream_rng(master_seed: int, *keys) -> np.random.Generator:
    """PCG64 generator over the named substream (see stream_seed)."""
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, *keys)))
