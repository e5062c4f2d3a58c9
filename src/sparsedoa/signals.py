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
        noise_power = float(self.noise_power)
        if not all(0 <= p < np.inf for p in (*powers, noise_power)):
            raise ValueError(f"powers {powers} and noise power {noise_power} must be finite "
                             "and non-negative")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "noise_power", noise_power)

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
    positions d_i in units of d0 = lambda/2; a (B, K) stack of angle sets gives (B, M, K)."""
    pos = np.asarray(positions, dtype=np.float64)
    theta = np.deg2rad(np.atleast_1d(np.asarray(angles_deg, dtype=np.float64)))
    return np.exp(1j * np.pi * (pos[:, None] * np.sin(theta)[..., None, :]))


def simulate_snapshots(geom: ArrayGeometry, scenes, draws: np.ndarray) -> np.ndarray:
    """Mixes a (B, 2(K+M), N) block of standard-normal draws into the (B, M, N) snapshots
    of B scenes with K sources each: row j is item j's ``rng.standard_normal((2*(K+M), N))``,
    whose rows are its source real and imaginary parts, then its noise's. Failed sensors
    still produce rows; failure handling lives in the covariance domain.
    """
    k, m = scenes[0].k, geom.size
    if draws.ndim != 3 or draws.shape[:2] != (len(scenes), 2 * (k + m)) or draws.shape[2] < 1:
        raise ValueError(f"draws of shape {draws.shape} do not fit {len(scenes)} scenes of "
                         f"{k} sources on {m} sensors with at least one snapshot")
    amp = np.sqrt(np.array([s.powers for s in scenes]) / 2.0)[..., None]
    noise_amp = np.sqrt(np.array([s.noise_power for s in scenes]) / 2.0)[:, None, None]
    x = amp * (draws[:, :k] + 1j * draws[:, k:2 * k])
    noise = noise_amp * (draws[:, 2 * k:2 * k + m] + 1j * draws[:, 2 * k + m:])
    return steering_matrix(geom.positions, [s.angles_deg for s in scenes]) @ x + noise


def sample_covariance(y: np.ndarray) -> np.ndarray:
    """Sample covariance (1/N) * Y Y^H of an M x N snapshot matrix, or of each of a stack."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim < 2 or y.shape[-1] < 1:
        raise ValueError("snapshot matrix must be M x N with N >= 1")
    return (y @ y.conj().mT) / y.shape[-1]


def inject_failures(r: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Copy of R (or of each of a stack) with the rows and columns of ``geom``'s failed
    sensors zeroed (2*M*M1 - M1^2 entries)."""
    values = np.array(r, dtype=np.complex128)
    if values.shape[-2:] != (geom.size, geom.size):
        raise ValueError(f"covariance shape {values.shape} does not match {geom.size} sensors")
    idx = [i - 1 for i in sorted(geom.failed)]
    values[..., idx, :] = 0.0
    values[..., :, idx] = 0.0
    return values


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
