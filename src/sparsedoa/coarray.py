"""Lag-domain coarray processing: vectorization, redundancy averaging,
spatial smoothing, and real-feature packing for the repair networks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, difference_coarray
from .signals import (
    Covariance,
    R_SMOOTHED,
    R_SMOOTHED_FAILED,
    cov_values,
)

__all__ = [
    "CoarraySignal",
    "vectorize_covariance",
    "khatri_rao",
    "redundancy_average",
    "spatial_smoothing",
    "flatten_features",
    "unflatten_features",
]


@dataclass
class CoarraySignal:
    """Virtual-ULA signal over lags -(m_v-1) .. m_v-1.

    ``z[i]`` holds the lag i - (m_v - 1); ``available`` marks lags that
    survived failure (holes are stored as exact zeros with available
    False).
    """

    z: np.ndarray
    available: np.ndarray
    m_v: int

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.complex128)
        self.available = np.asarray(self.available, dtype=bool)
        if self.z.shape != (2 * self.m_v - 1,) or self.available.shape != self.z.shape:
            raise ValueError("coarray signal must cover 2*m_v - 1 lags")

    @property
    def has_holes(self) -> bool:
        return not bool(self.available.all())


def vectorize_covariance(r) -> np.ndarray:
    """vec(R): column stacking, entry (i, j) lands at position j*M + i."""
    values = cov_values(r)
    return values.reshape(-1, order="F")


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: column k is a[:, k] kron b[:, k]."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("Khatri-Rao factors need equal column counts")
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def redundancy_average(r, geom: ArrayGeometry) -> CoarraySignal:
    """Averages covariance entries sharing the same lag into the coarray signal.

    Lag l collects R[m, n] over all active ordered pairs with
    d_m - d_n = l. The signal length is fixed by the failure-free
    geometry's m_v; lags whose every generating pair involves a failed
    sensor become holes (zero value, available False).
    """
    values = cov_values(r)
    if values.shape[0] != geom.size:
        raise ValueError(
            f"covariance dimension {values.shape[0]} does not match geometry size {geom.size}"
        )
    m_v = difference_coarray(geom.with_failures(())).m_v
    n_lags = 2 * m_v - 1
    sums = np.zeros(n_lags, dtype=np.complex128)
    counts = np.zeros(n_lags, dtype=np.int64)
    active = [i - 1 for i in geom.active_indices]
    pos = geom.positions
    for i in active:
        for j in active:
            lag = pos[i] - pos[j]
            if abs(lag) < m_v:
                idx = lag + m_v - 1
                sums[idx] += values[i, j]
                counts[idx] += 1
    available = counts > 0
    z = np.zeros(n_lags, dtype=np.complex128)
    z[available] = sums[available] / counts[available]
    return CoarraySignal(z=z, available=available, m_v=m_v)


def spatial_smoothing(signal: CoarraySignal) -> Covariance:
    """Rank-restoring spatial smoothing of the coarray signal.

    Averages the outer products of the m_v ascending-lag windows
    w_i = z[i : i + m_v] (window i spans lags i - (m_v-1) .. i), giving an
    m_v x m_v Hermitian PSD matrix whose signal subspace follows the
    ascending virtual-ULA steering convention. Holes contribute their
    stored zeros.
    """
    if signal.z.ndim != 1 or signal.z.size % 2 == 0:
        raise ValueError("coarray signal length must be odd")
    m_v = signal.m_v
    windows = np.lib.stride_tricks.sliding_window_view(signal.z, m_v)
    r_ss = (windows.T @ windows.conj()) / m_v
    role = R_SMOOTHED_FAILED if signal.has_holes else R_SMOOTHED
    return Covariance(r_ss, role=role)


def flatten_features(r) -> np.ndarray:
    """Real feature vector [Re(vec(R)); Im(vec(R))] of length 2*dim^2."""
    vec = vectorize_covariance(r)
    return np.concatenate([vec.real, vec.imag])


def unflatten_features(v: np.ndarray, dim: int, role: str = "predicted") -> Covariance:
    """Rebuilds a Hermitian matrix from flattened features.

    Inverse of flatten_features up to the Hermitian projection
    (Z + Z^H) / 2, which is exact on features of a Hermitian matrix.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != 2 * dim * dim:
        raise ValueError(f"expected {2 * dim * dim} features for dim {dim}, got {v.size}")
    half = dim * dim
    z = (v[:half] + 1j * v[half:]).reshape((dim, dim), order="F")
    return Covariance((z + z.conj().T) / 2.0, role=role)
