"""Lag-domain coarray processing: vectorization, redundancy averaging,
spatial smoothing, and real-feature packing for the repair networks."""

from __future__ import annotations

import functools

import numpy as np

from .geometry import ArrayGeometry, _pair_table, difference_coarray

__all__ = [
    "vectorize_covariance",
    "khatri_rao",
    "redundancy_average",
    "spatial_smoothing",
    "flatten_features",
    "unflatten_features",
]


def vectorize_covariance(r) -> np.ndarray:
    """vec(R) of a matrix or of each of a stack: column stacking, (i, j) lands at j*M + i."""
    return np.asarray(r, dtype=np.complex128).swapaxes(-1, -2).reshape(*np.shape(r)[:-2], -1)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product (of each pair of a stack): column k is a[:, k] kron b[:, k]."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("Khatri-Rao factors need equal column counts")
    return (a[..., :, None, :] * b[..., None, :, :]).reshape(*a.shape[:-2], -1, a.shape[-1])


def redundancy_average(r, geom: ArrayGeometry) -> np.ndarray:
    """Averages covariance entries sharing the same lag into the coarray signal.

    Returns z of length 2*m_v - 1 (for each matrix of a (..., M, M) stack),
    where z[i] holds the lag i - (m_v - 1) and m_v is fixed by the
    failure-free geometry. Lag l collects R[m, n] over all active ordered
    pairs with d_m - d_n = l; lags whose every generating pair involves a
    failed sensor are holes, stored as exact zeros.
    """
    values = np.asarray(r, dtype=np.complex128)
    if values.shape[-2:] != (geom.size, geom.size):
        raise ValueError(f"covariance shape {values.shape} does not match {geom.size} sensors")
    flat, bins, counts = _lag_bins(geom)
    lead = values.shape[:-2]
    z = np.zeros((*lead, counts.size), dtype=np.complex128)
    np.add.at(z, (..., bins), values.reshape(*lead, -1).take(flat, axis=-1))  # in pair order
    z /= np.maximum(counts, 1)  # a hole's exact zero stays
    return z


@functools.cache
def _lag_bins(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat index and lag bin (lag + m_v - 1) of each active pair inside the intact
    array's virtual ULA, and the pair count of each of its 2*m_v - 1 bins; read-only."""
    flat, lags = _pair_table(geom)
    m_v = difference_coarray(geom.with_failures(())).m_v
    inside = np.abs(lags) < m_v
    flat, bins = flat[inside], lags[inside] + (m_v - 1)
    counts = np.bincount(bins, minlength=2 * m_v - 1)
    flat.flags.writeable = bins.flags.writeable = counts.flags.writeable = False
    return flat, bins, counts


def spatial_smoothing(z: np.ndarray) -> np.ndarray:
    """Rank-restoring spatial smoothing of the coarray signal z over lags
    -(m_v-1) .. m_v-1, so m_v = (len(z) + 1) / 2, or of each row of a stack.

    Averages the outer products of the m_v ascending-lag windows
    w_i = z[i : i + m_v] (window i spans lags i - (m_v-1) .. i), giving an
    m_v x m_v Hermitian PSD matrix whose signal subspace follows the
    ascending virtual-ULA steering convention. Holes contribute their
    stored zeros.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 1 or z.shape[-1] % 2 == 0:
        raise ValueError("coarray signal must have an odd length")
    m_v = (z.shape[-1] + 1) // 2
    windows = z.take(_window_index(m_v), axis=-1)
    return (windows.mT @ windows.conj()) / m_v


@functools.cache
def _window_index(m_v: int) -> np.ndarray:
    """Read-only index whose row i selects window i, z[i : i + m_v]."""
    index = np.arange(m_v)[:, None] + np.arange(m_v)
    index.flags.writeable = False
    return index


def flatten_features(r) -> np.ndarray:
    """Real feature vector [Re(vec(R)); Im(vec(R))] of length 2*dim^2 (of each of a stack)."""
    vec = vectorize_covariance(r)
    return np.concatenate([vec.real, vec.imag], axis=-1)


def unflatten_features(v: np.ndarray) -> np.ndarray:
    """Rebuilds a Hermitian dim x dim matrix from the last axis of ``v``, 2*dim^2 features.

    Inverse of flatten_features up to the Hermitian projection
    (Z + Z^H) / 2, which is exact on features of a Hermitian matrix.
    """
    v = np.asarray(v, dtype=np.float64)
    dim = int(np.sqrt(v.shape[-1] // 2))
    if v.shape[-1] != 2 * dim * dim:
        raise ValueError(f"feature length {v.shape[-1]} is not 2*dim^2 for any dim")
    half = dim * dim
    z = (v[..., :half] + 1j * v[..., half:]).reshape(*v.shape[:-1], dim, dim).mT
    return (z + z.conj().mT) / 2.0
