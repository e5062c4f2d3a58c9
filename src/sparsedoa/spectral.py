"""Subspace spectral estimation: MUSIC on the virtual ULA, the DOA
mean-squared-error metric, and the coarray Cramer-Rao bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.signal import find_peaks

from .coarray import khatri_rao, vectorize_covariance
from .geometry import ArrayGeometry
from .signals import SourceScene, steering_matrix

__all__ = [
    "MusicSpectrum",
    "PeakResult",
    "hermitian_eig",
    "music_spectrum",
    "pick_peaks",
    "doa_mse",
    "crb",
]

RAD2DEG_SQ = (180.0 / np.pi) ** 2


@dataclass
class MusicSpectrum:
    """Pseudospectrum values over a uniform angle grid (degrees)."""

    grid: np.ndarray
    values: np.ndarray


class PeakResult(NamedTuple):
    angles_deg: np.ndarray
    resolution_failure: bool


def hermitian_eig(r):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Verifies finiteness and Hermitian symmetry (to 1e-8 relative) before
    decomposing, so overflow or conjugation bugs upstream fail loudly.
    """
    values = np.asarray(r, dtype=np.complex128)
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    scale = np.linalg.norm(values)
    if scale > 0 and np.linalg.norm(values - values.conj().T) > 1e-8 * scale:
        raise ValueError("input is not Hermitian to tolerance")
    w, v = np.linalg.eigh((values + values.conj().T) / 2.0)
    return w, v


@lru_cache(maxsize=16)
def _grid_and_steering(dim: int, step: float):
    n = int(np.ceil((90.0 - (-90.0)) / step - 1e-12))
    grid = -90.0 + step * np.arange(n)
    return grid, steering_matrix(np.arange(dim), grid)


def music_spectrum(r, k: int, grid_step: float = 0.05) -> MusicSpectrum:
    """MUSIC pseudospectrum 1 / ||E_n^H a(theta)||^2 over [-90, 90).

    The covariance lives on the contiguous virtual ULA 0..dim-1 (every
    method hands MUSIC a spatially-smoothed matrix). The noise subspace
    E_n spans the dim - k smallest eigenpairs.
    """
    dim = len(r)
    if not 1 <= k < dim:
        raise ValueError(f"source count {k} must satisfy 1 <= k < dim {dim}")
    _, v = hermitian_eig(r)
    noise = v[:, : dim - k]
    grid, a = _grid_and_steering(dim, float(grid_step))
    denom = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
    tiny = np.finfo(np.float64).tiny
    return MusicSpectrum(grid=grid.copy(), values=1.0 / np.maximum(denom, tiny))


def pick_peaks(spectrum: MusicSpectrum, k: int) -> PeakResult:
    """Top-k local maxima of the pseudospectrum, returned angle-ascending.

    When fewer than k local maxima exist the result is padded with the
    highest remaining grid values and flagged as a resolution failure.
    """
    if k < 1:
        raise ValueError("k must be positive")
    values = spectrum.values
    peaks, _ = find_peaks(values)
    order = peaks[np.argsort(values[peaks])[::-1]]
    if order.size >= k:
        chosen = order[:k]
        failure = False
    else:
        rest = np.setdiff1d(np.arange(values.size), peaks, assume_unique=True)
        fill = rest[np.argsort(values[rest])[::-1]][: k - order.size]
        chosen = np.concatenate([order, fill])
        failure = True
    return PeakResult(np.sort(spectrum.grid[chosen]), failure)


def doa_mse(estimates, truths) -> float:
    """Average squared angle error (deg^2) with rank-based pairing.

    Rows are trials; each row of estimates and truths is sorted before
    pairing, so the metric is invariant to within-trial ordering.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=np.float64))
    tru = np.atleast_2d(np.asarray(truths, dtype=np.float64))
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    err = np.sort(est, axis=1) - np.sort(tru, axis=1)
    return float(np.mean(err**2))


def _steering_derivative(positions: np.ndarray, angles_deg) -> np.ndarray:
    theta = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    a = np.exp(1j * np.pi * np.outer(positions, np.sin(theta)))
    return 1j * np.pi * positions[:, None] * np.cos(theta)[None, :] * a


def crb(geom: ArrayGeometry, scene: SourceScene, n_snapshots: int) -> np.ndarray:
    """Unconditional-model Cramer-Rao bound for the source angles: the
    K x K bound matrix in degrees squared.

    Built from the Fisher information of vec(R). With W = (R^T kron R)^{-1/2}
    and (.) the column-wise Kronecker product, the angle block is
    M_theta = W (Adot* (.) A + A* (.) Adot) diag(powers) and the nuisance
    block M_s = W [A* (.) A, vec(I)] covers source powers and noise power;
    the bound is the inverse Schur complement of the angle block, scaled by
    1/N and converted to degrees squared. Eigenvalues of R^T kron R are
    floored at 1e-12 of the largest. Failed sensors are excluded.
    """
    if scene.k < 1:
        raise ValueError("bound needs at least one source")
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    pos = geom.position_array(active_only=True).astype(np.float64)
    m = pos.size
    a = steering_matrix(pos, scene.angles_deg)
    a_dot = _steering_derivative(pos, scene.angles_deg)
    r = (a * np.asarray(scene.powers)) @ a.conj().T + scene.noise_power * np.eye(m)
    a_d = khatri_rao(a.conj(), a)
    a_d_dot = khatri_rao(a_dot.conj(), a) + khatri_rao(a.conj(), a_dot)

    w_mat = np.kron(r.T, r)
    lam, u = np.linalg.eigh((w_mat + w_mat.conj().T) / 2.0)
    floor = 1e-12 * lam[-1]
    if lam[-1] <= 0:
        raise np.linalg.LinAlgError("covariance Kronecker product is not positive")
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(np.maximum(lam, floor))) @ u.conj().T

    m_theta = inv_sqrt @ (a_d_dot * np.asarray(scene.powers))
    m_s = inv_sqrt @ np.column_stack([a_d, vectorize_covariance(np.eye(m))])

    gram = m_s.conj().T @ m_s
    try:
        coupling = m_s @ np.linalg.solve(gram, m_s.conj().T @ m_theta)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular nuisance projection (K={scene.k}, M={m}): {exc}"
        ) from exc
    fim_schur = m_theta.conj().T @ (m_theta - coupling)
    fim_schur = np.real(fim_schur + fim_schur.conj().T) / 2.0
    try:
        crb_rad = np.linalg.inv(fim_schur) / n_snapshots
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Fisher information for the angles is singular (K={scene.k}, M={m}); "
            "the scene is not identifiable"
        ) from exc
    crb_rad = (crb_rad + crb_rad.T) / 2.0
    return crb_rad * RAD2DEG_SQ
