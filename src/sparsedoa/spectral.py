"""Subspace spectral estimation: MUSIC on the virtual ULA, the DOA
mean-squared-error metric, and the coarray Cramer-Rao bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
    """Pseudospectra over a uniform angle grid (degrees), one row of ``values`` each."""

    grid: np.ndarray
    values: np.ndarray

    def __getitem__(self, i) -> MusicSpectrum:
        return MusicSpectrum(self.grid, self.values[i])


class PeakResult(NamedTuple):
    angles_deg: np.ndarray
    resolution_failure: bool


def hermitian_eig(r):
    """Eigendecomposition of a Hermitian matrix or of each of a stack, eigenvalues ascending.

    Verifies finiteness and Hermitian symmetry (to 1e-8 relative, per matrix)
    before decomposing, so overflow or conjugation bugs upstream fail loudly.
    """
    values = np.asarray(r, dtype=np.complex128)
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    adjoint = values.conj().swapaxes(-1, -2)
    scale = np.linalg.norm(values, axis=(-2, -1))
    if np.any(np.linalg.norm(values - adjoint, axis=(-2, -1)) > 1e-8 * scale):
        raise ValueError("input is not Hermitian to tolerance")
    return np.linalg.eigh((values + adjoint) / 2.0)


_MAX_GRID_ANGLES = 180_000  # a 0.001 deg step; the paper's 0.05 deg grid has 3,600


def _grid_size(step: float) -> int:
    """The number of angles in ``music_spectrum``'s grid over [-90, 90) at ``step`` > 0;
    a grid of more than ``_MAX_GRID_ANGLES`` (or of an infinite count) is a ValueError."""
    size = float(np.ceil(180.0 / step - 1e-12))
    if not size <= _MAX_GRID_ANGLES:
        raise ValueError(f"grid_step={step} gives {size:g} grid angles, more than the "
                         f"{_MAX_GRID_ANGLES} a MUSIC grid may hold")
    return int(size)


@lru_cache(maxsize=16)
def _lag_basis(dim: int, step: float):
    """The grid over [-90, 90), the real basis [1; 2 cos(pi l sin(theta)); -2 sin(pi l
    sin(theta))] (l = 1..dim-1) and the flat indices of the superdiagonals; read-only."""
    grid = -90.0 + step * np.arange(_grid_size(step))
    phase = np.pi * np.outer(np.arange(1, dim), np.sin(np.deg2rad(grid)))
    basis = np.concatenate([np.ones((1, grid.size)), 2.0 * np.cos(phase), -2.0 * np.sin(phase)])
    flat = np.concatenate([np.arange(dim - lag) * (dim + 1) + lag for lag in range(dim)])
    grid.flags.writeable = basis.flags.writeable = flat.flags.writeable = False
    return grid, basis, flat


def music_spectrum(r, k: int, grid_step: float = 0.05) -> MusicSpectrum:
    """MUSIC pseudospectra 1 / ||E_n^H a(theta)||^2 over [-90, 90) of a (B, dim, dim) stack.

    The covariances live on the contiguous virtual ULA 0..dim-1 (every method hands MUSIC
    a spatially-smoothed matrix); E_n spans the dim - k smallest eigenpairs. There
    ||E_n^H a||^2 = a^H P a, P = E_n E_n^H, is root-MUSIC's real polynomial in the sums
    c_l of P's l-th superdiagonals: c_0 + 2 sum_l Re(c_l exp(j pi l sin(theta))).
    """
    values = np.asarray(r, dtype=np.complex128)
    if values.ndim != 3:
        raise ValueError(f"need a (B, dim, dim) stack of covariances, got shape {values.shape}")
    dim = values.shape[-1]
    if not 1 <= k < dim:
        raise ValueError(f"source count {k} must satisfy 1 <= k < dim {dim}")
    noise = hermitian_eig(values)[1][..., : dim - k]
    grid, basis, flat = _lag_basis(dim, float(grid_step))
    p = (noise @ noise.conj().swapaxes(1, 2)).reshape(len(values), -1)
    lags = np.add.reduceat(p[:, flat], np.cumsum([0, *range(dim, 1, -1)]), axis=1)  # c_0, c_1..
    denom = np.concatenate([lags.real, lags.imag[:, 1:]], axis=1) @ basis
    np.maximum(denom, np.finfo(np.float64).tiny, out=denom)
    return MusicSpectrum(grid=grid, values=np.reciprocal(denom, out=denom))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x``: a run of equal values above both neighbours is
    one peak, at its middle (left of it if even); the end samples never count."""
    rise, fall = x[1:] > x[:-1], x[1:] < x[:-1]  # not np.diff: inf - inf is NaN
    edges = np.flatnonzero(rise | fall)  # x[i] != x[i + 1]
    up = rise[edges]
    peak = up[:-1] & ~up[1:]
    return (edges[:-1][peak] + 1 + edges[1:][peak]) // 2


def pick_peaks(spectrum: MusicSpectrum, k: int) -> PeakResult:
    """Top-k local maxima of the pseudospectrum, returned angle-ascending.

    When fewer than k local maxima exist the result is padded with the
    highest remaining grid values and flagged as a resolution failure.
    """
    values = spectrum.values
    if not 1 <= k <= values.size:
        raise ValueError(f"k={k} must lie in 1..{values.size}, the grid's angle count")
    peaks = _local_maxima(values)
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


def crb(geom: ArrayGeometry, scenes, n_snapshots: int) -> np.ndarray:
    """Unconditional-model Cramer-Rao bound for the source angles (deg^2): the K x K
    bound of one scene, or a stack of them for a sequence of scenes with one K.

    Built from the Fisher information of vec(R), whitened by
    (R^T kron R)^{-1/2} = S* kron S with S = R^{-1/2} from the M x M
    eigendecomposition of R (eigenvalues floored at 1e-6 of the largest).
    With A~ = S A, Adot~ = S Adot and (.) the column-wise Kronecker product,
    the angle block is M_theta = (Adot~* (.) A~ + A~* (.) Adot~) diag(powers)
    and the nuisance block M_s = [A~* (.) A~, vec(S S)] covers source powers
    and noise power; the bound is the inverse Schur complement of the angle
    block, scaled by 1/N and converted to degrees squared. Failed sensors
    are excluded. When the Schur complement or the bound is not numerically
    positive definite (so also when a diagonal entry of the bound is not
    positive), or the Schur complement's condition number exceeds 1e8 (a bound
    with no correct digits), the scene is not identifiable: alone it raises
    ``LinAlgError``, and in a sequence its bound is NaN.
    """
    single = isinstance(scenes, SourceScene)
    scenes = [scenes] if single else list(scenes)
    k = scenes[0].k
    if k < 1:
        raise ValueError("bound needs at least one source")
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot")
    pos = np.asarray(geom.active_positions, dtype=np.float64)
    powers = np.array([scene.powers for scene in scenes])[:, None, :]  # raises unless one K
    angles = np.array([scene.angles_deg for scene in scenes], dtype=np.float64)
    a = steering_matrix(pos, angles)  # (B, M, K)
    a_dot = 1j * np.pi * pos[:, None] * np.cos(np.deg2rad(angles))[:, None, :] * a
    noise = np.array([scene.noise_power for scene in scenes])[:, None, None]
    try:
        lam, u = hermitian_eig((a * powers) @ a.conj().swapaxes(1, 2) + noise * np.eye(pos.size))
        if np.any(lam[:, -1] <= 0):
            raise np.linalg.LinAlgError("covariance is not positive")
        s = u / np.sqrt(np.maximum(lam, 1e-6 * lam[:, -1:]))[:, None, :]
        s = s @ u.conj().swapaxes(1, 2)
        a, a_dot = s @ a, s @ a_dot  # whitened: A~, Adot~
        m_theta = (khatri_rao(a_dot.conj(), a) + khatri_rao(a.conj(), a_dot)) * powers
        m_s = np.dstack([khatri_rao(a.conj(), a), vectorize_covariance(s @ s)])
        m_s_adjoint = m_s.conj().swapaxes(1, 2)
        coupling = m_s @ np.linalg.solve(m_s_adjoint @ m_s, m_s_adjoint @ m_theta)
        fim_schur = m_theta.conj().swapaxes(1, 2) @ (m_theta - coupling)
        fim_schur = np.real(fim_schur + fim_schur.conj().swapaxes(1, 2)) / 2.0
        np.linalg.cholesky(fim_schur)  # raises unless positive definite
        if np.any(np.linalg.cond(fim_schur) > 1e8):  # sweep scenes stay below 1e4, singular >1e15
            raise np.linalg.LinAlgError("Schur complement too ill-conditioned")
        crb_rad = np.linalg.inv(fim_schur) / n_snapshots
        crb_rad = (crb_rad + crb_rad.swapaxes(-1, -2)) / 2.0
        np.linalg.cholesky(crb_rad)  # so must the bound be, after rounding
    except np.linalg.LinAlgError as exc:
        if len(scenes) > 1:  # scene by scene
            return np.concatenate([crb(geom, [scene], n_snapshots) for scene in scenes])
        if not single:
            return np.full((1, k, k), np.nan)
        raise np.linalg.LinAlgError(f"Fisher information for the angles is singular (K={k}, "
                                    f"M={pos.size}); the scene is not identifiable") from exc
    return crb_rad[0] * RAD2DEG_SQ if single else crb_rad * RAD2DEG_SQ
