"""Reference implementations that only the tests call: a brute-force MRA
search for the tabulated arrays, the exact covariance of a scene, the
layer-major packing of per-layer parameters into one model vector, MUSIC
evaluated by steering every grid angle, and the repair networks' prediction
assembled row by row."""

import itertools

import numpy as np

from sparsedoa.coarray import flatten_features, unflatten_features
from sparsedoa.geometry import ArrayGeometry
from sparsedoa.neural import minmax_apply, minmax_invert, mlp_forward, repair_input
from sparsedoa.signals import SourceScene, steering_matrix
from sparsedoa.spectral import hermitian_eig


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


def analytic_covariance(geom: ArrayGeometry, scene: SourceScene) -> np.ndarray:
    """Exact covariance A diag(powers) A^H + noise_power * I (no sampling)."""
    m = geom.size
    r = scene.noise_power * np.eye(m, dtype=np.complex128)
    if scene.k:
        a = steering_matrix(geom.positions, scene.angles_deg)
        r = r + (a * np.asarray(scene.powers)) @ a.conj().T
    return r


def pack_parameters(weights, biases) -> np.ndarray:
    """W_0, b_0, W_1, b_1, ... raveled into one float64 vector, the layout of
    ``MlpModel.flat``."""
    return np.concatenate([np.ravel(p) for pair in zip(weights, biases) for p in pair],
                          dtype=np.float64)


def grid_music_spectrum(r, k: int, grid_step: float = 0.05):
    """The grid over [-90, 90) and MUSIC's denominators ||E_n^H a(theta)||^2 of one
    dim x dim covariance on the virtual ULA 0..dim-1, as one complex product of the
    noise subspace with the grid's steering matrix."""
    dim = len(r)
    _, v = hermitian_eig(r)
    noise = v[:, : dim - k]
    grid = -90.0 + grid_step * np.arange(int(np.ceil(180.0 / grid_step - 1e-12)))
    return grid, np.sum(np.abs(noise.conj().T @ steering_matrix(np.arange(dim), grid)) ** 2,
                        axis=0)


def per_row_predict_covariance(model, r_full, geom: ArrayGeometry) -> np.ndarray:
    """``predict_covariance`` with its features built and its outputs rebuilt one
    row at a time around one forward pass, the form the stacked layers replaced."""
    features = np.stack([flatten_features(repair_input(model.variant, r, geom)) for r in r_full])
    out = mlp_forward(model, minmax_apply(features, model.input_stats))
    return np.stack([unflatten_features(row) for row in minmax_invert(out, model.target_stats)])
