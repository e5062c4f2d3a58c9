"""Reference implementations that only the tests call: a brute-force MRA
search for the tabulated arrays, the exact covariance of a scene, the
layer-major packing of per-layer parameters into one model vector, MUSIC
evaluated by steering every grid angle, and the repair networks' prediction
assembled row by row, the training loop that allocated every step's arrays
and one full gradient vector, and snapshot simulation and dataset generation
one item at a time. ``item_draws`` makes one item's block of draws for
``simulate_snapshots``."""

import dataclasses
import itertools

import numpy as np

from sparsedoa.coarray import (
    flatten_features,
    redundancy_average,
    spatial_smoothing,
    unflatten_features,
)
from sparsedoa.geometry import ArrayGeometry
from sparsedoa.neural import (
    HYBRID,
    EpochStats,
    TrainingDataset,
    adam_init,
    adam_step,
    feature_widths,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    mlp_forward,
    mse_loss,
    repair_input,
    training_rows,
)
from sparsedoa.signals import SourceScene, sample_covariance, steering_matrix, stream_rng
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


def _allocating_forward(model, x, rng):
    """The forward pass that made a new array for every layer and mask; inference
    mode, with no dropout, when ``rng`` is None."""
    cache = {"inputs": [], "drop_mask": []}
    out = x
    params = model.parameters()
    for i, (w, b) in enumerate(zip(params[::2], params[1::2])):
        cache["inputs"].append(out)
        out = out @ w + b
        if i == model.n_layers - 1:
            break
        out = np.maximum(out, 0.0)
        p = model.dropout_rates[i]
        keep = (rng.random(out.shape, dtype=out.dtype) >= p
                if rng is not None and p > 0.0 else None)
        if keep is not None:
            out = out * keep / (1.0 - p)
        cache["drop_mask"].append(keep)
    return out, cache


def _allocating_backward(model, cache, output, target, grad):
    """The backward pass that wrote every layer's gradient into one full vector
    ``grad`` laid out as ``model.flat``, through new arrays for every delta."""
    views = []
    start = 0
    for a, b in zip(model.layer_dims, model.layer_dims[1:]):
        views += [grad[start:start + a * b].reshape(a, b), grad[start + a * b:start + (a + 1) * b]]
        start += (a + 1) * b
    delta = 2.0 * (output - target) / output.size
    for i in range(model.n_layers - 1, -1, -1):
        np.matmul(cache["inputs"][i].T, delta, out=views[2 * i])
        np.sum(delta, axis=0, out=views[2 * i + 1])
        if i == 0:
            break
        delta = delta @ model.weights[i].T
        keep = cache["drop_mask"][i - 1]
        if keep is not None:
            delta = delta * keep / (1.0 - model.dropout_rates[i - 1])
        delta = delta * (cache["inputs"][i] > 0)


def train_oracle(model, dataset, epochs, batch_size, split, seed, lr):
    """``train``'s arithmetic as one allocating forward and backward pass into one
    full gradient vector, then one Adam step over the whole of ``model.flat``, all in
    the dtype of ``model.flat``. Returns the loss history; ``model.flat`` is trained
    in place."""
    n_train = training_rows(dataset.n_samples, split)
    model.input_stats = minmax_fit(dataset.inputs[:n_train])
    model.target_stats = minmax_fit(dataset.targets[:n_train])
    x_train, y_train, x_val, y_val = (
        minmax_apply(data, stats).astype(model.flat.dtype)
        for data, stats in ((dataset.inputs[:n_train], model.input_stats),
                            (dataset.targets[:n_train], model.target_stats),
                            (dataset.inputs[n_train:], model.input_stats),
                            (dataset.targets[n_train:], model.target_stats)))
    state = adam_init([model.flat], lr=lr)
    grad = np.empty_like(model.flat)
    rng = stream_rng(seed, "train", model.variant)
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, batch_size):
            rows = order[start:start + batch_size]
            pred, cache = _allocating_forward(model, x_train[rows], rng)
            total += mse_loss(pred, y_train[rows]) * rows.size
            _allocating_backward(model, cache, pred, y_train[rows], grad)
            adam_step(state, [model.flat], [grad])
        val = mse_loss(_allocating_forward(model, x_val, None)[0], y_val) if len(x_val) \
            else float("nan")
        history.append(EpochStats(epoch=epoch, train_mse=total / n_train, val_mse=val,
                                  seconds=0.0))
    return history


def item_draws(rng, geom: ArrayGeometry, scene: SourceScene, n_snapshots: int) -> np.ndarray:
    """One item's standard-normal draws as a block of one, shaped (1, 2(K+M), N) for
    ``simulate_snapshots``: the same stream as ``per_item_snapshots``' four draws."""
    return rng.standard_normal((1, 2 * (scene.k + geom.size), n_snapshots))


def per_item_snapshots(geom: ArrayGeometry, scene: SourceScene, n_snapshots: int,
                       rng) -> np.ndarray:
    """M x N snapshots of one scene from four draws of its own, source waveforms
    (real, then imaginary parts) before noise: the form the block mix replaced."""
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


def per_sample_dataset(variant: str, geom: ArrayGeometry, policy, n_samples: int,
                       seed: int) -> TrainingDataset:
    """``generate_dataset`` as one scene, failure set, simulation and feature row at
    a time, the loop that the block form replaced; each row is rounded once to float32."""
    l_dim, h_dim = feature_widths(geom)
    inputs = np.empty((n_samples, h_dim if variant == HYBRID else l_dim), np.float32)
    targets = np.empty((n_samples, h_dim), np.float32)
    rng = stream_rng(seed, "dataset", variant)
    for i in range(n_samples):
        scene = policy.draw_scene(rng)
        failed = policy.draw_failures(geom, rng)
        r_full = sample_covariance(per_item_snapshots(geom, scene, policy.n_snapshots, rng))
        targets[i] = flatten_features(spatial_smoothing(redundancy_average(r_full, geom)))
        inputs[i] = flatten_features(repair_input(variant, r_full, failed))
    meta = {"variant": variant, "geometry": list(geom.positions), "seed": seed,
            **dataclasses.asdict(policy)}
    return TrainingDataset(inputs=inputs, targets=targets, meta=meta)
