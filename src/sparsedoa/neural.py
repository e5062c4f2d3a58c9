"""Covariance-repair networks: a from-scratch dense MLP with inverted
dropout, Adam, and min-max feature scaling.

Two variants are built around the feature widths H = 2*m_v^2 (flattened
smoothed covariance) and L = 2*M^2 (flattened physical covariance):

* hybrid: damaged smoothed covariance -> complete smoothed covariance,
  four affine layers all of width H, dropout 0.2/0.4 after the first two.
* data-driven: damaged physical covariance -> complete smoothed
  covariance, five affine layers of widths [L, L, H, H, H], dropout 0.2
  after every non-output layer.

Hidden activations are ReLU; the output layer is linear and targets are
min-max normalized to [0, 1].
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .coarray import flatten_features, redundancy_average, spatial_smoothing, unflatten_features
from .geometry import ArrayGeometry, difference_coarray
from .signals import (
    draw_angles,
    inject_failures,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    stream_rng,
)

__all__ = [
    "HYBRID", "DATA_DRIVEN", "NormStats", "MlpModel", "AdamState", "ScenePolicy",
    "TrainingDataset", "EpochStats", "TrainingDiverged", "minmax_fit", "minmax_apply",
    "minmax_invert", "build_model", "mlp_forward", "mlp_backward", "mse_loss",
    "adam_init", "adam_step", "repair_input", "generate_dataset", "train",
    "predict_covariance", "save_model", "load_model", "save_dataset", "load_dataset",
]

HYBRID = "hybrid"
DATA_DRIVEN = "data-driven"
TRAIN_SPLIT = 0.8  # default share of a dataset's rows that train; the rest validate
_BLOCK_SAMPLES = 32  # dataset samples simulated and packed per block

MODEL_MAGIC = "sparsedoa-model-v1"
DATASET_MAGIC = "sparsedoa-dataset-v1"


# ---------------------------------------------------------------------------
# min-max normalization
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    """Per-feature min/max from the fit set; constant features (max <= min) pass through."""

    minimum: np.ndarray
    maximum: np.ndarray

    def to_jsonable(self) -> dict:
        return {"minimum": self.minimum.tolist(), "maximum": self.maximum.tolist()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "NormStats":  # older files' "constant" is derived
        return cls(minimum=np.asarray(data["minimum"], dtype=np.float64),
                   maximum=np.asarray(data["maximum"], dtype=np.float64))


def minmax_fit(data: np.ndarray) -> NormStats:
    """Per-feature min and max, exact in the rows' dtype, as float64; a NaN or inf in the
    rows makes a minimum or maximum non-finite, which raises ValueError."""
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("fit needs a 2-D array with at least two rows")
    stats = NormStats(minimum=data.min(axis=0).astype(np.float64),
                      maximum=data.max(axis=0).astype(np.float64))
    if not (np.isfinite(stats.minimum).all() and np.isfinite(stats.maximum).all()):
        raise ValueError("non-finite values in normalization fit data")
    return stats


def _span_shift(stats: NormStats) -> tuple[np.ndarray, np.ndarray]:
    constant = stats.maximum <= stats.minimum
    return (np.where(constant, 1.0, stats.maximum - stats.minimum),
            np.where(constant, 0.0, stats.minimum))


def minmax_apply(data: np.ndarray, stats: NormStats) -> np.ndarray:
    span, shift = _span_shift(stats)
    out = np.subtract(data, shift, dtype=np.float64)  # one float64 result, upcast exactly
    return np.divide(out, span, out=out)


def minmax_invert(data: np.ndarray, stats: NormStats) -> np.ndarray:
    span, shift = _span_shift(stats)
    return np.asarray(data, dtype=np.float64) * span + shift


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class MlpModel:
    """Dense network parameters plus the normalization fitted at train time.

    ``layer_dims`` is the width chain [d_in, out_1, ..., out_n];
    ``dropout_rates[i]`` is the post-activation drop probability after
    affine layer i (the output layer's rate is always 0). ``flat`` holds every
    parameter, layer-major W_0, b_0, W_1, b_1, ...; ``weights`` and ``biases``
    are views into it. Its dtype, float32 or float64, is every training array's.
    """

    variant: str
    layer_dims: list[int]
    flat: np.ndarray = field(repr=False)
    dropout_rates: list[float]
    input_stats: NormStats | None = None
    target_stats: NormStats | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        count = _parameter_count(self.layer_dims)
        if not (isinstance(self.flat, np.ndarray) and self.flat.dtype in (np.float32, np.float64)
                and self.flat.shape == (count,) and self.flat.flags.c_contiguous):
            raise ValueError(f"flat must be a C-contiguous float32 or float64 vector of {count} "
                             f"parameters for layer_dims {self.layer_dims}")
        if not (len(rates := self.dropout_rates) == self.n_layers and not any(rates[-1:])
                and all(0 <= p < 1 for p in rates)):
            raise ValueError(f"dropout_rates {rates} do not fit layer_dims {self.layer_dims}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    @property
    def weights(self) -> list[np.ndarray]:
        return self.parameters()[::2]

    @property
    def biases(self) -> list[np.ndarray]:
        return self.parameters()[1::2]

    def parameters(self) -> list[np.ndarray]:
        return _parameter_views(self.flat, self.layer_dims)


def _parameter_count(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _parameter_views(flat: np.ndarray, dims) -> list[np.ndarray]:
    """W_0, b_0, W_1, b_1, ... as views into ``flat``, the layer-major order of
    ``MlpModel.flat`` and of the model file."""
    views, start = [], 0
    for shape in (s for a, b in zip(dims, dims[1:]) for s in ((a, b), (b,))):
        views.append(flat[start:start + math.prod(shape)].reshape(shape))
        start += views[-1].size
    return views


def feature_widths(geom: ArrayGeometry) -> tuple[int, int]:
    """(L, H) = (2*M^2, 2*m_v^2) for the failure-free geometry."""
    m_v = difference_coarray(geom.with_failures(())).m_v
    return 2 * geom.size**2, 2 * m_v**2


def build_model(variant: str, geom: ArrayGeometry, seed: int = 0) -> MlpModel:
    """Glorot-uniform float32 repair network for the geometry, each draw rounded once."""
    l_dim, h_dim = feature_widths(geom)
    layers = {HYBRID: ([h_dim] * 5, [0.2, 0.4, 0.0, 0.0]),
              DATA_DRIVEN: ([l_dim] * 3 + [h_dim] * 3, [0.2, 0.2, 0.2, 0.2, 0.0])}
    if variant not in layers:
        raise ValueError(f"unknown variant {variant!r}")
    dims, dropout = layers[variant]
    rng = stream_rng(seed, "init", variant)
    model = MlpModel(variant=variant, layer_dims=dims, dropout_rates=dropout,
                     flat=np.zeros(_parameter_count(dims), np.float32),
                     meta={"geometry": list(geom.positions), "init_seed": seed})
    for w in model.weights:  # each draw goes into its view before the next is made
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _train_buffers(model: MlpModel, rows: int) -> dict:
    """Every array that a train-mode step of up to ``rows`` rows writes: layer inputs (the
    first is the batch gather) and output, dropout draws (spent, they hold the backward
    pass's ReLU masks), keep masks, deltas, and one gradient block for any layer."""
    dims, hidden, dtype = model.layer_dims, model.layer_dims[1:-1], model.flat.dtype
    return {"inputs": [np.empty((rows, d), dtype) for d in dims],
            "draws": [np.empty((rows, d), dtype) for d in hidden],
            "drop_mask": [np.empty((rows, d), bool) if p else None
                          for d, p in zip(hidden + [0], model.dropout_rates)],
            "delta": [np.empty((rows, d), dtype) for d in dims[1:]],
            "grad": np.empty(max((a + 1) * b for a, b in zip(dims, dims[1:])), dtype)}


def mlp_forward(model: MlpModel, batch: np.ndarray, train: bool = False, rng=None,
                buffers: dict | None = None):
    """Forward pass; in train mode also returns the backprop cache.

    Hidden layers apply affine -> ReLU -> inverted dropout (kept units
    scaled by 1/(1-p)); the output layer is affine only. Inference mode
    applies no dropout and is deterministic. Train mode writes into the leading
    rows of ``buffers`` (made for this batch when None); the cache holds them.
    """
    x = np.asarray(batch, dtype=model.flat.dtype)  # one cast: every layer keeps this dtype
    if x.ndim != 2 or x.shape[1] != model.d_in:
        raise ValueError(f"expected batch shape (B, {model.d_in}), got {x.shape}")
    if train and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")
    if train:
        cache = {key: arrays if key == "grad" else [a if a is None else a[:len(x)] for a in arrays]
                 for key, arrays in (buffers or _train_buffers(model, len(x))).items()}
        cache["inputs"][0] = x
    out = x
    for i, (w, b, p) in enumerate(zip(model.weights, model.biases, model.dropout_rates)):
        out = np.matmul(out, w, out=cache["inputs"][i + 1] if train else None)
        out += b
        if i < model.n_layers - 1:
            np.maximum(out, 0.0, out=out)  # carries NaN through, unlike a masked select
            if train and p > 0.0:
                draws = rng.random(out=cache["draws"][i], dtype=out.dtype)
                out *= np.greater_equal(draws, p, out=cache["drop_mask"][i])
                out /= 1.0 - p
    return (out, cache) if train else out


def mse_loss(output: np.ndarray, target: np.ndarray, out: np.ndarray | None = None) -> float:
    """Mean of (output - target)**2 over equal shapes; the residual goes to ``out`` if given."""
    if np.shape(target) != np.shape(output):
        raise ValueError(f"target shape {np.shape(target)} != output shape {np.shape(output)}")
    return float(np.vdot(r := np.subtract(output, target, out=out), r)) / r.size


def mlp_backward(model: MlpModel, cache: dict, output: np.ndarray, target: np.ndarray | None,
                 adam: list[AdamState] | None = None) -> list[np.ndarray] | None:
    """Exact MSE gradients, one layer's block (W_i, b_i) at a time, last layer first.

    The loss is the mean over batch entries and features, so the output
    gradient is 2*(output - target)/(B*D); active dropout masks from the
    cached forward pass are respected. Without ``adam`` they fill a new vector laid out
    as ``model.flat``, returned as its views. With one Adam state per layer, each block
    goes through the cache's gradient buffer to ``adam_step`` once the delta below is
    formed with the old weights, and no full-size gradient exists. With ``target`` None
    the last delta buffer holds output - target already (``train`` forms it with the loss).
    """
    if target is not None:
        mse_loss(output, target, out=cache["delta"][-1])
    dims, params, delta = model.layer_dims, model.parameters(), cache["delta"][-1]
    grads = (_parameter_views(np.empty_like(model.flat), dims) if adam is None else
             [g for pair in zip(dims, dims[1:]) for g in _parameter_views(cache["grad"], pair)])
    delta *= 2.0
    delta /= output.size
    for i in range(model.n_layers - 1, -1, -1):
        grad_w, grad_b = grads[2 * i:2 * i + 2]
        np.matmul(cache["inputs"][i].T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
        if i > 0:
            delta = np.matmul(delta, params[2 * i].T, out=cache["delta"][i - 1])
            if (keep := cache["drop_mask"][i - 1]) is not None:
                delta *= keep
                delta /= 1.0 - model.dropout_rates[i - 1]
            delta *= np.greater(cache["inputs"][i], 0.0, out=cache["draws"][i - 1])  # ReLU on, kept
        if adam:
            adam_step(adam[i], params[2 * i:2 * i + 2], [grad_w, grad_b])
    return None if adam else grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 1 << 15  # elements per Adam block: the six blocks in flight fit in cache


@dataclass
class AdamState:
    """Moment accumulators, two ``ADAM_CHUNK`` scratch blocks, step count and learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: np.ndarray = field(repr=False)
    step: int = 0
    lr: float = 1e-3


def adam_init(params: list[np.ndarray], lr: float) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params],
                     lr=lr, scratch=np.empty((2, ADAM_CHUNK), np.result_type(*params)))


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, in place, over C-contiguous arrays in blocks of
    ``ADAM_CHUNK`` elements through the state's scratch (no temporary at all). Each
    block takes the elementwise steps of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) in that order, so the bits are the same."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state lengths differ")
    groups = list(zip(params, grads, state.m, state.v))
    if not all(a.flags.c_contiguous for group in groups for a in group):
        raise ValueError("Adam updates C-contiguous arrays only")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1, corr2 = 1.0 - b1**state.step, 1.0 - b2**state.step
    for group in groups:
        whole = [a.reshape(-1) for a in group]
        for lo in range(0, whole[0].size, ADAM_CHUNK):
            p, g, m, v = (a[lo:lo + ADAM_CHUNK] for a in whole)
            t, u = state.scratch[:, :p.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=t)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=t), g, out=t)
            np.add(np.sqrt(np.divide(v, corr2, out=t), out=t), ADAM_EPS, out=t)
            p -= np.divide(np.multiply(np.divide(m, corr1, out=u), state.lr, out=u), t, out=u)


# ---------------------------------------------------------------------------
# dataset synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenePolicy:
    """Random-scene protocol for dataset generation and testing."""

    n_sources: int = 9
    angle_min: float = 10.0
    angle_max: float = 70.0
    min_gap: float = 5.0
    snr_min: float = -10.0
    snr_max: float = 10.0
    n_snapshots: int = 200
    max_failures: int = 2
    include_no_failure: bool = False

    def draw_scene(self, rng: np.random.Generator):
        angles = draw_angles(self.n_sources, self.angle_min, self.angle_max,
                             self.min_gap, rng)
        return scene_from_snr(angles, rng.uniform(self.snr_min, self.snr_max))

    def draw_failures(self, geom: ArrayGeometry, rng: np.random.Generator) -> ArrayGeometry:
        low = 0 if self.include_no_failure else 1
        count = int(rng.integers(low, self.max_failures + 1))
        return geom.with_failures(rng.choice(np.arange(1, geom.size + 1), count, replace=False))


@dataclass
class TrainingDataset:
    """Feature rows of one repair variant, float32 as generated: inputs P x D_in, targets P x H."""

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def fingerprint(self) -> str:
        """Hash of the meta and of the rows as held."""
        digest = hashlib.blake2b(digest_size=32)
        digest.update(json.dumps(self.meta, sort_keys=True).encode())
        for rows in (self.inputs, self.targets):  # in chunks: a loaded dataset's rows are views
            for lo in range(0, len(rows), 1024):
                digest.update(np.ascontiguousarray(rows[lo:lo + 1024]))
        return digest.hexdigest()


def repair_input(variant: str, r_full: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Damaged covariance of the failed array ``geom`` that the variant's network
    repairs: its smoothed matrix for hybrid (``redundancy_average`` reads only active
    sensors), its physical matrix with the failed rows and columns zeroed for data-driven."""
    if variant == HYBRID:
        return spatial_smoothing(redundancy_average(r_full, geom))
    if variant == DATA_DRIVEN:
        return inject_failures(r_full, geom)
    raise ValueError(f"unknown variant {variant!r}")


def generate_dataset(variant: str, geom: ArrayGeometry, policy: ScenePolicy,
                     n_samples: int, seed: int) -> TrainingDataset:
    """Simulates ``n_samples`` random scenes and packs feature rows.

    Each sample draws angles, SNR, a failure set and its snapshots' normals, in that
    order; each block of ``_BLOCK_SAMPLES`` is then mixed, and its inputs
    (``repair_input``, row by row on each failed array) and targets (smoothed covariance
    of the intact array from the same snapshots) are packed, once per block.
    """
    if variant not in (HYBRID, DATA_DRIVEN):
        raise ValueError(f"unknown variant {variant!r}")
    if geom.failed:
        raise ValueError("dataset geometry must be failure-free; failures are drawn per sample")
    l_dim, h_dim = feature_widths(geom)
    d_in = h_dim if variant == HYBRID else l_dim
    inputs = np.empty((n_samples, d_in), dtype=np.float32)  # each feature rounded once
    targets = np.empty((n_samples, h_dim), dtype=np.float32)
    rng = stream_rng(seed, "dataset", variant)
    draws = np.empty((_BLOCK_SAMPLES, 2 * (policy.n_sources + geom.size), policy.n_snapshots))
    for start in range(0, n_samples, _BLOCK_SAMPLES):
        block, scenes, failed = draws[:n_samples - start], [], []
        for out in block:
            scenes.append(policy.draw_scene(rng))
            failed.append(policy.draw_failures(geom, rng))
            rng.standard_normal(out.shape, out=out)
        rows = slice(start, start + len(block))
        r_full = sample_covariance(simulate_snapshots(geom, scenes, block))
        targets[rows] = flatten_features(spatial_smoothing(redundancy_average(r_full, geom)))
        inputs[rows] = flatten_features(np.stack([repair_input(variant, r, f)
                                                  for r, f in zip(r_full, failed)]))
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError("dataset contains non-finite features")
    meta = {"variant": variant, "geometry": list(geom.positions), "seed": seed,
            **dataclasses.asdict(policy)}
    return TrainingDataset(inputs=inputs, targets=targets, meta=meta)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float
    seconds: float


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the history so far."""

    def __init__(self, message: str, history: list[EpochStats]):
        super().__init__(message)
        self.history = history


def training_rows(n_samples: int, split: float) -> int:
    """Rows in the training split, the first round(split * n_samples); ``train``
    needs at least two to fit the min-max stats."""
    n_train = int(round(split * n_samples))
    if not 2 <= n_train <= n_samples:
        raise ValueError(f"split {split} of {n_samples} rows leaves no usable training rows")
    return n_train


def train(model: MlpModel, dataset: TrainingDataset, epochs: int = 150,
          batch_size: int = 256, split: float = TRAIN_SPLIT, seed: int = 0,
          lr: float = 1e-3) -> list[EpochStats]:
    """Mini-batch Adam on min-max-normalized features.

    The first ``split`` fraction of rows is the training split; min-max
    stats are fitted on it alone and stored in the model. Losses are
    reported in normalized feature space: train as the running mean over
    the epoch's batches, validation as a full inference-mode pass. The
    ``ScenePolicy`` fields the dataset records are copied into the model's meta.
    """
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name}={value!r} must be an int of at least 1")
    if not 0 <= lr < math.inf:  # lr=0 runs the passes and keeps the parameters
        raise ValueError(f"lr={lr!r} must be finite and not negative")
    for key, own in (("variant", model.variant), ("geometry", model.meta.get("geometry"))):
        if dataset.meta.get(key, own) != own:  # a dataset that records neither passes
            raise ValueError(f"a dataset recorded for {key} {dataset.meta[key]} cannot "
                             f"train a model of {key} {own}")
    if dataset.inputs.shape[1] != model.d_in or dataset.targets.shape[1] != model.d_out:
        raise ValueError(f"dataset dims {dataset.inputs.shape[1]}->{dataset.targets.shape[1]} "
                         f"do not match model dims {model.d_in}->{model.d_out}")
    n_train = training_rows(dataset.n_samples, split)
    model.input_stats = minmax_fit(dataset.inputs[:n_train])
    model.target_stats = minmax_fit(dataset.targets[:n_train])
    dtype = model.flat.dtype  # the normalized split is rounded once into the model's dtype
    x_train = minmax_apply(dataset.inputs[:n_train], model.input_stats).astype(dtype, copy=False)
    y_train = minmax_apply(dataset.targets[:n_train], model.target_stats).astype(dtype, copy=False)
    x_val = minmax_apply(dataset.inputs[n_train:], model.input_stats).astype(dtype, copy=False)
    y_val = minmax_apply(dataset.targets[n_train:], model.target_stats).astype(dtype, copy=False)

    buffers = _train_buffers(model, min(batch_size, n_train))
    x_rows, y_rows = buffers["inputs"][0], np.empty_like(buffers["inputs"][-1])
    params = model.parameters()
    states = [adam_init(params[i:i + 2], lr=lr) for i in range(0, len(params), 2)]
    rng = stream_rng(seed, "train", model.variant)
    history: list[EpochStats] = []
    model.meta.update({
        "train_seed": seed, "epochs": epochs, "batch_size": batch_size,
        "split": split, "lr": lr, "dataset_fingerprint": dataset.fingerprint(),
        **{f.name: dataset.meta[f.name] for f in dataclasses.fields(ScenePolicy)
           if f.name in dataset.meta},
    })
    for epoch in range(1, epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, batch_size):
            rows = order[start : start + batch_size]
            # the rows are in range, and mode="raise" would gather through a copy
            batch = np.take(x_train, rows, axis=0, out=x_rows[:rows.size], mode="clip")
            batch_target = np.take(y_train, rows, axis=0, out=y_rows[:rows.size], mode="clip")
            pred, cache = mlp_forward(model, batch, train=True, rng=rng, buffers=buffers)
            loss = mse_loss(pred, batch_target, out=cache["delta"][-1])  # residual: output delta
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}", history)
            total += loss * rows.size
            mlp_backward(model, cache, pred, None, adam=states)
        val = mse_loss(mlp_forward(model, x_val), y_val) if x_val.shape[0] else float("nan")
        history.append(EpochStats(epoch=epoch, train_mse=total / n_train, val_mse=val,
                                  seconds=time.perf_counter() - tic))
    return history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_covariance(model: MlpModel, r_full: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Predicted smoothed covariances (B, m_v, m_v) of the failed array ``geom`` from a
    stack ``r_full`` (B, M, M) of physical covariances of every sensor. One ``repair_input``
    call for the model's own variant builds every input row, as it built the training rows,
    and one forward pass repairs the whole stack; a non-finite output anywhere raises."""
    if model.input_stats is None or model.target_stats is None:
        raise ValueError("model has no normalization stats; train or load it first")
    if np.ndim(r_full) != 3:
        raise ValueError(f"expected a stack of covariances (B, M, M), got shape {np.shape(r_full)}")
    features = flatten_features(repair_input(model.variant, r_full, geom))
    if features.shape[1] != model.d_in:
        raise ValueError(
            f"feature length {features.shape[1]} does not match model input {model.d_in}"
        )
    out = mlp_forward(model, minmax_apply(features, model.input_stats))
    if not np.isfinite(out).all():
        raise FloatingPointError("repair network output is not finite")
    return unflatten_features(minmax_invert(out, model.target_stats))


# ---------------------------------------------------------------------------
# file formats: one-line JSON header + raw parameter/record block
# ---------------------------------------------------------------------------

def _write_file(path, header: dict, blocks) -> None:
    """The header as one JSON line, then the raw bytes of each array block."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block))


def _read_file(path, magic: str, body_bytes) -> tuple[dict, bytearray]:
    """Header and data block of a file written by ``_write_file``. Rejects
    another format, and data whose size is not exactly ``body_bytes(header)``
    (truncated or with trailing data)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != magic:
            raise ValueError(f"not a {magic} file: {path}")
        expected = body_bytes(header)
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != expected:
            raise ValueError(f"{path}: header implies {expected} data bytes, found {found}")
        body = bytearray(expected)
        fh.readinto(body)
    return header, body


def _file_dtype(header: dict) -> np.dtype:
    """A model file's parameter dtype, little-endian; float64 files carry no ``dtype`` key."""
    return np.dtype(header.get("dtype", "float64")).newbyteorder("<")


def save_model(model: MlpModel, path) -> None:
    """JSON header line + little-endian parameters in the model's dtype, layer-major."""
    header = {
        "format": MODEL_MAGIC,
        "variant": model.variant,
        "layer_dims": model.layer_dims,
        **({"dtype": model.flat.dtype.name} if model.flat.dtype != np.float64 else {}),
        "dropout_rates": model.dropout_rates,
        "input_stats": model.input_stats.to_jsonable() if model.input_stats else None,
        "target_stats": model.target_stats.to_jsonable() if model.target_stats else None,
        "meta": model.meta,
    }
    _write_file(path, header, [model.flat.astype(_file_dtype(header), copy=False)])


def load_model(path) -> MlpModel:
    header, body = _read_file(path, MODEL_MAGIC, lambda h: _file_dtype(h).itemsize
                              * _parameter_count(h["layer_dims"]))
    dims = header["layer_dims"]
    stats = {key: NormStats.from_jsonable(header[key]) if header[key] else None
             for key in ("input_stats", "target_stats")}
    for (key, s), width in zip(stats.items(), (dims[0], dims[-1])):
        if s is not None and not s.minimum.shape == s.maximum.shape == (width,):
            raise ValueError(f"{path}: {key} must hold {width} values per array for "
                             f"layer_dims {dims}")
    model = MlpModel(
        variant=header["variant"],
        layer_dims=dims,
        flat=np.frombuffer(body, _file_dtype(header)),  # the model keeps the buffer
        dropout_rates=header["dropout_rates"],
        meta=header.get("meta", {}),
        **stats,
    )
    arrays = [model.flat] + [a for s in stats.values() if s is not None
                             for a in (s.minimum, s.maximum)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{path}: non-finite parameters or normalization stats")
    return model


def save_dataset(dataset: TrainingDataset, path) -> None:
    """JSON header line + float32 little-endian rows (inputs then targets)."""
    header = {
        "format": DATASET_MAGIC,
        "n_samples": dataset.n_samples,
        "d_in": dataset.inputs.shape[1],
        "d_out": dataset.targets.shape[1],
        "meta": dataset.meta,
    }
    _write_file(path, header, (  # in row chunks, so saving makes no second copy of the rows
        np.concatenate([dataset.inputs[lo:lo + 1024], dataset.targets[lo:lo + 1024]], axis=1,
                       dtype="<f4") for lo in range(0, dataset.n_samples, 1024)))


def load_dataset(path) -> TrainingDataset:
    header, body = _read_file(path, DATASET_MAGIC,
                              lambda h: 4 * h["n_samples"] * (h["d_in"] + h["d_out"]))
    n, d_in, d_out = header["n_samples"], header["d_in"], header["d_out"]
    records = np.frombuffer(body, dtype="<f4").reshape(n, d_in + d_out)  # the rows keep the buffer
    if not np.isfinite(records.sum(dtype=np.float64)):  # exact: float32 sums never overflow it
        raise ValueError(f"{path}: non-finite dataset rows")
    return TrainingDataset(inputs=records[:, :d_in], targets=records[:, d_in:],
                           meta=header.get("meta", {}))
