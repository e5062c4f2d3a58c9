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

import hashlib
import json
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
    "HYBRID",
    "DATA_DRIVEN",
    "NormStats",
    "MlpModel",
    "AdamState",
    "ScenePolicy",
    "TrainingDataset",
    "EpochStats",
    "TrainingDiverged",
    "minmax_fit",
    "minmax_apply",
    "minmax_invert",
    "build_model",
    "mlp_forward",
    "mlp_backward",
    "mse_loss",
    "adam_init",
    "adam_step",
    "repair_input",
    "generate_dataset",
    "train",
    "predict_covariance",
    "save_model",
    "load_model",
    "save_dataset",
    "load_dataset",
]

HYBRID = "hybrid"
DATA_DRIVEN = "data-driven"

MODEL_MAGIC = "sparsedoa-model-v1"
DATASET_MAGIC = "sparsedoa-dataset-v1"


# ---------------------------------------------------------------------------
# min-max normalization
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    """Per-feature min/max from the fit set; constant features pass through."""

    minimum: np.ndarray
    maximum: np.ndarray
    constant: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "minimum": self.minimum.tolist(),
            "maximum": self.maximum.tolist(),
            "constant": self.constant.astype(int).tolist(),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "NormStats":
        return cls(
            minimum=np.asarray(data["minimum"], dtype=np.float64),
            maximum=np.asarray(data["maximum"], dtype=np.float64),
            constant=np.asarray(data["constant"], dtype=bool),
        )


def minmax_fit(data: np.ndarray) -> NormStats:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("fit needs a 2-D array with at least two rows")
    if not np.isfinite(data).all():
        raise ValueError("non-finite values in normalization fit data")
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    return NormStats(minimum=lo, maximum=hi, constant=hi <= lo)


def minmax_apply(data: np.ndarray, stats: NormStats) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    span = np.where(stats.constant, 1.0, stats.maximum - stats.minimum)
    shift = np.where(stats.constant, 0.0, stats.minimum)
    return (data - shift) / span


def minmax_invert(data: np.ndarray, stats: NormStats) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    span = np.where(stats.constant, 1.0, stats.maximum - stats.minimum)
    shift = np.where(stats.constant, 0.0, stats.minimum)
    return data * span + shift


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class MlpModel:
    """Dense network parameters plus the normalization fitted at train time.

    ``layer_dims`` is the width chain [d_in, out_1, ..., out_n];
    ``dropout_rates[i]`` is the post-activation drop probability after
    affine layer i (the output layer's rate is always 0).
    """

    variant: str
    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rates: list[float]
    input_stats: NormStats | None = None
    target_stats: NormStats | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params


def feature_widths(geom: ArrayGeometry) -> tuple[int, int]:
    """(L, H) = (2*M^2, 2*m_v^2) for the failure-free geometry."""
    m_v = difference_coarray(geom.with_failures(())).m_v
    return 2 * geom.size**2, 2 * m_v**2


def build_model(variant: str, geom: ArrayGeometry, seed: int = 0) -> MlpModel:
    """Glorot-uniform initialized repair network for the given geometry."""
    l_dim, h_dim = feature_widths(geom)
    if variant == HYBRID:
        dims = [h_dim, h_dim, h_dim, h_dim, h_dim]
        dropout = [0.2, 0.4, 0.0, 0.0]
    elif variant == DATA_DRIVEN:
        dims = [l_dim, l_dim, l_dim, h_dim, h_dim, h_dim]
        dropout = [0.2, 0.2, 0.2, 0.2, 0.0]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    rng = stream_rng(seed, "init", variant)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        variant=variant,
        layer_dims=dims,
        weights=weights,
        biases=biases,
        dropout_rates=dropout,
        meta={"geometry": list(geom.positions), "init_seed": seed},
    )


def mlp_forward(model: MlpModel, batch: np.ndarray, train: bool = False, rng=None):
    """Forward pass; in train mode also returns the backprop cache.

    Hidden layers apply affine -> ReLU -> inverted dropout (kept units
    scaled by 1/(1-p)); the output layer is affine only. Inference mode
    applies no dropout and is deterministic.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.d_in:
        raise ValueError(f"expected batch shape (B, {model.d_in}), got {x.shape}")
    if train and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")
    cache = {"inputs": [], "relu_mask": [], "drop_mask": []}
    out = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        cache["inputs"].append(out)
        out = out @ w + b
        if i == last:
            cache["relu_mask"].append(None)
            cache["drop_mask"].append(None)
            break
        mask = out > 0
        out = np.maximum(out, 0.0)  # carries NaN through, unlike a masked select
        cache["relu_mask"].append(mask)
        p = model.dropout_rates[i]
        if train and p > 0.0:
            keep = rng.random(out.shape) >= p
            out = out * keep / (1.0 - p)
            cache["drop_mask"].append(keep)
        else:
            cache["drop_mask"].append(None)
    if train:
        return out, cache
    return out


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((output - target) ** 2))


def mlp_backward(model: MlpModel, cache: dict, output: np.ndarray,
                 target: np.ndarray):
    """Exact MSE gradients for all weights and biases.

    The loss is the mean over batch entries and features, so the output
    gradient is 2*(output - target)/(B*D); active dropout masks from the
    cached forward pass are respected.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != output.shape:
        raise ValueError(f"target shape {target.shape} != output shape {output.shape}")
    delta = 2.0 * (output - target) / output.size
    grads_w: list[np.ndarray] = [None] * model.n_layers
    grads_b: list[np.ndarray] = [None] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        grads_w[i] = cache["inputs"][i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i == 0:
            break
        delta = delta @ model.weights[i].T
        keep = cache["drop_mask"][i - 1]
        if keep is not None:
            p = model.dropout_rates[i - 1]
            delta = delta * keep / (1.0 - p)
        delta = delta * cache["relu_mask"][i - 1]
    grads: list[np.ndarray] = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend((gw, gb))
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, step count and learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 1e-3


def adam_init(params: list[np.ndarray], lr: float) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state lengths differ")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


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
    """Feature rows for one repair variant: inputs P x D_in, targets P x H."""

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def fingerprint(self) -> str:
        """Hash of the meta and of the rows as held: a dataset reloaded from
        its float32 file hashes apart from the float64 rows it was saved from."""
        digest = hashlib.blake2b(digest_size=32)
        digest.update(json.dumps(self.meta, sort_keys=True).encode())
        digest.update(np.ascontiguousarray(self.inputs))
        digest.update(np.ascontiguousarray(self.targets))
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

    Each sample draws angles, SNR, and a failure set, simulates snapshots
    once, and derives the input (``repair_input``) and the target (smoothed
    covariance of the intact array from the same snapshots).
    """
    if variant not in (HYBRID, DATA_DRIVEN):
        raise ValueError(f"unknown variant {variant!r}")
    if geom.failed:
        raise ValueError("dataset geometry must be failure-free; failures are drawn per sample")
    l_dim, h_dim = feature_widths(geom)
    d_in = h_dim if variant == HYBRID else l_dim
    inputs = np.empty((n_samples, d_in), dtype=np.float64)
    targets = np.empty((n_samples, h_dim), dtype=np.float64)
    rng = stream_rng(seed, "dataset", variant)
    for i in range(n_samples):
        scene = policy.draw_scene(rng)
        failed = policy.draw_failures(geom, rng)
        y = simulate_snapshots(geom, scene, policy.n_snapshots, rng)
        r_full = sample_covariance(y)
        targets[i] = flatten_features(spatial_smoothing(redundancy_average(r_full, geom)))
        inputs[i] = flatten_features(repair_input(variant, r_full, failed))
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError("dataset contains non-finite features")
    meta = {
        "variant": variant,
        "geometry": list(geom.positions),
        "n_sources": policy.n_sources,
        "angle_range": [policy.angle_min, policy.angle_max],
        "min_gap": policy.min_gap,
        "snr_range": [policy.snr_min, policy.snr_max],
        "n_snapshots": policy.n_snapshots,
        "max_failures": policy.max_failures,
        "include_no_failure": policy.include_no_failure,
        "seed": seed,
    }
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


def train(model: MlpModel, dataset: TrainingDataset, epochs: int = 150,
          batch_size: int = 256, split: float = 0.8, seed: int = 0,
          lr: float = 1e-3) -> list[EpochStats]:
    """Mini-batch Adam on min-max-normalized features.

    The first ``split`` fraction of rows is the training split; min-max
    stats are fitted on it alone and stored in the model. Losses are
    reported in normalized feature space: train as the running mean over
    the epoch's batches, validation as a full inference-mode pass.
    """
    if epochs < 1:
        raise ValueError(f"epochs={epochs} must be at least 1")
    if dataset.inputs.shape[1] != model.d_in or dataset.targets.shape[1] != model.d_out:
        raise ValueError(
            f"dataset dims {dataset.inputs.shape[1]}->{dataset.targets.shape[1]} do not "
            f"match model dims {model.d_in}->{model.d_out}"
        )
    n_train = int(round(split * dataset.n_samples))
    if not 2 <= n_train <= dataset.n_samples:
        raise ValueError(f"split {split} leaves no usable training rows")
    model.input_stats = minmax_fit(dataset.inputs[:n_train])
    model.target_stats = minmax_fit(dataset.targets[:n_train])
    x_train = minmax_apply(dataset.inputs[:n_train], model.input_stats)
    y_train = minmax_apply(dataset.targets[:n_train], model.target_stats)
    x_val = minmax_apply(dataset.inputs[n_train:], model.input_stats)
    y_val = minmax_apply(dataset.targets[n_train:], model.target_stats)

    params = model.parameters()
    state = adam_init(params, lr=lr)
    rng = stream_rng(seed, "train", model.variant)
    history: list[EpochStats] = []
    model.meta.update({
        "train_seed": seed, "epochs": epochs, "batch_size": batch_size,
        "split": split, "lr": lr, "dataset_fingerprint": dataset.fingerprint(),
        "n_sources": dataset.meta.get("n_sources"),
    })
    for epoch in range(1, epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, batch_size):
            rows = order[start : start + batch_size]
            out, cache = mlp_forward(model, x_train[rows], train=True, rng=rng)
            batch_target = y_train[rows]
            loss = mse_loss(out, batch_target)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch}", history
                )
            total += loss * rows.size
            # no name holds the gradients, so they are freed before the next step
            adam_step(state, params, mlp_backward(model, cache, out, batch_target))
        if x_val.shape[0]:
            val = mse_loss(mlp_forward(model, x_val), y_val)
        else:
            val = float("nan")
        history.append(EpochStats(
            epoch=epoch,
            train_mse=total / n_train,
            val_mse=val,
            seconds=time.perf_counter() - tic,
        ))
    return history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_covariance(model: MlpModel, r_full: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Predicted smoothed covariance of the failed array ``geom``. The input is built from
    ``r_full``, the physical covariance of every sensor, by ``repair_input`` for the
    model's own variant, as its training rows were."""
    if model.input_stats is None or model.target_stats is None:
        raise ValueError("model has no normalization stats; train or load it first")
    features = flatten_features(repair_input(model.variant, r_full, geom))
    if features.size != model.d_in:
        raise ValueError(
            f"feature length {features.size} does not match model input {model.d_in}"
        )
    x = minmax_apply(features[None, :], model.input_stats)
    out = mlp_forward(model, x)
    if not np.isfinite(out).all():
        raise FloatingPointError("repair network output is not finite")
    return unflatten_features(minmax_invert(out[0], model.target_stats))


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


def _parameter_sizes(dims) -> list[int]:
    return [n for fan_in, fan_out in zip(dims, dims[1:]) for n in (fan_in * fan_out, fan_out)]


def save_model(model: MlpModel, path) -> None:
    """JSON header line + float64 little-endian parameters, layer-major."""
    header = {
        "format": MODEL_MAGIC,
        "variant": model.variant,
        "layer_dims": model.layer_dims,
        "dropout_rates": model.dropout_rates,
        "input_stats": model.input_stats.to_jsonable() if model.input_stats else None,
        "target_stats": model.target_stats.to_jsonable() if model.target_stats else None,
        "meta": model.meta,
    }
    _write_file(path, header, (p.astype("<f8", copy=False) for p in model.parameters()))


def load_model(path) -> MlpModel:
    header, body = _read_file(path, MODEL_MAGIC,
                              lambda h: 8 * sum(_parameter_sizes(h["layer_dims"])))
    dims = header["layer_dims"]
    params = np.split(np.frombuffer(body, dtype="<f8"),
                      np.cumsum(_parameter_sizes(dims))[:-1])
    stats = {key: NormStats.from_jsonable(header[key]) if header[key] else None
             for key in ("input_stats", "target_stats")}
    model = MlpModel(
        variant=header["variant"],
        layer_dims=dims,
        weights=[w.reshape(a, b) for w, a, b in zip(params[::2], dims, dims[1:])],
        biases=params[1::2],
        dropout_rates=header["dropout_rates"],
        meta=header.get("meta", {}),
        **stats,
    )
    arrays = params + [a for s in stats.values() if s is not None
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
    _write_file(path, header, [np.concatenate(
        [dataset.inputs.astype("<f4"), dataset.targets.astype("<f4")], axis=1)])


def load_dataset(path) -> TrainingDataset:
    header, body = _read_file(path, DATASET_MAGIC,
                              lambda h: 4 * h["n_samples"] * (h["d_in"] + h["d_out"]))
    n, d_in, d_out = header["n_samples"], header["d_in"], header["d_out"]
    records = np.frombuffer(body, dtype="<f4").reshape(n, d_in + d_out).astype(np.float64)
    if not np.isfinite(records).all():
        raise ValueError(f"{path}: non-finite dataset rows")
    return TrainingDataset(
        inputs=records[:, :d_in].copy(),
        targets=records[:, d_in:].copy(),
        meta=header.get("meta", {}),
    )
