"""Config-driven Monte Carlo harness: paired-trial SNR sweeps comparing
SS-MUSIC on the intact array, the failed array, and the two repair
networks, with the coarray CRB alongside.

Seed discipline: trial q at SNR s draws its scene and noise from the
substream (master, "scene", s, q), which no method identifier enters, so
every method sees the identical realization and the comparison is paired
by construction. Trials that raise numeric errors are excluded from the
MSE and folded into the res_fail_rate column; per-trial details stay in
the TrialRecord list.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import dataclasses
import json
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .geometry import ArrayGeometry, _integer, difference_coarray, mra_lookup
from .neural import (
    DATA_DRIVEN,
    HYBRID,
    TRAIN_SPLIT,
    MlpModel,
    ScenePolicy,
    generate_dataset,
    build_model,
    predict_covariance,
    repair_input,
    train,
    training_rows,
)
from .signals import (
    draw_angles,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    stream_rng,
    stream_seed,
)
from .spectral import _grid_size, crb, doa_mse, music_spectrum, pick_peaks

__all__ = [
    "METHOD_NONE",
    "METHOD_FAILED",
    "METHOD_HYBRID",
    "METHOD_DATA_DRIVEN",
    "METHOD_CRB",
    "PRESETS",
    "ExperimentConfig",
    "TrialRecord",
    "SweepResult",
    "preset",
    "trial_snapshots",
    "run_trial",
    "run_sweep",
    "emit_spectrum",
    "results_csv",
    "records_csv",
    "spectrum_csv",
    "run_manifest",
    "training_policy",
    "train_variant",
]

METHOD_NONE = "none"
METHOD_FAILED = "failed-baseline"
METHOD_HYBRID = HYBRID  # a repair method is named after its network's variant
METHOD_DATA_DRIVEN = DATA_DRIVEN
METHOD_CRB = "crb"
_METHODS = (METHOD_NONE, METHOD_FAILED, METHOD_HYBRID, METHOD_DATA_DRIVEN, METHOD_CRB)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run (generation, training, sweep)."""

    positions: tuple[int, ...] | None = None
    m: int = 10
    k: int = 9
    angle_min: float = 10.0
    angle_max: float = 70.0
    min_gap: float = 5.0
    n_snapshots: int = 200
    train_snr_min: float = -10.0
    train_snr_max: float = 10.0
    test_snrs_db: tuple[float, ...] = tuple(float(s) for s in range(-20, 22, 2))
    q_trials: int = 1000
    train_max_failures: int = 2
    train_include_no_failure: bool = False
    test_failures: tuple[int, ...] = (1, 5)
    methods: tuple[str, ...] = _METHODS
    grid_step: float = 0.05
    n_train_samples: int = 300_000
    epochs: int = 150
    batch_size: int = 256
    learning_rate: float = 1e-3
    master_seed: int = 20230
    rng_algorithm: str = "PCG64"
    workers: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):  # exact types: a bool or a whole float is no int here
            kind, value = type(f.default), getattr(self, f.name)
            if kind in (int, bool) and type(value) is not kind:
                raise ValueError(f"{f.name}={value!r} must be of type {kind.__name__}")
        if self.positions is not None:
            object.__setattr__(self, "positions",
                               tuple(_integer(p, "positions entry") for p in self.positions))
        object.__setattr__(self, "test_snrs_db", tuple(float(s) for s in self.test_snrs_db))
        object.__setattr__(self, "test_failures",
                           tuple(_integer(i, "test_failures entry") for i in self.test_failures))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.test_snrs_db or len(set(self.test_snrs_db)) < len(self.test_snrs_db):
            raise ValueError(f"test SNRs {list(self.test_snrs_db)} must be non-empty and distinct")
        if len(set(self.test_failures)) < len(self.test_failures):
            raise ValueError(f"test_failures {list(self.test_failures)} must be distinct")
        for name in ("q_trials", "epochs", "batch_size", "n_snapshots", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be at least 1")
        if not self.grid_step > 0:
            raise ValueError(f"grid_step={self.grid_step} must be positive")
        if _grid_size(self.grid_step) < self.k:
            raise ValueError(f"grid_step={self.grid_step} leaves fewer grid angles than "
                             f"k={self.k} sources")
        for name in ("angle_min", "angle_max", "min_gap", "train_snr_min", "train_snr_max",
                     "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be finite")
        if not -90 < self.angle_min <= self.angle_max < 90:
            raise ValueError(f"angle_min={self.angle_min} and angle_max={self.angle_max} "
                             "must satisfy -90 < angle_min <= angle_max < 90")
        if self.min_gap < 0:
            raise ValueError(f"min_gap={self.min_gap} must be non-negative")
        if self.train_snr_min > self.train_snr_max:
            raise ValueError(f"train_snr_min={self.train_snr_min} exceeds "
                             f"train_snr_max={self.train_snr_max}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate={self.learning_rate} must be positive")
        stream_seed(self.master_seed, "scene", *self.test_snrs_db)  # rejects unkeyable values
        if self.rng_algorithm != "PCG64":
            raise ValueError("only the PCG64 generator is supported")
        unknown = set(self.methods) - set(_METHODS)
        if unknown or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods {list(self.methods)} must be distinct names of {_METHODS}")
        if not self.estimation_methods:
            raise ValueError(f"no estimation method in {list(self.methods)}; crb adds a column")
        # built once; not fields, so to_json() and == ignore them
        geom = ArrayGeometry(self.positions) if self.positions is not None else mra_lookup(self.m)
        object.__setattr__(self, "_geometry", geom)
        object.__setattr__(self, "_failed_geometry", geom.with_failures(self.test_failures))
        low = 0 if self.train_include_no_failure else 1
        if not low <= self.train_max_failures < geom.size:
            raise ValueError(f"train_max_failures={self.train_max_failures} must lie in "
                             f"{low}..{geom.size - 1} for {geom.size} sensors")
        m_v = difference_coarray(geom).m_v
        if not 1 <= self.k < m_v:
            raise ValueError(f"source count k={self.k} must satisfy 1 <= k < m_v={m_v} "
                             "of the intact array's coarray")
        if (self.k - 1) * self.min_gap > self.angle_max - self.angle_min:
            raise ValueError(f"k={self.k} sources {self.min_gap} deg apart do not fit "
                             f"[{self.angle_min}, {self.angle_max}]")
        training_rows(self.n_train_samples, TRAIN_SPLIT)

    def geometry(self) -> ArrayGeometry:
        """The intact array."""
        return self._geometry

    def failed_geometry(self) -> ArrayGeometry:
        """The array with the sensors of ``test_failures`` failed."""
        return self._failed_geometry

    @property
    def estimation_methods(self) -> tuple[str, ...]:
        return tuple(m for m in self.methods if m != METHOD_CRB)

    @property
    def wants_crb(self) -> bool:
        return METHOD_CRB in self.methods

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


PRESETS = {
    "paper": {},
    "paper-alt": {"test_failures": (1, 4)},
    "desk": {
        "m": 5,
        "k": 3,
        "q_trials": 300,
        "test_snrs_db": (-10.0, -4.0, 0.0, 4.0, 10.0),
        "test_failures": (1, 3),
        "n_train_samples": 20_000,
    },
}


def preset(name: str, **overrides) -> ExperimentConfig:
    """``PRESETS[name]`` over the ExperimentConfig defaults, then ``overrides``:
    ``paper`` (full-scale protocol, failures at sensors 1 and 5), ``paper-alt``
    (failures at 1 and 4), and ``desk`` (scaled-down run that finishes on a laptop)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (use {', '.join(PRESETS)})")
    return ExperimentConfig(**{**PRESETS[name], **overrides})


@dataclass
class TrialRecord:
    """One method's estimate on one Monte Carlo trial."""

    trial: int
    snr_db: float
    method: str
    estimated_deg: tuple[float, ...]
    true_deg: tuple[float, ...]
    resolution_failure: bool
    error: str | None = None

    @property
    def squared_errors(self) -> tuple[float, ...]:
        """Per-source squared error (deg^2) of the angle-ascending estimates."""
        return tuple((e - t) * (e - t) for e, t in zip(self.estimated_deg, self.true_deg))


def trial_snapshots(config: ExperimentConfig, snr_db: float, trial: int):
    """Scene and M x N snapshots of one trial: the sweep's block path with a block of one."""
    (scene,), (y,) = _block_snapshots(config, [(snr_db, trial)])
    return scene, y


def _block_snapshots(config: ExperimentConfig, items):
    """Scenes and (B, M, N) snapshots of a block of (snr_db, trial) items; item j draws its
    angles and normals from the substream (master, "scene", snr, trial) that every method
    and command shares, and one ``simulate_snapshots`` call mixes the block."""
    geom, scenes = config.geometry(), []
    draws = np.empty((len(items), 2 * (config.k + geom.size), config.n_snapshots))
    for (snr_db, trial), out in zip(items, draws):
        rng = stream_rng(config.master_seed, "scene", float(snr_db), trial)
        scenes.append(scene_from_snr(draw_angles(config.k, config.angle_min, config.angle_max,
                                                 config.min_gap, rng), snr_db))
        rng.standard_normal(out.shape, out=out)
    return scenes, simulate_snapshots(geom, scenes, draws)


_BLOCK_ITEMS = 32  # (SNR, trial) items per block: one repair-network forward per model


def _music_inputs(config: ExperimentConfig, methods, items, models):
    """Scenes of a block of (snr_db, trial) items, each method's stacked covariances for
    MUSIC (one per item), and (stage, clock) reads: a start, simulate, then each method.
    The snapshot mix, each covariance layer and each repair network run once per block."""
    clock = [("start", time.perf_counter())]
    scenes, snapshots = _block_snapshots(config, items)
    r_full = sample_covariance(snapshots)
    clock.append(("simulate", time.perf_counter()))
    inputs = {}
    for method in methods:
        if method in (METHOD_HYBRID, METHOD_DATA_DRIVEN):
            inputs[method] = predict_covariance(models[method], r_full, config.failed_geometry())
        else:  # none or failed-baseline: the intact or damaged smoothed matrix
            geom = config.geometry() if method == METHOD_NONE else config.failed_geometry()
            inputs[method] = repair_input(HYBRID, r_full, geom)
        clock.append((method, time.perf_counter()))
    return scenes, inputs, clock


def _run_block(config: ExperimentConfig, methods, items, models,
               with_crb: bool) -> tuple[list[TrialRecord], list[float], dict[str, float]]:
    """Every method's record on each (snr_db, trial) item of a block, each item's mean CRB
    diagonal (NaN without ``with_crb`` or a bound) and each stage's seconds, from one
    stacked MUSIC (row by row if it raises, timed as peaks) and one stacked CRB. A failed
    linear-algebra step in MUSIC or peak picking errs its record alone; others propagate."""
    scenes, inputs, clock = _music_inputs(config, methods, items, models)
    stack = np.stack([inputs[m] for m in methods], 1).reshape(-1, *inputs[methods[0]].shape[1:])
    try:
        spectra = music_spectrum(stack, config.k, grid_step=config.grid_step)
    except np.linalg.LinAlgError:
        spectra = None
    clock.append(("music", time.perf_counter()))
    records = []
    for (snr_db, trial), scene in zip(items, scenes):
        truth = tuple(float(a) for a in scene.angles_deg)
        for method in methods:
            row = len(records)
            estimated, failure, error = (float("nan"),) * config.k, True, None
            try:
                peaks = pick_peaks(spectra[row] if spectra is not None else music_spectrum(
                    stack[row:row + 1], config.k, grid_step=config.grid_step)[0], config.k)
                estimated = tuple(float(a) for a in peaks.angles_deg)
                failure = bool(peaks.resolution_failure)
            except np.linalg.LinAlgError as exc:
                error = f"{type(exc).__name__}: {exc}"
            records.append(TrialRecord(trial, snr_db, method, estimated, truth, failure, error))
    clock.append(("peaks", time.perf_counter()))
    bounds = (crb(config.geometry(), scenes, config.n_snapshots) if with_crb
              else np.full((len(items), 1, 1), np.nan))  # a scene with no bound is NaN
    clock.append(("crb", time.perf_counter()))
    seconds = {stage: toc - tic for (_, tic), (stage, toc) in zip(clock, clock[1:])}
    return records, [float(np.mean(np.diag(bound))) for bound in bounds], seconds


def _policy_mismatch(config: ExperimentConfig, meta: dict) -> str:
    """The ``training_policy(config)`` fields that ``meta`` records with another value;
    a field it lacks or holds as null passes, so that older files still load."""
    return ", ".join(f"{name}={meta[name]!r} (config {value!r})"
                     for name, value in dataclasses.asdict(training_policy(config)).items()
                     if meta.get(name) is not None and meta[name] != value)


def _check_models(config: ExperimentConfig, methods, models) -> None:
    """``methods`` must be one or more distinct estimation methods, and every repair method
    among them needs a trained model of its variant, fitted on the config's geometry
    under its training policy (``_policy_mismatch``); a missing, untrained or
    mismatched one fails before any scene is drawn."""
    if not 0 < len(methods) == len(set(methods) & (set(_METHODS) - {METHOD_CRB})):
        raise ValueError(f"methods {list(methods)} must be one or more distinct estimation "
                         f"methods, such as the config's {list(config.estimation_methods)}")
    needed = sorted(set(methods) & {METHOD_HYBRID, METHOD_DATA_DRIVEN})
    missing = [m for m in needed if m not in (models or {})]
    if missing:
        raise ValueError(f"missing trained models for methods {missing}")
    positions = config.geometry().positions
    for method in needed:
        model = models[method]
        if model.input_stats is None or model.target_stats is None:
            raise ValueError(f"the {method!r} model has no normalization stats; "
                             "train or load it first")
        trained_on = tuple(model.meta.get("geometry", ()))
        differing = _policy_mismatch(config, model.meta)
        if model.variant != method or trained_on != positions or differing:
            detail = f"; its training policy differs in {differing}" if differing else ""
            raise ValueError(f"{method!r} needs a {method!r} model trained on geometry "
                             f"{list(positions)} with K={config.k}, got a "
                             f"{model.variant!r} model trained on {list(trained_on)} "
                             f"with K={model.meta.get('n_sources')}{detail}")


def run_trial(config: ExperimentConfig, method: str, snr_db: float, trial: int,
              models: dict[str, MlpModel] | None = None) -> TrialRecord:
    """Runs one full pipeline trial, as a block of one item; deterministic in
    (master_seed, snr, trial)."""
    _check_models(config, (method,), models)
    (record,), _, _ = _run_block(config, (method,), [(snr_db, trial)], models, with_crb=False)
    return record


_WORKER_CTX: dict = {}
_WORKER_BLAS_THREADS = 1  # the workers already share the cores; more would oversubscribe them


def _blas_threads():
    """numpy's OpenBLAS thread-count getter and setter, found by dlsym via its extension."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError) as exc:
        raise RuntimeError(f"cannot set the thread count of numpy's BLAS: {exc}") from exc
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _init_worker(config: ExperimentConfig, models) -> None:
    _WORKER_CTX.update(config=config, models=models)  # the BLAS thread count is inherited


def _pool_block(items) -> tuple[list[TrialRecord], list[float], dict[str, float]]:
    config = _WORKER_CTX["config"]
    return _run_block(config, config.estimation_methods, items, _WORKER_CTX["models"],
                      config.wants_crb)


@dataclass
class SweepResult:
    """Aggregated sweep table, every trial record, and each stage's seconds summed over the
    blocks: under a pool, the workers' seconds, whose sum can exceed the wall time."""

    rows: list[dict]
    records: list[TrialRecord]
    seconds: dict[str, float]


def run_sweep(config: ExperimentConfig, models: dict[str, MlpModel] | None = None,
              workers: int | None = None) -> SweepResult:
    """Monte Carlo sweep over the test SNR grid.

    The (SNR, trial) items, SNR-major, are cut into blocks of ``_BLOCK_ITEMS``
    by their indices alone; a block simulates each of its scenes once and runs
    all configured methods on them. Blocks are reduced in order, so the
    aggregated table does not depend on the worker count. With ``workers > 1``
    (numpy's scipy-openblas only), a sweep of several blocks forks at most one
    worker per block at one BLAS thread, set by the parent: a worker's own setter
    call would start an OpenBLAS helper thread that spins for the worker's life.
    """
    _check_models(config, config.estimation_methods, models)
    workers = (config if workers is None else dataclasses.replace(config, workers=workers)).workers
    methods = config.estimation_methods
    items = [(snr_db, trial) for snr_db in config.test_snrs_db for trial in range(config.q_trials)]
    blocks = [items[i:i + _BLOCK_ITEMS] for i in range(0, len(items), _BLOCK_ITEMS)]
    get_threads, set_threads = _blas_threads() if workers > 1 else (None, None)
    workers = min(workers, len(blocks))  # a one-block sweep runs here, with no fork
    if workers == 1:
        outcomes = [_run_block(config, methods, block, models, config.wants_crb)
                    for block in blocks]
    else:
        parent_threads = get_threads()
        set_threads(_WORKER_BLAS_THREADS)
        try:  # fork: initargs (the models) are not pickled; workers keep the parent's tracing
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(config, models),
            ) as pool:
                outcomes = list(pool.map(_pool_block, blocks))
        finally:
            set_threads(parent_threads)
    all_records = [r for records, _, _ in outcomes for r in records]
    crb_diags = [c for _, diags, _ in outcomes for c in diags]
    seconds = {stage: sum(block[stage] for *_, block in outcomes) for stage in outcomes[0][2]}

    rows: list[dict] = []
    for snr_idx, snr_db in enumerate(config.test_snrs_db):
        lo, hi = snr_idx * config.q_trials, (snr_idx + 1) * config.q_trials
        snr_records = all_records[lo * len(methods):hi * len(methods)]
        crb_mean = float(np.mean(crb_diags[lo:hi]))  # NaN without crb: every diagonal is NaN
        for m_idx, method in enumerate(methods):
            recs = snr_records[m_idx::len(methods)]
            ok = [r for r in recs if r.error is None]
            failed = sum(1 for r in recs if r.resolution_failure or r.error is not None)
            mse = (doa_mse([r.estimated_deg for r in ok], [r.true_deg for r in ok])
                   if ok else float("nan"))
            rows.append({
                "method": method,
                "snr_db": snr_db,
                "mse_deg2": mse,
                "res_fail_rate": failed / config.q_trials,
                "crb_deg2": crb_mean,
                "q": len(ok),
            })
    return SweepResult(rows=rows, records=all_records, seconds=seconds)


def emit_spectrum(config: ExperimentConfig, snr_db: float, trial: int = 0,
                  models: dict[str, MlpModel] | None = None,
                  methods: tuple[str, ...] | None = None):
    """Pseudospectra of every method on one shared trial realization."""
    methods = methods if methods is not None else config.estimation_methods
    _check_models(config, methods, models)
    (scene,), inputs, _ = _music_inputs(config, methods, [(snr_db, trial)], models)
    spectra = music_spectrum(np.concatenate([inputs[method] for method in methods]), config.k,
                             grid_step=config.grid_step)
    return spectra.grid, dict(zip(methods, spectra.values)), scene


# ---------------------------------------------------------------------------
# training orchestration
# ---------------------------------------------------------------------------

def training_policy(config: ExperimentConfig) -> ScenePolicy:
    """The scene protocol the config's repair networks are trained under."""
    return ScenePolicy(
        n_sources=config.k, angle_min=config.angle_min, angle_max=config.angle_max,
        min_gap=config.min_gap, snr_min=config.train_snr_min, snr_max=config.train_snr_max,
        n_snapshots=config.n_snapshots, max_failures=config.train_max_failures,
        include_no_failure=config.train_include_no_failure,
    )


def train_variant(config: ExperimentConfig, variant: str, dataset=None):
    """Generates the variant's dataset (unless given) and trains its model,
    both seeded by the config's master seed. A given dataset recorded under
    another training policy is rejected."""
    geom = config.geometry()
    if dataset is None:
        dataset = generate_dataset(
            variant, geom, training_policy(config), config.n_train_samples,
            seed=config.master_seed,
        )
    differing = _policy_mismatch(config, dataset.meta)
    if differing:
        raise ValueError(f"the dataset's training policy differs from the config's in {differing}")
    model = build_model(variant, geom, seed=config.master_seed)
    history = train(
        model, dataset,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.master_seed,
        lr=config.learning_rate,
    )
    return model, history


# ---------------------------------------------------------------------------
# serialization of results
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv(header: list[str], rows) -> str:
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def results_csv(rows: list[dict]) -> str:
    cols = ["method", "snr_db", "mse_deg2", "res_fail_rate", "crb_deg2", "q"]
    return _csv(cols, ([_fmt(row[c]) for c in cols] for row in rows))


def records_csv(records: list[TrialRecord]) -> str:
    header = ["method", "snr_db", "trial", "res_fail", "error",
              "true_deg", "estimated_deg", "squared_errors"]
    return _csv(header, ([
        r.method,
        _fmt(r.snr_db),
        str(r.trial),
        str(int(r.resolution_failure)),
        (r.error or "").replace(",", ";"),
        ";".join(_fmt(v) for v in r.true_deg),
        ";".join(_fmt(v) for v in r.estimated_deg),
        ";".join(_fmt(v) for v in r.squared_errors),
    ] for r in records))


def spectrum_csv(grid: np.ndarray, spectra: dict[str, np.ndarray]) -> str:
    methods = list(spectra)
    return _csv(["angle_deg"] + methods,
                ([_fmt(float(angle))] + [_fmt(float(spectra[m][i])) for m in methods]
                 for i, angle in enumerate(grid)))


def run_manifest(config: ExperimentConfig, outputs: dict[str, str],
                 seconds: dict[str, float]) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "package": "sparsedoa",
        "version": __version__,
        "numpy": np.__version__,
        "numpy_blas": {"name": blas["name"], "version": blas["version"]},
        "worker_blas_threads": _WORKER_BLAS_THREADS,
        "rng_algorithm": config.rng_algorithm,
        "master_seed": config.master_seed,
        "config": dataclasses.asdict(config),
        "outputs": outputs,
        "stage_seconds": seconds,
    }
    return json.dumps(manifest, indent=2, sort_keys=True)
