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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .coarray import redundancy_average, spatial_smoothing
from .geometry import ArrayGeometry, difference_coarray, mra_lookup
from .neural import (
    DATA_DRIVEN,
    HYBRID,
    MlpModel,
    ScenePolicy,
    generate_dataset,
    build_model,
    predict_covariance,
    repair_input,
    train,
)
from .signals import (
    draw_angles,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    stream_rng,
    stream_seed,
)
from .spectral import MusicSpectrum, crb, doa_mse, music_spectrum, pick_peaks

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
        if self.positions is not None:
            object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        object.__setattr__(self, "test_snrs_db", tuple(float(s) for s in self.test_snrs_db))
        object.__setattr__(self, "test_failures", tuple(int(i) for i in self.test_failures))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.test_snrs_db:
            raise ValueError("test SNR grid must be non-empty")
        if self.q_trials < 1:
            raise ValueError("need at least one trial per SNR point")
        for name in ("epochs", "batch_size", "n_snapshots", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be at least 1")
        if not self.grid_step > 0:
            raise ValueError(f"grid_step={self.grid_step} must be positive")
        stream_seed(self.master_seed, "scene", *self.test_snrs_db)  # rejects unkeyable values
        if self.rng_algorithm != "PCG64":
            raise ValueError("only the PCG64 generator is supported")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
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
    wall_seconds: float
    error: str | None = None

    @property
    def squared_errors(self) -> tuple[float, ...]:
        """Per-source squared error (deg^2) of the angle-ascending estimates."""
        return tuple((e - t) * (e - t) for e, t in zip(self.estimated_deg, self.true_deg))


def trial_snapshots(config: ExperimentConfig, snr_db: float, trial: int):
    """Scene and M x N snapshots of one trial, drawn from the substream
    (master, "scene", snr, trial) that every method and command shares."""
    rng = stream_rng(config.master_seed, "scene", float(snr_db), trial)
    angles = draw_angles(config.k, config.angle_min, config.angle_max,
                         config.min_gap, rng)
    scene = scene_from_snr(angles, snr_db)
    return scene, simulate_snapshots(config.geometry(), scene, config.n_snapshots, rng)


def _spectrum(config: ExperimentConfig, method: str, r_full,
              models: dict[str, MlpModel] | None) -> MusicSpectrum:
    """MUSIC pseudospectrum of the covariance the method hands to MUSIC
    (intact, damaged, or repaired)."""
    if method == METHOD_NONE:
        r_music = spatial_smoothing(redundancy_average(r_full, config.geometry()))
    elif method == METHOD_FAILED:  # the damaged matrix the hybrid network repairs
        r_music = repair_input(HYBRID, r_full, config.failed_geometry())
    elif method in (METHOD_HYBRID, METHOD_DATA_DRIVEN):
        r_music = predict_covariance(models[method], r_full, config.failed_geometry())
    else:
        raise ValueError(f"unknown estimation method {method!r}")
    return music_spectrum(r_music, config.k, grid_step=config.grid_step)


def _estimate(config: ExperimentConfig, method: str, snr_db: float, trial: int,
              scene, r_full, models) -> TrialRecord:
    """One method's record on one trial; a failed linear-algebra step books an
    errored record, and any other error propagates."""
    tic = time.perf_counter()
    estimated = (float("nan"),) * config.k
    resolution_failure, error = True, None
    try:
        peaks = pick_peaks(_spectrum(config, method, r_full, models), config.k)
        estimated = tuple(float(a) for a in peaks.angles_deg)
        resolution_failure = bool(peaks.resolution_failure)
    except np.linalg.LinAlgError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        trial=trial,
        snr_db=snr_db,
        method=method,
        estimated_deg=estimated,
        true_deg=tuple(float(a) for a in scene.angles_deg),
        resolution_failure=resolution_failure,
        wall_seconds=time.perf_counter() - tic,
        error=error,
    )


def _check_models(config: ExperimentConfig, methods, models) -> None:
    """Every repair method among ``methods`` needs a trained model of its
    variant, fitted on the config's geometry and source count (older models
    record none); a missing, untrained or mismatched one fails before any
    scene is drawn."""
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
        trained_k = model.meta.get("n_sources")
        if model.variant != method or trained_on != positions or trained_k not in (None, config.k):
            raise ValueError(f"{method!r} needs a {method!r} model trained on geometry "
                             f"{list(positions)} with K={config.k}, got a "
                             f"{model.variant!r} model trained on {list(trained_on)} "
                             f"with K={trained_k}")


def run_trial(config: ExperimentConfig, method: str, snr_db: float, trial: int,
              models: dict[str, MlpModel] | None = None) -> TrialRecord:
    """Runs one full pipeline trial; deterministic in (master_seed, snr, trial)."""
    _check_models(config, (method,), models)
    scene, y = trial_snapshots(config, snr_db, trial)
    return _estimate(config, method, snr_db, trial, scene, sample_covariance(y), models)


def _run_item(config: ExperimentConfig, snr_db: float, trial: int,
              models) -> tuple[list[TrialRecord], float]:
    scene, y = trial_snapshots(config, snr_db, trial)
    r_full = sample_covariance(y)
    records = [
        _estimate(config, method, snr_db, trial, scene, r_full, models)
        for method in config.estimation_methods
    ]
    crb_diag = float("nan")
    if config.wants_crb:
        crb_diag = float(np.mean(np.diag(crb(config.geometry(), scene, config.n_snapshots))))
    return records, crb_diag


_WORKER_CTX: dict = {}
_WORKER_BLAS_THREADS = 1  # the workers already share the cores; more would oversubscribe them


def _blas_thread_setter():
    """numpy's OpenBLAS thread-count setter; dlsym finds it via numpy's extension module."""
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError) as exc:
        raise RuntimeError(f"cannot set the thread count of numpy's BLAS: {exc}") from exc
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def _init_worker(config: ExperimentConfig, models, set_blas_threads) -> None:
    set_blas_threads(_WORKER_BLAS_THREADS)
    _WORKER_CTX["config"] = config
    _WORKER_CTX["models"] = models


def _pool_item(args) -> tuple[list[TrialRecord], float]:
    snr_idx, trial = args
    config = _WORKER_CTX["config"]
    return _run_item(config, config.test_snrs_db[snr_idx], trial, _WORKER_CTX["models"])


@dataclass
class SweepResult:
    """Aggregated sweep table plus every underlying trial record."""

    rows: list[dict]
    records: list[TrialRecord] = field(default_factory=list)


def run_sweep(config: ExperimentConfig, models: dict[str, MlpModel] | None = None,
              workers: int | None = None) -> SweepResult:
    """Monte Carlo sweep over the test SNR grid.

    One work item per (SNR, trial) simulates the scene once and runs all
    configured methods on it. Items are reduced in (SNR, trial) order, so
    the aggregated table does not depend on the worker count.
    """
    _check_models(config, config.estimation_methods, models)
    workers = config.workers if workers is None else workers
    items = [
        (snr_idx, trial)
        for snr_idx in range(len(config.test_snrs_db))
        for trial in range(config.q_trials)
    ]
    if workers <= 1:
        outcomes = [_run_item(config, config.test_snrs_db[snr_idx], trial, models)
                    for snr_idx, trial in items]
    else:
        # fork: initargs (the models) are not pickled; workers keep the parent's tracing
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(config, models, _blas_thread_setter()),
        ) as pool:
            chunk = max(1, len(items) // (8 * workers))
            outcomes = list(pool.map(_pool_item, items, chunksize=chunk))

    rows: list[dict] = []
    all_records: list[TrialRecord] = []
    for snr_idx, snr_db in enumerate(config.test_snrs_db):
        trial_results = outcomes[snr_idx * config.q_trials:(snr_idx + 1) * config.q_trials]
        for records, _ in trial_results:
            all_records.extend(records)
        crb_vals = np.asarray([c for _, c in trial_results])
        crb_mean = float(np.mean(crb_vals)) if config.wants_crb else float("nan")
        for m_idx, method in enumerate(config.estimation_methods):
            recs = [records[m_idx] for records, _ in trial_results]
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
    return SweepResult(rows=rows, records=all_records)


def emit_spectrum(config: ExperimentConfig, snr_db: float, trial: int = 0,
                  models: dict[str, MlpModel] | None = None,
                  methods: tuple[str, ...] | None = None):
    """Pseudospectra of every method on one shared trial realization."""
    methods = methods if methods is not None else config.estimation_methods
    _check_models(config, methods, models)
    scene, y = trial_snapshots(config, snr_db, trial)
    r_full = sample_covariance(y)
    spectra = {method: _spectrum(config, method, r_full, models) for method in methods}
    grid = next(iter(spectra.values())).grid if spectra else None
    return grid, {method: s.values for method, s in spectra.items()}, scene


# ---------------------------------------------------------------------------
# training orchestration
# ---------------------------------------------------------------------------

def training_policy(config: ExperimentConfig) -> ScenePolicy:
    return ScenePolicy(
        n_sources=config.k,
        angle_min=config.angle_min,
        angle_max=config.angle_max,
        min_gap=config.min_gap,
        snr_min=config.train_snr_min,
        snr_max=config.train_snr_max,
        n_snapshots=config.n_snapshots,
        max_failures=config.train_max_failures,
        include_no_failure=config.train_include_no_failure,
    )


def train_variant(config: ExperimentConfig, variant: str, dataset=None):
    """Generates the variant's dataset (unless given) and trains its model,
    both seeded by the config's master seed."""
    geom = config.geometry()
    if dataset is None:
        dataset = generate_dataset(
            variant, geom, training_policy(config), config.n_train_samples,
            seed=config.master_seed,
        )
    model = build_model(variant, geom, seed=config.master_seed)
    history = train(
        model, dataset,
        epochs=config.epochs,
        batch_size=config.batch_size,
        split=0.8,
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
    header = ["method", "snr_db", "trial", "res_fail", "wall_seconds", "error",
              "true_deg", "estimated_deg", "squared_errors"]
    return _csv(header, ([
        r.method,
        _fmt(r.snr_db),
        str(r.trial),
        str(int(r.resolution_failure)),
        _fmt(r.wall_seconds),
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


def run_manifest(config: ExperimentConfig, outputs: dict[str, str]) -> str:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "package": "sparsedoa",
        "version": __version__,
        "numpy": np.__version__,
        "numpy_blas": {"name": blas["name"], "version": blas["version"]},
        "worker_blas_threads": _WORKER_BLAS_THREADS,
        "scipy": scipy.__version__,
        "rng_algorithm": config.rng_algorithm,
        "master_seed": config.master_seed,
        "config": dataclasses.asdict(config),
        "outputs": outputs,
    }
    return json.dumps(manifest, indent=2, sort_keys=True)
