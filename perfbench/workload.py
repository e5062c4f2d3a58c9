"""One benchmark workload in a fresh interpreter: set-up, timed rounds, checks.

A round is the paper's pipeline through the public API: ``generate_dataset``
for both repair variants, ``build_model``/``train`` for both, then
``run_sweep`` with all five methods. Rounds repeat until the run's seconds
are used; every rate is total work over total time. With ``--trace 1`` untraced
and traced rounds alternate, and the traced ones give the per-layer numbers.

Prints ``ready`` once set-up is done (the parent times set-up up to that
line) and, as its last line, one JSON object with the run's results.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import sparsedoa as sd
from sparsedoa.harness import (
    METHOD_CRB,
    METHOD_DATA_DRIVEN,
    METHOD_FAILED,
    METHOD_HYBRID,
    METHOD_NONE,
    results_csv,
    training_policy,
)
from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent

# --seed 0 is the presets' own master seed, so the default run sees the
# program's default scenes; other seeds shift it.
BASE_SEED = 20230
VARIANTS = (sd.HYBRID, sd.DATA_DRIVEN)
SPLIT = 0.8
REPAIRED = (METHOD_HYBRID, METHOD_DATA_DRIVEN)
REFERENCE_METHODS = (METHOD_NONE, METHOD_FAILED, METHOD_CRB)
SAMPLED_ITEMS = 3
# Rows of the seed-0 sweep checked against reference.json: MSE and CRB may
# move by float summation order only; counts must not move at all.
REFERENCE_RTOL = 1e-9

# name -> (preset, overrides, sweep workers, sweeps per round). desk-pool
# runs desk's pipeline with the sweep on the harness process pool, in the
# inherited environment. Each pool's speed is set when its workers start
# (with inherited BLAS threads it lands near one of two modes), so its round
# runs many short sweeps to sample many pools.
DESK = {"q_trials": 30, "n_train_samples": 600, "epochs": 4}
PAPER = {"test_snrs_db": (-10.0, 0.0, 10.0), "q_trials": 6,
         "n_train_samples": 320, "epochs": 1}
WORKLOADS = {
    "desk": ("desk", DESK, 1, 1),
    "paper": ("paper", PAPER, 1, 1),
    "desk-pool": ("desk", {**DESK, "q_trials": 10}, 2, 8),
}
SMOKE = {"q_trials": 2, "n_train_samples": 10, "epochs": 1}


def workload_config(name: str, seed: int, smoke: bool = False) -> sd.ExperimentConfig:
    preset_name, overrides, workers, _ = WORKLOADS[name]
    overrides = {**overrides, **(SMOKE if smoke else {})}
    return sd.preset(preset_name, master_seed=BASE_SEED + seed, workers=workers,
                     **overrides)


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_round(config: sd.ExperimentConfig, sweeps: int) -> dict:
    """Runs the pipeline once, sweeping ``sweeps`` times with the same models;
    returns its timings, ops and outputs."""
    geom = config.geometry()
    policy = training_policy(config)
    out: dict = {"ops": 0}
    start = time.perf_counter()
    datasets = {}
    for variant in VARIANTS:
        out["ops"] += 1
        datasets[variant] = sd.generate_dataset(
            variant, geom, policy, config.n_train_samples, seed=config.master_seed)
    out["dataset_s"] = time.perf_counter() - start
    out["dataset_samples"] = len(VARIANTS) * config.n_train_samples

    models, histories = {}, {}
    for variant in VARIANTS:
        out["ops"] += 1
        model = sd.build_model(variant, geom, seed=config.master_seed)
        tic = time.perf_counter()
        histories[variant] = sd.train(
            model, datasets[variant], epochs=config.epochs,
            batch_size=config.batch_size, split=SPLIT, seed=config.master_seed,
            lr=config.learning_rate)
        out[f"train_s.{variant}"] = time.perf_counter() - tic
        out[f"train_rows.{variant}"] = (
            int(round(SPLIT * config.n_train_samples)) * config.epochs)
        models[variant] = model
    del datasets

    self_cpu, child_cpu = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    tic = time.perf_counter()
    out["failed"] = 0
    for _ in range(sweeps):
        sweep = sd.run_sweep(config, models)
        out["ops"] += len(sweep.records)
        out["failed"] += sum(1 for r in sweep.records if r.error is not None)
    out["sweep_s"] = time.perf_counter() - tic
    out["sweep_self_cpu_s"] = _cpu_s(resource.RUSAGE_SELF) - self_cpu
    out["sweep_child_cpu_s"] = _cpu_s(resource.RUSAGE_CHILDREN) - child_cpu
    out["items"] = sweeps * len(config.test_snrs_db) * config.q_trials
    out["wall_s"] = time.perf_counter() - start
    out["models"], out["histories"], out["sweep"] = models, histories, sweep
    return out


def _mean(rounds, key) -> float:
    return sum(r[key] for r in rounds) / len(rounds)


def _rate(rounds, work, seconds) -> float:
    return sum(r[work] for r in rounds) / sum(r[seconds] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Rates are total work over total time of all rounds, and wall_s is the
    mean round: pool speed is bimodal, and a median would jump between the
    modes where a mean moves with their mix."""
    out = {
        "wall_s": _mean(rounds, "wall_s"),
        "sweep_items_per_s": _rate(rounds, "items", "sweep_s"),
        "dataset_samples_per_s": _rate(rounds, "dataset_samples", "dataset_s"),
    }
    for variant, metric in ((sd.HYBRID, "train_hybrid_samples_per_s"),
                            (sd.DATA_DRIVEN, "train_data_driven_samples_per_s")):
        out[metric] = _rate(rounds, f"train_rows.{variant}", f"train_s.{variant}")
    out["peak_rss_mb"] = max(peak_rss_mb().values())
    return out


def peak_rss_mb() -> dict[str, float]:
    """Peak RSS of this process and of its largest pool worker that has
    exited (ru_maxrss is in KiB on Linux)."""
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "largest_worker": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def pool_metrics(round_: dict, workers: int) -> dict[str, float]:
    """CPU of the processes that ran sweep items: the pool workers, or this
    process when the sweep is serial."""
    cpu = round_["sweep_child_cpu_s"] if workers > 1 else round_["sweep_self_cpu_s"]
    return {
        "harness.pool.worker_cpu_s": cpu,
        "harness.pool.busy_ratio": cpu / (round_["sweep_s"] * workers),
    }


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


def check_sampled_records(config, round_, rng) -> list[str]:
    """A few sampled (SNR, trial) records must equal what run_trial returns."""
    problems = []
    methods = config.estimation_methods
    records = round_["sweep"].records
    for _ in range(SAMPLED_ITEMS):
        snr_idx = int(rng.integers(len(config.test_snrs_db)))
        trial = int(rng.integers(config.q_trials))
        snr_db = config.test_snrs_db[snr_idx]
        base = (snr_idx * config.q_trials + trial) * len(methods)
        for m_idx, method in enumerate(methods):
            got = records[base + m_idx]
            want = sd.run_trial(config, method, snr_db, trial, models=round_["models"])
            same = (got.method == method and got.trial == trial
                    and got.snr_db == snr_db and got.error == want.error
                    and got.resolution_failure == want.resolution_failure
                    and _same(got.true_deg, want.true_deg)
                    and _same(got.estimated_deg, want.estimated_deg)
                    and _same(got.squared_errors, want.squared_errors))
            if not same:
                problems.append(f"record {method} snr={snr_db} trial={trial} "
                                f"differs from run_trial")
    return problems


def check_finite(rounds) -> list[str]:
    """Every repaired-method MSE and every training loss is finite."""
    problems = []
    for i, round_ in enumerate(rounds):
        for row in round_["sweep"].rows:
            if row["method"] in REPAIRED and not np.isfinite(row["mse_deg2"]):
                problems.append(f"round {i}: {row['method']} mse at {row['snr_db']} dB "
                                f"is {row['mse_deg2']}")
        for variant, history in round_["histories"].items():
            for epoch in history:
                if not (np.isfinite(epoch.train_mse) and np.isfinite(epoch.val_mse)):
                    problems.append(f"round {i}: {variant} loss non-finite at "
                                    f"epoch {epoch.epoch}")
    return problems


def check_pool_matches_serial(config, round_) -> list[str]:
    """Criterion 8: the pool sweep's results.csv equals the serial sweep's."""
    serial = sd.run_sweep(config, round_["models"], workers=1)
    if results_csv(serial.rows) != results_csv(round_["sweep"].rows):
        return ["pool results.csv differs from the serial sweep"]
    return []


def reference_config(config) -> sd.ExperimentConfig:
    return dataclasses.replace(config, methods=REFERENCE_METHODS, workers=1)


def reference_rows(rows) -> list[dict]:
    return [{k: row[k] for k in ("method", "snr_db", "mse_deg2", "res_fail_rate",
                                 "crb_deg2", "q")}
            for row in rows if row["method"] in REFERENCE_METHODS]


def check_reference(name, config, round_) -> list[str]:
    """At seed 0 the none/failed-baseline/crb rows match reference.json."""
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[name]
    if reference["config"] != json.loads(reference_config(config).to_json()):
        return ["reference.json was taken with another sweep config"]
    problems = []
    got = reference_rows(round_["sweep"].rows)
    if len(got) != len(reference["rows"]):
        return [f"{len(got)} reference rows, expected {len(reference['rows'])}"]
    for row, want in zip(got, reference["rows"]):
        exact = all(row[k] == want[k] for k in ("method", "snr_db", "res_fail_rate", "q"))
        close = all(np.isclose(row[k], want[k], rtol=REFERENCE_RTOL, atol=0.0)
                    for k in ("mse_deg2", "crb_deg2"))
        if not (exact and close):
            problems.append(f"reference row {want} differs: {row}")
    return problems


def fingerprint(round_) -> dict:
    """Behaviour fingerprint of the last sweep, recorded but not gated."""
    csv = results_csv(round_["sweep"].rows)
    points = {f"{row['method']}@{row['snr_db']:g}dB": [row["mse_deg2"], row["crb_deg2"]]
              for row in round_["sweep"].rows if row["snr_db"] in (0.0, 10.0)}
    return {"results_csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
            "mse_crb_deg2": points}


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "git_commit": _git_commit(Path.cwd()),
    }


# ---------------------------------------------------------------------------
# measurement loop and entry point
# ---------------------------------------------------------------------------

def measure(config, sweeps, seconds, trace, out_dir) -> tuple[list[dict], list[list]]:
    """Runs rounds until ``seconds`` are used; returns (rounds, spans).

    With tracing, untraced and traced rounds alternate, starting untraced,
    and at least one of each runs; a traced round carries its per-layer
    numbers under ``"layers"``. Only the last round keeps its models.
    """
    tracer = None
    if trace:
        tracer = Tracer(Path(tempfile.mkdtemp(prefix="workers-", dir=out_dir)))
        layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    rounds: list[dict] = []
    spans: list[list] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(1 for r in rounds if "layers" in r)
        n_untraced = len(rounds) - n_traced
        if rounds:
            enough = n_untraced >= 1 and (n_traced >= 1 or not trace)
            elapsed = time.perf_counter() - start
            if enough and elapsed + _mean(rounds, "wall_s") > seconds:
                break
            del rounds[-1]["models"]
        if trace and n_traced < n_untraced:
            tracer.install()
            try:
                round_ = run_round(config, sweeps)
            finally:
                tracer.uninstall()
            round_spans = tracer.take_spans()
            round_["layers"] = {**layer_metrics(round_spans, layer_map),
                                **pool_metrics(round_, config.workers)}
            spans.extend(round_spans)
        else:
            round_ = run_round(config, sweeps)
        rounds.append(round_)
    if tracer is not None:
        tracer.worker_dir.rmdir()
    return rounds, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(sd.__file__).resolve().parent.parent != src:
        print(f"sparsedoa imported from {sd.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = workload_config(args.workload, args.seed, args.smoke)
    config.geometry()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": json.loads(config.to_json()), "host": host_facts()}
    try:
        rounds, spans = measure(config, WORKLOADS[args.workload][3], args.seconds,
                                args.trace, args.out)
    except Exception:  # a stage raised: the run fails and reports no metrics
        traceback.print_exc()
        return 1
    last = rounds[-1]
    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]

    problems = []
    failed = sum(r["failed"] for r in rounds)
    if failed:
        problems.append(f"{failed} sweep estimates carry an error")
    problems += check_finite(rounds)
    problems += check_sampled_records(config, last, np.random.default_rng(args.seed))
    if config.workers > 1:
        problems += check_pool_matches_serial(config, last)
    if args.seed == 0 and not args.smoke:
        problems += check_reference(args.workload, config, last)

    if args.trace:
        metrics = {k: sum(r["layers"][k] for r in traced) / len(traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = _mean(traced, "wall_s") / _mean(untraced, "wall_s")
        spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        result["spans_file"] = str(spans_path)
    else:
        metrics = end_to_end(untraced)
    result.update(
        correct=not problems,
        attempted=sum(r["ops"] for r in rounds),
        failed=failed,
        problems=problems,
        rounds=[{k: v for k, v in r.items() if isinstance(v, (int, float))}
                for r in rounds],
        fingerprint=fingerprint(last),
        peak_rss_mb=peak_rss_mb(),
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
