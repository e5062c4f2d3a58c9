"""sparsedoa benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each run starts fresh interpreters
with ``src`` on ``PYTHONPATH`` (perfbench/workload.py does the work), times
their set-up, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric named in
BENCHMARK.json with ``--trace 0``, every per-layer metric with ``--trace 1``.
The full result (host facts, behaviour fingerprint, per-round walls) goes to
``.perfbench_out/``. Exits non-zero without a result when the checkout has
no sparsedoa sources, and non-zero when the correctness gate fails.
Thread variables are inherited as they are, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Set-up-only interpreters started before the measured one; setup_s is the
# median of their set-up times and the measured run's.
SETUP_RUNS = 2


def run_child(cmd: list[str], env: dict) -> tuple[float | None, list[str], int]:
    """Runs one workload interpreter; returns (set-up seconds, stdout lines
    after ``ready``, exit code). Set-up ends when the child prints ``ready``."""
    tic = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - tic
        rest = proc.stdout.read()
        code = proc.wait()
    if first.strip() != "ready":
        return None, (first + rest).splitlines(), code or 1
    return setup_s, rest.splitlines(), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sparsedoa" / "__init__.py").is_file():
        print(f"no sparsedoa sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)] + (["--smoke"] if args.smoke else [])

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setup_s, lines, code = run_child(cmd + ["--setup-only"], env)
            if setup_s is None or code != 0:
                print("\n".join(lines), file=sys.stderr)
                return code or 1
            setups.append(setup_s)
    setup_s, lines, code = run_child(cmd, env)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if setup_s is None or result is None or "metrics" not in result:
        print("\n".join(lines), file=sys.stderr)
        return code or 1

    metrics = dict(result["metrics"])
    if not args.trace:
        setups.append(setup_s)
        metrics["setup_s"] = statistics.median(setups)
        result["setup_s_samples"] = setups
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        print(f"emitted metrics {sorted(metrics)} != declared {sorted(names)}",
              file=sys.stderr)
        return 1
    detail_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps({**result, "metrics": metrics}, indent=1))
    for problem in result["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
