"""Writes perfbench/reference.json: the seed-0 none/failed-baseline/crb rows
of each workload's sweep, which the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

These rows need no trained model, so the reference sweep runs only those
methods. Regenerate it only for a change that is meant to alter them, and
say why in CHANGES.md.
"""

from __future__ import annotations

import json

import sparsedoa as sd
from workload import BENCH_DIR, WORKLOADS, reference_config, reference_rows, workload_config


def main() -> None:
    reference = {}
    for name in WORKLOADS:
        config = reference_config(workload_config(name, seed=0))
        rows = sd.run_sweep(config).rows
        reference[name] = {"config": json.loads(config.to_json()),
                                  "rows": reference_rows(rows)}
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
