"""Span tracing around the calls into sparsedoa's layers, from outside the package.

Each traced function is replaced, for the length of one traced round, by a
wrapper in every ``sparsedoa`` module namespace that holds it: ``harness``
and ``neural`` bind ``music_spectrum``, ``redundancy_average`` and others at
import, so patching only the defining module would miss their calls.
Spans are kept in memory as ``[pid, id, parent, name, start, end, work]``
and written out when the run ends. Sweep items that run in forked pool
workers record spans there; each worker writes its spans to a file when it
exits and the round reads them back.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# "<module>.<function>" of every traced public function.
TRACED = (
    "geometry.difference_coarray",
    "signals.stream_rng",
    "signals.simulate_snapshots",
    "signals.sample_covariance",
    "signals.inject_failures",
    "coarray.redundancy_average",
    "coarray.spatial_smoothing",
    "coarray.flatten_features",
    "spectral.hermitian_eig",
    "spectral.music_spectrum",
    "spectral.pick_peaks",
    "spectral.crb",
    "neural.mlp_forward",
    "neural.mlp_backward",
    "neural.adam_step",
    "neural.predict_covariance",
    "neural.train",
    "neural.generate_dataset",
    "harness.run_sweep",
)

# Adam reads p, g, m, v and writes p, m, v: 7 float64 transfers per parameter.
ADAM_BYTES_PER_PARAM = 7 * 8


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _work(name, args, kwargs) -> float:
    """Work a call does, in the unit its per-layer metric counts."""
    if name == "neural.mlp_forward":
        return len(_arg(args, kwargs, 1, "batch"))
    if name == "neural.train":
        n_samples = _arg(args, kwargs, 1, "dataset").n_samples
        epochs = _arg(args, kwargs, 2, "epochs", 150)
        split = _arg(args, kwargs, 4, "split", 0.8)
        return int(round(split * n_samples)) * epochs
    if name == "neural.adam_step":
        params = _arg(args, kwargs, 1, "params")
        return ADAM_BYTES_PER_PARAM * sum(p.size for p in params)
    if name == "harness.run_sweep":
        config = _arg(args, kwargs, 0, "config")
        return len(config.test_snrs_db) * config.q_trials
    return 0


class Tracer:
    """Installs span-recording wrappers and collects the spans they record."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._start_worker()
            parent = tracer.stack[-1] if tracer.stack else None
            label = name
            if name == "neural.mlp_forward":
                in_train = parent is not None and parent[3] == "neural.train"
                label = name + (".train" if in_train else ".infer")
            span = [tracer.pid, len(tracer.spans), parent[1] if parent else None,
                    label, time.perf_counter(), 0.0, _work(name, args, kwargs)]
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def _start_worker(self) -> None:
        """First traced call in a forked pool worker: start a fresh span list
        and write it out when the worker process exits."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        multiprocessing.util.Finalize(None, self._write_worker_spans, exitpriority=100)

    def _write_worker_spans(self) -> None:
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def install(self) -> None:
        """Replaces every traced function in every sparsedoa namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sparsedoa" or n.startswith("sparsedoa."))]
        for target in TRACED:
            module, func = target.split(".")
            original = getattr(sys.modules[f"sparsedoa.{module}"], func)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._restore:
            setattr(mod, attr, original)
        self._restore = []

    def take_spans(self) -> list[list]:
        """Returns and clears this process's spans plus those pool workers wrote."""
        spans, self.spans = self.spans, []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            spans.extend(json.loads(path.read_text()))
            path.unlink()
        return spans


# How each per-layer metric suffix in layer_map.json is made from a layer's
# spans: (calls, work, self seconds) -> value.
AGGREGATES = {
    "calls": lambda calls, work, self_s: calls,
    "rows": lambda calls, work, self_s: work,
    "items": lambda calls, work, self_s: work,
    "self_s": lambda calls, work, self_s: self_s,
    "gbytes_per_s_computed": lambda calls, work, self_s: work / self_s / 1e9 if self_s else 0.0,
}


def layer_metrics(spans: list[list], layer_map: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, for every suffix in AGGREGATES.

    Self time is a span's duration minus the durations of its child spans
    in the same process.
    """
    child_s: dict[tuple, float] = defaultdict(float)
    for pid, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_s[(pid, parent)] += end - start
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for pid, sid, _, name, start, end, amount in spans:
        calls[name] += 1
        work[name] += amount
        self_s[name] += (end - start) - child_s[(pid, sid)]
    return {f"{layer}.{suffix}": AGGREGATES[suffix](calls[layer], work[layer], self_s[layer])
            for layer, entry in layer_map.items()
            for suffix in entry["metrics"] if suffix in AGGREGATES}
