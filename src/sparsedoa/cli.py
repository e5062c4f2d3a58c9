"""Command-line interface: geometry inspection, simulation, dataset and
model production, evaluation, and Monte Carlo sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, neural
from .coarray import flatten_features, redundancy_average
from .geometry import ArrayGeometry, difference_coarray, essential_sensors, is_hole_free, mra_lookup
from .harness import ExperimentConfig, preset
from .signals import sample_covariance


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        config = preset(args.preset)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--preset", default="desk",
                        choices=list(harness.PRESETS),
                        help="named configuration when --config is absent")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="output directory (default: cwd)")


def cmd_geometry(args) -> int:
    intact = (ArrayGeometry(tuple(int(p) for p in args.positions.split(",")))
              if args.positions else mra_lookup(args.m))
    geom = intact.with_failures(args.failed or ())
    co = difference_coarray(geom)
    payload = {
        "positions": list(geom.positions),
        "failed": sorted(geom.failed),
        "aperture": geom.aperture,
        "lags": list(co.lags),
        "weights": {str(lag): co.weights[lag] for lag in co.lags},
        "m_v": co.m_v,
        "virtual_elements": co.virtual_size,
        "hole_free": is_hole_free(co, geom.aperture),
        "essential": sorted(essential_sensors(intact)),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"positions : {payload['positions']}")
        print(f"failed    : {payload['failed']}")
        print(f"aperture  : {payload['aperture']}")
        print(f"m_v       : {payload['m_v']} ({payload['virtual_elements']} virtual elements)")
        print(f"hole-free : {payload['hole_free']}")
        print(f"essential : {payload['essential']}")
        print("lag : weight")
        for lag in co.lags:
            print(f"{lag:4d} : {co.weights[lag]}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    geom = config.geometry()
    scene, y = harness.trial_snapshots(config, args.snr, args.trial)
    if args.emit == "snapshots":
        features = np.concatenate([y.real.reshape(-1, order="F"),
                                   y.imag.reshape(-1, order="F")])
        meta = {"kind": "snapshots", "shape": list(y.shape)}
    elif args.emit == "covariance":
        features = flatten_features(sample_covariance(y))
        meta = {"kind": "covariance", "dim": geom.size}
    else:
        z = redundancy_average(sample_covariance(y), geom)
        # the config's array is intact, so every lag is available
        features = np.concatenate([z.real, z.imag, np.ones(z.size)])
        meta = {"kind": "coarray", "m_v": (z.size + 1) // 2}
    meta.update({"snr_db": args.snr, "trial": args.trial,
                 "angles_deg": list(scene.angles_deg)})
    dataset = neural.TrainingDataset(
        inputs=features[None, :], targets=np.zeros((1, 0)), meta=meta,
    )
    out = _out_dir(args) / f"simulate_{args.emit}.bin"
    neural.save_dataset(dataset, out)
    print(f"wrote {out}")
    return 0


def cmd_dataset(args) -> int:
    config = _load_config(args)
    geom = config.geometry()
    dataset = neural.generate_dataset(
        args.variant, geom, harness.training_policy(config),
        config.n_train_samples, seed=config.master_seed,
    )
    out = _out_dir(args) / f"dataset_{args.variant}.bin"
    neural.save_dataset(dataset, out)
    print(f"wrote {out} ({dataset.n_samples} samples, "
          f"{dataset.inputs.shape[1]}->{dataset.targets.shape[1]} features)")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = neural.load_dataset(args.dataset) if args.dataset else None
    model, history = harness.train_variant(config, args.variant, dataset=dataset)
    out_dir = _out_dir(args)
    model_path = out_dir / f"model_{args.variant}.bin"
    neural.save_model(model, model_path)
    history_path = out_dir / f"history_{args.variant}.csv"
    with open(history_path, "w") as fh:
        fh.write("epoch,train_mse,val_mse,seconds\n")
        for h in history:
            fh.write(f"{h.epoch},{h.train_mse:.12g},{h.val_mse:.12g},{h.seconds:.3f}\n")
    print(f"wrote {model_path}")
    print(f"wrote {history_path} (final val MSE {history[-1].val_mse:.3e})")
    return 0


def _load_models(args) -> dict:
    models = {}
    for method, path_arg in ((harness.METHOD_HYBRID, args.hybrid_model),
                             (harness.METHOD_DATA_DRIVEN, args.data_driven_model)):
        if path_arg:
            models[method] = neural.load_model(path_arg)
    return models


def cmd_eval(args) -> int:
    config = _load_config(args)
    models = _load_models(args)
    methods = tuple(args.methods.split(",")) if args.methods else config.estimation_methods
    harness._check_models(config, methods, models)
    records, _, _ = harness._run_block(config, methods, [(args.snr, args.trial)], models,
                                       with_crb=False)
    path = _out_dir(args) / f"records_snr{args.snr:g}_trial{args.trial}.csv"
    path.write_text(harness.records_csv(records))
    for r in records:
        status = r.error or ("res-fail" if r.resolution_failure else "ok")
        print(f"{r.method:16s} mse={np.mean(r.squared_errors):.4g} deg^2 [{status}]")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    models = _load_models(args)
    result = harness.run_sweep(config, models=models)
    out_dir = _out_dir(args)
    results_path = out_dir / "results.csv"
    results_path.write_text(harness.results_csv(result.rows))
    outputs = {"results": str(results_path)}
    if args.records:
        records_path = out_dir / "records.csv"
        records_path.write_text(harness.records_csv(result.records))
        outputs["records"] = str(records_path)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(harness.run_manifest(config, outputs, result.seconds))
    print(harness.results_csv(result.rows))
    print(f"wrote {results_path}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_spectrum(args) -> int:
    config = _load_config(args)
    models = _load_models(args)
    methods = tuple(args.methods.split(",")) if args.methods else None
    grid, spectra, scene = harness.emit_spectrum(
        config, args.snr, trial=args.trial, models=models, methods=methods)
    out_dir = _out_dir(args)
    path = out_dir / f"spectrum_snr{args.snr:g}.csv"
    path.write_text(harness.spectrum_csv(grid, spectra))
    print(f"true angles: {[round(a, 3) for a in scene.angles_deg]}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedoa",
        description="Sparse-array DOA benchmark with neural covariance repair",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="inspect an array and its coarray")
    p.add_argument("--m", type=int, default=10, help="tabulated MRA size")
    p.add_argument("--positions", help="explicit comma-separated positions")
    p.add_argument("--failed", type=int, nargs="*", help="1-based failed sensor indices")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("simulate", help="simulate one trial realization")
    _add_common(p)
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--emit", choices=["snapshots", "covariance", "coarray"],
                   default="covariance")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", help="generate a training dataset file")
    _add_common(p)
    p.add_argument("--variant", choices=[neural.HYBRID, neural.DATA_DRIVEN],
                   required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a repair model")
    _add_common(p)
    p.add_argument("--variant", choices=[neural.HYBRID, neural.DATA_DRIVEN],
                   required=True)
    p.add_argument("--dataset", help="existing dataset file (else generated)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-method trial records on one trial")
    _add_common(p)
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--methods", help="comma-separated method subset")
    p.add_argument("--hybrid-model")
    p.add_argument("--data-driven-model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over the SNR grid")
    _add_common(p)
    p.add_argument("--workers", type=int,
                   help="sweep processes: the caller and N - 1 forked children")
    p.add_argument("--records", action="store_true", help="also write per-trial records")
    p.add_argument("--hybrid-model")
    p.add_argument("--data-driven-model")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="per-method pseudospectrum CSV")
    _add_common(p)
    p.add_argument("--snr", type=float, default=-10.0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--methods", help="comma-separated method subset")
    p.add_argument("--hybrid-model")
    p.add_argument("--data-driven-model")
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
