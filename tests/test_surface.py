"""The package surface: ``import sparsedoa`` exposes only the pipeline entry
points, every submodule's ``__all__`` names something that exists, and the
package imports numpy but not scipy."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import pytest

import sparsedoa
from sparsedoa import cli, harness

ENTRY_POINTS = {
    "HYBRID", "DATA_DRIVEN", "build_model", "generate_dataset", "train",
    "ExperimentConfig", "preset", "run_sweep", "run_trial",
}
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sparsedoa.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"sparsedoa.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"sparsedoa.{name}.__all__ lists missing names {missing}"


def test_top_level_is_the_pipeline_entry_points():
    names = {n for n, v in vars(sparsedoa).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == ENTRY_POINTS
    assert isinstance(sparsedoa.__version__, str)


def test_presets_are_one_table():
    assert "PRESETS" in harness.__all__
    parser = cli.build_parser()
    for name in harness.PRESETS:
        assert harness.preset(name) == harness.ExperimentConfig(**harness.PRESETS[name])
        assert parser.parse_args(["sweep", "--preset", name]).preset == name
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--preset", "bogus"])


def test_cli_imports_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads
    src = str(pathlib.Path(sparsedoa.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, sparsedoa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.strip() == "[]"
