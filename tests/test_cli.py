import csv
import dataclasses
import io
import json

import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa import harness
from sparsedoa.cli import main
from sparsedoa.coarray import flatten_features, redundancy_average
from sparsedoa.harness import ExperimentConfig, preset, run_trial, trial_snapshots
from sparsedoa.neural import load_dataset, load_model
from sparsedoa.signals import sample_covariance


@pytest.fixture()
def mini_config(tmp_path):
    cfg = preset(
        "desk",
        m=4,
        k=2,
        q_trials=2,
        test_snrs_db=(10.0,),
        test_failures=(1,),
        methods=("none", "failed-baseline", "crb"),
        grid_step=0.5,
        n_snapshots=50,
        min_gap=15.0,
        n_train_samples=40,
        epochs=1,
        batch_size=16,
    )
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


class TestGeometryCommand:
    def test_json_output(self, capsys):
        assert main(["geometry", "--m", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["positions"] == [0, 1, 4, 6]
        assert data["m_v"] == 7
        assert data["hole_free"] is True
        assert data["essential"] == [1, 2, 3, 4]

    def test_explicit_positions_with_failure(self, capsys):
        assert main(["geometry", "--positions", "0,1,4,6", "--failed", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hole_free"] is False
        assert data["failed"] == [1]

    def test_text_format(self, capsys):
        assert main(["geometry", "--m", "5", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "positions : [0, 2, 5, 8, 9]" in out
        assert "hole-free : True" in out


class TestSweepCommand:
    def test_end_to_end(self, mini_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(mini_config), "--out", str(out_dir)])
        assert code == 0
        results = (out_dir / "results.csv").read_text().splitlines()
        assert results[0] == "method,snr_db,mse_deg2,res_fail_rate,crb_deg2,q"
        assert len(results) == 3  # two methods at one SNR
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["q_trials"] == 2
        stages = manifest["stage_seconds"]
        assert set(stages) == {"simulate", "none", "failed-baseline", "music", "peaks", "crb"}
        assert all(seconds >= 0 for seconds in stages.values())

    def test_seed_override_changes_results(self, mini_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(mini_config), "--out", str(out_a)])
        main(["sweep", "--config", str(mini_config), "--out", str(out_b),
              "--seed", "777"])
        assert (out_a / "results.csv").read_text() != (out_b / "results.csv").read_text()


class TestSpectrumCommand:
    def test_writes_csv(self, mini_config, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        code = main(["spectrum", "--config", str(mini_config),
                     "--out", str(out_dir), "--snr", "10"])
        assert code == 0
        csv_path = out_dir / "spectrum_snr10.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "angle_deg,none,failed-baseline"


@pytest.mark.parametrize("command", ["spectrum", "eval"])
def test_repeated_method_fails(mini_config, tmp_path, capsys, command):
    # a repeat wrote one column (spectrum) or two identical records (eval) of one trial
    assert main([command, "--config", str(mini_config), "--out", str(tmp_path),
                 "--snr", "10", "--methods", "none,none"]) == 1
    assert "distinct estimation methods" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


class TestEvalCommand:
    def test_records(self, mini_config, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code = main(["eval", "--config", str(mini_config), "--out", str(out_dir),
                     "--snr", "10", "--methods", "none"])
        assert code == 0
        assert (out_dir / "records_snr10_trial0.csv").exists()

    def test_one_block_for_every_method(self, mini_config, tmp_path, monkeypatch):
        # the trial's scene is simulated and MUSIC run once for all four methods, and
        # each record is the one run_trial gives its method alone
        methods = ("none", "failed-baseline", "hybrid", "data-driven")
        config = dataclasses.replace(ExperimentConfig.from_json(mini_config.read_text()),
                                     methods=methods)
        mini_config.write_text(config.to_json())
        args = ["--config", str(mini_config), "--out", str(tmp_path)]
        paths = {m: str(tmp_path / f"model_{m}.bin") for m in ("hybrid", "data-driven")}
        for variant in paths:
            assert main(["train", *args, "--variant", variant]) == 0
        calls = dict.fromkeys(["_block_snapshots", "music_spectrum"], 0)
        for name in calls:
            def counted(*a, _name=name, _real=getattr(harness, name), **kw):
                calls[_name] += 1
                return _real(*a, **kw)
            monkeypatch.setattr(harness, name, counted)
        assert main(["eval", *args, "--snr", "10", "--trial", "1", "--hybrid-model",
                     paths["hybrid"], "--data-driven-model", paths["data-driven"]]) == 0
        assert calls == {"_block_snapshots": 1, "music_spectrum": 1}
        monkeypatch.undo()
        models = {m: load_model(path) for m, path in paths.items()}
        alone = harness.records_csv([run_trial(config, m, 10.0, 1, models=models)
                                     for m in methods])
        written = (tmp_path / "records_snr10_trial1.csv").read_text()
        assert written == alone
        assert [row["method"] for row in csv.DictReader(io.StringIO(written))] == list(methods)

    def test_repair_method_without_model_fails(self, mini_config, tmp_path, capsys):
        code = main(["eval", "--config", str(mini_config), "--out", str(tmp_path),
                     "--methods", "hybrid"])
        assert code == 1
        assert "missing trained models" in capsys.readouterr().err
        assert not list(tmp_path.glob("records_*.csv"))


class TestSimulateCommand:
    @pytest.mark.parametrize("emit", ["snapshots", "covariance", "coarray"])
    def test_emits_container(self, mini_config, tmp_path, emit):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", str(mini_config), "--out", str(out_dir),
                     "--emit", emit])
        assert code == 0
        path = out_dir / f"simulate_{emit}.bin"
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == "sparsedoa-dataset-v1"
        assert header["meta"]["kind"] == emit

    def test_covariance_is_the_trial_realization(self, mini_config, tmp_path):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(mini_config), "--out", str(out_dir),
                     "--emit", "covariance", "--snr", "10", "--trial", "1"]) == 0
        written = load_dataset(out_dir / "simulate_covariance.bin")
        cfg = ExperimentConfig.from_json(mini_config.read_text())
        _, y = trial_snapshots(cfg, 10.0, 1)
        expected = flatten_features(sample_covariance(y)).astype(np.float32)
        npt.assert_array_equal(written.inputs[0], expected)
        assert written.meta["angles_deg"] == list(run_trial(cfg, "none", 10.0, 1).true_deg)

    def test_coarray_is_the_trial_lag_vector(self, mini_config, tmp_path):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(mini_config), "--out", str(out_dir),
                     "--emit", "coarray", "--snr", "10", "--trial", "1"]) == 0
        written = load_dataset(out_dir / "simulate_coarray.bin")
        cfg = ExperimentConfig.from_json(mini_config.read_text())
        _, y = trial_snapshots(cfg, 10.0, 1)
        z = redundancy_average(sample_covariance(y), cfg.geometry())
        # the intact array's lags -6..6 are all present (m_v = 7 for (0, 1, 4, 6))
        expected = np.concatenate([z.real, z.imag, np.ones(13)]).astype(np.float32)
        npt.assert_array_equal(written.inputs[0], expected)
        assert written.meta["m_v"] == 7


class TestTrainCommand:
    def test_dataset_then_train(self, mini_config, tmp_path):
        out_dir = tmp_path / "train"
        assert main(["dataset", "--config", str(mini_config), "--out", str(out_dir),
                     "--variant", "data-driven"]) == 0
        ds_path = out_dir / "dataset_data-driven.bin"
        assert ds_path.exists()
        assert main(["train", "--config", str(mini_config), "--out", str(out_dir),
                     "--variant", "data-driven", "--dataset", str(ds_path)]) == 0
        assert (out_dir / "model_data-driven.bin").exists()
        history = (out_dir / "history_data-driven.csv").read_text().splitlines()
        assert history[0] == "epoch,train_mse,val_mse,seconds"
        assert len(history) == 2

    def test_zero_epochs_writes_no_model(self, mini_config, tmp_path, capsys):
        # used to save an untrained model, then fail on the empty history
        config = json.loads(mini_config.read_text())
        mini_config.write_text(json.dumps({**config, "epochs": 0}))
        out_dir = tmp_path / "train"
        assert main(["train", "--config", str(mini_config), "--out", str(out_dir),
                     "--variant", "data-driven"]) == 1
        assert "epochs=0" in capsys.readouterr().err
        assert not (out_dir / "model_data-driven.bin").exists()


class TestTrainingPolicyRoundTrip:
    """The training policy travels from the dataset file through the model
    file's header into the sweep's model check."""

    @staticmethod
    def _config(mini_config, tmp_path, name, **changes):
        config = json.loads(mini_config.read_text())
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "methods": ["none", "data-driven"], **changes}))
        return ["--config", str(path), "--out", str(tmp_path / name)]

    def test_dataset_train_sweep(self, mini_config, tmp_path, capsys):
        same = self._config(mini_config, tmp_path, "same")
        assert main(["dataset", *same, "--variant", "data-driven"]) == 0
        dataset = str(tmp_path / "same" / "dataset_data-driven.bin")
        assert main(["train", *same, "--variant", "data-driven", "--dataset", dataset]) == 0
        model = str(tmp_path / "same" / "model_data-driven.bin")
        assert main(["sweep", *same, "--data-driven-model", model]) == 0
        assert (tmp_path / "same" / "results.csv").read_text().count("data-driven") == 1

        other = self._config(mini_config, tmp_path, "other", train_snr_max=20.0)
        capsys.readouterr()
        assert main(["sweep", *other, "--data-driven-model", model]) == 1
        assert "training policy differs in snr_max=10.0 (config 20.0)" in capsys.readouterr().err
        assert main(["train", *other, "--variant", "data-driven", "--dataset", dataset]) == 1
        assert "snr_max=10.0 (config 20.0)" in capsys.readouterr().err
        assert not list((tmp_path / "other").glob("*"))


def test_unrepresentable_seed_fails(mini_config, tmp_path, capsys):
    # -1 would share its stream with 2**64 - 1
    assert main(["simulate", "--config", str(mini_config), "--out", str(tmp_path),
                 "--seed", "-1"]) == 1
    assert "master seed" in capsys.readouterr().err


def test_error_exit_code(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
