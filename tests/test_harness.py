import concurrent.futures
import copy
import ctypes
import dataclasses
import json
import multiprocessing

import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa.harness import (
    METHOD_DATA_DRIVEN,
    METHOD_FAILED,
    METHOD_HYBRID,
    METHOD_NONE,
    ExperimentConfig,
    emit_spectrum,
    preset,
    records_csv,
    results_csv,
    run_manifest,
    run_sweep,
    run_trial,
    spectrum_csv,
    train_variant,
    _blas_thread_setter,
    _init_worker,
)
from sparsedoa import harness
from sparsedoa.neural import HYBRID, build_model, load_model, save_model
from sparsedoa.spectral import doa_mse

# small paired-method configuration used throughout this module
MINI = preset(
    "desk",
    m=4,
    k=2,
    q_trials=4,
    test_snrs_db=(0.0, 10.0),
    test_failures=(1,),
    methods=(METHOD_NONE, METHOD_FAILED, "crb"),
    grid_step=0.2,
    n_snapshots=100,
    min_gap=15.0,
)


def _blas_threads() -> int:
    """This process's numpy OpenBLAS thread count."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


class TestConfig:
    def test_presets(self):
        paper = preset("paper")
        assert paper.m == 10 and paper.k == 9
        assert len(paper.test_snrs_db) == 21
        assert paper.test_failures == (1, 5)
        assert preset("paper-alt").test_failures == (1, 4)
        desk = preset("desk")
        assert desk.m == 5 and desk.k == 3
        assert desk.test_failures == (1, 3)
        assert desk.n_train_samples == 20_000

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("bogus")

    def test_json_round_trip(self):
        cfg = preset("desk", master_seed=99)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_geometry_from_positions(self):
        cfg = preset("desk", positions=(0, 1, 3))
        assert cfg.geometry().positions == (0, 1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            preset("desk", test_snrs_db=())
        with pytest.raises(ValueError):
            preset("desk", methods=("nope",))
        with pytest.raises(ValueError):
            preset("desk", rng_algorithm="MT19937")

    def test_source_count_must_fit_the_intact_coarray(self):
        # desk MRA (0, 2, 5, 8, 9) has m_v = 10: K = 10 leaves MUSIC no noise
        # subspace, and every trial would be booked as an error with NaN MSE
        assert preset("desk", k=9).k == 9
        for k in (10, 0):
            with pytest.raises(ValueError, match="must satisfy 1 <= k < m_v=10"):
                preset("desk", k=k)
        with pytest.raises(ValueError, match="m_v=4"):
            preset("desk", positions=(0, 1, 3), k=4)

    def test_no_estimation_method_rejected(self):
        # crb alone would sweep, compute every bound and write a header-only table
        for methods in (("crb",), ()):
            with pytest.raises(ValueError, match="no estimation method"):
                preset("desk", q_trials=3, methods=methods)

    def test_failure_outside_the_array_rejected(self):
        # would otherwise surface only at the first trial, after the model checks
        with pytest.raises(ValueError, match=r"outside 1\.\.5"):
            preset("desk", test_failures=(1, 9))

    def test_arrays_built_once(self):
        cfg = preset("desk")
        assert cfg.geometry() is cfg.geometry()
        assert cfg.failed_geometry() is cfg.failed_geometry()
        assert not cfg.geometry().failed
        assert cfg.failed_geometry().failed == set(cfg.test_failures) == {1, 3}
        assert cfg.failed_geometry().positions == cfg.geometry().positions

    def test_stored_arrays_are_not_fields(self):
        cfg = preset("desk", master_seed=7)
        assert set(json.loads(cfg.to_json())) == {f.name for f in dataclasses.fields(cfg)}
        assert "_geometry" not in repr(cfg)
        twin = ExperimentConfig.from_json(cfg.to_json())
        assert twin.geometry() is not cfg.geometry()
        assert twin == cfg and hash(twin) == hash(cfg)
        moved = dataclasses.replace(cfg, test_failures=(2,))
        assert moved != cfg and moved.failed_geometry().failed == {2}
        assert copy.deepcopy(cfg).failed_geometry() == cfg.failed_geometry()

    @pytest.mark.parametrize("overrides, match", [
        # desk has M = 5: five failures leave no sensor, and without the
        # no-failure option every sample must fail at least one
        ({"train_max_failures": 5}, r"train_max_failures=5 must lie in 1\.\.4"),
        ({"train_max_failures": 0}, r"train_max_failures=0 must lie in 1\.\.4"),
        ({"train_max_failures": 5, "train_include_no_failure": True}, r"in 0\.\.4"),
        ({"epochs": 0}, "epochs=0 must be at least 1"),
        ({"batch_size": 0}, "batch_size=0 must be at least 1"),
        ({"n_snapshots": 0}, "n_snapshots=0 must be at least 1"),
        ({"workers": 0}, "workers=0 must be at least 1"),
        ({"grid_step": 0.0}, "grid_step=0.0 must be positive"),
        ({"grid_step": float("nan")}, "grid_step=nan must be positive"),
        ({"master_seed": -1}, "master seed -1"),
        ({"test_snrs_db": (0.0004,)}, "float seed key 0.0004"),
    ])
    def test_misuse_rejected_at_build(self, overrides, match):
        # each used to build and fail only at the first step, trial or sample
        with pytest.raises(ValueError, match=match):
            preset("desk", **overrides)

    @pytest.mark.parametrize("overrides", [
        {"train_max_failures": 4},
        {"train_max_failures": 0, "train_include_no_failure": True},
    ])
    def test_failure_count_bounds_accepted(self, overrides):
        assert preset("desk", **overrides).train_max_failures == overrides["train_max_failures"]


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(MINI, METHOD_NONE, 10.0, 2)
        b = run_trial(MINI, METHOD_NONE, 10.0, 2)
        a = dataclasses.replace(a, wall_seconds=0.0)
        b = dataclasses.replace(b, wall_seconds=0.0)
        assert a == b

    def test_scene_shared_across_methods(self):
        a = run_trial(MINI, METHOD_NONE, 0.0, 1)
        b = run_trial(MINI, METHOD_FAILED, 0.0, 1)
        assert a.true_deg == b.true_deg

    def test_squared_errors_consistent(self):
        rec = run_trial(MINI, METHOD_NONE, 10.0, 0)
        expected = (np.sort(rec.estimated_deg) - np.array(rec.true_deg)) ** 2
        npt.assert_allclose(rec.squared_errors, expected, atol=1e-12)

    def test_high_snr_pipeline_recovers_angles(self):
        cfg = dataclasses.replace(MINI, n_snapshots=2000)
        for trial in range(3):
            rec = run_trial(cfg, METHOD_NONE, 20.0, trial)
            assert max(rec.squared_errors) <= (2 * cfg.grid_step) ** 2

    def test_dnn_method_needs_model(self):
        with pytest.raises(ValueError, match="missing trained models"):
            run_trial(MINI, METHOD_HYBRID, 0.0, 0)


class TestRunSweep:
    def test_row_layout_and_bookkeeping(self):
        result = run_sweep(MINI)
        assert len(result.rows) == 4  # 2 SNRs x 2 methods
        for row in result.rows:
            assert set(row) == {"method", "snr_db", "mse_deg2", "res_fail_rate",
                                "crb_deg2", "q"}
            assert row["q"] == MINI.q_trials
            assert np.isfinite(row["crb_deg2"])
        # MSE column must equal the metric recomputed from the records
        for method in (METHOD_NONE, METHOD_FAILED):
            for snr in MINI.test_snrs_db:
                recs = [r for r in result.records
                        if r.method == method and r.snr_db == snr and r.error is None]
                est = [r.estimated_deg for r in recs]
                tru = [r.true_deg for r in recs]
                row = next(r for r in result.rows
                           if r["method"] == method and r["snr_db"] == snr)
                npt.assert_allclose(row["mse_deg2"], doa_mse(est, tru), atol=1e-12)

    def test_single_trial_matches_run_trial(self):
        cfg = dataclasses.replace(MINI, q_trials=1,
                                  test_snrs_db=(10.0,), methods=(METHOD_NONE,))
        result = run_sweep(cfg)
        rec = run_trial(cfg, METHOD_NONE, 10.0, 0)
        assert len(result.rows) == 1
        npt.assert_allclose(result.rows[0]["mse_deg2"], np.mean(rec.squared_errors))

    def test_paper_grid_has_21_snr_rows(self):
        cfg = preset(
            "paper",
            m=4,
            k=2,
            q_trials=1,
            test_failures=(1,),  # paper's (1, 5) is outside a 4-sensor array
            methods=(METHOD_NONE,),
            grid_step=0.5,
            n_snapshots=50,
            min_gap=15.0,
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 21

    def test_worker_count_invariance(self):
        seq, par = run_sweep(MINI, workers=1), run_sweep(MINI, workers=2)
        assert results_csv(seq.rows) == results_csv(par.rows)

        def timeless(result):
            return records_csv([dataclasses.replace(r, wall_seconds=0.0)
                                for r in result.records])

        assert timeless(seq) == timeless(par)

    def test_pool_worker_runs_one_blas_thread(self):
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx, initializer=_init_worker,
            initargs=(MINI, None, _blas_thread_setter()),
        ) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1

    def test_pool_leaves_parent_blas_threads(self):
        before = _blas_threads()
        run_sweep(MINI, workers=2)
        assert _blas_threads() == before

    def test_missing_blas_setter_fails_before_pool(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        with pytest.raises(RuntimeError, match="numpy's BLAS"):
            run_sweep(MINI, workers=2)

    def test_failure_hurts_in_aggregate(self):
        cfg = dataclasses.replace(MINI, q_trials=12, test_snrs_db=(10.0,),
                                  test_failures=(1, 3), m=5, k=3, min_gap=8.0)
        rows = run_sweep(cfg).rows
        mse = {r["method"]: r["mse_deg2"] for r in rows}
        assert mse[METHOD_FAILED] > mse[METHOD_NONE]

    def test_missing_model_fails_fast(self):
        cfg = dataclasses.replace(MINI, methods=(METHOD_NONE, METHOD_DATA_DRIVEN))
        with pytest.raises(ValueError, match="missing trained models"):
            run_sweep(cfg)


@pytest.fixture(scope="module")
def dd_model():
    cfg = preset("desk", m=4, k=2, n_train_samples=40, epochs=1,
                 batch_size=16, n_snapshots=32)
    return train_variant(cfg, "data-driven")[0]


class TestSweepModelChecks:
    """A model that does not fit the sweep fails before the first trial
    instead of being booked as error trials or run on the wrong array."""

    def test_matching_model_from_file_runs(self, dd_model, tmp_path):
        save_model(dd_model, tmp_path / "model.bin")
        cfg = dataclasses.replace(MINI, methods=(METHOD_DATA_DRIVEN,), q_trials=1)
        result = run_sweep(cfg, models={METHOD_DATA_DRIVEN: load_model(tmp_path / "model.bin")})
        assert all(r.error is None for r in result.records)

    def test_wrong_variant_rejected(self, dd_model):
        cfg = dataclasses.replace(MINI, methods=(METHOD_NONE, METHOD_HYBRID))
        with pytest.raises(ValueError, match="got a 'data-driven' model"):
            run_sweep(cfg, models={METHOD_HYBRID: dd_model})

    def test_wrong_geometry_rejected(self, dd_model):
        # mirrored 4-sensor MRA: same feature widths, different array
        cfg = dataclasses.replace(MINI, positions=(0, 2, 5, 6),
                                  methods=(METHOD_NONE, METHOD_DATA_DRIVEN))
        with pytest.raises(ValueError, match="geometry"):
            run_sweep(cfg, models={METHOD_DATA_DRIVEN: dd_model})


class TestEntryPointModelChecks:
    """run_trial and emit_spectrum (and so eval and spectrum) make the same
    model check as the sweep, before drawing a scene."""

    def test_trial_on_wrong_geometry_rejected(self, dd_model):
        assert dd_model.meta["geometry"] == [0, 1, 4, 6]
        cfg = dataclasses.replace(MINI, positions=(0, 2, 5, 6))
        with pytest.raises(ValueError, match="trained on \\[0, 1, 4, 6\\]"):
            run_trial(cfg, METHOD_DATA_DRIVEN, 10.0, 0, models={METHOD_DATA_DRIVEN: dd_model})

    def test_trial_with_wrong_variant_rejected(self, dd_model):
        with pytest.raises(ValueError, match="got a 'data-driven' model"):
            run_trial(MINI, METHOD_HYBRID, 10.0, 0, models={METHOD_HYBRID: dd_model})

    def test_spectrum_with_wrong_variant_rejected(self, dd_model):
        with pytest.raises(ValueError, match="got a 'data-driven' model"):
            emit_spectrum(MINI, 10.0, models={METHOD_HYBRID: dd_model},
                          methods=(METHOD_NONE, METHOD_HYBRID))

    def test_untrained_model_rejected(self):
        # it used to be booked as errored trials: NaN MSE with q = 0
        models = {METHOD_HYBRID: build_model(HYBRID, MINI.geometry(), seed=0)}
        cfg = dataclasses.replace(MINI, methods=(METHOD_NONE, METHOD_HYBRID))
        calls = (lambda: run_sweep(cfg, models),
                 lambda: run_trial(MINI, METHOD_HYBRID, 10.0, 0, models=models),
                 lambda: emit_spectrum(MINI, 10.0, models=models, methods=(METHOD_HYBRID,)))
        for call in calls:
            with pytest.raises(ValueError, match="'hybrid' model has no normalization"):
                call()

    def test_matching_model_runs_in_trial_and_spectrum(self, dd_model):
        models = {METHOD_DATA_DRIVEN: dd_model}
        rec = run_trial(MINI, METHOD_DATA_DRIVEN, 10.0, 0, models=models)
        assert rec.error is None
        _, spectra, _ = emit_spectrum(MINI, 10.0, models=models, methods=(METHOD_DATA_DRIVEN,))
        assert np.isfinite(spectra[METHOD_DATA_DRIVEN]).all()

    def test_source_count_mismatch_rejected(self, dd_model):
        # trained for K=2; run at K=1 it gives finite errors with error=None
        assert dd_model.meta["n_sources"] == 2
        models = {METHOD_DATA_DRIVEN: dd_model}
        cfg = dataclasses.replace(MINI, k=1)
        with pytest.raises(ValueError, match="with K=1, got .* with K=2"):
            run_trial(cfg, METHOD_DATA_DRIVEN, 10.0, 0, models=models)
        with pytest.raises(ValueError, match="with K=2"):
            run_sweep(dataclasses.replace(cfg, methods=(METHOD_DATA_DRIVEN,)), models=models)

    def test_model_without_recorded_source_count_runs(self, dd_model, tmp_path):
        # files saved before K was recorded carry no n_sources and pass on geometry
        legacy = copy.deepcopy(dd_model)
        del legacy.meta["n_sources"]
        save_model(legacy, tmp_path / "model.bin")
        models = {METHOD_DATA_DRIVEN: load_model(tmp_path / "model.bin")}
        assert run_trial(MINI, METHOD_DATA_DRIVEN, 10.0, 0, models=models).error is None

    def test_nan_weight_fails_loudly(self, dd_model):
        # a NaN weight must not be mapped to 0 by the ReLU and give finite estimates
        bad = copy.deepcopy(dd_model)
        bad.weights[0][0, 0] = np.nan
        models = {METHOD_DATA_DRIVEN: bad}
        with pytest.raises(FloatingPointError, match="not finite"):
            run_trial(MINI, METHOD_DATA_DRIVEN, 10.0, 0, models=models)
        cfg = dataclasses.replace(MINI, methods=(METHOD_NONE, METHOD_DATA_DRIVEN), q_trials=1)
        with pytest.raises(FloatingPointError, match="not finite"):
            run_sweep(cfg, models=models)


class TestTrialErrors:
    """Only a failed linear-algebra step is booked as an errored record;
    any other error in a trial is a bug and propagates."""

    @staticmethod
    def _raise(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    def test_value_error_propagates(self, monkeypatch):
        monkeypatch.setattr(harness, "pick_peaks", self._raise(ValueError("bug")))
        with pytest.raises(ValueError, match="bug"):
            run_trial(MINI, METHOD_NONE, 10.0, 0)
        with pytest.raises(ValueError, match="bug"):
            run_sweep(MINI)

    def test_linalg_error_is_booked(self, monkeypatch):
        monkeypatch.setattr(harness, "pick_peaks",
                            self._raise(np.linalg.LinAlgError("singular")))
        rec = run_trial(MINI, METHOD_NONE, 10.0, 0)
        assert rec.error == "LinAlgError: singular" and rec.resolution_failure
        assert len(rec.squared_errors) == MINI.k and np.isnan(rec.squared_errors).all()
        row = run_sweep(dataclasses.replace(MINI, methods=(METHOD_NONE,))).rows[0]
        assert np.isnan(row["mse_deg2"]) and row["q"] == 0 and row["res_fail_rate"] == 1.0


class TestPaperGeometry:
    """Fixed-seed integration checks on the full-scale 10-sensor array."""

    CFG = preset("paper", q_trials=1, n_snapshots=2000,
                 methods=(METHOD_NONE, METHOD_FAILED))

    def test_nine_sources_resolved_when_intact(self):
        rec = run_trial(self.CFG, METHOD_NONE, 20.0, 0)
        assert not rec.resolution_failure
        assert np.mean(rec.squared_errors) < 0.05

    def test_two_essential_failures_break_estimation(self):
        intact = run_trial(self.CFG, METHOD_NONE, 20.0, 0)
        failed = run_trial(self.CFG, METHOD_FAILED, 20.0, 0)
        assert np.mean(failed.squared_errors) > 100 * np.mean(intact.squared_errors)

    def test_smoothed_dimension(self):
        grid, spectra, _ = emit_spectrum(self.CFG, snr_db=20.0, trial=0)
        assert set(spectra) == {METHOD_NONE, METHOD_FAILED}
        assert grid.size == int(round(180 / self.CFG.grid_step))

    @pytest.mark.parametrize("trial", range(3))
    def test_failure_degrades_low_snr_spectrum(self, trial):
        # at -10 dB the intact array still marks every target with a strong
        # peak; with two essential sensors out, several targets vanish
        from scipy.signal import find_peaks

        cfg = dataclasses.replace(self.CFG, n_snapshots=200)
        grid, spectra, scene = emit_spectrum(cfg, snr_db=-10.0, trial=trial)

        def matched(values):
            peaks, _ = find_peaks(values)
            strong = peaks[values[peaks] > np.median(values)]
            if strong.size == 0:
                return 0
            return sum(np.min(np.abs(grid[strong] - t)) <= 1.0
                       for t in scene.angles_deg)

        assert matched(spectra[METHOD_NONE]) == cfg.k
        assert matched(spectra[METHOD_FAILED]) < cfg.k


class TestEmitSpectrum:
    def test_rows_match_grid(self):
        grid, spectra, scene = emit_spectrum(MINI, snr_db=10.0, trial=0)
        assert set(spectra) == {METHOD_NONE, METHOD_FAILED}
        for values in spectra.values():
            assert values.shape == grid.shape
        assert len(scene.angles_deg) == MINI.k
        text = spectrum_csv(grid, spectra)
        assert len(text.splitlines()) == grid.size + 1

    def test_deterministic(self):
        g1, s1, _ = emit_spectrum(MINI, snr_db=0.0, trial=1)
        g2, s2, _ = emit_spectrum(MINI, snr_db=0.0, trial=1)
        npt.assert_array_equal(g1, g2)
        for m in s1:
            npt.assert_array_equal(s1[m], s2[m])


class TestSerialization:
    def test_results_csv_shape(self):
        rows = run_sweep(MINI).rows
        text = results_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "method,snr_db,mse_deg2,res_fail_rate,crb_deg2,q"
        assert len(lines) == len(rows) + 1

    def test_records_csv(self):
        recs = [run_trial(MINI, METHOD_NONE, 0.0, t) for t in range(2)]
        text = records_csv(recs)
        assert len(text.splitlines()) == 3

    def test_manifest(self):
        text = run_manifest(MINI, {"results": "x.csv"})
        data = json.loads(text)
        assert data["package"] == "sparsedoa"
        assert data["rng_algorithm"] == "PCG64"
        assert data["config"]["m"] == MINI.m
        assert data["outputs"]["results"] == "x.csv"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert data["numpy_blas"] == {"name": blas["name"], "version": blas["version"]}
        assert data["worker_blas_threads"] == 1


class TestTrainVariant:
    def test_micro_training_round(self):
        cfg = preset("desk", m=4, k=2, n_train_samples=60, epochs=2,
                     batch_size=16, n_snapshots=32)
        model, history = train_variant(cfg, "data-driven")
        assert model.input_stats is not None
        assert len(history) == 2
        assert np.isfinite(history[-1].val_mse)
