import collections
import concurrent.futures
import copy
import ctypes
import dataclasses
import functools
import json
import os
import re

import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa.harness import (
    METHOD_DATA_DRIVEN,
    METHOD_FAILED,
    METHOD_HYBRID,
    METHOD_NONE,
    PRESETS,
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
    training_policy,
    _pool_block,
)
from sparsedoa import harness, neural, spectral
from sparsedoa.neural import (
    DATA_DRIVEN,
    HYBRID,
    ScenePolicy,
    build_model,
    generate_dataset,
    load_model,
    save_model,
)
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


# MINI's 8 items make one block, which a sweep runs in-process at any worker count;
# these 40 make two (32 + 8), so that a sweep at workers=2 forks two workers
TWO_BLOCKS = dataclasses.replace(MINI, q_trials=20)


def _blas_threads() -> int:
    """This process's numpy OpenBLAS thread count."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _probe_block(out_dir, items):
    """The pool's block function, which then writes the worker's numpy OpenBLAS thread
    count and its number of OS threads (None without /proc) to ``out_dir/<pid>.json``."""
    outcome = _pool_block(items)
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    (out_dir / f"{os.getpid()}.json").write_text(
        json.dumps({"blas_threads": _blas_threads(), "os_threads": tasks}))
    return outcome


def _failing_block(items):
    raise RuntimeError("block failed")


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

    def test_repeated_method_rejected(self):
        # it wrote two identical none rows from the same trials
        with pytest.raises(ValueError, match="distinct names"):
            preset("desk", methods=("none", "none", "failed-baseline", "crb"), q_trials=2,
                   test_snrs_db=(0.0,))

    @pytest.mark.parametrize("snrs", [(0.0, 0.0), (0.0, 4.0, -0.0)])  # -0.0 keys 0.0's stream
    def test_repeated_test_snr_rejected(self, snrs):
        # it wrote two identical rows per method from the same trials
        with pytest.raises(ValueError, match="non-empty and distinct"):
            preset("desk", test_snrs_db=snrs)

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
        # 8 gaps of 10 deg need 80 deg; desk draws angles in [10, 70]
        ({"k": 9, "min_gap": 10.0}, r"k=9 sources 10\.0 deg apart do not fit \[10\.0, 70\.0\]"),
        # train's 0.8 split keeps round(0.8 * n) rows and needs at least two
        ({"n_train_samples": 1}, "split 0.8 of 1 rows leaves no usable training rows"),
        ({"n_train_samples": 0}, "split 0.8 of 0 rows leaves no usable training rows"),
        # ranges a scene or training step cannot draw from; a NaN policy field
        # would also fail every model's policy comparison
        ({"m": 4, "k": 2, "train_snr_min": 20.0}, "train_snr_min=20.0 exceeds train_snr_max=10.0"),
        ({"angle_min": float("nan")}, "angle_min=nan must be finite"),
        ({"min_gap": float("nan")}, "min_gap=nan must be finite"),
        ({"train_snr_max": float("nan")}, "train_snr_max=nan must be finite"),
        ({"train_snr_min": float("inf")}, "train_snr_min=inf must be finite"),
        ({"min_gap": -5.0}, "min_gap=-5.0 must be non-negative"),
        ({"angle_max": 120.0}, "angle_max=120.0 must satisfy -90 < angle_min <= angle_max < 90"),
        ({"angle_min": -95.0}, "angle_min=-95.0 and angle_max=70.0 must satisfy -90 <"),
        ({"learning_rate": -1.0}, "learning_rate=-1.0 must be positive"),
        ({"learning_rate": 0.0}, "learning_rate=0.0 must be positive"),
        ({"learning_rate": float("nan")}, "learning_rate=nan must be finite"),
        # a grid of 2 angles (or none) returned fewer estimates than k=3 sources
        ({"grid_step": 90.0}, "grid_step=90.0 leaves fewer grid angles than k=3"),
        ({"grid_step": float("inf")}, "grid_step=inf leaves fewer grid angles than k=3"),
    ])
    def test_misuse_rejected_at_build(self, overrides, match):
        # each used to build and fail only at the first step, trial or sample
        with pytest.raises(ValueError, match=match):
            preset("desk", **overrides)

    @pytest.mark.parametrize("field, value, match", [
        # each used to build: a non-empty string is truthy, a repeat failed one sensor,
        # True counted as K=1, and the floats failed at the first trial or ran on
        ("train_include_no_failure", "false",
         "train_include_no_failure='false' must be of type bool"),
        ("train_include_no_failure", 0, "train_include_no_failure=0 must be of type bool"),
        ("test_failures", [1, 1], r"test_failures \[1, 1\] must be distinct"),
        ("k", True, "k=True must be of type int"),
        ("master_seed", 1.0, "master_seed=1.0 must be of type int"),
        ("q_trials", 2.5, "q_trials=2.5 must be of type int"),
        ("n_snapshots", 200.5, "n_snapshots=200.5 must be of type int"),
        ("epochs", 1.5, "epochs=1.5 must be of type int"),
        ("batch_size", 256.0, "batch_size=256.0 must be of type int"),
        ("n_train_samples", 20000.0, "n_train_samples=20000.0 must be of type int"),
        ("workers", 1.5, "workers=1.5 must be of type int"),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value, match):
        saved = json.loads(preset("desk").to_json())
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json(json.dumps({**saved, field: value}))

    @pytest.mark.parametrize("overrides, match", [
        # int() truncated each: failures (1, 3) and the array (0, 1, 3, 7, 9)
        ({"test_failures": (1.7, 3)}, "test_failures entry 1.7 is not an integer"),
        ({"test_failures": (1.0, 3)}, "test_failures entry 1.0 is not an integer"),
        ({"test_failures": (True, 3)}, "test_failures entry True is not an integer"),
        ({"positions": (0, 1.5, 3.2, 7, 9.9)}, "positions entry 1.5 is not an integer"),
        ({"positions": (0, True, 3)}, "positions entry True is not an integer"),
    ])
    def test_non_integral_position_or_failure_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            preset("desk", **overrides)
        saved = json.loads(preset("desk").to_json())
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json(json.dumps({**saved, **overrides}))

    def test_numpy_integer_positions_and_failures_accepted(self):
        cfg = preset("desk", positions=np.array([0, 2, 5, 8, 9]),
                     test_failures=np.array([1, 3]))
        assert cfg == preset("desk", positions=(0, 2, 5, 8, 9), test_failures=(1, 3))
        assert all(type(v) is int for v in cfg.positions + cfg.test_failures)

    def test_every_preset_loads_from_its_json(self):
        for name in PRESETS:
            cfg = preset(name)
            assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("overrides", [
        {"train_max_failures": 4},
        {"train_max_failures": 0, "train_include_no_failure": True},
    ])
    def test_failure_count_bounds_accepted(self, overrides):
        assert preset("desk", **overrides).train_max_failures == overrides["train_max_failures"]

    @pytest.mark.parametrize("overrides", [
        {"k": 7, "min_gap": 10.0},  # 6 gaps of 10 deg fill [10, 70] exactly
        {"n_train_samples": 2},  # round(1.6) = 2 training rows
        {"grid_step": 60.0},  # 3 grid angles for k=3
    ])
    def test_fit_and_split_bounds_accepted(self, overrides):
        cfg = preset("desk", **overrides)
        assert all(getattr(cfg, name) == value for name, value in overrides.items())


class TestRunTrial:
    def test_deterministic(self):
        assert run_trial(MINI, METHOD_NONE, 10.0, 2) == run_trial(MINI, METHOD_NONE, 10.0, 2)

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_argument_below_one_rejected(self, workers):
        # config.workers=0 is rejected at build; the argument used to run serially
        with pytest.raises(ValueError, match=f"workers={workers} must be at least 1"):
            run_sweep(MINI, workers=workers)

    @pytest.mark.parametrize("workers, match", [
        (2.5, "workers=2.5 must be of type int"),
        ("2", "workers='2' must be of type int"),
        (True, "workers=True must be of type int"),
    ])
    def test_worker_argument_of_the_wrong_type_rejected_before_a_scene(self, monkeypatch,
                                                                       workers, match):
        # "2" raised a bare TypeError, as 2.5 did on a sweep of several blocks (on one
        # it ran serially), and True ran serially as 1
        def no_scene(*args):
            raise AssertionError("a scene was drawn before the workers check")

        monkeypatch.setattr(harness, "_block_snapshots", no_scene)
        with pytest.raises(ValueError, match=match):
            run_sweep(MINI, workers=workers)

    def test_worker_count_invariance(self):
        seq, par = run_sweep(TWO_BLOCKS, workers=1), run_sweep(TWO_BLOCKS, workers=2)
        assert results_csv(seq.rows) == results_csv(par.rows)
        assert records_csv(seq.records) == records_csv(par.records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stage_seconds_sum_over_blocks(self, monkeypatch, workers):
        # a clock that ticks 1.0 per read: each stage spans one tick of each block
        ticks = iter(range(10**6))
        monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
        seconds = run_sweep(TWO_BLOCKS, workers=workers).seconds
        stages = ["simulate", METHOD_NONE, METHOD_FAILED, "music", "peaks", "crb"]
        assert list(seconds) == stages
        assert seconds == dict.fromkeys(stages, 2.0)

    def test_pool_worker_runs_one_blas_thread(self, monkeypatch, tmp_path):
        # a worker that set its own count would start an OpenBLAS helper thread,
        # which spins beside its main thread for the worker's whole life
        monkeypatch.setattr(harness, "_pool_block", functools.partial(_probe_block, tmp_path))
        run_sweep(TWO_BLOCKS, workers=2)
        seen = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
        assert seen and all(s["blas_threads"] == 1 for s in seen), seen
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count a worker's OS threads")
        assert all(s["os_threads"] == 1 for s in seen), seen

    def test_parent_blas_threads_restored_after_the_pool(self, monkeypatch):
        # the parent runs the pool at one thread; its own count comes back, also
        # when a block raises (MINI, one block, starts no pool at all)
        get, set_ = harness._blas_threads()
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("numpy's OpenBLAS runs at most one thread here")
            run_sweep(TWO_BLOCKS, workers=2)
            assert get() == 2
            monkeypatch.setattr(harness, "_pool_block", _failing_block)
            with pytest.raises(RuntimeError, match="block failed"):
                run_sweep(TWO_BLOCKS, workers=2)
            assert get() == 2
        finally:
            set_(before)

    def test_one_block_sweep_starts_no_pool(self, monkeypatch):
        serial = run_sweep(MINI, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block sweep started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        pooled = run_sweep(MINI, workers=2)
        assert results_csv(pooled.rows) == results_csv(serial.rows)
        assert records_csv(pooled.records) == records_csv(serial.records)

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
    # trained under MINI's protocol, so that it passes the checks of a MINI sweep
    cfg = dataclasses.replace(MINI, n_train_samples=40, epochs=1, batch_size=16)
    return train_variant(cfg, "data-driven")[0]


@pytest.fixture(scope="module")
def repair_models(dd_model):
    cfg = dataclasses.replace(MINI, n_train_samples=40, epochs=1, batch_size=16)
    return {METHOD_HYBRID: train_variant(cfg, "hybrid")[0], METHOD_DATA_DRIVEN: dd_model}


class TestBlockEngine:
    """The sweep cuts its (SNR, trial) items into blocks of ``_BLOCK_ITEMS`` and
    runs each repair network once per block."""

    # 2 SNRs x 40 trials: three blocks, the last one partial
    CFG = dataclasses.replace(MINI, q_trials=40, methods=(
        METHOD_NONE, METHOD_FAILED, METHOD_HYBRID, METHOD_DATA_DRIVEN, "crb"))

    def test_records_equal_run_trial(self, repair_models):
        result = run_sweep(self.CFG, repair_models)
        methods = self.CFG.estimation_methods
        assert len(result.records) == 80 * len(methods)
        for rec in result.records:
            want = run_trial(self.CFG, rec.method, rec.snr_db, rec.trial, models=repair_models)
            assert (rec.error, rec.resolution_failure) == (want.error, want.resolution_failure)
            assert rec.true_deg == want.true_deg and rec.estimated_deg == want.estimated_deg
            assert rec.squared_errors == want.squared_errors
        order = [(r.snr_db, r.trial, r.method) for r in result.records]
        assert order == [(s, t, m) for s in self.CFG.test_snrs_db
                         for t in range(self.CFG.q_trials) for m in methods]

    @pytest.mark.parametrize("q_trials", [40, 10])  # 3 blocks; 1 block, fewer than workers
    def test_worker_count_invariance(self, repair_models, q_trials):
        cfg = dataclasses.replace(self.CFG, q_trials=q_trials)
        sweeps = [run_sweep(cfg, repair_models, workers=w) for w in (1, 2, 3)]
        assert len({results_csv(s.rows) for s in sweeps}) == 1
        assert len({records_csv(s.records) for s in sweeps}) == 1

    def test_one_forward_per_model_per_block(self, repair_models, monkeypatch):
        rows = []

        def counted(model, batch, *args, **kwargs):
            rows.append((model.variant, len(batch)))
            return forward(model, batch, *args, **kwargs)

        forward = neural.mlp_forward
        monkeypatch.setattr(neural, "mlp_forward", counted)
        run_sweep(self.CFG, repair_models)
        assert sorted(rows) == sorted((variant, size) for size in (32, 32, 16)
                                      for variant in (HYBRID, DATA_DRIVEN))

    def test_one_call_per_covariance_stage_per_block(self, repair_models, monkeypatch):
        # each stage takes the block's stack; it ran once per item and method before
        calls = collections.Counter()

        def counted(module, name):
            layer = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return layer(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(harness, "sample_covariance")
        for name in ("inject_failures", "redundancy_average", "spatial_smoothing",
                     "flatten_features"):
            counted(neural, name)
        cfg = dataclasses.replace(self.CFG, q_trials=20)  # 40 items: two blocks
        assert len(run_sweep(cfg, repair_models).records) == 40 * 4
        # per block: none, failed-baseline and hybrid average and smooth once each;
        # data-driven injects once; both networks flatten their inputs once
        assert calls == {"sample_covariance": 2, "redundancy_average": 6,
                         "spatial_smoothing": 6, "inject_failures": 2, "flatten_features": 4}

    def test_linalg_error_stays_on_its_record(self, repair_models, monkeypatch):
        # trial 37 at 0 dB is the sixth item of the second block: a stacked
        # eigendecomposition that holds any MUSIC input of that trial raises, so the
        # block's stacked MUSIC fails, is retried row by row, and only that item's
        # rows fail again; its block neighbours are untouched
        clean = run_sweep(self.CFG, repair_models)
        methods = self.CFG.estimation_methods
        items = [(0.0, t) for t in range(32, 40)] + [(10.0, t) for t in range(24)]
        _, inputs, _ = harness._music_inputs(self.CFG, methods, items, repair_models)
        chosen = [inputs[m][5] for m in methods]
        eig = spectral.hermitian_eig

        def failing(r):
            if any(np.array_equal(row, c) for row in r for c in chosen):
                raise np.linalg.LinAlgError("chosen")
            return eig(r)

        monkeypatch.setattr(spectral, "hermitian_eig", failing)
        hit = run_sweep(self.CFG, repair_models)
        for before, after in zip(clean.records, hit.records):
            if (after.snr_db, after.trial) == (0.0, 37):
                assert after.error == "LinAlgError: chosen" and after.resolution_failure
                assert np.isnan(after.estimated_deg).all()
            else:
                assert after == before
        assert results_csv(hit.rows) != results_csv(clean.rows)


# each training-policy field, and a change of MINI in that field alone
POLICY_CHANGES = {
    "n_sources": {"k": 1},
    "angle_min": {"angle_min": -60.0},
    "angle_max": {"angle_max": 60.0},
    "min_gap": {"min_gap": 10.0},
    "n_snapshots": {"n_snapshots": 20},
    "snr_min": {"train_snr_min": 0.0},
    "snr_max": {"train_snr_max": 30.0},
    "max_failures": {"train_max_failures": 1},
    "include_no_failure": {"train_include_no_failure": True},
}


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

    @pytest.mark.parametrize("name", POLICY_CHANGES)
    def test_policy_mismatch_rejected_before_a_scene(self, dd_model, monkeypatch, name):
        # a model trained under another scene protocol ran without a word
        cfg = dataclasses.replace(MINI, methods=(METHOD_NONE, METHOD_DATA_DRIVEN),
                                  **POLICY_CHANGES[name])
        recorded = dd_model.meta[name]
        assert recorded == getattr(training_policy(MINI), name)
        assert recorded != getattr(training_policy(cfg), name)

        def no_scene(*args):
            raise AssertionError("a scene was drawn before the model check")

        monkeypatch.setattr(harness, "_block_snapshots", no_scene)
        models = {METHOD_DATA_DRIVEN: dd_model}
        calls = (lambda: run_sweep(cfg, models),
                 lambda: run_trial(cfg, METHOD_DATA_DRIVEN, 10.0, 0, models=models),
                 lambda: emit_spectrum(cfg, 10.0, models=models))
        for call in calls:
            with pytest.raises(ValueError, match=f"training policy differs in {name}="):
                call()

    def test_models_recording_part_of_the_policy(self, dd_model):
        # older files record no policy field, or n_sources alone (null if
        # trained on a dataset without meta): what is not recorded passes
        assert set(POLICY_CHANGES) == {f.name for f in dataclasses.fields(ScenePolicy)}
        other = dataclasses.replace(MINI, n_snapshots=20, min_gap=10.0, train_snr_max=30.0)
        for kept in ({}, {"n_sources": None}, {"n_sources": 2}):
            legacy = copy.deepcopy(dd_model)
            for name in POLICY_CHANGES:
                del legacy.meta[name]
            legacy.meta.update(kept)
            models = {METHOD_DATA_DRIVEN: legacy}
            assert run_trial(other, METHOD_DATA_DRIVEN, 10.0, 0, models=models).error is None
        # the last of them, which records K alone, is still K-checked
        with pytest.raises(ValueError, match=r"with K=2; its training policy differs in "
                                             r"n_sources=2 \(config 1\)$"):
            run_trial(dataclasses.replace(MINI, k=1), METHOD_DATA_DRIVEN, 10.0, 0, models=models)

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

    def test_unidentifiable_bound_is_booked_as_nan(self):
        # trial 0 at 0 dB of the desk preset with K = 9 has a numerically
        # singular angle Fisher information; the sweep goes on without a bound
        cfg = preset("desk", k=9, test_snrs_db=(0.0,), q_trials=2, grid_step=0.2,
                     methods=(METHOD_NONE, "crb"))
        (row,) = run_sweep(cfg).rows
        assert np.isnan(row["crb_deg2"]) and row["q"] == 2


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

    @pytest.mark.parametrize("methods", [(), ("crb",)])
    def test_no_estimation_method_rejected_before_a_scene(self, monkeypatch, methods):
        # () failed in np.stack, and a crb-only tuple as an unknown estimation method
        def no_scene(*args):
            raise AssertionError("a scene was drawn before the method check")

        monkeypatch.setattr(harness, "_block_snapshots", no_scene)
        names = re.escape(str(list(MINI.estimation_methods)))
        with pytest.raises(ValueError, match=f"estimation methods, such as the config's {names}"):
            emit_spectrum(MINI, snr_db=10.0, methods=methods)

    def test_repeated_method_rejected_before_a_scene(self, monkeypatch):
        # it returned one column for the two names
        def no_scene(*args):
            raise AssertionError("a scene was drawn before the method check")

        monkeypatch.setattr(harness, "_block_snapshots", no_scene)
        with pytest.raises(ValueError, match="distinct estimation methods"):
            emit_spectrum(MINI, snr_db=0.0, methods=(METHOD_NONE, METHOD_NONE))

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
        seconds = {"simulate": 0.5, METHOD_NONE: 0.25, "music": 1.0}
        data = json.loads(run_manifest(MINI, {"results": "x.csv"}, seconds))
        assert data["stage_seconds"] == seconds
        assert data["package"] == "sparsedoa"
        assert data["rng_algorithm"] == "PCG64"
        assert data["config"]["m"] == MINI.m
        assert data["outputs"]["results"] == "x.csv"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert data["numpy_blas"] == {"name": blas["name"], "version": blas["version"]}
        assert data["worker_blas_threads"] == 1
        assert "scipy" not in data  # the package runs on numpy alone


class TestTrainVariant:
    def test_dataset_of_another_policy_rejected(self):
        # the model would be written, and no sweep under this config would accept it
        cfg = dataclasses.replace(MINI, n_train_samples=40, epochs=1, batch_size=16)
        ds = generate_dataset(DATA_DRIVEN, cfg.geometry(), training_policy(cfg), 40, seed=1)
        other = dataclasses.replace(cfg, train_snr_max=30.0)
        with pytest.raises(ValueError, match=r"differs from the config's in snr_max=10\.0 "
                                             r"\(config 30\.0\)"):
            train_variant(other, DATA_DRIVEN, dataset=ds)
        model, _ = train_variant(cfg, DATA_DRIVEN, dataset=ds)
        recorded = {name: model.meta[name] for name in POLICY_CHANGES}
        assert recorded == dataclasses.asdict(training_policy(cfg))

    def test_micro_training_round(self):
        cfg = preset("desk", m=4, k=2, n_train_samples=60, epochs=2,
                     batch_size=16, n_snapshots=32)
        model, history = train_variant(cfg, "data-driven")
        assert model.input_stats is not None
        assert len(history) == 2
        assert np.isfinite(history[-1].val_mse)
