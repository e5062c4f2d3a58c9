import copy
import dataclasses
import json
import pickle
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedoa.coarray import (
    flatten_features,
    redundancy_average,
    spatial_smoothing,
    unflatten_features,
)
from sparsedoa.geometry import ArrayGeometry, mra_lookup
from sparsedoa.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    DATA_DRIVEN,
    HYBRID,
    MlpModel,
    ScenePolicy,
    TrainingDataset,
    TrainingDiverged,
    adam_init,
    adam_step,
    build_model,
    feature_widths,
    generate_dataset,
    load_dataset,
    load_model,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    mlp_backward,
    mlp_forward,
    mse_loss,
    predict_covariance,
    repair_input,
    save_dataset,
    save_model,
    train,
)
from sparsedoa.signals import (
    inject_failures,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    stream_rng,
)

from oracles import (
    analytic_covariance,
    item_draws,
    pack_parameters,
    per_row_predict_covariance,
    per_sample_dataset,
    train_oracle,
)

GEOM5 = mra_lookup(5)
ULA4 = ArrayGeometry((0, 1, 2, 3))
DESK_POLICY = ScenePolicy(n_sources=3, n_snapshots=64)


def tiny_model(dims, dropout, rng, variant=HYBRID):
    weights = [rng.standard_normal((a, b)) * 0.4 for a, b in zip(dims, dims[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in dims[1:]]
    return MlpModel(variant=variant, layer_dims=list(dims),
                    flat=pack_parameters(weights, biases), dropout_rates=list(dropout))


class TestMinMax:
    def test_fit_and_apply(self):
        stats = minmax_fit(np.array([[0.0], [2.0], [4.0]]))
        assert stats.minimum[0] == 0 and stats.maximum[0] == 4
        npt.assert_allclose(minmax_apply(np.array([[2.0]]), stats), [[0.5]])

    def test_constant_column_passthrough(self):
        data = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        stats = minmax_fit(data)
        npt.assert_array_equal(stats.maximum <= stats.minimum, [True, False])
        out = minmax_apply(data, stats)
        npt.assert_allclose(out[:, 0], 3.0)
        npt.assert_allclose(out[:, 1], np.arange(5.0) / 4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((20, 7)) * rng.uniform(0.1, 50, 7)
        stats = minmax_fit(data)
        npt.assert_allclose(minmax_invert(minmax_apply(data, stats), stats),
                            data, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            minmax_fit(np.array([[1.0], [np.nan]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_min_and_max_carry_any_non_finite_value(self, dtype, value):
        data = np.ones((4, 3), dtype)
        data[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            minmax_fit(data)

    def test_float32_rows_take_their_float64_upcast_arithmetic(self):
        # the stats and the scaled rows are float64 and hold the same bits as a fit
        # and scale of the rows copied up to float64 first
        rng = np.random.default_rng(3)
        data = (rng.standard_normal((30, 6)) * rng.uniform(0.1, 50, 6)).astype(np.float32)
        data[:, 2] = 1.5  # a constant column passes through
        stats, wide = minmax_fit(data), data.astype(np.float64)
        for got, want in ((stats.minimum, wide.min(axis=0)), (stats.maximum, wide.max(axis=0))):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        scaled = minmax_apply(data, stats)
        span = np.where(stats.maximum <= stats.minimum, 1.0, stats.maximum - stats.minimum)
        shift = np.where(stats.maximum <= stats.minimum, 0.0, stats.minimum)
        assert scaled.dtype == np.float64
        assert scaled.tobytes() == ((wide - shift) / span).tobytes()


class TestForward:
    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(0)
        model = tiny_model([3, 4, 2], [0.0, 0.0], rng)
        for w in model.weights:
            w[:] = 0.0
        model.biases[0][:] = 0.0
        model.biases[1][:] = [1.5, -2.0]
        out = mlp_forward(model, rng.standard_normal((6, 3)))
        npt.assert_allclose(out, np.tile([1.5, -2.0], (6, 1)))

    def test_zero_dropout_matches_infer(self):
        rng = np.random.default_rng(1)
        model = tiny_model([4, 5, 5, 3], [0.0, 0.0, 0.0], rng)
        x = rng.standard_normal((7, 4))
        out_train, _ = mlp_forward(model, x, train=True, rng=np.random.default_rng(9))
        npt.assert_array_equal(out_train, mlp_forward(model, x))

    def test_dim_mismatch(self):
        model = tiny_model([4, 3], [0.0], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(model, np.zeros((2, 5)))

    def test_hidden_relu_carries_nan(self):
        # a NaN hidden pre-activation must reach the output, not be clipped to 0
        rng = np.random.default_rng(3)
        model = tiny_model([3, 4, 2], [0.0, 0.0], rng)
        model.weights[0][0, 0] = np.nan
        assert np.isnan(mlp_forward(model, rng.standard_normal((2, 3)))).all()

    def test_inverted_dropout_unbiased(self):
        # linear output layer: train-mode mean over masks matches infer mode
        rng = np.random.default_rng(2)
        model = tiny_model([5, 8, 4], [0.4, 0.0], rng)
        x = rng.standard_normal((3, 5))
        reference = mlp_forward(model, x)
        drop_rng = np.random.default_rng(77)
        acc = np.zeros_like(reference)
        n = 10_000
        for _ in range(n):
            out, _ = mlp_forward(model, x, train=True, rng=drop_rng)
            acc += out
        rel = np.linalg.norm(acc / n - reference) / np.linalg.norm(reference)
        assert rel < 0.02


class TestBackward:
    def test_zero_gradient_at_optimum(self):
        rng = np.random.default_rng(3)
        model = tiny_model([3, 3], [0.0], rng)
        x = rng.standard_normal((4, 3))
        out, cache = mlp_forward(model, x, train=True, rng=rng)
        grads = mlp_backward(model, cache, out, out.copy())
        for g in grads:
            npt.assert_array_equal(g, 0)

    def test_scalar_closed_form(self):
        model = MlpModel(variant=HYBRID, layer_dims=[1, 1],
                         flat=pack_parameters([np.array([[0.7]])], [np.array([0.2])]),
                         dropout_rates=[0.0])
        x, t = np.array([[1.3]]), np.array([[2.0]])
        out, cache = mlp_forward(model, x, train=True, rng=np.random.default_rng(0))
        grads = mlp_backward(model, cache, out, t)
        resid = 0.7 * 1.3 + 0.2 - 2.0
        npt.assert_allclose(grads[0], [[2 * resid * 1.3]])
        npt.assert_allclose(grads[1], [2 * resid])

    @pytest.mark.parametrize("dims,dropout,variant", [
        ([6, 6, 6, 6, 6], [0.2, 0.4, 0.0, 0.0], HYBRID),
        ([4, 4, 4, 8, 8, 8], [0.2, 0.2, 0.2, 0.2, 0.0], DATA_DRIVEN),
    ])
    def test_matches_finite_differences(self, dims, dropout, variant):
        rng = np.random.default_rng(11)
        model = tiny_model(dims, dropout, rng, variant=variant)
        x = rng.standard_normal((5, dims[0]))
        t = rng.standard_normal((5, dims[-1]))
        out, cache = mlp_forward(model, x, train=True, rng=np.random.default_rng(4))
        grads = mlp_backward(model, cache, out, t)

        def loss_with_masks():
            z = x
            last = model.n_layers - 1
            for li, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = z @ w + b
                if li == last:
                    break
                z = np.maximum(z, 0.0)
                keep = cache["drop_mask"][li]
                if keep is not None:
                    z = z * keep / (1.0 - model.dropout_rates[li])
            return mse_loss(z, t)

        h = 1e-6
        worst = 0.0
        params = model.parameters()
        rng_pick = np.random.default_rng(5)
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            idx = rng_pick.choice(flat_p.size, size=min(25, flat_p.size), replace=False)
            for j in idx:
                orig = flat_p[j]
                flat_p[j] = orig + h
                lp = loss_with_masks()
                flat_p[j] = orig - h
                lm = loss_with_masks()
                flat_p[j] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-10:
                    worst = max(worst, abs(flat_g[j] - fd) / abs(fd))
        assert worst < 1e-5


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = [np.array([1.0, -2.0])]
        state = adam_init(params, lr=0.05)
        adam_step(state, params, [np.zeros(2)])
        npt.assert_array_equal(params[0], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        params = [np.array([0.0])]
        state = adam_init(params, lr=0.01)
        adam_step(state, params, [np.array([3.7])])
        npt.assert_allclose(params[0], [-0.01], rtol=1e-6)

    def test_quadratic_convergence(self):
        params = [np.array([0.0])]
        state = adam_init(params, lr=0.1)
        for _ in range(200):
            adam_step(state, params, [2.0 * (params[0] - 3.0)])
        assert abs(params[0][0] - 3.0) < 0.05


def adam_step_oracle(state, params, grads):
    """The whole-array Adam update that the blocked ``adam_step`` replaced."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


class TestAdamBlocks:
    @pytest.mark.parametrize("shapes", [
        [(ADAM_CHUNK - 1,)],
        [(ADAM_CHUNK,)],
        [(ADAM_CHUNK + 1,)],
        # a model's parameter list: matrices and vectors, one above two blocks
        [(40, 30), (30,), (2 * ADAM_CHUNK + 7,), (3, 5), (5,)],
    ])
    def test_matches_whole_array_oracle_bytes(self, shapes):
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(len(shapes) + shapes[0][0])
            params = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
            oracle_params = [p.copy() for p in params]
            state, oracle = adam_init(params, lr=1e-3), adam_init(oracle_params, lr=1e-3)
            for _ in range(20):
                grads = [(rng.standard_normal(shape) * rng.uniform(1e-3, 10.0)).astype(dtype)
                         for shape in shapes]
                adam_step(state, params, grads)
                adam_step_oracle(oracle, oracle_params, grads)
            assert state.step == oracle.step == 20
            for got, want in zip(params + state.m + state.v,
                                 oracle_params + oracle.m + oracle.v):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_reuse_the_state_scratch(self, dtype):
        # the two scratch blocks are made once, by adam_init, in the parameters' dtype
        rng = np.random.default_rng(0)
        params = [rng.standard_normal((3 * ADAM_CHUNK + 5,)).astype(dtype)]
        grads = [rng.standard_normal(params[0].shape).astype(dtype)]
        state = adam_init(params, lr=1e-3)
        assert state.scratch.dtype == dtype and state.scratch.shape == (2, ADAM_CHUNK)
        adam_step(state, params, grads)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                adam_step(state, params, grads)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < ADAM_CHUNK * np.dtype(dtype).itemsize

    def test_rejects_non_contiguous_arrays(self):
        params = [np.zeros((4, 6))[:, ::2]]
        state = adam_init([np.zeros((4, 3))], lr=0.1)
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(state, params, [np.ones((4, 3))])


class TestArchitecture:
    def test_feature_widths(self):
        assert feature_widths(GEOM5) == (50, 200)
        assert feature_widths(mra_lookup(10)) == (200, 2592)

    def test_hybrid_conformance(self):
        model = build_model(HYBRID, GEOM5, seed=0)
        assert model.n_layers == 4
        assert all(w.shape == (200, 200) for w in model.weights)
        assert model.dropout_rates == [0.2, 0.4, 0.0, 0.0]

    def test_data_driven_conformance(self):
        model = build_model(DATA_DRIVEN, GEOM5, seed=0)
        assert model.n_layers == 5
        assert [w.shape for w in model.weights] == [
            (50, 50), (50, 50), (50, 200), (200, 200), (200, 200)
        ]
        assert model.dropout_rates == [0.2, 0.2, 0.2, 0.2, 0.0]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_model("other", GEOM5)


class TestGenerateDataset:
    def test_dims_per_variant(self):
        ds_h = generate_dataset(HYBRID, GEOM5, DESK_POLICY, 4, seed=0)
        assert ds_h.inputs.shape == (4, 200) and ds_h.targets.shape == (4, 200)
        ds_d = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 4, seed=0)
        assert ds_d.inputs.shape == (4, 50) and ds_d.targets.shape == (4, 200)

    def test_nine_sources_feasible(self):
        policy = ScenePolicy(n_sources=9, n_snapshots=16)
        ds = generate_dataset(DATA_DRIVEN, mra_lookup(4), policy, 2, seed=1)
        assert np.isfinite(ds.inputs).all()

    def test_deterministic(self):
        a = generate_dataset(HYBRID, GEOM5, DESK_POLICY, 5, seed=3)
        b = generate_dataset(HYBRID, GEOM5, DESK_POLICY, 5, seed=3)
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    @pytest.mark.parametrize("include_no_failure", [False, True])
    @pytest.mark.parametrize("n_samples", [1, 32, 69])  # part of a block, one, and 2 + part
    @pytest.mark.parametrize("geom, n_sources", [(GEOM5, 3), (mra_lookup(7), 6)])
    def test_blocks_match_per_sample_oracle(self, variant, include_no_failure, n_samples,
                                            geom, n_sources):
        # the desk preset's array and policy, and the 7-sensor MRA
        policy = ScenePolicy(n_sources=n_sources, include_no_failure=include_no_failure)
        ds = generate_dataset(variant, geom, policy, n_samples, seed=11)
        expected = per_sample_dataset(variant, geom, policy, n_samples, seed=11)
        assert ds.inputs.tobytes() == expected.inputs.tobytes()
        assert ds.targets.tobytes() == expected.targets.tobytes()
        assert ds.meta == expected.meta and ds.fingerprint() == expected.fingerprint()

    def test_rejects_failed_geometry(self):
        with pytest.raises(ValueError):
            generate_dataset(HYBRID, GEOM5.with_failures({1}), DESK_POLICY, 2, seed=0)

    def test_file_round_trip(self, tmp_path):
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.inputs, ds.inputs)
        npt.assert_array_equal(loaded.targets, ds.targets)
        assert loaded.meta["variant"] == DATA_DRIVEN
        assert loaded.n_samples == 3

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_reloaded_dataset_is_the_generated_one(self, tmp_path, variant):
        # the rows are float32 in memory and on disk, so the workflow `dataset`
        # then `train --dataset` trains the model that `train` alone does
        ds = generate_dataset(variant, GEOM5, DESK_POLICY, 40, seed=4)
        save_dataset(ds, tmp_path / "ds.bin")
        loaded = load_dataset(tmp_path / "ds.bin")
        for got, want in ((loaded.inputs, ds.inputs), (loaded.targets, ds.targets)):
            assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)
        assert loaded.fingerprint() == ds.fingerprint()
        runs = []
        for dataset in (ds, loaded):
            model = build_model(variant, GEOM5, seed=1)
            history = train(model, dataset, epochs=2, batch_size=8, seed=2)
            runs.append((model.flat.tobytes(), [(h.train_mse, h.val_mse) for h in history],
                         model.meta["dataset_fingerprint"]))
        assert runs[0] == runs[1]

    def test_file_body_is_held_once(self, tmp_path):
        # saving writes row chunks, not a copy of every row; loading keeps the rows
        # as views into the buffer read, with no float64 copy and no full-size
        # temporary for the finiteness check
        rng = np.random.default_rng(0)
        ds = TrainingDataset(inputs=rng.random((8000, 50), np.float32),
                             targets=rng.random((8000, 200), np.float32), meta={})
        body = ds.inputs.nbytes + ds.targets.nbytes
        peaks = []
        tracemalloc.start()
        try:
            for step in (lambda: save_dataset(ds, tmp_path / "ds.bin"),
                         lambda: load_dataset(tmp_path / "ds.bin")):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                loaded = step()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert loaded.inputs.base is not None and loaded.inputs.base is loaded.targets.base
        assert peaks[0] <= 0.5 * body and peaks[1] <= 1.1 * body

    def test_meta_is_the_policy_under_its_own_field_names(self, tmp_path):
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4)
        assert ds.meta == {"variant": DATA_DRIVEN, "geometry": [0, 2, 5, 8, 9], "seed": 4,
                           **dataclasses.asdict(DESK_POLICY)}
        save_dataset(ds, tmp_path / "ds.bin")
        assert load_dataset(tmp_path / "ds.bin").meta == ds.meta

    @pytest.mark.parametrize("part", ["inputs", "targets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_file_rejects_non_finite_rows(self, tmp_path, part, value):
        # a NaN validation row used to load and train, with val_mse = nan every epoch
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4)
        getattr(ds, part)[-1, 0] = value
        save_dataset(ds, tmp_path / "ds.bin")
        with pytest.raises(ValueError, match="ds.bin.*non-finite"):
            load_dataset(tmp_path / "ds.bin")

    @pytest.mark.parametrize("cut", [-8, 8])
    def test_file_rejects_short_or_trailing_data(self, tmp_path, cut):
        path = tmp_path / "ds.bin"
        save_dataset(generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4), path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        with pytest.raises(ValueError, match="ds.bin"):
            load_dataset(path)

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_inputs_follow_repair_input(self, variant):
        # replays the first sample's draws: the training input is the
        # same damaged covariance the sweep hands the network
        ds = generate_dataset(variant, GEOM5, DESK_POLICY, 1, seed=6)
        rng = stream_rng(6, "dataset", variant)
        scene = DESK_POLICY.draw_scene(rng)
        failed = DESK_POLICY.draw_failures(GEOM5, rng)
        r = sample_covariance(simulate_snapshots(
            GEOM5, [scene], item_draws(rng, GEOM5, scene, DESK_POLICY.n_snapshots))[0])
        expected = flatten_features(repair_input(variant, r, failed)).astype(np.float32)
        assert ds.inputs.dtype == np.float32 and ds.inputs[0].tobytes() == expected.tobytes()


class TestDrawFailures:
    @pytest.mark.parametrize("include_no_failure", [False, True])
    def test_failed_geometry_of_the_array(self, include_no_failure):
        policy = ScenePolicy(max_failures=2, include_no_failure=include_no_failure)
        rng = np.random.default_rng(3)
        low = 0 if include_no_failure else 1
        for _ in range(30):
            failed = policy.draw_failures(GEOM5, rng)
            assert failed.positions == GEOM5.positions
            assert low <= len(failed.failed) <= 2

    def test_every_sensor_failed_is_rejected(self):
        # one sensor and at least one failure per sample: the draw is always all of them
        with pytest.raises(ValueError, match="at least one sensor"):
            ScenePolicy(max_failures=1).draw_failures(ArrayGeometry((0,)),
                                                      np.random.default_rng(0))


class TestRepairInput:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 7), data=st.data())
    def test_hybrid_needs_no_injection(self, m, data):
        # oracle: the zeroed copy that redundancy averaging never reads
        geom = mra_lookup(m)
        failures = data.draw(st.frozensets(st.integers(1, m), min_size=1, max_size=2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
        r = sample_covariance(y)
        failed = geom.with_failures(failures)
        got = repair_input(HYBRID, r, failed)
        want = spatial_smoothing(redundancy_average(inject_failures(r, failed), failed))
        npt.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 7), data=st.data())
    def test_failures_come_from_the_geometry(self, m, data):
        # the failure set travels inside the geometry; no separate argument can drop it
        failed = mra_lookup(m).with_failures(
            data.draw(st.frozensets(st.integers(1, m), max_size=2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
        r = sample_covariance(y)
        npt.assert_array_equal(repair_input(HYBRID, r, failed),
                               spatial_smoothing(redundancy_average(r, failed)))
        got = repair_input(DATA_DRIVEN, r, failed)
        dead = np.array([i in failed.failed for i in range(1, m + 1)])
        assert np.all(got[dead, :] == 0) and np.all(got[:, dead] == 0)
        npt.assert_array_equal(got[np.ix_(~dead, ~dead)], r[np.ix_(~dead, ~dead)])

    def test_data_driven_is_injected_physical_matrix(self):
        r = analytic_covariance(GEOM5, scene_from_snr((15.0, 30.0), 0.0))
        failed = GEOM5.with_failures({2, 4})
        npt.assert_array_equal(repair_input(DATA_DRIVEN, r, failed), inject_failures(r, failed))

    def test_unknown_variant(self):
        r = analytic_covariance(GEOM5, scene_from_snr((15.0,), 0.0))
        with pytest.raises(ValueError, match="variant"):
            repair_input("bogus", r, GEOM5.with_failures({1}))


def toy_identity_dataset(n=100, dim=8, seed=0):
    from sparsedoa.neural import TrainingDataset

    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, dim))
    return TrainingDataset(inputs=x, targets=x.copy(), meta={"toy": True})


class TestTrain:
    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(6)
        model = tiny_model([8, 8, 8], [0.0, 0.0], rng)
        before = [w.copy() for w in model.weights]
        history = train(model, toy_identity_dataset(), epochs=1, batch_size=16,
                        seed=0, lr=0.0)
        assert len(history) == 1
        for w, b in zip(model.weights, before):
            npt.assert_array_equal(w, b)

    def test_identity_task_learns(self):
        rng = np.random.default_rng(7)
        model = tiny_model([8, 16, 8], [0.0, 0.0], rng)
        history = train(model, toy_identity_dataset(), epochs=50, batch_size=16, seed=1)
        assert history[-1].val_mse < history[0].val_mse / 10

    def test_divergence_raises_with_history(self):
        # Adam steps are lr-bounded, so overflow needs an absurd rate
        rng = np.random.default_rng(8)
        model = tiny_model([8, 8, 8], [0.0, 0.0], rng)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                train(model, toy_identity_dataset(), epochs=50, batch_size=16,
                      seed=1, lr=1e200)
        assert isinstance(info.value.history, list)

    def test_deterministic_history(self):
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 40, seed=5)
        losses = []
        for _ in range(2):
            model = build_model(DATA_DRIVEN, GEOM5, seed=11)
            history = train(model, ds, epochs=3, batch_size=16, seed=11)
            losses.append([(h.train_mse, h.val_mse) for h in history])
        assert losses[0] == losses[1]

    def test_normalization_fits_training_split_only(self):
        ds = toy_identity_dataset(n=50)
        model_a = tiny_model([8, 8], [0.0], np.random.default_rng(1))
        train(model_a, ds, epochs=1, batch_size=16, seed=0)
        ds.inputs[45:] += 100.0  # validation rows only
        ds.targets[45:] += 100.0
        model_b = tiny_model([8, 8], [0.0], np.random.default_rng(1))
        train(model_b, ds, epochs=1, batch_size=16, seed=0)
        npt.assert_array_equal(model_a.input_stats.minimum, model_b.input_stats.minimum)
        npt.assert_array_equal(model_a.input_stats.maximum, model_b.input_stats.maximum)

    def test_dim_mismatch(self):
        model = build_model(HYBRID, GEOM5, seed=0)
        with pytest.raises(ValueError):
            train(model, toy_identity_dataset(dim=10), epochs=1)

    @pytest.mark.parametrize("kwargs, match", [
        # -1 returned a zero loss and left the parameters alone; 0 and 2.5 raised bare
        # range() and TypeError messages; a negative rate trained uphill
        ({"batch_size": -1}, "batch_size=-1 must be an int of at least 1"),
        ({"batch_size": 0}, "batch_size=0 must be an int of at least 1"),
        ({"batch_size": 2.5}, "batch_size=2.5 must be an int of at least 1"),
        ({"batch_size": True}, "batch_size=True must be an int of at least 1"),
        ({"epochs": 1.5}, "epochs=1.5 must be an int of at least 1"),
        ({"lr": -1e-3}, "lr=-0.001 must be finite and not negative"),
        ({"lr": float("nan")}, "lr=nan must be finite and not negative"),
        ({"lr": float("inf")}, "lr=inf must be finite and not negative"),
    ])
    def test_misuse_rejected_naming_the_argument(self, kwargs, match):
        model = tiny_model([8, 8], [0.0], np.random.default_rng(1))
        before = model.flat.copy()
        with pytest.raises(ValueError, match=match):
            train(model, toy_identity_dataset(), **{"epochs": 1, **kwargs})
        assert model.input_stats is None
        assert model.flat.tobytes() == before.tobytes()

    # desk width, and the 7-sensor MRA (H = 648); 36 training rows in batches of 16
    # leave a short last batch of 4
    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    @pytest.mark.parametrize("m", [5, 7])
    def test_matches_the_allocating_oracle_bytes(self, variant, m):
        # built float32, and the same draws as a float64 vector; the oracle works in either
        for dtype in (np.float32, np.float64):
            trained, oracle = (build_model(variant, mra_lookup(m), seed=3) for _ in range(2))
            trained.flat, oracle.flat = trained.flat.astype(dtype), oracle.flat.astype(dtype)
            rng = np.random.default_rng(m)
            dataset = TrainingDataset(inputs=rng.standard_normal((45, trained.d_in)),
                                      targets=rng.standard_normal((45, trained.d_out)), meta={})
            history = train(trained, dataset, epochs=3, batch_size=16, seed=2)
            expected = train_oracle(oracle, dataset, epochs=3, batch_size=16, split=0.8, seed=2,
                                    lr=1e-3)
            assert [(h.train_mse, h.val_mse) for h in history] == \
                [(h.train_mse, h.val_mse) for h in expected]
            assert trained.flat.dtype == dtype
            assert trained.flat.tobytes() == oracle.flat.tobytes()

    def test_zero_epochs_rejected(self):
        # used to return an empty history and leave a fitted but untrained model
        model = tiny_model([8, 8], [0.0], np.random.default_rng(1))
        with pytest.raises(ValueError, match="epochs=0"):
            train(model, toy_identity_dataset(), epochs=0)
        assert model.input_stats is None

    def test_model_records_the_dataset_policy(self):
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 20, seed=5)
        model = build_model(DATA_DRIVEN, GEOM5, seed=5)
        train(model, ds, epochs=1, batch_size=16, seed=5)
        assert model.meta.items() >= dataclasses.asdict(DESK_POLICY).items()

    def test_dataset_of_another_geometry_rejected(self):
        # the mirrored 4-sensor MRA has the same feature widths
        ds = generate_dataset(DATA_DRIVEN, mra_lookup(4), ScenePolicy(n_sources=2, n_snapshots=16),
                              10, seed=0)
        model = build_model(DATA_DRIVEN, ArrayGeometry((0, 2, 5, 6)), seed=0)
        with pytest.raises(ValueError, match=r"geometry \[0, 1, 4, 6\] cannot train a model "
                                             r"of geometry \[0, 2, 5, 6\]"):
            train(model, ds, epochs=1, batch_size=8)
        assert model.input_stats is None

    def test_dataset_of_another_variant_rejected(self):
        # on two sensors L = H = 8, so the widths cannot tell the variants apart
        two = ArrayGeometry((0, 1))
        assert feature_widths(two) == (8, 8)
        policy = ScenePolicy(n_sources=1, n_snapshots=16, max_failures=1)
        ds = generate_dataset(HYBRID, two, policy, 10, seed=0)
        model = build_model(DATA_DRIVEN, two, seed=0)
        with pytest.raises(ValueError, match="variant hybrid cannot train a model of "
                                             "variant data-driven"):
            train(model, ds, epochs=1, batch_size=8)
        assert model.input_stats is None


@pytest.fixture(scope="module")
def trained_pair():
    policy = ScenePolicy(n_sources=3, n_snapshots=64)
    models = {}
    for variant in (HYBRID, DATA_DRIVEN):
        ds = generate_dataset(variant, GEOM5, policy, 120, seed=21)
        model = build_model(variant, GEOM5, seed=21)
        train(model, ds, epochs=3, batch_size=32, seed=21)
        models[variant] = model
    return models


@pytest.fixture(scope="module")
def ula_pair():
    """Both variants briefly trained on the 4-sensor ULA, where the physical
    width L = 2*M^2 equals the smoothed width H = 2*m_v^2 = 32."""
    models = {}
    for variant in (HYBRID, DATA_DRIVEN):
        ds = generate_dataset(variant, ULA4, ScenePolicy(n_sources=2, n_snapshots=32), 40, seed=3)
        model = build_model(variant, ULA4, seed=3)
        train(model, ds, epochs=1, batch_size=16, seed=3)
        models[variant] = model
    return models


class TestPredictCovariance:
    FAILED = GEOM5.with_failures({1, 3})

    def _full_covariance(self, seed=31):
        scene = scene_from_snr((15.0, 30.0, 52.0), 5.0)
        return sample_covariance(simulate_snapshots(
            GEOM5, [scene], item_draws(np.random.default_rng(seed), GEOM5, scene, 64))[0])

    def test_output_hermitian_and_sized(self, trained_pair):
        r = self._full_covariance()
        for variant in (HYBRID, DATA_DRIVEN):
            out = predict_covariance(trained_pair[variant], r[None], self.FAILED)
            assert out.shape == (1, 10, 10) and out.dtype == np.complex128
            npt.assert_array_equal(out[0], out[0].conj().T)

    def test_each_variant_builds_its_own_input(self, ula_pair):
        # the feature width alone cannot tell the two damaged inputs apart here
        assert feature_widths(ULA4) == (32, 32)
        scene = scene_from_snr((-20.0, 35.0), 5.0)
        r = sample_covariance(simulate_snapshots(
            ULA4, [scene], item_draws(np.random.default_rng(4), ULA4, scene, 32))[0])
        failed, inputs = ULA4.with_failures({2}), {}
        for variant, model in ula_pair.items():
            inputs[variant] = flatten_features(repair_input(variant, r, failed))
            x = minmax_apply(inputs[variant][None, :], model.input_stats)
            out = unflatten_features(minmax_invert(mlp_forward(model, x)[0], model.target_stats))
            npt.assert_array_equal(predict_covariance(model, r[None], failed)[0], out)
            # the failures travel in the geometry: the intact array is repaired differently
            assert not np.allclose(predict_covariance(model, r[None], ULA4)[0], out)
        assert not np.allclose(inputs[HYBRID], inputs[DATA_DRIVEN])

    def test_other_geometry_rejected_by_width(self, trained_pair):
        geom4 = mra_lookup(4)
        r = analytic_covariance(geom4, scene_from_snr((15.0, 30.0), 5.0))
        for model in trained_pair.values():
            with pytest.raises(ValueError, match="does not match model input"):
                predict_covariance(model, r[None], geom4.with_failures({1}))

    def test_zero_failure_roles_accepted(self, trained_pair):
        r = self._full_covariance(seed=32)
        for model in trained_pair.values():
            assert predict_covariance(model, r[None], GEOM5).shape == (1, 10, 10)

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_non_finite_output_raises(self, trained_pair, variant):
        model = copy.deepcopy(trained_pair[variant])
        model.weights[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="not finite"):
            predict_covariance(model, self._full_covariance()[None], self.FAILED)

    def test_untrained_model_rejected(self):
        model = build_model(HYBRID, GEOM5, seed=0)
        r = analytic_covariance(GEOM5, scene_from_snr((10.0,), 0.0))
        with pytest.raises(ValueError, match="normalization"):
            predict_covariance(model, r[None], GEOM5)

    def test_stack_rows_match_single_predictions(self, trained_pair):
        # one forward over the stack; a GEMM row may differ from the batch-1 GEMV
        # product in its last bits only: 1e-12 for a float64 vector, 64 ulps for float32
        r = np.stack([self._full_covariance(seed) for seed in range(33, 38)])
        for trained in trained_pair.values():
            for dtype, tol in ((np.float32, 64 * np.finfo(np.float32).eps), (np.float64, 1e-12)):
                model = dataclasses.replace(trained, flat=trained.flat.astype(dtype))
                stacked = predict_covariance(model, r, self.FAILED)
                assert stacked.shape == (5, 10, 10)
                for row, one in zip(stacked, r):
                    npt.assert_allclose(row, predict_covariance(model, one[None], self.FAILED)[0],
                                        rtol=tol, atol=tol * np.abs(row).max())

    @pytest.mark.parametrize("failed", [(), (1, 3), (2,)])
    def test_block_matches_per_row_oracle_bit_for_bit(self, trained_pair, failed):
        # each covariance layer runs once over the block, and the bytes equal the
        # row-by-row assembly it replaced
        geom = GEOM5.with_failures(failed)
        r = np.stack([self._full_covariance(seed) for seed in range(40, 72)])
        for model in trained_pair.values():
            assert (predict_covariance(model, r, geom).tobytes()
                    == per_row_predict_covariance(model, r, geom).tobytes())

    def test_single_matrix_rejected(self, trained_pair):
        with pytest.raises(ValueError, match=r"stack of covariances \(B, M, M\)"):
            predict_covariance(trained_pair[HYBRID], self._full_covariance(), self.FAILED)


class TestFlatParameters:
    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_views_are_layer_major_in_flat(self, variant):
        model = build_model(variant, GEOM5, seed=0)
        params = model.parameters()
        assert model.flat.dtype == np.float32 and model.flat.flags.c_contiguous
        assert model.flat.size == sum(p.size for p in params)
        assert all(np.shares_memory(p, model.flat) for p in params)
        model.flat[:] = np.arange(model.flat.size)
        start = 0
        for p in params:  # W_0, b_0, W_1, b_1, ...
            npt.assert_array_equal(p.reshape(-1), np.arange(start, start + p.size))
            start += p.size

    def test_flat_must_be_one_contiguous_float64_vector(self):
        # or float32: the vector's dtype is the model's
        for dtype in (np.float32, np.float64):
            model = MlpModel(variant=HYBRID, layer_dims=[3, 4, 2], flat=np.zeros(26, dtype),
                             dropout_rates=[0.0, 0.0])
            assert all(p.dtype == dtype for p in model.parameters())
        # too short, float16, int, complex, strided, 2-D
        for flat in (np.zeros(25), np.zeros(26, np.float16), np.zeros(26, np.int64),
                     np.zeros(26, np.complex128), np.zeros(52)[::2], np.zeros((2, 13))):
            with pytest.raises(ValueError, match="layer_dims"):
                MlpModel(variant=HYBRID, layer_dims=[3, 4, 2], flat=flat,
                         dropout_rates=[0.0, 0.0])

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_build_draws_each_layer_as_before(self, variant):
        # the draws go straight into the views, in the order separate arrays were drawn
        model = build_model(variant, GEOM5, seed=4)
        rng = stream_rng(4, "init", variant)
        dims = model.layer_dims
        expected = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            expected += [rng.uniform(-bound, bound, size=(fan_in, fan_out)), np.zeros(fan_out)]
        # each float64 draw rounded once to float32
        assert model.flat.dtype == np.float32
        npt.assert_array_equal(model.flat,
                               np.concatenate([p.ravel() for p in expected]).astype(np.float32))
        assert model.flat.flags.owndata  # built in place, not packed from a copy

    def test_loaded_model_keeps_the_read_vector(self, tmp_path):
        model = build_model(DATA_DRIVEN, GEOM5, seed=0)
        save_model(model, tmp_path / "model.bin")
        loaded = load_model(tmp_path / "model.bin")
        assert not loaded.flat.flags.owndata and loaded.flat.flags.writeable
        npt.assert_array_equal(loaded.flat, model.flat)

    def test_copy_owns_its_flat(self):
        model = build_model(HYBRID, GEOM5, seed=0)
        for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert not np.shares_memory(twin.flat, model.flat)
            assert all(np.shares_memory(p, twin.flat) for p in twin.parameters())
            twin.weights[1][2, 3] = 7.0
            assert model.weights[1][2, 3] != 7.0 and 7.0 in twin.flat

    def test_write_through_a_view_reaches_the_file(self, tmp_path):
        model = build_model(DATA_DRIVEN, GEOM5, seed=0)
        model.biases[2][5] = np.nan
        assert np.isnan(model.flat).sum() == 1
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path)

    def test_file_is_header_then_each_parameter(self, tmp_path, trained_pair):
        model = trained_pair[HYBRID]
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        header, body = data.split(b"\n", 1)
        assert json.loads(header)["layer_dims"] == model.layer_dims
        assert json.loads(header)["dtype"] == "float32"
        assert body == b"".join(p.astype("<f4").tobytes() for p in model.parameters())
        again = tmp_path / "again.bin"
        save_model(load_model(path), again)
        assert again.read_bytes() == data

    def test_training_holds_no_full_size_gradient(self):
        # Adam's two moments are flat-sized; the gradient exists one layer's block at a
        # time. The slack covers each layer's Adam scratch (two blocks per state), the row
        # buffers and the normalized split of 20 rows. A full gradient would add another
        # flat.nbytes.
        model = build_model(HYBRID, GEOM5, seed=0)
        rng = np.random.default_rng(0)
        dataset = TrainingDataset(inputs=rng.uniform(0, 1, (20, model.d_in)),
                                  targets=rng.uniform(0, 1, (20, model.d_out)), meta={})
        largest_block = max(w.nbytes + b.nbytes for w, b in zip(model.weights, model.biases))
        slack = model.n_layers * 2 * ADAM_CHUNK * model.flat.itemsize + (1 << 19)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            train(model, dataset, epochs=2, batch_size=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * model.flat.nbytes + largest_block + slack

    def test_backward_returns_views_of_one_new_vector(self):
        model = tiny_model([4, 4, 4, 8, 8, 8], [0.2, 0.2, 0.2, 0.2, 0.0],
                           np.random.default_rng(12))
        x = np.random.default_rng(1).standard_normal((5, 4))
        out, cache = mlp_forward(model, x, train=True, rng=np.random.default_rng(0))
        grads = mlp_backward(model, cache, out, np.zeros_like(out))
        whole = grads[0].base
        assert whole.shape == model.flat.shape and not np.shares_memory(whole, model.flat)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        assert all(g.base is whole for g in grads)


class TestDtype:
    """``model.flat``'s dtype, float32 or float64, is that of every training array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_the_vector_sets_every_dtype(self, variant, dtype):
        model = build_model(variant, GEOM5, seed=1)
        model.flat = model.flat.astype(dtype)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (6, model.d_in))  # float64 rows, cast once by the forward
        assert mlp_forward(model, x).dtype == dtype
        out, cache = mlp_forward(model, x, train=True, rng=rng)
        assert out.dtype == dtype
        arrays = cache["inputs"] + cache["draws"] + cache["delta"] + [cache["grad"]]
        assert all(a.dtype == dtype for a in arrays)
        grads = mlp_backward(model, cache, out, rng.uniform(0, 1, out.shape))
        assert all(g.dtype == dtype for g in grads)
        state = adam_init(model.parameters(), lr=1e-3)
        adam_step(state, model.parameters(), grads)
        assert all(a.dtype == dtype for a in state.m + state.v + [state.scratch, model.flat])
        dataset = TrainingDataset(inputs=rng.uniform(0, 1, (20, model.d_in)),
                                  targets=rng.uniform(0, 1, (20, model.d_out)), meta={})
        flat = model.flat
        history = train(model, dataset, epochs=2, batch_size=8, seed=0)
        assert model.flat is flat and model.flat.dtype == dtype
        assert all(np.isfinite([h.train_mse, h.val_mse]).all() for h in history)

    def test_loss_rejects_a_target_of_another_shape(self):
        # a (D,) target used to broadcast over the batch
        with pytest.raises(ValueError, match=r"target shape \(3,\) != output shape \(2, 3\)"):
            mse_loss(np.zeros((2, 3)), np.zeros(3))

    def test_residual_goes_to_out(self):
        output, target, out = np.array([[1.0, 4.0]]), np.array([[3.0, 1.0]]), np.empty((1, 2))
        assert mse_loss(output, target, out=out) == 6.5
        npt.assert_array_equal(out, [[-2.0, 3.0]])


class TestModelFile:
    def test_round_trip_exact(self, tmp_path, trained_pair):
        model = trained_pair[DATA_DRIVEN]
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == model.variant
        assert loaded.layer_dims == model.layer_dims
        assert loaded.dropout_rates == model.dropout_rates
        for a, b in zip(loaded.weights, model.weights):
            npt.assert_array_equal(a, b)
        npt.assert_array_equal(loaded.input_stats.minimum, model.input_stats.minimum)
        npt.assert_array_equal(loaded.target_stats.maximum, model.target_stats.maximum)
        assert loaded.meta["dataset_fingerprint"] == model.meta["dataset_fingerprint"]

    def test_loaded_model_predicts_identically(self, tmp_path, trained_pair):
        model = trained_pair[HYBRID]
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        x = np.random.default_rng(3).uniform(0, 1, (2, model.d_in))
        npt.assert_array_equal(mlp_forward(loaded, x), mlp_forward(model, x))

    def test_float32_file_round_trips_bytes(self, tmp_path, trained_pair):
        model = trained_pair[DATA_DRIVEN]
        path, again = tmp_path / "model.bin", tmp_path / "again.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.flat.dtype == np.float32
        assert loaded.flat.tobytes() == model.flat.tobytes()
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_file_without_dtype_is_float64(self, tmp_path, trained_pair):
        # the layout every file had before the header named its dtype: a JSON header line
        # without the key, then the parameters as <f8
        model = trained_pair[HYBRID]
        flat64 = model.flat.astype(np.float64)
        header = {"format": "sparsedoa-model-v1", "variant": model.variant,
                  "layer_dims": model.layer_dims, "dropout_rates": model.dropout_rates,
                  "input_stats": model.input_stats.to_jsonable(),
                  "target_stats": model.target_stats.to_jsonable(), "meta": model.meta}
        path, again = tmp_path / "old.bin", tmp_path / "again.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + flat64.astype("<f8").tobytes())
        loaded = load_model(path)
        assert loaded.flat.dtype == np.float64 and loaded.flat.tobytes() == flat64.tobytes()
        r = TestPredictCovariance()._full_covariance()[None]
        failed = GEOM5.with_failures({1, 3})
        want = predict_covariance(dataclasses.replace(model, flat=flat64), r, failed)
        assert predict_covariance(loaded, r, failed).tobytes() == want.tobytes()
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("stated, written", [("float32", "<f8"), (None, "<f4")])
    def test_body_must_fit_the_stated_dtype(self, tmp_path, trained_pair, stated, written):
        model = trained_pair[HYBRID]
        path = tmp_path / "model.bin"
        save_model(model, path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        header.pop("dtype")
        if stated:
            header["dtype"] = stated
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + model.flat.astype(written).tobytes())
        with pytest.raises(ValueError, match="model.bin: header implies .* data bytes, found"):
            load_model(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b'{"format": "nope"}\n')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.bin"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(ValueError, match="list.bin"):
            load_model(path)
        with pytest.raises(ValueError, match="list.bin"):
            load_dataset(path)

    @pytest.mark.parametrize("cut", [-8, 8])
    def test_rejects_short_or_trailing_data(self, tmp_path, trained_pair, cut):
        path = tmp_path / "model.bin"
        save_model(trained_pair[HYBRID], path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        with pytest.raises(ValueError, match="model.bin"):
            load_model(path)

    @pytest.mark.parametrize("key,keep", [
        ("input_stats", slice(1)), ("target_stats", slice(-1)),
    ], ids=["input_stats", "target_stats"])
    def test_rejects_stats_of_the_wrong_length(self, tmp_path, trained_pair, key, keep):
        # a short stats array would broadcast into a wrong repair instead of failing
        path = tmp_path / "model.bin"
        save_model(trained_pair[HYBRID], path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header[key] = {name: values[keep] for name, values in header[key].items()}
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=key):
            load_model(path)

    @pytest.mark.parametrize("rates", [
        [0.2], [0.2, 0.4, 0.0, 0.0, 0.9, 0.9], [0.2, 0.4, 1.5, 0.0], [0.2, 0.4, 0.0, 0.1],
    ], ids=["too_few", "too_many", "rate_above_one", "output_rate_nonzero"])
    def test_rejects_dropout_rates_that_do_not_fit(self, tmp_path, trained_pair, rates):
        # each would break a train-mode forward: too few rates index past the list,
        # and a rate of 1.5 scales kept units by 1/(1-1.5) = -2
        path = tmp_path / "model.bin"
        save_model(trained_pair[HYBRID], path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        assert len(header["dropout_rates"]) == 4
        header["dropout_rates"] = rates
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="layer_dims"):
            load_model(path)

    def test_older_file_with_constant_flags_loads(self, tmp_path, trained_pair):
        model = trained_pair[HYBRID]
        path = tmp_path / "model.bin"
        save_model(model, path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        assert "constant" not in header["input_stats"] and "constant" not in header["target_stats"]
        for key in ("input_stats", "target_stats"):
            stats = getattr(model, key)
            header[key]["constant"] = (stats.maximum <= stats.minimum).astype(int).tolist()
        assert any(header["input_stats"]["constant"])  # some flags are set, as in real files
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        scene = scene_from_snr((15.0, 30.0), 5.0)
        draws = item_draws(np.random.default_rng(7), GEOM5, scene, 64)
        y = simulate_snapshots(GEOM5, [scene], draws)[0]
        r, failed = sample_covariance(y)[None], GEOM5.with_failures({1, 3})
        assert (predict_covariance(load_model(path), r, failed).tobytes()
                == predict_covariance(model, r, failed).tobytes())

    @pytest.mark.parametrize("where", ["weight", "bias", "input_stats", "target_stats"])
    def test_rejects_non_finite_values(self, tmp_path, trained_pair, where):
        model = copy.deepcopy(trained_pair[HYBRID])
        if where == "weight":
            model.weights[0][0, 0] = np.nan
        elif where == "bias":
            model.biases[1][3] = np.inf
        else:
            getattr(model, where).maximum[0] = np.inf
        path = tmp_path / "model.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path)
