import copy

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
    DATA_DRIVEN,
    HYBRID,
    MlpModel,
    ScenePolicy,
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
    analytic_covariance,
    inject_failures,
    sample_covariance,
    scene_from_snr,
    simulate_snapshots,
    stream_rng,
)

GEOM5 = mra_lookup(5)
ULA4 = ArrayGeometry((0, 1, 2, 3))
DESK_POLICY = ScenePolicy(n_sources=3, n_snapshots=64)


def tiny_model(dims, dropout, rng, variant=HYBRID):
    weights = [rng.standard_normal((a, b)) * 0.4 for a, b in zip(dims, dims[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in dims[1:]]
    return MlpModel(variant=variant, layer_dims=list(dims), weights=weights,
                    biases=biases, dropout_rates=list(dropout))


class TestMinMax:
    def test_fit_and_apply(self):
        stats = minmax_fit(np.array([[0.0], [2.0], [4.0]]))
        assert stats.minimum[0] == 0 and stats.maximum[0] == 4
        npt.assert_allclose(minmax_apply(np.array([[2.0]]), stats), [[0.5]])

    def test_constant_column_passthrough(self):
        data = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        stats = minmax_fit(data)
        assert stats.constant[0] and not stats.constant[1]
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
                         weights=[np.array([[0.7]])], biases=[np.array([0.2])],
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

    def test_rejects_failed_geometry(self):
        with pytest.raises(ValueError):
            generate_dataset(HYBRID, GEOM5.with_failures({1}), DESK_POLICY, 2, seed=0)

    def test_file_round_trip(self, tmp_path):
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        npt.assert_allclose(loaded.inputs, ds.inputs, atol=1e-6)
        assert loaded.meta["variant"] == DATA_DRIVEN
        assert loaded.n_samples == 3

    def test_fingerprint_tells_reloaded_rows_apart(self, tmp_path):
        # the file holds float32 rows, so a reloaded dataset is not the one
        # held in memory, and a model trained on it is not the same model
        ds = generate_dataset(DATA_DRIVEN, GEOM5, DESK_POLICY, 3, seed=4)
        save_dataset(ds, tmp_path / "ds.bin")
        loaded = load_dataset(tmp_path / "ds.bin")
        assert not np.array_equal(loaded.inputs, ds.inputs)
        assert loaded.fingerprint() != ds.fingerprint()
        assert load_dataset(tmp_path / "ds.bin").fingerprint() == loaded.fingerprint()

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
        r = sample_covariance(simulate_snapshots(GEOM5, scene, DESK_POLICY.n_snapshots, rng))
        npt.assert_array_equal(ds.inputs[0],
                               flatten_features(repair_input(variant, r, failed)))


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

    def test_zero_epochs_rejected(self):
        # used to return an empty history and leave a fitted but untrained model
        model = tiny_model([8, 8], [0.0], np.random.default_rng(1))
        with pytest.raises(ValueError, match="epochs=0"):
            train(model, toy_identity_dataset(), epochs=0)
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
        return sample_covariance(simulate_snapshots(GEOM5, scene, 64, np.random.default_rng(seed)))

    def test_output_hermitian_and_sized(self, trained_pair):
        r = self._full_covariance()
        for variant in (HYBRID, DATA_DRIVEN):
            out = predict_covariance(trained_pair[variant], r, self.FAILED)
            assert out.shape == (10, 10) and out.dtype == np.complex128
            npt.assert_array_equal(out, out.conj().T)

    def test_each_variant_builds_its_own_input(self, ula_pair):
        # the feature width alone cannot tell the two damaged inputs apart here
        assert feature_widths(ULA4) == (32, 32)
        r = sample_covariance(simulate_snapshots(
            ULA4, scene_from_snr((-20.0, 35.0), 5.0), 32, np.random.default_rng(4)))
        failed, inputs = ULA4.with_failures({2}), {}
        for variant, model in ula_pair.items():
            inputs[variant] = flatten_features(repair_input(variant, r, failed))
            x = minmax_apply(inputs[variant][None, :], model.input_stats)
            out = unflatten_features(minmax_invert(mlp_forward(model, x)[0], model.target_stats))
            npt.assert_array_equal(predict_covariance(model, r, failed), out)
            # the failures travel in the geometry: the intact array is repaired differently
            assert not np.allclose(predict_covariance(model, r, ULA4), out)
        assert not np.allclose(inputs[HYBRID], inputs[DATA_DRIVEN])

    def test_other_geometry_rejected_by_width(self, trained_pair):
        geom4 = mra_lookup(4)
        r = analytic_covariance(geom4, scene_from_snr((15.0, 30.0), 5.0))
        for model in trained_pair.values():
            with pytest.raises(ValueError, match="does not match model input"):
                predict_covariance(model, r, geom4.with_failures({1}))

    def test_zero_failure_roles_accepted(self, trained_pair):
        r = self._full_covariance(seed=32)
        for model in trained_pair.values():
            assert predict_covariance(model, r, GEOM5).shape == (10, 10)

    @pytest.mark.parametrize("variant", [HYBRID, DATA_DRIVEN])
    def test_non_finite_output_raises(self, trained_pair, variant):
        model = copy.deepcopy(trained_pair[variant])
        model.weights[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="not finite"):
            predict_covariance(model, self._full_covariance(), self.FAILED)

    def test_untrained_model_rejected(self):
        model = build_model(HYBRID, GEOM5, seed=0)
        r = analytic_covariance(GEOM5, scene_from_snr((10.0,), 0.0))
        with pytest.raises(ValueError, match="normalization"):
            predict_covariance(model, r, GEOM5)


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
