"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale repair
experiment (criteria 5, 6, 8) trains one hybrid model and three
data-driven models at P=20k samples; expect a few minutes on one core.
"""

import dataclasses
import time

import numpy as np
import numpy.testing as npt
import pytest

from sparsedoa import coarray, geometry, neural, signals, spectral
from sparsedoa.harness import (
    METHOD_DATA_DRIVEN,
    METHOD_FAILED,
    METHOD_HYBRID,
    METHOD_NONE,
    preset,
    results_csv,
    run_sweep,
    train_variant,
    training_policy,
)
from sparsedoa.neural import DATA_DRIVEN, HYBRID, build_model, generate_dataset

import oracles


def report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# ---------------------------------------------------------------------------
# shared desk-scale experiment (criteria 5, 6, 8)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_config():
    return preset("desk")


@pytest.fixture(scope="session")
def desk_datasets(desk_config):
    geom = desk_config.geometry()
    policy = training_policy(desk_config)
    tic = time.perf_counter()
    data = {
        variant: generate_dataset(variant, geom, policy,
                                  desk_config.n_train_samples,
                                  seed=desk_config.master_seed)
        for variant in (HYBRID, DATA_DRIVEN)
    }
    print(f"\n[setup] desk datasets generated in {time.perf_counter() - tic:.0f} s")
    return data


@pytest.fixture(scope="session")
def desk_training(desk_config, desk_datasets):
    """One hybrid model plus three data-driven training seeds."""
    out = {"wall": 0.0, "histories": {}, "dd_seeds": []}
    tic = time.perf_counter()
    model_h, hist_h = train_variant(desk_config, HYBRID,
                                    dataset=desk_datasets[HYBRID])
    out["hybrid"] = model_h
    out["histories"][HYBRID] = hist_h
    for offset in range(3):
        seed = desk_config.master_seed + offset
        model_d, hist_d = train_variant(dataclasses.replace(desk_config, master_seed=seed),
                                        DATA_DRIVEN, dataset=desk_datasets[DATA_DRIVEN])
        out["dd_seeds"].append((seed, model_d))
        if offset == 0:
            out["data-driven"] = model_d
            out["histories"][DATA_DRIVEN] = hist_d
    out["wall"] = time.perf_counter() - tic
    print(f"[setup] trained 1 hybrid + 3 data-driven models in {out['wall']:.0f} s")
    return out


@pytest.fixture(scope="session")
def desk_models(desk_training):
    return {
        METHOD_HYBRID: desk_training["hybrid"],
        METHOD_DATA_DRIVEN: desk_training["data-driven"],
    }


@pytest.fixture(scope="session")
def desk_sweep(desk_config, desk_models):
    tic = time.perf_counter()
    result = run_sweep(desk_config, models=desk_models, workers=1)
    wall = time.perf_counter() - tic
    print(f"[setup] desk sweep (Q={desk_config.q_trials}) in {wall:.0f} s")
    return {"result": result, "wall": wall}


def sweep_mse(result, method, snr):
    return next(r["mse_deg2"] for r in result.rows
                if r["method"] == method and r["snr_db"] == snr)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_coarray_exactness():
    tic = time.perf_counter()
    geom4 = geometry.ArrayGeometry((0, 1, 4, 6))
    co4 = geometry.difference_coarray(geom4)
    intact_ok = co4.lags == tuple(range(-6, 7)) and co4.m_v == 7 \
        and geometry.is_hole_free(co4, 6)
    co4f = geometry.difference_coarray(geom4.with_failures({1}))
    failure_ok = not geometry.is_hole_free(co4f, 6) and 1 not in co4f.weights
    geom10 = geometry.mra_lookup(10)
    co10 = geometry.difference_coarray(geom10)
    virtual71_ok = co10.m_v == 36 and co10.virtual_size == 71 \
        and geometry.is_hole_free(co10, geom10.aperture)
    wall = time.perf_counter() - tic
    ok = intact_ok and failure_ok and virtual71_ok and wall < 1.0
    assert report(1, ok,
                  f"coarray exactness: MRA4 m_v=7 hole-free, sensor-1 failure "
                  f"opens holes, MRA10 m_v={co10.m_v} ({co10.virtual_size} virtual "
                  f"elements) [{wall:.2f} s]")


def test_criterion_2_oracle_equivalence():
    tic = time.perf_counter()
    aperture_ok = all(
        oracles.mra_search(m, geometry.mra_lookup(m).aperture + 2).aperture
        == geometry.mra_lookup(m).aperture
        for m in range(2, 6)
    )
    mismatches = 0
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        positions = tuple(int(p) for p in np.sort(rng.choice(36, size=m, replace=False)))
        geom = geometry.ArrayGeometry(positions)
        full = {a - b for a in geom.positions for b in geom.positions}
        oracle = {
            i + 1 for i in range(m)
            if {a - b
                for a in geom.positions[:i] + geom.positions[i + 1:]
                for b in geom.positions[:i] + geom.positions[i + 1:]} != full
        }
        if geometry.essential_sensors(geom) != frozenset(oracle):
            mismatches += 1
    wall = time.perf_counter() - tic
    ok = aperture_ok and mismatches == 0 and wall < 30.0
    assert report(2, ok,
                  f"oracle equivalence: lookup==search aperture for M<=5, "
                  f"essential-sensor mismatches {mismatches}/200 [{wall:.1f} s]")


def test_criterion_3_resolution_beyond_m():
    """K=9 sources on the 5-sensor MRA (m_v=10), gaps >= 5 deg, SNR 20 dB,
    N=5000, grid 0.05 deg; requires every angle within 0.1 deg in >= 95% of
    100 trials. Angles are placed uniformly in sin-space over +-60.5 deg,
    which minimizes the worst-source CRB subject to the gap constraint."""
    tic = time.perf_counter()
    geom = geometry.mra_lookup(5)
    angles = np.rad2deg(np.arcsin(np.linspace(-0.87, 0.87, 9)))
    assert np.min(np.diff(angles)) >= 5.0
    scene = signals.scene_from_snr(tuple(angles), 20.0)
    bound = spectral.crb(geom, scene, 5000)
    successes = 0
    worst = 0.0
    for trial in range(100):
        rng = signals.stream_rng(20230, "resolution", trial)
        y = signals.simulate_snapshots(geom, [scene], oracles.item_draws(rng, geom, scene, 5000))[0]
        r_ss = coarray.spatial_smoothing(
            coarray.redundancy_average(signals.sample_covariance(y), geom))
        peaks = spectral.pick_peaks(spectral.music_spectrum(r_ss[None], 9, grid_step=0.05)[0], 9)
        err = np.max(np.abs(np.sort(peaks.angles_deg) - angles))
        worst = max(worst, err)
        successes += err <= 0.1
    wall = time.perf_counter() - tic
    ok = successes >= 95 and wall < 120.0
    report(3, ok,
           f"SS-MUSIC resolution beyond M: {successes}/100 trials with all 9 "
           f"angles within 0.1 deg (worst {worst:.3f} deg) [{wall:.0f} s]; "
           f"CRB at this scene allows per-angle sigma down to "
           f"{np.sqrt(np.diag(bound).max()):.3f} deg, so the 0.1-deg/95% "
           f"target sits below the estimation bound")
    assert ok


def test_criterion_4_numerical_core():
    tic = time.perf_counter()
    rng = np.random.default_rng(44)
    worst_resid = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 41))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        r = (z + z.conj().T) / 2
        w, v = spectral.hermitian_eig(r)
        resid = np.linalg.norm(v @ np.diag(w) @ v.conj().T - r) / np.linalg.norm(r)
        worst_resid = max(worst_resid, resid)
    eig_ok = worst_resid < 1e-8

    worst_grad = 0.0
    for dims, dropout, variant in (
        ([6, 6, 6, 6, 6], [0.2, 0.4, 0.0, 0.0], HYBRID),
        ([4, 4, 4, 8, 8, 8], [0.2, 0.2, 0.2, 0.2, 0.0], DATA_DRIVEN),
    ):
        model = neural.MlpModel(
            variant=variant,
            layer_dims=list(dims),
            flat=oracles.pack_parameters(
                [rng.standard_normal((a, b)) * 0.4 for a, b in zip(dims, dims[1:])],
                [rng.standard_normal(b) * 0.1 for b in dims[1:]]),
            dropout_rates=list(dropout),
        )
        x = rng.standard_normal((5, dims[0]))
        t = rng.standard_normal((5, dims[-1]))
        out, cache = neural.mlp_forward(model, x, train=True,
                                        rng=np.random.default_rng(4))
        grads = neural.mlp_backward(model, cache, out, t)

        def loss():
            z = x
            for li, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = z @ w + b
                if li == model.n_layers - 1:
                    break
                z = np.maximum(z, 0.0)
                keep = cache["drop_mask"][li]
                if keep is not None:
                    z = z * keep / (1.0 - model.dropout_rates[li])
            return neural.mse_loss(z, t)

        h = 1e-6
        for p, g in zip(model.parameters(), grads):
            fp, fg = p.reshape(-1), g.reshape(-1)
            for j in rng.choice(fp.size, size=min(30, fp.size), replace=False):
                orig = fp[j]
                fp[j] = orig + h
                lp = loss()
                fp[j] = orig - h
                lm = loss()
                fp[j] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-10:
                    worst_grad = max(worst_grad, abs(fg[j] - fd) / abs(fd))
    grad_ok = worst_grad < 1e-5
    wall = time.perf_counter() - tic
    ok = eig_ok and grad_ok and wall < 120.0
    assert report(4, ok,
                  f"numerical core: eig residual {worst_resid:.2e} over 1000 "
                  f"matrices, gradient rel err {worst_grad:.2e} on both "
                  f"architectures [{wall:.0f} s]")


def test_criterion_5_desk_scale_repair(desk_config, desk_training, desk_sweep):
    result = desk_sweep["result"]
    orderings = []
    for snr in desk_config.test_snrs_db:
        m_none = sweep_mse(result, METHOD_NONE, snr)
        m_fail = sweep_mse(result, METHOD_FAILED, snr)
        m_hyb = sweep_mse(result, METHOD_HYBRID, snr)
        m_dd = sweep_mse(result, METHOD_DATA_DRIVEN, snr)
        orderings.append(m_dd < m_fail and m_hyb < m_fail)
        print(f"  snr {snr:+.0f} dB: none {m_none:9.3f}  failed {m_fail:9.3f}  "
              f"hybrid {m_hyb:9.3f}  data-driven {m_dd:9.3f}  (deg^2)")
    ordering_ok = all(orderings)

    m_none_10 = sweep_mse(result, METHOD_NONE, 10.0)
    m_dd_10 = sweep_mse(result, METHOD_DATA_DRIVEN, 10.0)
    high_snr_ok = m_dd_10 <= 10.0 * m_none_10

    budgets_ok = desk_training["wall"] < 1800.0 and desk_sweep["wall"] < 600.0
    ok = ordering_ok and high_snr_ok and budgets_ok
    assert report(5, ok,
                  f"desk-scale repair: repaired methods beat the failed baseline at "
                  f"all {len(desk_config.test_snrs_db)} SNRs ({ordering_ok}), "
                  f"data-driven {m_dd_10:.2f} <= 10 x none {m_none_10:.2f} at 10 dB "
                  f"({high_snr_ok}); training {desk_training['wall']:.0f} s, "
                  f"evaluation {desk_sweep['wall']:.0f} s")


def test_criterion_5b_training_loss_drop(desk_config, desk_datasets, desk_training):
    """Final validation loss of each desk model sits >=10x below the
    untrained network evaluated with the same normalization."""
    geom = desk_config.geometry()
    details = []
    ok = True
    for variant in (HYBRID, DATA_DRIVEN):
        trained = desk_training["hybrid" if variant == HYBRID else "data-driven"]
        ds = desk_datasets[variant]
        n_train = int(round(0.8 * ds.n_samples))
        x_val = neural.minmax_apply(ds.inputs[n_train:], trained.input_stats)
        y_val = neural.minmax_apply(ds.targets[n_train:], trained.target_stats)
        fresh = build_model(variant, geom, seed=desk_config.master_seed)
        initial = neural.mse_loss(neural.mlp_forward(fresh, x_val), y_val)
        final = neural.mse_loss(neural.mlp_forward(trained, x_val), y_val)
        details.append(f"{variant}: {initial:.4f} -> {final:.5f}")
        ok = ok and final <= initial / 10.0
    assert report("5b", ok, "validation loss drop >=10x (" + "; ".join(details) + ")")


def test_criterion_5c_zero_failure_prediction_floor(desk_config, desk_datasets,
                                                    desk_training):
    """Tracked metric, not a fixed threshold: with no sensors failed the
    data-driven prediction must stay on the smoothed-covariance side of
    vacuity (closer to the truth than predicting zero), and its relative
    error is reported next to the in-distribution validation floor."""
    geom = desk_config.geometry()
    model = desk_training["data-driven"]
    rels = []
    for trial in range(8):
        rng = signals.stream_rng(desk_config.master_seed, "passthrough", trial)
        angles = signals.draw_angles(desk_config.k, desk_config.angle_min,
                                     desk_config.angle_max, desk_config.min_gap, rng)
        scene = signals.scene_from_snr(tuple(angles), 5.0)
        y = signals.simulate_snapshots(geom, [scene],
                                       oracles.item_draws(rng, geom, scene,
                                                          desk_config.n_snapshots))[0]
        r = signals.sample_covariance(y)
        r_ss = coarray.spatial_smoothing(coarray.redundancy_average(r, geom))
        pred = neural.predict_covariance(model, r[None], geom)[0]
        assert pred.shape == r_ss.shape
        npt.assert_array_equal(pred, pred.conj().T)
        rels.append(np.linalg.norm(pred - r_ss) / np.linalg.norm(r_ss))

    # in-distribution floor: same metric on validation rows (1-2 failures)
    ds = desk_datasets[DATA_DRIVEN]
    n_train = int(round(0.8 * ds.n_samples))
    floors = []
    for row in range(n_train, n_train + 64):
        # the row is already the damaged physical matrix: no further failures
        r_in = coarray.unflatten_features(ds.inputs[row])
        truth = coarray.unflatten_features(ds.targets[row])
        pred = neural.predict_covariance(model, r_in[None], geom)[0]
        floors.append(np.linalg.norm(pred - truth) / np.linalg.norm(truth))

    ok = all(np.isfinite(rels)) and max(rels) < 1.0
    assert report("5c", ok,
                  f"zero-failure pass-through tracks the smoothed covariance: "
                  f"relative error mean {np.mean(rels):.3f}, worst {max(rels):.3f} "
                  f"over 8 unseen scenes; in-distribution validation floor "
                  f"{np.mean(floors):.3f} (tracked, no-failure inputs are outside "
                  f"the training policy)")


def test_criterion_6_low_snr_denoising(desk_config, desk_training, desk_sweep):
    m_none = sweep_mse(desk_sweep["result"], METHOD_NONE, -10.0)
    dd_mses = []
    for seed, model in desk_training["dd_seeds"]:
        cfg = dataclasses.replace(desk_config, test_snrs_db=(-10.0,),
                                  methods=(METHOD_DATA_DRIVEN,))
        rows = run_sweep(cfg, models={METHOD_DATA_DRIVEN: model}).rows
        dd_mses.append((seed, rows[0]["mse_deg2"]))
    median_dd = float(np.median([m for _, m in dd_mses]))
    ok = median_dd <= m_none
    seeds_txt = ", ".join(f"seed {s}: {m:.1f}" for s, m in dd_mses)
    assert report(6, ok,
                  f"low-SNR denoising at -10 dB: median data-driven MSE "
                  f"{median_dd:.1f} <= no-failure MRA {m_none:.1f} deg^2 "
                  f"({seeds_txt})")


def test_criterion_7_crb_validity():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    psd_ok = True
    for _ in range(100):
        m = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(m, 4)))
        angles = np.sort(rng.uniform(-65, 65, k))
        while k > 1 and np.min(np.diff(angles)) < 4.0:
            angles = np.sort(rng.uniform(-65, 65, k))
        scene = signals.SourceScene(tuple(angles), tuple(rng.uniform(0.5, 2.0, k)),
                                    float(rng.uniform(0.05, 5.0)))
        c = spectral.crb(geometry.mra_lookup(m), scene, 100)
        sym = np.allclose(c, c.T, atol=1e-12)
        psd = np.linalg.eigvalsh(c).min() >= -1e-10 * np.trace(c)
        psd_ok = psd_ok and sym and psd

    geom = geometry.mra_lookup(5)
    scene = signals.scene_from_snr((20.0, 42.0), 0.0)
    c_n = spectral.crb(geom, scene, 150)
    c_2n = spectral.crb(geom, scene, 300)
    scaling_ok = np.allclose(2.0 * np.diag(c_2n), np.diag(c_n), rtol=1e-10)

    scene1 = signals.scene_from_snr((20.0,), 0.0)
    got = spectral.crb(geom, scene1, 200)[0, 0]
    eta0 = np.array([np.deg2rad(20.0), 1.0, 1.0])

    def cov(eta):
        sc = signals.SourceScene((np.rad2deg(eta[0]),), (eta[1],), eta[2])
        return oracles.analytic_covariance(geom, sc)

    r_inv = np.linalg.inv(cov(eta0))
    h = 1e-6
    derivs = []
    for a in range(3):
        ep, em = eta0.copy(), eta0.copy()
        ep[a] += h
        em[a] -= h
        derivs.append((cov(ep) - cov(em)) / (2 * h))
    fim = 200 * np.array(
        [[np.real(np.trace(r_inv @ da @ r_inv @ db)) for db in derivs]
         for da in derivs])
    oracle = np.linalg.inv(fim)[0, 0] * (180 / np.pi) ** 2
    oracle_ok = abs(got - oracle) / oracle < 0.01
    wall = time.perf_counter() - tic
    ok = psd_ok and scaling_ok and oracle_ok and wall < 60.0
    assert report(7, ok,
                  f"CRB validity: symmetric PSD on 100 scenes ({psd_ok}), exact 1/N "
                  f"scaling ({scaling_ok}), K=1 within "
                  f"{abs(got - oracle) / oracle * 100:.4f}% of the "
                  f"finite-difference Fisher oracle [{wall:.0f} s]")


def test_criterion_8_sweep_determinism(desk_config, desk_models, desk_sweep):
    first = results_csv(desk_sweep["result"].rows)
    rerun = run_sweep(desk_config, models=desk_models, workers=2)
    second = results_csv(rerun.rows)
    ok = first == second
    assert report(8, ok,
                  f"determinism: results CSV reproduced bit-identically with a "
                  f"different worker count ({len(first)} bytes)")
