"""Acceptance gate: one test per criterion, each ending in a pass/fail line.

Criteria 6-8 share a desk-scale training run (module-scoped fixture): the
default synthetic dataset, the frozen classifier, and a generator trained for
30 epochs with the shipped acceptance configuration.
"""

import time

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe import cam as camlib
from mirrorcfe import geometry as geo
from mirrorcfe import losses
from mirrorcfe.classifier import TrainHyper, accuracy, save_classifier, train_classifier
from mirrorcfe.dataset import DatasetConfig, generate_dataset, split
from mirrorcfe.evaluation import evaluate_suite
from mirrorcfe.losses import TriConfig
from mirrorcfe.training import TrainConfig, save_discriminator, save_generator, train_generator

# configuration used for the end-to-end acceptance run (criteria 6-8)
ACCEPT_TRAIN = dict(epochs=30, batch_size=2, lr=2e-4, k_rule="endpoints-grid",
                    w_cls=4.0, seed=0)
ACCEPT_PAIRS = [(0, 1), (1, 0)]  # both directions of one class pair -> 200 samples


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_geometry_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_proj = worst_flip = worst_inv = 0.0
    for _ in range(1000):
        n = 64
        z = rng.normal(size=n)
        W = rng.normal(size=(n, 4))
        b = rng.normal(size=4)
        m = geo.make_mirror(W, b, 0, 1)
        q0 = geo.pair_confidence(z, m)
        worst_proj = max(worst_proj, abs(geo.pair_confidence(geo.position(z, m, 0.5), m) - 0.5))
        z_r = geo.position(z, m, 1.0)
        worst_flip = max(worst_flip, abs(geo.pair_confidence(z_r, m) - (1.0 - q0)))
        worst_inv = max(worst_inv, float(np.max(np.abs(geo.position(z_r, m, 1.0) - z))))
        assert np.array_equal(geo.position(z, m, 0.0), z)
    elapsed = time.perf_counter() - t0
    ok = worst_proj < 1e-9 and worst_flip < 1e-9 and worst_inv < 1e-9 and elapsed < 5.0
    _line("criterion 1 (geometry invariants)", ok,
          f"proj {worst_proj:.2e}, flip {worst_flip:.2e}, involution {worst_inv:.2e}, {elapsed:.2f}s")


def test_criterion_2_multiclass_reflection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    residuals, iters = [], []
    for _ in range(100):
        W = rng.normal(size=(16, 5))
        b = rng.normal(size=5)
        z_s = rng.normal(size=16)
        m = geo.make_mirror(W, b, 0, 2)
        target = geo.reflection_target_logits(W, b, z_s, 0, 2)
        z_r, res = geo.multiclass_reflection(z_s, m, W, b)
        residuals.append(float(np.linalg.norm(W.T @ z_r + b - target)))
        iters.append(res.iterations)
    frac_ok = float(np.mean(np.asarray(residuals) <= 1e-6))
    median_iters = float(np.median(iters))
    # binary case: equal-norm columns put the swapped-logit target on the
    # reflection line, so the L-BFGS result must match the closed form
    Wb = rng.normal(size=(16, 2))
    Wb /= np.linalg.norm(Wb, axis=0, keepdims=True)
    bb = rng.normal(size=2)
    zb = rng.normal(size=16)
    mb = geo.make_mirror(Wb, bb, 0, 1)
    z_rb, _ = geo.multiclass_reflection(zb, mb, Wb, bb)
    binary_err = float(np.max(np.abs(z_rb - geo.position(zb, mb, 1.0))))
    elapsed = time.perf_counter() - t0
    ok = frac_ok >= 0.99 and median_iters <= 200 and binary_err < 1e-6 and elapsed < 30.0
    _line("criterion 2 (multiclass reflection)", ok,
          f"{frac_ok:.0%} residual<=1e-6, median iters {median_iters:.0f}, "
          f"binary err {binary_err:.2e}, {elapsed:.2f}s")


def test_criterion_3_autodiff():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0

    def check(loss_fn, leaf):
        nonlocal worst
        worst = max(worst, ad.gradient_check(loss_fn, leaf, rng=rng))

    a = ad.Tensor(rng.normal(size=(3, 4)), trainable=True)
    c = ad.constant(rng.normal(size=(3, 4)))
    check(lambda: ad.mean(ad.mul(ad.add(a, c), ad.sub(a, c))), a)
    check(lambda: ad.mean(ad.scale(a, 2.5)), a)
    r = ad.Tensor(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5, trainable=True)
    check(lambda: ad.mean(ad.relu(r)), r)
    check(lambda: ad.mean(ad.sigmoid(a)), a)
    pos = ad.Tensor(rng.uniform(0.5, 2.0, (5,)), trainable=True)
    check(lambda: ad.mean(ad.log(pos)), pos)
    m1 = ad.Tensor(rng.normal(size=(3, 4)), trainable=True)
    m2 = ad.constant(rng.normal(size=(4, 2)))
    check(lambda: ad.sum_all(ad.matmul(m1, m2)), m1)
    w = ad.Tensor(rng.normal(size=(4, 3)), trainable=True)
    lin_x = ad.constant(rng.normal(size=(2, 4)))
    check(lambda: ad.mean(ad.linear(lin_x, w, ad.constant(np.zeros(3)))), w)
    x4 = ad.Tensor(rng.normal(size=(2, 3, 4, 4)), trainable=True)
    kw = ad.Tensor(rng.normal(size=(2, 3, 3, 3)), trainable=True)
    check(lambda: ad.mean(ad.conv2d(x4, kw, ad.constant(np.zeros(2)))), x4)
    check(lambda: ad.mean(ad.conv2d(x4, kw, ad.constant(np.zeros(2)))), kw)
    check(lambda: ad.mean(ad.avgpool2(x4)), x4)
    check(lambda: ad.mean(ad.upsample2(x4)), x4)
    check(lambda: ad.sum_all(ad.gap(x4)), x4)
    check(lambda: ad.mean(ad.concat_channels(x4, x4)), x4)
    check(lambda: ad.mean(ad.slice_rows(x4, 0, 1)), x4)
    sm = ad.Tensor(rng.normal(size=(2, 5)), trainable=True)
    p_t = rng.dirichlet(np.ones(5), size=2)
    check(lambda: ad.kld(ad.constant(p_t), ad.softmax(sm)), sm)
    check(lambda: ad.l1_distance(a, ad.constant(c.data + 4.0)), a)
    v = ad.Tensor(rng.normal(size=7), trainable=True)
    check(lambda: ad.l2_norm(v), v)
    check(lambda: ad.sumsq(v), v)

    conv_err = 0.0
    for _ in range(50):
        bsz, ci, co = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, wd = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = rng.normal(size=(bsz, ci, h, wd))
        kern = rng.normal(size=(co, ci, 3, 3))
        bias = rng.normal(size=(co,))
        got = ad.conv2d(ad.constant(x), ad.constant(kern), ad.constant(bias)).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((bsz, co, h, wd))
        for n in range(bsz):
            for o in range(co):
                for i in range(h):
                    for j in range(wd):
                        want[n, o, i, j] = bias[o] + np.sum(xp[n, :, i : i + 3, j : j + 3] * kern[o])
        conv_err = max(conv_err, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and conv_err <= 1e-12 and elapsed < 30.0
    _line("criterion 3 (autodiff)", ok,
          f"max grad err {worst:.2e}, conv oracle err {conv_err:.2e}, {elapsed:.2f}s")


def test_criterion_4_triangulation_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    mono_ok = True
    for _ in range(1000):
        x_s = rng.uniform(0, 1, 8)
        x_k = rng.uniform(0, 1, 8)
        x_ref = rng.uniform(0, 1, 8)
        z_s, z_k, z_ref = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        alpha = float(rng.uniform(0, 1))
        got = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.8, TriConfig(alpha=alpha)).data
        r = max(np.linalg.norm(z_k - z_ref) / max(np.linalg.norm(z_s - z_k), 1e-6), 1e-6)
        d_ref = np.mean(np.abs(x_k - x_ref))
        d_sk = np.mean(np.abs(x_s - x_k))
        want = max((1 - alpha) / r * d_ref - d_sk, 0.0) + max(d_sk - (1 + alpha) / r * d_ref, 0.0)
        worst = max(worst, abs(got - want))
        wider = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.8,
                                TriConfig(alpha=min(1.0, alpha + 0.1))).data
        mono_ok = mono_ok and wider <= got + 1e-12
    # exact hinge values on the hand band [0.4, 0.6]
    def band_case(d_sk):
        return losses.loss_tri(np.full(4, d_sk), np.zeros(4), np.ones(4),
                               np.array([0.0]), np.array([1.0]), np.array([3.0]), 0.8).data

    exact_ok = (band_case(0.5) == 0.0
                and abs(band_case(0.3) - 0.1) <= 1e-12
                and abs(band_case(0.8) - 0.2) <= 1e-12)
    ok = worst <= 1e-12 and mono_ok and exact_ok
    _line("criterion 4 (triangulation oracle)", ok,
          f"max oracle err {worst:.2e}, monotone {mono_ok}, hinge exact {exact_ok}")


def test_criterion_5_cam_masks():
    out = camlib.cam(np.array([[1.0, 0.0]]), np.array([[[1.0, -1.0], [3.0, 0.0]]]))
    hand_ok = np.allclose(out.normalized[0], [[1 / 3, 0.0], [1.0, 0.0]], atol=1e-12)
    rng = np.random.default_rng(4)
    mono_ok = True
    for _ in range(100):
        cs = rng.uniform(0, 1, (4, 4))
        ct = rng.uniform(0, 1, (4, 4))
        prev = -1
        for k in np.linspace(0.0, 1.0, 11):
            thr = camlib.rho(float(k), 0.2, 0.8)
            count = int(camlib.prior_mask(cs, ct, thr, float(k), {}).mask.sum())
            mono_ok = mono_ok and count >= prev
            prev = count
    f = ad.constant(rng.normal(size=(1, 2, 3, 3)))
    u = ad.constant(rng.normal(size=(1, 2, 3, 3)))
    mix_ok = (np.array_equal(camlib.csp_mix(f, u, np.zeros((3, 3))).data, f.data)
              and np.array_equal(camlib.csp_mix(f, u, np.ones((3, 3))).data, u.data))
    ok = hand_ok and mono_ok and mix_ok
    _line("criterion 5 (CAM/mask suite)", ok,
          f"hand {hand_ok}, monotone {mono_ok}, csp {mix_ok}")


@pytest.fixture(scope="module")
def desk():
    """Desk-scale artifacts shared by criteria 6-8."""
    full = generate_dataset(DatasetConfig())
    train, test = split(full, 0.6, seed=0)
    t0 = time.perf_counter()
    clf, clf_hist = train_classifier(train, test, TrainHyper())
    clf_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    gen, dis, gen_hist = train_generator(clf, train, TrainConfig(**ACCEPT_TRAIN))
    gen_time = time.perf_counter() - t0
    report = evaluate_suite(clf, gen, test, ACCEPT_PAIRS, max_per_pair=200)
    return {"train": train, "test": test, "clf": clf, "clf_time": clf_time,
            "gen": gen, "dis": dis, "gen_hist": gen_hist, "gen_time": gen_time,
            "report": report}


@pytest.mark.slow
def test_criterion_6_end_to_end(desk):
    acc = accuracy(desk["clf"], desk["test"])
    agg = desk["report"].aggregates
    checks = {
        "classifier acc >= 0.95": acc >= 0.95,
        "classifier <= 5 cpu-min": desk["clf_time"] <= 300.0,
        "generator <= 20 cpu-min": desk["gen_time"] <= 1200.0,
        "200 samples": agg["n"] == 200,
        "first-CFE rate >= 0.95": agg["first_cfe_rate"] >= 0.95,
        "validity >= 0.90": agg["validity"] >= 0.90,
        "denoised validity >= validity - 0.15": agg["d_validity"] >= agg["validity"] - 0.15,
        "conf_l1 <= 0.10": agg["conf_l1"] <= 0.10,
        "mean L_fea finite": np.isfinite(agg["fea_dist"]),
    }
    # [DERIVED] regression anchors, measured on this pipeline at seed 0:
    # acc 1.000, validity 0.995, d_validity 0.970, conf_l1 0.056,
    # mean_first_cfe_k 0.604, l1 0.128
    anchors = {
        "validity anchor": abs(agg["validity"] - 0.995) <= 0.05,
        "conf_l1 anchor": abs(agg["conf_l1"] - 0.056) <= 0.05,
        "first-cfe-k anchor": abs(agg["mean_first_cfe_k"] - 0.604) <= 0.05,
    }
    checks.update(anchors)
    failed = [name for name, ok in checks.items() if not ok]
    detail = (f"acc {acc:.4f}, validity {agg['validity']:.3f}, d_validity {agg['d_validity']:.3f}, "
              f"conf_l1 {agg['conf_l1']:.3f}, first_cfe_rate {agg['first_cfe_rate']:.3f}, "
              f"fea {agg['fea_dist']:.3f}, clf {desk['clf_time']:.0f}s, gen {desk['gen_time']:.0f}s")
    _line("criterion 6 (end-to-end desk run)", not failed,
          detail + (f"; failed: {failed}" if failed else ""))


@pytest.mark.slow
def test_criterion_7_tri_ablation(desk):
    results = {}
    for name, overrides in [("w_tri=0", {"w_tri": 0.0}),
                            ("alpha=0", {"alpha": 0.0}),
                            ("alpha=0.6", {"alpha": 0.6})]:
        cfg = TrainConfig(**{**ACCEPT_TRAIN, **overrides})
        gen, _, _ = train_generator(desk["clf"], desk["train"], cfg)
        rep = evaluate_suite(desk["clf"], gen, desk["test"], ACCEPT_PAIRS, max_per_pair=200)
        results[name] = rep.aggregates["validity"]
    ok = all(v >= 0.85 for v in results.values())
    _line("criterion 7 (L_tri ablation)", ok,
          ", ".join(f"{k}: validity {v:.3f}" for k, v in results.items()))


@pytest.mark.slow
def test_criterion_8_determinism(desk, tmp_path):
    # a full repeat of the criterion-6 run must reproduce every artifact byte
    clf2, _ = train_classifier(desk["train"], desk["test"], TrainHyper())
    gen2, dis2, hist2 = train_generator(clf2, desk["train"], TrainConfig(**ACCEPT_TRAIN))
    report2 = evaluate_suite(clf2, gen2, desk["test"], ACCEPT_PAIRS, max_per_pair=200)

    def artifact_bytes(tag, clf, gen, dis, hist, report):
        d = tmp_path / tag
        d.mkdir()
        save_classifier(d / "clf.ckpt", clf)
        save_generator(d / "gen.ckpt", gen)
        save_discriminator(d / "dis.ckpt", dis)
        with open(d / "loss.csv", "w") as f:
            for row in hist:
                f.write(",".join(repr(row[k]) for k in
                                 ("epoch", "step", "cls", "adv_g", "adv_d", "rec", "fea", "tri", "total")) + "\n")
        report.write_csv(d / "report.csv")
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    a = artifact_bytes("run1", desk["clf"], desk["gen"], desk["dis"], desk["gen_hist"], desk["report"])
    b = artifact_bytes("run2", clf2, gen2, dis2, hist2, report2)
    mismatched = [name for name in a if a[name] != b[name]]
    _line("criterion 8 (determinism)", not mismatched,
          "byte-identical checkpoints and CSVs" if not mismatched else f"mismatch: {mismatched}")
