"""Generator/discriminator training loop and batch sampler."""

import ast
import hashlib
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe import classifier, training
from mirrorcfe.checkpoint import load_checkpoint
from mirrorcfe.classifier import checkpoint_checksum, featurize
from mirrorcfe.training import (DECODE_CHUNK, ClassifierMutatedError, TrainConfig, _draw_k,
                                generate_image, generate_images, init_discriminator, init_generator,
                                load_generator, sample_kfe_batch,
                                generator_forward, save_discriminator, save_generator, train_generator)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(w_cls=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(k_rule="gaussian")
    for lr in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^lr must be finite and positive"):
            TrainConfig(lr=lr)
    for prob in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"^recon_prob must lie in \[0, 1\]"):
            TrainConfig(recon_prob=prob)
    for lower, upper in ((0.9, 0.1), (-0.1, 0.8), (0.2, 1.5), (float("nan"), 0.8)):
        # reversed bounds used to fail only in an SSC run's first decode, after featurizing the train split
        with pytest.raises(ValueError, match=r"^need 0 <= rho_lower <= rho_upper <= 1"):
            TrainConfig(rho_lower=lower, rho_upper=upper)


@pytest.mark.parametrize("init, digest", [
    (lambda cfg: classifier.init_params(cfg, 0), "0dfa4d58ff58707852e6480de303145af1c6b8b36c734f822b617c9312b7f3de"),
    (lambda cfg: init_generator(cfg, 0, ssc=False), "b2cb44d3a7a2b1505e2bb0727f8c6fd3f5b6ffb46cf70e85027cf0ca636cecb9"),
    (lambda cfg: init_generator(cfg, 0, ssc=True), "d7091fb64b4e0495d2dd6cdf26854b3bb85b91f453bbf392f14a05f76b72ccea"),
    (lambda cfg: init_discriminator(cfg, 0), "0e87b55d5edce270fd48d489111dfc9a9929241e880f3e0066c34f9fa0cd6da9"),
], ids=["classifier", "plain-generator", "ssc-generator", "discriminator"])
def test_seed_0_initial_draws_are_pinned(init, digest):
    # the layout tables decide the RNG draw order; reordering them changes every trained artifact
    h = hashlib.sha256()
    for name, arr in init(classifier.ClassifierConfig()).tensors.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_uniform_k_rule_mean():
    rng = np.random.default_rng(0)
    draws = [_draw_k("uniform", rng) for _ in range(100_000)]
    assert 0.48 <= np.mean(draws) <= 0.52


def test_endpoints_grid_k_rule():
    rng = np.random.default_rng(1)
    grid = set(np.round(np.linspace(0.0, 1.0, 11), 12))
    draws = {round(_draw_k("endpoints-grid", rng), 12) for _ in range(2000)}
    assert draws <= grid
    assert {0.0, 1.0} <= draws


class TestBatchSampler:
    def _stacks(self, clf, ds):
        return [featurize(clf, img) for img in ds.images]

    def test_composition_and_determinism(self, tiny_sets, tiny_classifier):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        stacks = self._stacks(clf, train_ds)
        cfg = TrainConfig(seed=0)
        a = sample_kfe_batch(train_ds, clf, stacks, 32, np.random.default_rng(5), cfg)
        b = sample_kfe_batch(train_ds, clf, stacks, 32, np.random.default_rng(5), cfg)
        assert len(a) == 32
        for ea, eb in zip(a, b):
            assert ea.source == eb.source and ea.target == eb.target
            assert (ea.k is None and eb.k is None) or ea.k == eb.k
            assert np.array_equal(ea.f_input, eb.f_input)
        for e in a:
            if e.k is None:  # a reconstruction element
                assert e.target == e.source
                assert np.array_equal(e.z_k, e.z_s)
            else:
                assert e.target != e.source
                assert 0.0 <= e.k <= 1.0
                assert np.allclose(e.f_input.mean(axis=(1, 2)), e.z_k, atol=1e-9)

    def test_k0_reference_is_source(self, tiny_sets, tiny_classifier):
        # endpoints-grid draws k=0 exactly; those elements must use the source
        # image as the triangulation reference to avoid the degenerate ratio
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        stacks = self._stacks(clf, train_ds)
        cfg = TrainConfig(k_rule="endpoints-grid", recon_prob=0.0, seed=0)
        rng = np.random.default_rng(0)
        elements = sample_kfe_batch(train_ds, clf, stacks, 256, rng, cfg)
        zero_k = [e for e in elements if e.k == 0.0]
        assert zero_k, "expected some k=0 draws from the grid rule"
        for e in zero_k:
            assert np.array_equal(e.x_ref, e.x_s)

    def test_single_class_rejected(self, tiny_sets, tiny_classifier):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        from mirrorcfe.dataset import LabeledDataset

        mono = LabeledDataset(images=train_ds.images[:4], labels=[0, 0, 0, 0])
        with pytest.raises(ValueError):
            sample_kfe_batch(mono, clf, self._stacks(clf, mono), 4,
                             np.random.default_rng(0), TrainConfig())


class TestTraining:
    def test_smoke_and_frozen_classifier(self, tiny_sets, tiny_classifier, tiny_generator, tmp_path):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        gen, dis, history = tiny_generator
        assert checkpoint_checksum(clf)  # classifier survived training (checked inside too)
        assert len(history) == 2 * (len(train_ds) // 4)
        for row in history:
            for key in ("epoch", "step", "cls", "adv_g", "adv_d", "rec", "fea", "tri", "total"):
                assert key in row
                assert np.isfinite(row[key])
        gpath, dpath = tmp_path / "g.ckpt", tmp_path / "d.ckpt"
        save_generator(gpath, gen)
        save_discriminator(dpath, dis)
        gback = load_generator(gpath, clf.config)
        role, dback, _ = load_checkpoint(dpath)
        assert role == "discriminator" and dback.keys() == dis.tensors.keys()
        for name in gen.tensors:
            assert np.array_equal(gback.tensors[name], gen.tensors[name])
        for name in dis.tensors:
            assert np.array_equal(dback[name], dis.tensors[name])
        assert gback.ssc == gen.ssc

    def test_deterministic(self, tiny_sets, tiny_classifier):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        cfg = TrainConfig(epochs=1, batch_size=4, seed=9)
        g1, d1, h1 = train_generator(clf, train_ds, cfg)
        g2, d2, h2 = train_generator(clf, train_ds, cfg)
        assert h1 == h2
        for name in g1.tensors:
            assert np.array_equal(g1.tensors[name], g2.tensors[name])
        for name in d1.tensors:
            assert np.array_equal(d1.tensors[name], d2.tensors[name])

    def test_ssc_path(self, tiny_sets, tiny_classifier):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        cfg = TrainConfig(epochs=1, batch_size=4, ssc=True, seed=0)
        gen, _, history = train_generator(clf, train_ds, cfg)
        assert gen.ssc
        assert any(name.startswith("spe0_") for name in gen.tensors)
        assert np.isfinite(history[-1]["total"])
        stack = featurize(clf, train_ds.images[0])
        x = generate_image(gen, clf, stack.f_last, stack, 0, 1, 0.5)
        assert x.shape == train_ds.images[0].shape
        with pytest.raises(TypeError):
            generate_image(gen, clf, stack.f_last)  # missing the SSC context


class _Stop(Exception):
    pass


_SSC_SKIP = training.ssc_skip


def _recording_skip(calls, stop=False):
    """Wrap training.ssc_skip: record each call's arguments and output."""

    def skip(gp, config, clf, f_s_first, f_input, sources, targets, ks):
        out = _SSC_SKIP(gp, config, clf, f_s_first, f_input, sources, targets, ks)
        calls.append((f_s_first, ad.value(f_input), list(sources), list(targets), list(ks), ad.value(out)))
        if stop:
            raise _Stop
        return out

    return skip


class TestSscSkip:
    def test_training_batch_matches_served_elements(self, tiny_sets, tiny_classifier, monkeypatch):
        # the skip of the first training batch, element by element, is the skip
        # generate_image computes for that element with the same weights
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        cfg = TrainConfig(epochs=1, batch_size=8, ssc=True, recon_prob=0.5, seed=3)
        trained = []
        monkeypatch.setattr(training, "ssc_skip", _recording_skip(trained, stop=True))
        with pytest.raises(_Stop):
            train_generator(clf, train_ds, cfg)
        f_s_first, f_input, sources, targets, ks, batched = trained[0]
        kinds = {"recon" if s == t else "kfe" for s, t in zip(sources, targets)}
        assert kinds == {"kfe", "recon"} and len(set(ks)) >= 3

        gen = init_generator(clf.config, cfg.seed, ssc=True)  # the weights of step 0
        gen.config.update(rho_lower=cfg.rho_lower, rho_upper=cfg.rho_upper)
        served = []
        monkeypatch.setattr(training, "ssc_skip", _recording_skip(served))
        for i in range(len(ks)):
            generate_image(gen, clf, f_input[i], SimpleNamespace(features=[f_s_first[i]]),
                           sources[i], targets[i], ks[i])
        assert len(served) == len(ks)
        for i, call in enumerate(served):
            assert np.array_equal(call[-1], batched[i : i + 1])

    def test_trained_bounds_are_served(self, tiny_sets, tiny_classifier, tmp_path, monkeypatch):
        train_ds, _ = tiny_sets
        clf, _ = tiny_classifier
        cfg = TrainConfig(epochs=1, batch_size=4, ssc=True, rho_lower=0.5, rho_upper=0.7, seed=0)
        gen, _, _ = train_generator(clf, train_ds, cfg)
        save_generator(tmp_path / "g.ckpt", gen)
        back = load_generator(tmp_path / "g.ckpt", clf.config)
        assert (back.config["rho_lower"], back.config["rho_upper"]) == (0.5, 0.7)
        seen = []
        real_rho = training.camlib.rho
        monkeypatch.setattr(training.camlib, "rho", lambda k, lo, hi: seen.append((lo, hi)) or real_rho(k, lo, hi))
        stack = featurize(clf, train_ds.images[0])
        generate_image(back, clf, stack.f_last, stack, 0, 1, 0.0)
        assert seen == [(0.5, 0.7)]

    def test_checkpoint_without_bounds_rejected(self, tmp_path):
        from mirrorcfe.classifier import ClassifierConfig

        gen = init_generator(ClassifierConfig(), seed=0, ssc=True)
        gen.config["rho_upper"] = 0.8
        save_generator(tmp_path / "g.ckpt", gen)
        with pytest.raises(ValueError, match="rho_lower"):
            load_generator(tmp_path / "g.ckpt", ClassifierConfig())

    @pytest.mark.parametrize("lower, upper, word", [
        ("x", 0.8, "('x', 0.8) are not numbers"),  # explain used to fail in the decode with a TypeError
        (True, 0.8, "(True, 0.8) are not numbers"),  # used to pass as the number 1
        (None, 0.8, "(None, 0.8) are not numbers"),
        (0.9, 0.1, "need 0 <= rho_lower <= rho_upper <= 1, got 0.9, 0.1"),  # used to fail in cam.rho
        (0.2, 1.5, "need 0 <= rho_lower <= rho_upper <= 1, got 0.2, 1.5"),
        (float("nan"), 0.8, "need 0 <= rho_lower <= rho_upper <= 1, got nan, 0.8"),
    ], ids=["str", "bool", "null", "reversed", "above-one", "nan"])
    def test_checkpoint_with_malformed_bounds_rejected(self, tmp_path, lower, upper, word):
        from mirrorcfe.classifier import ClassifierConfig

        gen = init_generator(ClassifierConfig(), seed=0, ssc=True)
        gen.config.update(rho_lower=lower, rho_upper=upper)
        save_generator(tmp_path / "g.ckpt", gen)
        with pytest.raises(ValueError, match=re.escape(word)) as info:
            load_generator(tmp_path / "g.ckpt", ClassifierConfig())
        assert str(tmp_path / "g.ckpt") in str(info.value) and "\n" not in str(info.value)

    @pytest.mark.parametrize("ssc", [True, False])
    def test_manifest_ssc_must_match_tensors(self, tmp_path, ssc):
        # the weights decide the architecture; a manifest that disagrees is rejected on load
        from mirrorcfe.checkpoint import save_checkpoint
        from mirrorcfe.classifier import ClassifierConfig

        gen = init_generator(ClassifierConfig(), seed=0, ssc=ssc)
        assert gen.ssc == ssc
        save_checkpoint(tmp_path / "g.ckpt", "generator", gen.tensors,
                        {**gen.config, "ssc": not ssc, "rho_lower": 0.2, "rho_upper": 0.8})
        with pytest.raises(ValueError, match=f"ssc={not ssc}"):
            load_generator(tmp_path / "g.ckpt", ClassifierConfig())


def test_classifier_mutation_raises(tiny_sets, tiny_classifier, monkeypatch):
    # a raised exception, not an assert, so the check survives python -O
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    checksums = iter(["before", "after"])
    monkeypatch.setattr(training, "checkpoint_checksum", lambda params: next(checksums))
    with pytest.raises(ClassifierMutatedError):
        train_generator(clf, train_ds, TrainConfig(epochs=1, batch_size=4, seed=0))


def test_package_holds_no_assert_statement():
    # python -O strips every assert, so no invariant of the package may rest on one
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(training.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.Assert)]
    assert found == []


def test_generate_image_range(tiny_sets, tiny_classifier, tiny_generator):
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    gen, _, _ = tiny_generator
    stack = featurize(clf, train_ds.images[0])
    x = generate_image(gen, clf, stack.f_last, stack, 0, 1, 0.0)
    assert x.shape == (1, 16, 16)
    assert np.all(x > 0.0) and np.all(x < 1.0)  # sigmoid output


def test_init_shapes():
    from mirrorcfe.classifier import ClassifierConfig

    cfg = ClassifierConfig()
    gen = init_generator(cfg, seed=0, ssc=False)
    assert gen.tensors["g_conv1_w"].shape == (32, 16, 3, 3)
    assert gen.tensors["g_out_w"].shape == (1, 32, 3, 3)
    dis = init_discriminator(cfg, seed=0)
    assert dis.tensors["d_head_w"].shape == (16, 1)


def _decode_requests(train_ds, clf, n, seed):
    """n random rows of generate_images arguments: f_inputs, stacks, sources, targets, ks."""
    rng = np.random.default_rng(seed)
    stacks = [featurize(clf, train_ds.images[i]) for i in rng.integers(len(train_ds), size=n)]
    sources = [int(rng.integers(4)) for _ in range(n)]
    targets = [(s + int(rng.integers(1, 4))) % 4 for s in sources]
    ks = [float(k) for k in rng.uniform(size=n)]
    f_inputs = [st.f_last + rng.normal(0.0, 0.1, st.f_last.shape) for st in stacks]
    return f_inputs, stacks, sources, targets, ks


@pytest.mark.parametrize("ssc", [False, True])
def test_generate_images_is_bit_equal_to_generate_image(tiny_sets, tiny_classifier, ssc):
    # two full chunks and one partial, each row with its own context
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    gen = init_generator(clf.config, seed=0, ssc=ssc)
    gen.config.update(rho_lower=0.2, rho_upper=0.8)
    n = 2 * DECODE_CHUNK + 1
    f_inputs, stacks, sources, targets, ks = _decode_requests(train_ds, clf, n, seed=4)
    batch = generate_images(gen, clf, f_inputs, stacks, sources, targets, ks)
    assert len(batch) == n
    for i, x in enumerate(batch):
        one = generate_image(gen, clf, f_inputs[i], stacks[i], sources[i], targets[i], ks[i])
        assert x.tobytes() == one.tobytes()


@pytest.mark.parametrize("ssc", [False, True])
def test_generate_images_is_bit_equal_to_the_tape(tiny_sets, tiny_classifier, ssc, count_tensors):
    # the tape-free decode builds no Tensor and matches generator_forward on Tensor weights, chunk by chunk
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    gen = init_generator(clf.config, seed=1, ssc=ssc)
    gen.config.update(rho_lower=0.2, rho_upper=0.8)
    n = 2 * DECODE_CHUNK + 1
    f_inputs, stacks, sources, targets, ks = _decode_requests(train_ds, clf, n, seed=5)
    gp = {k: ad.constant(v) for k, v in gen.tensors.items()}
    tape = []
    for start in range(0, n, DECODE_CHUNK):
        rows = slice(start, start + DECODE_CHUNK)
        x = generator_forward(gp, gen.config, clf, np.stack([st.features[0] for st in stacks[rows]]),
                              ad.constant(np.stack(f_inputs[rows])), sources[rows], targets[rows], ks[rows])
        tape.extend(x.data)
    built = count_tensors()
    free = generate_images(gen, clf, f_inputs, stacks, sources, targets, ks)
    assert built == []
    assert [x.tobytes() for x in free] == [x.tobytes() for x in tape]


@pytest.mark.parametrize("ssc", [False, True])
def test_tape_free_decode_non_finite_names_its_op(tiny_sets, tiny_classifier, ssc):
    train_ds, _ = tiny_sets
    clf, _ = tiny_classifier
    gen = init_generator(clf.config, seed=0, ssc=ssc)
    gen.config.update(rho_lower=0.2, rho_upper=0.8)
    gen.tensors["g_conv2_w"] = np.full_like(gen.tensors["g_conv2_w"], 1e308)
    stack = featurize(clf, train_ds.images[0])
    with np.errstate(over="ignore"), pytest.raises(ad.NumericOverflowError, match="^conv2d produced non-finite"):
        generate_image(gen, clf, stack.f_last, stack, 0, 1, 0.5)
