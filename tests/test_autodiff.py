"""Gradient checks and oracle comparisons for the autodiff engine."""

import numpy as np
import pytest

import mirrorcfe.autodiff as ad


def _leaf(shape, rng, scale=1.0):
    return ad.Tensor(rng.normal(0.0, scale, shape), trainable=True)


# conv2d thresholds that force each forward form on every shape: the patch matrix, then shifted GEMMs
FORMS = (10**9, 0)


def _check(loss_fn, leaf, rng, tol=1e-6):
    err = ad.gradient_check(loss_fn, leaf, rng=rng)
    assert err < tol, f"gradient error {err:.3e} >= {tol:.1e}"


class TestPrimitiveGradients:
    def test_add_mul_scale(self):
        rng = np.random.default_rng(0)
        a = _leaf((4, 5), rng)
        b = ad.constant(rng.normal(size=(4, 5)))
        _check(lambda: ad.mean(ad.scale(ad.mul(ad.add(a, b), b), 1.7)), a, rng)

    def test_sub(self):
        rng = np.random.default_rng(1)
        a = _leaf((3, 3), rng)
        b = ad.constant(rng.normal(size=(3, 3)))
        _check(lambda: ad.sum_all(ad.mul(ad.sub(a, b), ad.sub(a, b))), a, rng)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(2)
        # keep every pre-activation well away from 0 so central differences are clean
        data = rng.normal(size=(4, 4))
        data[np.abs(data) < 0.1] = 0.5
        a = ad.Tensor(data, trainable=True)
        _check(lambda: ad.mean(ad.relu(a)), a, rng)

    def test_sigmoid(self):
        rng = np.random.default_rng(3)
        a = _leaf((6,), rng)
        _check(lambda: ad.mean(ad.sigmoid(a)), a, rng)

    def test_log(self):
        rng = np.random.default_rng(4)
        a = ad.Tensor(rng.uniform(0.5, 2.0, (5,)), trainable=True)
        _check(lambda: ad.mean(ad.log(a)), a, rng)

    def test_matmul(self):
        rng = np.random.default_rng(5)
        a = _leaf((3, 4), rng)
        b = ad.constant(rng.normal(size=(4, 2)))
        _check(lambda: ad.sum_all(ad.matmul(a, b)), a, rng)

    def test_linear_weight_and_input(self):
        rng = np.random.default_rng(6)
        x = _leaf((2, 5), rng)
        w = _leaf((5, 3), rng)
        b = ad.constant(rng.normal(size=(3,)))
        _check(lambda: ad.mean(ad.linear(x, w, b)), x, rng)
        _check(lambda: ad.mean(ad.linear(x, w, b)), w, rng)

    def test_conv2d(self, monkeypatch):
        # both forward forms (patch matrix, shifted GEMMs), 3x3 and 1x1 kernels
        rng = np.random.default_rng(7)
        for threshold in FORMS:
            monkeypatch.setattr(ad, "SHIFTED_GEMM_MIN_CHANNELS", threshold)
            for kernel in (3, 1):
                x = _leaf((2, 3, 5, 5), rng)
                w = _leaf((4, 3, kernel, kernel), rng)
                b = _leaf((4,), rng)
                _check(lambda: ad.mean(ad.conv2d(x, w, b)), x, rng)
                _check(lambda: ad.mean(ad.conv2d(x, w, b)), w, rng)
                _check(lambda: ad.mean(ad.conv2d(x, w, b)), b, rng)

    def test_avgpool_upsample_gap(self):
        rng = np.random.default_rng(8)
        x = _leaf((2, 3, 4, 4), rng)
        _check(lambda: ad.mean(ad.avgpool2(x)), x, rng)
        _check(lambda: ad.mean(ad.upsample2(x)), x, rng)
        _check(lambda: ad.sum_all(ad.gap(x)), x, rng)

    def test_concat_and_slice(self):
        rng = np.random.default_rng(9)
        a = _leaf((2, 3, 4, 4), rng)
        b = _leaf((2, 2, 4, 4), rng)
        _check(lambda: ad.mean(ad.concat_channels(a, b)), a, rng)
        _check(lambda: ad.mean(ad.concat_channels(a, b)), b, rng)
        _check(lambda: ad.mean(ad.slice_rows(a, 1, 2)), a, rng)

    def test_softmax(self):
        rng = np.random.default_rng(10)
        a = _leaf((2, 4), rng)
        w = ad.constant(rng.normal(size=(2, 4)))
        _check(lambda: ad.sum_all(ad.mul(ad.softmax(a), w)), a, rng)

    def test_l1_distance(self):
        rng = np.random.default_rng(11)
        a = _leaf((3, 4), rng)
        b = ad.constant(rng.normal(size=(3, 4)) + 5.0)  # no sign-change kinks
        _check(lambda: ad.l1_distance(a, b), a, rng)

    def test_l2_norm_and_sumsq(self):
        rng = np.random.default_rng(12)
        a = _leaf((6,), rng)
        _check(lambda: ad.l2_norm(a), a, rng)
        _check(lambda: ad.sumsq(a), a, rng)

    def test_kld_vs_finite_differences(self):
        # gradient of KLD(p, softmax(l)) w.r.t. a random 5-logit vector
        rng = np.random.default_rng(13)
        logits = _leaf((1, 5), rng)
        p = rng.dirichlet(np.ones(5))[None]
        _check(lambda: ad.kld(ad.constant(p), ad.softmax(logits)), logits, rng)


def test_conv2d_matches_loop_oracle(monkeypatch):
    # naive quadruple-loop convolution with zero 'same' padding, 50 random cases in each forward form
    rng = np.random.default_rng(0)
    for _ in range(50):
        b, ci, co = int(rng.integers(1, 3)), int(rng.choice([1, 2, 3, 8, 10])), int(rng.integers(1, 4))
        h, w, kh, kw = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.choice([1, 3])), int(rng.choice([1, 3]))
        x = rng.normal(size=(b, ci, h, w))
        kern = rng.normal(size=(co, ci, kh, kw))
        bias = rng.normal(size=(co,))
        xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        want = np.zeros((b, co, h, w))
        for n in range(b):
            for o in range(co):
                for i in range(h):
                    for j in range(w):
                        want[n, o, i, j] = bias[o] + np.sum(
                            xp[n, :, i : i + kh, j : j + kw] * kern[o])
        for threshold in FORMS:
            monkeypatch.setattr(ad, "SHIFTED_GEMM_MIN_CHANNELS", threshold)
            got = ad.conv2d(ad.constant(x), ad.constant(kern), ad.constant(bias)).data
            assert np.max(np.abs(got - want)) <= 1e-12


def test_gap_hand_case():
    x = ad.constant(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert ad.gap(x).data.shape == (1, 1)
    assert float(ad.gap(x).data[0, 0]) == pytest.approx(2.5)


def test_avgpool2_sums_as_numpy_mean_does_on_channel_last_input():
    # every pipeline pool reads a conv or relu output, which is channel-last in memory; there the strided adds
    # give numpy's mean over the 2x2 windows bit for bit, so the artifacts did not move
    rng = np.random.default_rng(3)
    for b, c, h, w in [(64, 8, 16, 16), (64, 16, 8, 8), (3, 16, 16, 16), (1, 40, 8, 8)]:
        x = np.maximum(rng.normal(size=(b, h, w, c)), 0.0).transpose(0, 3, 1, 2)
        want = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        for got in (ad.avgpool2(ad.constant(x)).data, ad.arrays.avgpool2(x)):
            assert got.tobytes() == want.tobytes()


def test_softmax_rows_normalized_and_shift_invariant():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(8, 4))
    p = ad.softmax(ad.constant(logits)).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    p_shift = ad.softmax(ad.constant(logits + 123.0)).data
    assert np.allclose(p, p_shift, atol=1e-12)


def test_full_classifier_loss_gradient():
    # grad of the composed conv/pool/gap/linear/softmax/KLD pipeline on one sample
    from mirrorcfe.classifier import ClassifierConfig, forward_graph, init_params

    rng = np.random.default_rng(2)
    cfg = ClassifierConfig(image_size=8, stage_channels=(4, 6), num_classes=3)
    params = init_params(cfg, seed=0)
    x = ad.Tensor(rng.uniform(0, 1, (1, 1, 8, 8)), trainable=True)
    gp = {k: ad.constant(v) for k, v in params.tensors.items()}
    onehot = np.zeros((1, 3))
    onehot[0, 1] = 1.0

    def loss_fn():
        nodes = forward_graph(gp, cfg, x)
        return ad.kld(ad.constant(onehot), nodes["probs"])

    assert ad.gradient_check(loss_fn, x, rng=rng) < 1e-3


def _input_grad_loop_oracle(gy, taps, shape):
    # per-pixel scatter of each output pixel's taps[i, j] @ gy onto the unpadded input
    kh, kw, _, k = taps.shape
    b, c, h, w = shape
    gy = gy.reshape(b, h, w, k)
    out = np.zeros(shape)
    for n in range(b):
        for y in range(h):
            for x in range(w):
                for i in range(kh):
                    for j in range(kw):
                        yy, xx = y + i - kh // 2, x + j - kw // 2
                        if 0 <= yy < h and 0 <= xx < w:
                            out[n, :, yy, xx] += taps[i, j] @ gy[n, y, x]
    return out


def _conv_cases(rng):
    fixed = [(1, 1, 3, 5, 3, 3), (2, 3, 4, 2, 1, 1), (1, 2, 5, 3, 1, 3), (2, 1, 2, 6, 3, 1)]
    drawn = [(int(rng.integers(1, 3)), int(rng.choice([1, 2, 3, 8, 10])), int(rng.integers(1, 7)),
              int(rng.integers(1, 7)), int(rng.choice([1, 3, 5])), int(rng.choice([1, 3, 5]))) for _ in range(30)]
    return fixed + drawn  # (B, C, H, W, kh, kw): C=1, C >= 8, 1x1 kernels and non-square images included


def test_conv_input_grad_matches_loop_oracle():
    rng = np.random.default_rng(20)
    for b, c, h, w, kh, kw in _conv_cases(rng):
        k = int(rng.integers(1, 4))
        gy, taps = rng.normal(size=(b * h * w, k)), rng.normal(size=(kh, kw, c, k))
        got = ad._conv_input_grad(gy, taps, (b, c, h, w))
        assert got.shape == (b, c, h, w)
        assert np.max(np.abs(got - _input_grad_loop_oracle(gy, taps, (b, c, h, w)))) <= 1e-12


def test_conv_backward_is_adjoint_of_conv(monkeypatch):
    # conv2d without bias is linear in x and in w: <conv(x, w), g> == <x, dx> == <w, dw>, in each forward form
    rng = np.random.default_rng(21)
    for b, c, h, w, kh, kw in _conv_cases(rng):
        k = int(rng.integers(1, 4))
        x_data, w_data, g = (rng.normal(size=(b, c, h, w)), rng.normal(size=(k, c, kh, kw)),
                             rng.normal(size=(b, k, h, w)))
        for threshold in FORMS:
            monkeypatch.setattr(ad, "SHIFTED_GEMM_MIN_CHANNELS", threshold)
            x, wt = ad.Tensor(x_data, trainable=True), ad.Tensor(w_data, trainable=True)
            out = ad.conv2d(x, wt, ad.constant(np.zeros(k)))
            out._backward(g)
            lhs = np.sum(out.data * g)
            assert abs(lhs - np.sum(x_data * x.grad)) <= 1e-12
            assert abs(lhs - np.sum(w_data * wt.grad)) <= 1e-12


class TestGradientRule:
    @staticmethod
    def _count_input_grads(monkeypatch):
        calls = []
        real = ad._conv_input_grad

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(ad, "_conv_input_grad", counted)
        return calls

    def test_constant_input_and_frozen_weight_get_no_gradient(self, monkeypatch):
        calls = self._count_input_grads(monkeypatch)
        rng = np.random.default_rng(30)
        x = ad.constant(rng.normal(size=(2, 3, 5, 4)))
        w = ad.constant(rng.normal(size=(4, 3, 3, 3)))
        bias = ad.Tensor(rng.normal(size=(4,)), trainable=True)
        ad.mean(ad.conv2d(x, w, bias)).backward()
        assert x.grad is None and w.grad is None and bias.grad is not None
        assert calls == []
        x_live = ad.Tensor(x.data, trainable=True)
        ad.mean(ad.conv2d(x_live, w, bias)).backward()
        assert w.grad is None and x_live.grad is not None and calls == [x.shape]

    def test_trainable_gradients_match_all_trainable_graph(self):
        rng = np.random.default_rng(31)
        data = {"x": rng.normal(size=(2, 2, 4, 4)), "w1": rng.normal(size=(3, 2, 3, 3)),
                "b1": rng.normal(size=(3,)), "w2": rng.normal(size=(3, 3, 3, 3)), "b2": rng.normal(size=(3,)),
                "hw": rng.normal(size=(3, 4)), "hb": rng.normal(size=(4,)), "m": rng.normal(size=(2, 4)),
                "e": rng.normal(size=(4, 4))}

        def grads(trainable):
            t = {k: ad.Tensor(v.copy(), trainable=trainable(k)) for k, v in data.items()}
            h = ad.avgpool2(ad.relu(ad.conv2d(t["x"], t["w1"], t["b1"])))
            h = ad.relu(ad.conv2d(ad.upsample2(h), t["w2"], t["b2"]))
            logits = ad.add(ad.linear(ad.gap(h), t["hw"], t["hb"]), ad.matmul(t["m"], t["e"]))
            ad.kld(ad.constant(np.full((2, 4), 0.25)), ad.softmax(logits)).backward()
            return {k: v.grad for k, v in t.items()}

        frozen = {"x", "w1", "b1", "hw", "e"}
        some = grads(lambda k: k not in frozen)
        every = grads(lambda k: True)
        for k in data:
            if k in frozen:
                assert some[k] is None
            else:
                assert np.array_equal(some[k], every[k]), k

    def test_train_generator_leaves_classifier_without_gradient(self, monkeypatch):
        from mirrorcfe import training
        from mirrorcfe.classifier import ClassifierConfig, init_params
        from mirrorcfe.dataset import DatasetConfig, generate_dataset

        graphs = []
        real_forward = training.forward_graph

        def spy(graph_params, config, x):
            graphs.append(graph_params)
            return real_forward(graph_params, config, x)

        monkeypatch.setattr(training, "forward_graph", spy)
        calls = self._count_input_grads(monkeypatch)
        data = generate_dataset(DatasetConfig(per_class=2, seed=0))
        cfg = training.TrainConfig(epochs=1, batch_size=4, seed=0)
        training.train_generator(init_params(ClassifierConfig(), seed=0), data, cfg)
        steps = len(data) // cfg.batch_size
        assert len(graphs) == steps
        assert all(t.grad is None for g in graphs for t in g.values())
        # per step: D step 2 (first conv input constant), G step 2 D + 2 classifier + 2 generator convs
        assert len(calls) == 8 * steps

    def test_train_classifier_skips_first_conv_input_gradient(self, monkeypatch):
        from mirrorcfe.classifier import TrainHyper, train_classifier
        from mirrorcfe.dataset import DatasetConfig, generate_dataset

        calls = self._count_input_grads(monkeypatch)
        data = generate_dataset(DatasetConfig(per_class=2, seed=0))
        train_classifier(data, None, TrainHyper(epochs=1, batch_size=4, seed=0))
        assert len(calls) == len(data) // 4  # one per batch: the second conv's input

    def test_gradient_check_rejects_leaf_without_gradient(self):
        a = ad.constant(np.ones(3))
        with pytest.raises(ValueError, match=r"Tensor\(shape=\(3,\).*no gradient"):
            ad.gradient_check(lambda: ad.sum_all(ad.mul(a, a)), a)


class TestAdam:
    def test_single_step_bias_corrected_magnitude(self):
        p = ad.Tensor(np.zeros(3), trainable=True)
        p.grad = np.ones(3)
        state = ad.AdamState({"p": p}, lr=0.01)
        ad.adam_step({"p": p}, state)
        # bias correction makes the very first update ~= lr regardless of g scale
        assert np.max(np.abs(np.abs(p.data) - 0.01)) < 1e-9

    def test_missing_gradient_rejected(self):
        p = ad.Tensor(np.zeros(3), trainable=True)
        state = ad.AdamState({"p": p})
        with pytest.raises(ValueError, match="no gradient"):
            ad.adam_step({"p": p}, state)


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((3,))))
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))

    def test_non_scalar_backward(self):
        t = ad.constant(np.zeros(4))
        with pytest.raises(ad.NonScalarLossError):
            t.backward()

    def test_overflow_detected(self):
        big = ad.constant(np.array([1e308]))
        with pytest.raises(ad.NumericOverflowError):
            ad.mul(big, big)


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(2, 3, 3, 3))
    xt, wt = ad.constant(x.copy()), ad.constant(w.copy())
    out = ad.mean(ad.relu(ad.conv2d(xt, wt, ad.constant(np.zeros(2)))))
    out.backward()
    assert np.array_equal(xt.data, x)
    assert np.array_equal(wt.data, w)
