"""CAM normalization, spatial prior masks, SPE, and CSP mixing."""

import numpy as np
import pytest

import mirrorcfe.autodiff as ad
from mirrorcfe import cam as camlib
from mirrorcfe.classifier import ClassifierConfig
from mirrorcfe.training import init_generator


class TestCam:
    def test_normalization_hand_case(self):
        # single latent channel, two classes selecting U directly
        W = np.array([[1.0, 0.0]])
        f = np.array([[[1.0, -1.0], [3.0, 0.0]]])
        out = camlib.cam(W, f)
        assert np.array_equal(out.unnormalized[0], [[1.0, -1.0], [3.0, 0.0]])
        assert np.allclose(out.normalized[0], [[1 / 3, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_all_nonpositive_channel_is_zero(self):
        W = np.array([[1.0]])
        f = np.array([[[-1.0, -2.0], [-3.0, 0.0]]])
        out = camlib.cam(W, f)
        assert np.array_equal(out.normalized[0], np.zeros((2, 2)))

    def test_einsum_against_loop(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(16, 4))
        f = rng.normal(size=(16, 4, 4))
        out = camlib.cam(W, f)
        for c in range(4):
            want = sum(W[n, c] * f[n] for n in range(16))
            assert np.allclose(out.unnormalized[c], want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            camlib.cam(np.zeros((8, 4)), np.zeros((16, 4, 4)))


class TestRho:
    def test_hand_values(self):
        assert camlib.rho(0.0, 0.2, 0.8) == pytest.approx(0.8)
        assert camlib.rho(1.0, 0.2, 0.8) == pytest.approx(0.2)
        assert camlib.rho(0.5, 0.2, 0.8) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            camlib.rho(0.5, 0.8, 0.2)
        with pytest.raises(ValueError):
            camlib.rho(1.5, 0.2, 0.8)


class TestPriorMask:
    def test_hand_union(self):
        pm = camlib.prior_mask(np.array([[0.9, 0.1]]), np.array([[0.2, 0.8]]), 0.5, 0.5, {})
        assert np.array_equal(pm.mask, [[1.0, 1.0]])

    def test_mask_grows_with_k(self):
        # threshold shrinks as k grows, so the unioned mask can only gain cells
        rng = np.random.default_rng(1)
        for _ in range(100):
            cs = rng.uniform(0, 1, (4, 4))
            ct = rng.uniform(0, 1, (4, 4))
            prev = -1
            for k in np.linspace(0.0, 1.0, 11):
                thr = camlib.rho(float(k), 0.2, 0.8)
                count = int(camlib.prior_mask(cs, ct, thr, float(k), {}).mask.sum())
                assert count >= prev
                prev = count

    def test_per_layer_upsample(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        pm = camlib.prior_mask(np.array([[1.0, 0.0], [0.0, 1.0]]),
                               np.zeros((2, 2)), 0.5, 1.0, {0: (4, 4)})
        up = pm.per_layer[0]
        assert up.shape == (4, 4)
        assert np.array_equal(up, np.kron(mask, np.ones((2, 2))))


class TestSpe:
    def test_transform_shapes_and_gradient(self):
        rng = np.random.default_rng(2)
        gen = init_generator(ClassifierConfig(), seed=2, ssc=True)  # an 8x8 first stage of 8 channels, 16x4x4 latent
        params = {k: ad.Tensor(v, trainable=True) for k, v in gen.tensors.items() if k.startswith("spe0_")}
        f_s = ad.constant(rng.normal(size=(2, 8, 8, 8)))
        f_k = ad.constant(rng.normal(size=(2, 16, 4, 4)))
        u = camlib.spe_transform(f_s, f_k, params)
        assert u.shape == (2, 8, 8, 8)
        leaf = params["spe0_decoder_w"]
        err = ad.gradient_check(lambda: ad.mean(camlib.spe_transform(f_s, f_k, params)), leaf, rng=rng)
        assert err < 1e-3

    def test_bad_layer_geometry(self):
        # neither size is a power-of-two multiple of the latent size
        rng = np.random.default_rng(2)
        params = init_generator(ClassifierConfig(), seed=2, ssc=True).tensors
        for size, latent_size in ((6, 4), (5, 2)):
            f_s = rng.normal(size=(1, 8, size, size))
            f_k = rng.normal(size=(1, 16, latent_size, latent_size))
            with pytest.raises(ad.ShapeError, match="spe_transform"):
                camlib.spe_transform(f_s, f_k, params)


class TestCspMix:
    def test_identity_and_replacement(self):
        rng = np.random.default_rng(3)
        f = ad.constant(rng.normal(size=(1, 3, 2, 2)))
        u = ad.constant(rng.normal(size=(1, 3, 2, 2)))
        assert np.array_equal(camlib.csp_mix(f, u, np.zeros((2, 2))).data, f.data)
        assert np.array_equal(camlib.csp_mix(f, u, np.ones((2, 2))).data, u.data)

    def test_checkerboard_against_loop(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(2, 3, 4, 4))
        u = rng.normal(size=(2, 3, 4, 4))
        mask = np.indices((4, 4)).sum(axis=0) % 2.0
        got = camlib.csp_mix(ad.constant(f), ad.constant(u), mask).data
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        want = u[n, c, i, j] if mask[i, j] else f[n, c, i, j]
                        assert got[n, c, i, j] == want

    def test_nonbinary_mask_rejected(self):
        f = ad.constant(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            camlib.csp_mix(f, f, np.full((2, 2), 0.5))
