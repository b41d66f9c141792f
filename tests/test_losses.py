"""Loss suite: KLD, adversarial, reconstruction, feature, triangulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorcfe.autodiff as ad
from mirrorcfe import losses
from mirrorcfe.losses import RatioDegenerateError, TriConfig


class TestLossCls:
    def test_identity_zero(self):
        p = np.array([0.3, 0.7])
        assert losses.loss_cls(p, p).data == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        got = losses.loss_cls(np.array([0.5, 0.5]), np.array([0.9, 0.1])).data
        want = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.5108, abs=1e-4)

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert losses.loss_cls(p, q).data >= -1e-12

    def test_batched_mean(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        q = np.array([[0.9, 0.1], [1.0, 0.0]])
        single = losses.loss_cls(p[0], q[0]).data
        assert losses.loss_cls(p, q).data == pytest.approx(single / 2, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            losses.loss_cls(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


class TestLossAdv:
    def test_perfect_discriminator(self):
        g, d, clamped = losses.loss_adv(np.array([1.0]), np.array([0.0]))
        assert d.data == pytest.approx(0.0, abs=1e-9)
        assert clamped  # the exact 0/1 outputs hit the clamp

    def test_half_confidence(self):
        g, d, clamped = losses.loss_adv(np.array([0.5]), np.array([0.5]))
        assert g.data == pytest.approx(np.log(2.0), abs=1e-12)
        assert not clamped

    def test_g_term_gradient(self):
        rng = np.random.default_rng(1)
        d_fake = ad.Tensor(rng.uniform(0.1, 0.9, (4,)), trainable=True)
        err = ad.gradient_check(lambda: losses.loss_adv(np.array([0.5]), d_fake)[0],
                                d_fake, rng=rng)
        assert err < 1e-4


class TestLossRecFeaProx:
    def test_rec_values(self):
        z, o = np.zeros((1, 4, 4)), np.ones((1, 4, 4))
        assert losses.loss_rec(z, z).data == 0.0
        assert losses.loss_rec(z, o).data == pytest.approx(1.0, abs=1e-12)

    def test_rec_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (1, 16, 16))
        b = rng.uniform(0, 1, (1, 16, 16))
        want = sum(abs(x - y) for x, y in zip(a.ravel(), b.ravel())) / a.size
        assert abs(losses.loss_rec(a, b).data - want) <= 1e-12

    def test_fea_values(self):
        assert losses.loss_fea(np.array([3.0, 4.0]), np.zeros(2)).data == pytest.approx(5.0, abs=1e-12)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=8), rng.normal(size=8)
        want = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert abs(losses.loss_fea(a, b).data - want) <= 1e-12
        with pytest.raises(ad.ShapeError):
            losses.loss_fea(np.zeros(3), np.zeros(4))


def _tri_inputs(d_sk, d_ref=1.0, r=2.0):
    """Pixel/latent vectors realizing |x_s - x_k| = d_sk, |x_k - x_ref| = d_ref,
    and latent ratio ||z_k - z_ref|| / ||z_s - z_k|| = r."""
    x_k = np.zeros(4)
    x_s = np.full(4, d_sk)
    x_ref = np.full(4, d_ref)
    z_s, z_k, z_ref = np.array([0.0]), np.array([1.0]), np.array([1.0 + r])
    return x_s, x_k, x_ref, z_s, z_k, z_ref


class TestLossTri:
    # with d_ref=1, r=2, alpha=0.2 the admissible band is [0.4, 0.6]

    def test_in_band_zero(self):
        x_s, x_k, x_ref, z_s, z_k, z_ref = _tri_inputs(0.5)
        assert losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.7).data == 0.0

    def test_below_band(self):
        x_s, x_k, x_ref, z_s, z_k, z_ref = _tri_inputs(0.3)
        got = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.7).data
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_above_band(self):
        x_s, x_k, x_ref, z_s, z_k, z_ref = _tri_inputs(0.8)
        got = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.7).data
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x_s = rng.uniform(0, 1, 6)
            x_k = rng.uniform(0, 1, 6)
            x_ref = rng.uniform(0, 1, 6)
            z_s = rng.normal(size=3)
            z_k = rng.normal(size=3)
            z_ref = rng.normal(size=3)
            alpha = float(rng.uniform(0, 1))
            cfg = TriConfig(alpha=alpha)
            got = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.8, cfg).data
            r = np.linalg.norm(z_k - z_ref) / max(np.linalg.norm(z_s - z_k), 1e-6)
            r = max(r, 1e-6)
            d_ref = np.mean(np.abs(x_k - x_ref))
            d_sk = np.mean(np.abs(x_s - x_k))
            lo, hi = (1 - alpha) / r * d_ref, (1 + alpha) / r * d_ref
            want = max(lo - d_sk, 0.0) + max(d_sk - hi, 0.0)
            assert abs(got - want) <= 1e-12

    def test_alpha_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            args = (rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), rng.uniform(0, 1, 5),
                    rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
            prev = np.inf
            for alpha in (0.0, 0.2, 0.5, 1.0):
                val = losses.loss_tri(*args, 0.6, TriConfig(alpha=alpha)).data
                assert val <= prev + 1e-12
                prev = val

    def test_alpha_one_only_upper_hinge(self):
        # lower band edge is 0 at alpha=1, so d_sk = 0 must give zero loss
        x_s, x_k, x_ref, z_s, z_k, z_ref = _tri_inputs(0.0)
        assert losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.7, TriConfig(alpha=1.0)).data == 0.0

    def test_k0_degenerate(self):
        z = np.array([1.0, 2.0])
        x = np.full(4, 0.5)
        other = np.full(4, 0.6)
        # reference equal to the source: defined as zero
        assert losses.loss_tri(x, x, x, z, z.copy(), z, 0.0).data == 0.0
        with pytest.raises(RatioDegenerateError):
            losses.loss_tri(x, x, other, z, z.copy(), z, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriConfig(alpha=1.5)


@settings(max_examples=200, deadline=None)
@given(d_sk=st.floats(0.0, 2.0), d_ref=st.floats(0.0, 2.0),
       r=st.floats(0.1, 10.0), alpha=st.floats(0.0, 1.0))
def test_tri_hinge_properties(d_sk, d_ref, r, alpha):
    x_s, x_k, x_ref, z_s, z_k, z_ref = _tri_inputs(d_sk, d_ref, r)
    val = losses.loss_tri(x_s, x_k, x_ref, z_s, z_k, z_ref, 0.9, TriConfig(alpha=alpha)).data
    lo, hi = (1 - alpha) / r * d_ref, (1 + alpha) / r * d_ref
    assert val >= 0.0
    if lo + 1e-9 <= d_sk <= hi - 1e-9:
        assert val == pytest.approx(0.0, abs=1e-9)
    if d_sk > hi + 1e-9 or d_sk < lo - 1e-9:
        assert val > 0.0
