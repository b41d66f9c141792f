"""Mirror geometry, the first-CFE search, the multiclass reflection, and feature synthesis."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorcfe import geometry as geo
from mirrorcfe.classifier import head


def _mirror(w, b, s=0, t=1):
    return geo.Mirror(source=s, target=t, w=np.asarray(w, dtype=np.float64), b=float(b))


class TestMirror:
    def test_make_mirror_hand_case(self):
        W = np.array([[1.0, -1.0], [0.0, 0.0]])  # columns are class weights
        b = np.zeros(2)
        m = geo.make_mirror(W, b, 0, 1)
        assert np.array_equal(m.w, [-2.0, 0.0])
        assert np.array_equal(m.unit, [-1.0, 0.0])
        assert m.b == 0.0

    def test_same_class_rejected(self):
        with pytest.raises(ValueError):
            geo.make_mirror(np.eye(2), np.zeros(2), 1, 1)

    @pytest.mark.parametrize("s, t", [(0, -1), (-1, 0), (0, 2), (2, 1)])
    def test_class_index_out_of_range_rejected(self, s, t):
        # a negative index would otherwise silently pick a class from the end
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            geo.make_mirror(np.eye(2), np.zeros(2), s, t)

    def test_identical_columns_degenerate(self):
        W = np.ones((3, 2))
        with pytest.raises(geo.DegenerateMirrorError):
            geo.make_mirror(W, np.zeros(2), 0, 1)


class TestPosition:
    def test_projection_hand_case(self):
        m = _mirror([0.0, 2.0], -1.0)
        z_p = geo.position(np.array([1.0, 1.0]), m, 0.5)
        assert np.allclose(z_p, [1.0, 0.5], atol=1e-12)
        assert abs(m.w @ z_p + m.b) < 1e-12  # lands exactly on the boundary

    def test_k0_is_bit_exact_copy(self):
        z = np.array([0.1, 0.2, 0.3])
        m = _mirror([1.0, 0.0, 0.0], 0.5)
        out = geo.position(z, m, 0.0)
        assert np.array_equal(out, z)
        assert out is not z

    def test_k_out_of_range(self):
        m = _mirror([1.0], 0.0)
        with pytest.raises(ValueError):
            geo.position(np.array([1.0]), m, 1.5)

    def test_pair_confidence_hand_case(self):
        m = _mirror([1.0, 0.0], 0.0)
        q = geo.pair_confidence(np.array([-2.0, 0.0]), m)
        assert q == pytest.approx(0.11920292202211755, abs=1e-12)

    def test_projection_flip_involution_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = 8
            z = rng.normal(size=n)
            m = _mirror(rng.normal(size=n), rng.normal())
            q0 = geo.pair_confidence(z, m)
            assert abs(geo.pair_confidence(geo.position(z, m, 0.5), m) - 0.5) < 1e-9
            z_r = geo.position(z, m, 1.0)
            assert abs(geo.pair_confidence(z_r, m) - (1.0 - q0)) < 1e-9
            assert np.max(np.abs(geo.position(z_r, m, 1.0) - z)) < 1e-9


class TestTrajectoryAndFirstCfe:
    def _three_class_head(self):
        # source 0 and target 1 split on the first axis; class 2 peaks mid-way
        W = np.array([[1.0, -1.0, 0.0],
                      [0.0, 0.0, 3.0]])
        b = np.array([0.0, 0.0, -0.5])
        return W, b

    def test_trajectory_endpoints(self):
        W, b = self._three_class_head()
        z_s = np.array([2.0, 0.4])
        m = geo.make_mirror(W, b, 0, 1)
        traj = geo.sample_trajectory(z_s, m, W, b, steps=21)
        assert traj.ks.shape == (21,) and traj.grid.shape == (21, 2) and traj.probs.shape == (21, 3)
        assert (traj.ks[0], traj.ks[10], traj.ks[-1]) == (0.0, 0.5, 1.0)
        assert np.array_equal(traj.grid[0], z_s)
        assert abs(m.w @ traj.grid[10] + m.b) < 1e-12  # the projection
        assert int(np.argmax(traj.probs[0])) == 0
        assert int(np.argmax(traj.probs[-1])) == 1

    def test_first_cfe_after_midpoint(self):
        # class 2 dominates around the boundary, so the multiclass flip to the
        # target happens strictly after k = 0.5; verify against a dense scan
        W, b = self._three_class_head()
        z_s = np.array([2.0, 0.4])
        m = geo.make_mirror(W, b, 0, 1)
        traj = geo.sample_trajectory(z_s, m, W, b, steps=21)
        first = float(geo.first_cfe_batch(traj))
        assert first > 0.5
        ks = np.linspace(0.0, 1.0, 10_001)
        dense = next(k for k in ks if int(np.argmax(head(W, b, traj.latent_at(float(k)))[1])) == 1)
        assert abs(first - dense) <= 2e-3
        # the point just before the found k must not yet be the target
        assert int(np.argmax(head(W, b, traj.latent_at(first - 2e-3))[1])) != 1

    def test_no_flip_is_nan(self):
        # class 2 dominates the entire trajectory
        W = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        b = np.array([0.0, 0.0, 50.0])
        z_s = np.array([1.0, 0.0])
        m = geo.make_mirror(W, b, 0, 1)
        traj = geo.sample_trajectory(z_s, m, W, b, steps=21)
        assert int(np.argmax(traj.probs[-1])) == 2
        assert np.isnan(geo.first_cfe_batch(traj))

    def test_first_cfe_at_the_projection_is_not_decided_by_rounding(self):
        # s and t lead the other classes, so the binary path flips exactly at k = 0.5, where the
        # s/t logit gap is rounding noise; a 1-ulp change of z_s must not move the reported k
        rng = np.random.default_rng(0)
        for _ in range(40):
            W, b, z_s = rng.normal(size=(16, 4)), rng.normal(size=4), rng.normal(size=16)
            order = np.argsort(z_s @ W + b)
            m = geo.make_mirror(W, b, int(order[-1]), int(order[-2]))
            ks = {float(geo.first_cfe_batch(geo.sample_trajectory(z, m, W, b)))
                  for z in (z_s, np.nextafter(z_s, np.inf), np.nextafter(z_s, -np.inf))}
            assert ks == {0.5 + 0.05 / 64}  # the first bisection point past the projection

    def test_short_trajectory_rejected(self):
        W, b = self._three_class_head()
        m = geo.make_mirror(W, b, 0, 1)
        traj = geo.sample_trajectory(np.array([1.0, 0.0]), m, W, b, steps=5)
        with pytest.raises(ValueError, match="at least 21 steps"):
            geo.first_cfe_batch(traj)

    def test_multiclass_trajectory_interpolates(self):
        W, b = self._three_class_head()
        z_s = np.array([2.0, 0.4])
        m = geo.make_mirror(W, b, 0, 1)
        z_r, _ = geo.multiclass_reflection(z_s, m, W, b)
        traj = geo.sample_trajectory(z_s, m, W, b, steps=21, z_r_prime=z_r)
        assert np.allclose(traj.latent_at(0.5), 0.5 * (z_s + z_r), atol=1e-12)
        assert np.allclose(traj.grid[-1], z_r, atol=1e-12)
        assert np.array_equal(traj.latent_at(0.25), geo.position(z_s, m, 0.25, z_r))

    def test_position_is_the_closed_form_step(self):
        # z_s plus the negated travel is bit for bit z_s - 2k d w_hat
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = rng.normal(size=8) * 10.0 ** rng.integers(-3, 4)
            m = _mirror(rng.normal(size=8), rng.normal())
            k = float(rng.uniform())
            assert np.array_equal(geo.position(z, m, k), z - 2.0 * k * geo.signed_distance(z, m) * m.unit)

    def test_trajectory_grid_is_bit_equal_to_position_and_head(self):
        # the one-array grid against per-k position plus one-row head: latents bit-equal, the grid's
        # one-product head and pair confidence within 1e-14
        rng = np.random.default_rng(8)
        for case in range(200):
            n, c = int(rng.integers(2, 20)), int(rng.integers(2, 6))
            W = rng.normal(size=(n, c)) * 10.0 ** rng.integers(-2, 2)
            b = rng.normal(size=c)
            z_s = rng.normal(size=n) * 10.0 ** rng.integers(-3, 2)
            s, t = (int(i) for i in rng.choice(c, size=2, replace=False))
            m = geo.make_mirror(W, b, s, t)
            z_r = rng.normal(size=n) if case % 2 else None
            steps = int(rng.integers(2, 40))
            traj = geo.sample_trajectory(z_s, m, W, b, steps=steps, z_r_prime=z_r)
            assert traj.ks.tobytes() == np.linspace(0.0, 1.0, steps).tobytes()
            q_grid = geo.pair_confidence(traj.grid, m)
            for k, z_k, probs_k, q_k in zip(traj.ks, traj.grid, traj.probs, q_grid):
                z = geo.position(z_s, m, float(k), z_r)
                assert z_k.tobytes() == z.tobytes() == traj.latent_at(float(k)).tobytes()
                _, probs = head(W, b, z)
                assert np.max(np.abs(probs_k - probs)) <= 1e-14
                assert abs(q_k - geo.pair_confidence(z, m)) <= 1e-14

    def test_position_with_z_r_prime_interpolates(self):
        rng = np.random.default_rng(7)
        z, z_r = rng.normal(size=8), rng.normal(size=8)
        m = _mirror(rng.normal(size=8), 0.0)
        assert np.allclose(geo.position(z, m, 0.5, z_r), 0.5 * (z + z_r), atol=1e-12)
        assert np.array_equal(geo.position(z, m, 1.0, z_r), z + (z_r - z))


def _first_cfe_oracle(W, b, z_s, m, z_r, steps) -> float:
    """The first CFE from the definition: scan the grid's logits for the first target lead, then bisect on
    head(W, b, position(z_s, m, k, z_r)) between the grid points around it; NaN where the target never leads."""
    t = m.target
    traj = geo.sample_trajectory(z_s, m, W, b, steps=steps, z_r_prime=z_r)
    leads = [geo._leads(lg, t) for lg in traj.logits]
    if not any(leads):
        return float("nan")
    i = leads.index(True)
    if i == 0:
        return 0.0
    lo, hi = float(traj.ks[i - 1]), float(traj.ks[i])
    while hi - lo > geo.CFE_TOL:
        mid = 0.5 * (lo + hi)
        if geo._leads(head(W, b, geo.position(z_s, m, mid, z_r))[0], t):
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), c=st.integers(2, 6),
       scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0]), steps=st.integers(21, 41), multiclass=st.booleans())
def test_first_cfe_on_the_logit_arrays_matches_the_point_bisection(seed, n, c, scale, steps, multiclass):
    rng = np.random.default_rng(seed)
    W, b, z_s = rng.normal(size=(n, c)) * scale, rng.normal(size=c), rng.normal(size=n)
    s = int(np.argmax(z_s @ W + b))
    t = int(rng.choice([i for i in range(c) if i != s]))
    m = geo.make_mirror(W, b, s, t)
    z_r = rng.normal(size=n) if multiclass else None
    traj = geo.sample_trajectory(z_s, m, W, b, steps=steps, z_r_prime=z_r)
    found = geo.first_cfe_batch(traj)
    assert found.shape == () and np.array_equal(found, _first_cfe_oracle(W, b, z_s, m, z_r, steps), equal_nan=True)



@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), c=st.integers(2, 6), rows=st.integers(1, 12),
       scale=st.sampled_from([1e-3, 1e-1, 1.0, 10.0]), steps=st.integers(21, 41), multiclass=st.booleans())
def test_first_cfe_batch_rows_match_single_trajectories(seed, n, c, rows, scale, steps, multiclass):
    # each row of a stacked trajectory: the same grid and logits bits as its own trajectory, and the
    # same first-CFE float, or NaN exactly where the single trajectory never flips
    rng = np.random.default_rng(seed)
    W, b, z_s = rng.normal(size=(n, c)) * scale, rng.normal(size=c), rng.normal(size=(rows, n))
    s, t = (int(i) for i in rng.choice(c, size=2, replace=False))
    m = geo.make_mirror(W, b, s, t)
    z_r = rng.normal(size=(rows, n)) if multiclass else None
    stacked = geo.sample_trajectory(z_s, m, W, b, steps=steps, z_r_prime=z_r)
    found = geo.first_cfe_batch(stacked)
    assert found.shape == (rows,)
    for i in range(rows):
        traj = geo.sample_trajectory(z_s[i], m, W, b, steps=steps, z_r_prime=None if z_r is None else z_r[i])
        assert stacked.grid[i].tobytes() == traj.grid.tobytes()
        assert stacked.logits[i].tobytes() == traj.logits.tobytes()
        assert stacked.latent_at(1.0)[i].tobytes() == traj.latent_at(1.0).tobytes()
        assert np.array_equal(found[i], geo.first_cfe_batch(traj), equal_nan=True)

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), c=st.integers(3, 6),
       scale=st.sampled_from([1e-2, 1.0, 10.0]))
def test_multiclass_reflection_is_the_minimum_norm_least_squares_step(seed, n, c, scale):
    # N >= C: the swapped logits are reached to rounding, and z_r' - z0 has no component in the null space
    # of W^T, so z_r' is the reachable point nearest the binary reflection z0. N < C: the part of the
    # target outside the range of W^T is out of reach, and the solve raises with exactly that residual.
    rng = np.random.default_rng(seed)
    W, b, z_s = rng.normal(size=(n, c)) * scale, rng.normal(size=c), rng.normal(size=n)
    s, t = (int(i) for i in rng.choice(c, size=2, replace=False))
    m = geo.make_mirror(W, b, s, t)
    target = geo.reflection_target_logits(W, b, z_s, s, t)
    z0 = geo.position(z_s, m, 1.0)
    u, _, vt = np.linalg.svd(W.T)
    if n < c:
        unreachable = float(np.linalg.norm(u[:, n:].T @ (target - b)))
        assume(unreachable > 2 * geo.REFLECTION_RESIDUAL_TOL)
        with pytest.raises(geo.ReflectionUnreachableError) as info:
            geo.multiclass_reflection(z_s, m, W, b)
        z_best = info.value.z_best
        assert info.value.residual == pytest.approx(unreachable, rel=1e-9)
        assert info.value.residual == float(np.linalg.norm(W.T @ z_best + b - target))
        return
    z_r, res = geo.multiclass_reflection(z_s, m, W, b)
    assert res.iterations == 1
    size = np.linalg.norm(W, 2) * np.linalg.norm(z_r) + np.linalg.norm(b) + np.linalg.norm(target)
    assert np.linalg.norm(W.T @ z_r + b - target) <= 1e-13 * size
    step = z_r - z0
    assert np.max(np.abs(vt[c:] @ step), initial=0.0) <= 1e-13 * (np.linalg.norm(step) + np.linalg.norm(z0))


class TestMulticlassReflection:
    def test_binary_head_matches_closed_form(self):
        # the swapped-logit target lies on the reflection line exactly when the
        # two weight columns share a norm; then the binary reflection already
        # reaches it, and the least-squares correction from it is zero
        rng = np.random.default_rng(2)
        W = rng.normal(size=(16, 2))
        W /= np.linalg.norm(W, axis=0, keepdims=True)
        b = rng.normal(size=2)
        z_s = rng.normal(size=16)
        m = geo.make_mirror(W, b, 0, 1)
        z_r, _ = geo.multiclass_reflection(z_s, m, W, b)
        assert np.max(np.abs(z_r - geo.position(z_s, m, 1.0))) < 1e-6

    def test_full_rank_five_class_residual(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(16, 5))
        b = rng.normal(size=5)
        z_s = rng.normal(size=16)
        m = geo.make_mirror(W, b, 0, 3)
        z_r, res = geo.multiclass_reflection(z_s, m, W, b)
        target = geo.reflection_target_logits(W, b, z_s, 0, 3)
        assert np.linalg.norm(W.T @ z_r + b - target) <= 1e-6

    def test_target_logits_swap(self):
        W = np.eye(3)
        b = np.array([0.1, 0.2, 0.3])
        z = np.array([1.0, 2.0, 3.0])
        got = geo.reflection_target_logits(W, b, z, 0, 2)
        l = W.T @ z + b
        assert got[0] == l[2] and got[2] == l[0] and got[1] == l[1]

    def test_rank_deficient_unreachable(self):
        # rank-1 head: distinct columns, but the logit map cannot realize the
        # swapped target vector
        u = np.linspace(1.0, 2.0, 16)
        W = np.outer(u, np.array([1.0, -1.0, 2.0]))
        b = np.array([0.0, 0.0, 5.0])
        z_s = np.linspace(-1.0, 1.0, 16)
        m = geo.make_mirror(W, b, 0, 1)
        with pytest.raises(geo.ReflectionUnreachableError) as info:
            geo.multiclass_reflection(z_s, m, W, b)
        assert info.value.residual > 1e-3
        assert info.value.z_best.shape == (16,)


class TestKfeFeature:
    def test_hand_case(self):
        # 1-channel 2x2 map with GAP 2; mirror chosen so z_delta = -1 at k=0.5
        f = np.array([[[1.0, 3.0], [2.0, 2.0]]])
        m = _mirror([1.0], -1.0)
        got = geo.kfe_feature(f, np.array([2.0]), 0.5, m)
        assert np.array_equal(got, [[[0.0, 2.0], [1.0, 1.0]]])

    def test_gap_stays_consistent(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(16, 4, 4))
        z = f.mean(axis=(1, 2))
        m = _mirror(rng.normal(size=16), 0.3)
        for k in (0.0, 0.25, 1.0):
            f_k = geo.kfe_feature(f, z, k, m)
            assert np.allclose(f_k.mean(axis=(1, 2)), geo.position(z, m, k), atol=1e-9)

    def test_multiclass_mode(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(8, 2, 2))
        z = f.mean(axis=(1, 2))
        z_r = rng.normal(size=8)
        m = _mirror(rng.normal(size=8), 0.0)
        f_k = geo.kfe_feature(f, z, 0.5, m, z_r_prime=z_r)
        assert np.allclose(f_k.mean(axis=(1, 2)), z + 0.5 * (z_r - z), atol=1e-9)

    def test_stack_shifts_row_wise(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(5, 8, 2, 2))
        z = f.mean(axis=(2, 3))
        z_r = rng.normal(size=(5, 8))
        m = _mirror(rng.normal(size=8), 0.3)
        for k in (0.0, 0.25, 1.0):
            for given_r in (None, z_r):
                stacked = geo.kfe_feature(f, z, k, m, z_r_prime=given_r)
                for i in range(5):
                    row = geo.kfe_feature(f[i], z[i], k, m, z_r_prime=None if given_r is None else z_r[i])
                    assert stacked[i].tobytes() == row.tobytes()

    def test_gap_mismatch_rejected(self):
        f = np.ones((2, 2, 2))
        m = _mirror([1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            geo.kfe_feature(f, np.array([0.5, 0.5]), 0.5, m)
