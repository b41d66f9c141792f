"""Dense-tensor arithmetic with reverse-mode automatic differentiation.

Everything runs on float64 numpy arrays. The graph is define-by-run: each op
returns a new Tensor holding its parents and a closure that accumulates
gradients into them. Only trainable leaves and the nodes that depend on one
receive a gradient: backward() leaves `.grad` of every other node None and
computes no gradient for it, so a frozen weight or a constant input costs
nothing in the backward pass. Non-finite values are treated as an error state
and raised immediately rather than propagated.
"""

from __future__ import annotations

import numpy as np

CLAMP = 1e-12


class ShapeError(ValueError):
    """Raised when an op receives inputs of incompatible shapes."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")
        self.op = op
        self.shapes = shapes


class NumericOverflowError(ArithmeticError):
    """Raised when an op produces NaN or Inf."""


class NonScalarLossError(ValueError):
    """Raised when backward() is started from a non-scalar node."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_finite(op: str, out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericOverflowError(f"{op} produced non-finite values")
    return out


class Tensor:
    """A node in the autodiff graph wrapping a float64 array.

    Leaves are created directly; interior nodes are created by ops. `trainable`
    marks parameter leaves: optimizers update those and only those. Gradients
    accumulate in .grad during backward() on the nodes whose `needs_grad` is
    set, which is fixed at construction: a trainable leaf, or a node with a
    parent that needs a gradient. Every other node keeps .grad None.
    """

    __slots__ = ("data", "grad", "trainable", "needs_grad", "_parents", "_backward", "op")

    def __init__(self, data, trainable: bool = False, _parents=(), _backward=None, op: str = "leaf"):
        self.data = _check_finite(op, _as_array(data))
        self.grad = None
        self.trainable = trainable
        self.needs_grad = trainable or any(p.needs_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise NonScalarLossError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, op={self.op!r}, trainable={self.trainable})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data, trainable=False)


# -- elementwise --------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape and b.data.ndim != 0 and a.data.ndim != 0:
        raise ShapeError("add", a.shape, b.shape)
    out = Tensor(a.data + b.data, _parents=(a, b), op="add")

    def bwd(g):
        a._accum(g if a.data.ndim else np.sum(g))
        b._accum(g if b.data.ndim else np.sum(g))

    out._backward = bwd
    return out


def sub(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape and b.data.ndim != 0 and a.data.ndim != 0:
        raise ShapeError("sub", a.shape, b.shape)
    out = Tensor(a.data - b.data, _parents=(a, b), op="sub")

    def bwd(g):
        a._accum(g if a.data.ndim else np.sum(g))
        b._accum(-g if b.data.ndim else -np.sum(g))

    out._backward = bwd
    return out


def mul(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape and b.data.ndim != 0 and a.data.ndim != 0:
        raise ShapeError("mul", a.shape, b.shape)
    out = Tensor(a.data * b.data, _parents=(a, b), op="mul")

    def bwd(g):
        ga = g * b.data
        gb = g * a.data
        a._accum(ga if a.data.ndim else np.sum(ga))
        b._accum(gb if b.data.ndim else np.sum(gb))

    out._backward = bwd
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, _parents=(a,), op="scale")
    out._backward = lambda g: a._accum(g * c)
    return out


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    out = Tensor(np.maximum(a.data, 0.0), _parents=(a,), op="relu")
    out._backward = lambda g: a._accum(g * (a.data > 0.0))
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s, _parents=(a,), op="sigmoid")
    out._backward = lambda g: a._accum(g * s * (1.0 - s))
    return out


def log(a: Tensor) -> Tensor:
    clamped = np.maximum(a.data, CLAMP)
    out = Tensor(np.log(clamped), _parents=(a,), op="log")
    out._backward = lambda g: a._accum(g / clamped * (a.data >= CLAMP))
    return out


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data, _parents=(a, b), op="matmul")

    def bwd(g):
        if a.needs_grad:
            a._accum(g @ b.data.T)
        if b.needs_grad:
            b._accum(a.data.T @ g)

    out._backward = bwd
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b with x: (B, N), w: (N, M), b: (M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.data.shape != (w.shape[1],):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    out = Tensor(x.data @ w.data + b.data, _parents=(x, w, b), op="linear")

    def bwd(g):
        if x.needs_grad:
            x._accum(g @ w.data.T)
        if w.needs_grad:
            w._accum(x.data.T @ g)
        b._accum(g.sum(axis=0))

    out._backward = bwd
    return out


# -- convolutional stack, all on (B, C, H, W) ---------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-padded 'same' patches: (B, H, W, C*kh*kw), patch axis ordered (C, kh, kw)."""
    b, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + w] = x
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, c, h, w, kh, kw), strides=(s[0], s[1], s[2], s[3], s[2], s[3])
    )
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h, w, c * kh * kw)


def _col2im(cols: np.ndarray, shape, kh: int, kw: int) -> np.ndarray:
    """Adjoint of _im2col with the patch axis ordered (kh, kw, C): (B, H, W, kh*kw*C) -> (B, C, H, W).

    The scatter runs channel-last, so each tap adds one contiguous slice; the
    taps are summed in (i, j) order.
    """
    b, c, h, w = shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    cols = cols.reshape(b, h, w, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + h, j : j + w] += cols[:, :, :, i, j]
    return out[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 'same' convolution. x: (B,C,H,W), w: (K,C,kh,kw), bias: (K,)."""
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    if bias.data.shape != (w.shape[0],):
        raise ShapeError("conv2d.bias", bias.shape, w.shape)
    k, _, kh, kw = w.shape
    wdata = w.data
    cols = _im2col(x.data, kh, kw)  # (B,H,W,C*kh*kw)
    y = cols @ wdata.reshape(k, -1).T + bias.data  # (B,H,W,K)
    out = Tensor(y.transpose(0, 3, 1, 2), _parents=(x, w, bias), op="conv2d")

    def bwd(g):
        gy = g.transpose(0, 2, 3, 1)  # (B,H,W,K)
        if w.needs_grad:
            w._accum((gy.reshape(-1, k).T @ cols.reshape(-1, cols.shape[-1])).reshape(wdata.shape))
        if bias.needs_grad:
            bias._accum(gy.sum(axis=(0, 1, 2)))
        if x.needs_grad:
            gcols = gy @ wdata.transpose(0, 2, 3, 1).reshape(k, -1)  # (B,H,W,kh*kw*C)
            x._accum(_col2im(gcols, x.data.shape, kh, kw))

    out._backward = bwd
    return out


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling, stride 2. Spatial extents must be even."""
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError("avgpool2", x.shape)
    y = x.data.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    out = Tensor(y, _parents=(x,), op="avgpool2")

    def bwd(g):
        x._accum(np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    out._backward = bwd
    return out


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor x2 upsampling on (B,C,H,W)."""
    if x.data.ndim != 4:
        raise ShapeError("upsample2", x.shape)
    y = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    out = Tensor(y, _parents=(x,), op="upsample2")

    def bwd(g):
        b, c, h, w = x.shape
        x._accum(g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)))

    out._backward = bwd
    return out


def gap(x: Tensor) -> Tensor:
    """Global average pooling (B,C,H,W) -> (B,C)."""
    if x.data.ndim != 4:
        raise ShapeError("gap", x.shape)
    b, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)), _parents=(x,), op="gap")

    def bwd(g):
        x._accum(np.broadcast_to(g[:, :, None, None], x.data.shape) / (h * w))

    out._backward = bwd
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 4 or b.data.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError("concat_channels", a.shape, b.shape)
    ca = a.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1), _parents=(a, b), op="concat_channels")

    def bwd(g):
        a._accum(g[:, :ca])
        b._accum(g[:, ca:])

    out._backward = bwd
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """View rows [start, stop) along the leading axis."""
    if not (0 <= start < stop <= a.shape[0]):
        raise ShapeError("slice_rows", a.shape, (start, stop))
    out = Tensor(a.data[start:stop], _parents=(a,), op="slice_rows")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        a._accum(full)

    out._backward = bwd
    return out


# -- reductions / distributional ----------------------------------------------


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, _parents=(a,), op="softmax")

    def bwd(g):
        a._accum(p * (g - np.sum(g * p, axis=-1, keepdims=True)))

    out._backward = bwd
    return out


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(), _parents=(a,), op="mean")
    out._backward = lambda g: a._accum(np.full_like(a.data, float(g) / n))
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), _parents=(a,), op="sum")
    out._backward = lambda g: a._accum(np.full_like(a.data, float(g)))
    return out


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar)."""
    if a.shape != b.shape:
        raise ShapeError("l1_distance", a.shape, b.shape)
    d = a.data - b.data
    n = d.size
    out = Tensor(np.abs(d).mean(), _parents=(a, b), op="l1_distance")

    def bwd(g):
        s = np.sign(d) * (float(g) / n)
        a._accum(s)
        b._accum(-s)

    out._backward = bwd
    return out


def l2_norm(a: Tensor) -> Tensor:
    """Euclidean norm of the whole tensor (scalar), smooth at ~0 via floor."""
    nrm = float(np.sqrt(np.sum(a.data**2)))
    out = Tensor(nrm, _parents=(a,), op="l2_norm")
    out._backward = lambda g: a._accum(float(g) * a.data / max(nrm, CLAMP))
    return out


def sumsq(a: Tensor) -> Tensor:
    out = Tensor(np.sum(a.data**2), _parents=(a,), op="sumsq")
    out._backward = lambda g: a._accum(2.0 * float(g) * a.data)
    return out


def kld(p: Tensor, p_hat: Tensor) -> Tensor:
    """KL(p || p_hat) = sum p * (log p - log p_hat), p_hat clamped to >= 1e-12.

    Terms where p == 0 contribute 0. Gradient flows into both arguments;
    pass the target as a constant Tensor to keep it fixed.
    """
    p, p_hat = _lift(p), _lift(p_hat)
    if p.shape != p_hat.shape:
        raise ShapeError("kld", p.shape, p_hat.shape)
    ph = np.maximum(p_hat.data, CLAMP)
    mask = p.data > 0.0
    terms = np.where(mask, p.data * (np.log(np.maximum(p.data, CLAMP)) - np.log(ph)), 0.0)
    out = Tensor(terms.sum(), _parents=(p, p_hat), op="kld")

    def bwd(g):
        gf = float(g)
        p._accum(gf * np.where(mask, np.log(np.maximum(p.data, CLAMP)) - np.log(ph) + 1.0, 0.0))
        p_hat._accum(gf * np.where(mask & (p_hat.data >= CLAMP), -p.data / ph, 0.0))

    out._backward = bwd
    return out


# -- optimizer ----------------------------------------------------------------


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update. Every parameter must carry a gradient."""
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        g = p.grad
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1**t)
        vhat = state.v[name] / (1 - state.beta2**t)
        p.data = _check_finite("adam_step", p.data - state.lr * mhat / (np.sqrt(vhat) + state.eps))


# -- gradient checking --------------------------------------------------------


def gradient_check(loss_fn, leaf: Tensor, eps: float = 1e-5,
                   max_coords: int = 25, rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn rebuilds the graph from current leaf data and returns the scalar
    loss Tensor. At most max_coords coordinates of the leaf are probed.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"gradient_check: eps {eps} outside (0, 1e-2]")
    leaf.zero_grad()
    loss = loss_fn()
    loss.backward()
    if leaf.grad is None:
        raise ValueError(f"gradient_check: {leaf!r} received no gradient; "
                         "only trainable leaves and nodes that depend on one get .grad")
    analytic = np.array(leaf.grad, copy=True)
    flat = leaf.data.reshape(-1)
    n = flat.size
    if rng is None or n <= max_coords:
        idx = np.arange(min(n, max_coords))
    else:
        idx = rng.choice(n, size=max_coords, replace=False)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(loss_fn().data)
        flat[i] = orig - eps
        lo = float(loss_fn().data)
        flat[i] = orig
        cd = (hi - lo) / (2 * eps)
        an = analytic.reshape(-1)[i]
        worst = max(worst, abs(an - cd) / (abs(an) + abs(cd) + 1e-12))
    return worst
