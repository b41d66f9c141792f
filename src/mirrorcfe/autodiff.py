"""Dense-tensor arithmetic with reverse-mode automatic differentiation.

Everything runs on float64 numpy arrays. The graph is define-by-run: each op
returns a new Tensor holding its parents and a closure that accumulates
gradients into them. Only trainable leaves and the nodes that depend on one
receive a gradient: backward() leaves `.grad` of every other node None and
computes no gradient for it, so a frozen weight or a constant input costs
nothing in the backward pass. Non-finite values are treated as an error state
and raised immediately rather than propagated.

The forward math of the ops that networks are built from is one array kernel
per op (`_conv2d`, `_relu`, ...). A Tensor op runs its kernel and records the
node; `arrays` runs the same kernels on plain float64 arrays and records
nothing, for inference. `ops(x)` picks one of the two by the type of x, so one
network definition serves training and inference alike.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

CLAMP = 1e-12
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999  # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8  # added to Adam's root second moment
GRADCHECK_STEP = 1e-5  # central-difference half step of gradient_check
GRADCHECK_COORDS = 25  # leaf coordinates gradient_check probes


class ShapeError(ValueError):
    """Raised when an op receives inputs of incompatible shapes; its args are (op, *shapes)."""

    def __str__(self) -> str:
        op, *shapes = self.args
        return f"{op}: incompatible shapes {[tuple(s) for s in shapes]}"


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


def _check_elementwise(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape and a.ndim and b.ndim:
        raise ShapeError(op, a.shape, b.shape)


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _check_elementwise("add", a, b)
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _check_elementwise("mul", a, b)
    return a * b


def add(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(_add(a.data, b.data), _parents=(a, b), op="add")

    def bwd(g):
        a._accum(g if a.data.ndim else np.sum(g))
        b._accum(g if b.data.ndim else np.sum(g))

    out._backward = bwd
    return out


def sub(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise("sub", a.data, b.data)
    out = Tensor(a.data - b.data, _parents=(a, b), op="sub")

    def bwd(g):
        a._accum(g if a.data.ndim else np.sum(g))
        b._accum(-g if b.data.ndim else -np.sum(g))

    out._backward = bwd
    return out


def mul(a: Tensor, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(_mul(a.data, b.data), _parents=(a, b), op="mul")

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


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    out = Tensor(_relu(a.data), _parents=(a,), op="relu")
    out._backward = lambda g: a._accum(g * (a.data > 0.0))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
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


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError("linear", x.shape, w.shape, b.shape)
    return x @ w + b


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b with x: (B, N), w: (N, M), b: (M,)."""
    out = Tensor(_linear(x.data, w.data, b.data), _parents=(x, w, b), op="linear")

    def bwd(g):
        if x.needs_grad:
            x._accum(g @ w.data.T)
        if w.needs_grad:
            w._accum(x.data.T @ g)
        b._accum(g.sum(axis=0))

    out._backward = bwd
    return out


# -- convolutional stack, all on (B, C, H, W) ---------------------------------

# conv2d's forward from this many input channels on: one GEMM per kernel tap, summed. Below it, one
# GEMM on a channel-last patch matrix. On this pipeline's 3x3 convs (one BLAS thread, 2-vCPU VM) the
# per-tap GEMMs took 2.3-2.5x the patch matrix's time at C = 1, 0.88-1.16x at C = 8, 1.16-1.61x at
# C = 16 and 1.2x at C = 24, but 0.62x on the generator's C = 32 convs and 0.81-1.05x at C = 40.
SHIFTED_GEMM_MIN_CHANNELS = 32


def _pad_channel_last(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(B, C, H, W) -> zero-padded channel-last (B, H + 2 ph, W + 2 pw, C)."""
    b, c, h, w = x.shape
    xp = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    xp[:, ph : ph + h, pw : pw + w] = x.transpose(0, 2, 3, 1)
    return xp


def _tap(xp: np.ndarray, i: int, j: int, h: int, w: int) -> np.ndarray:
    """The (B*H*W, C) input rows that kernel tap (i, j) reads from a padded channel-last buffer."""
    return xp[:, i : i + h, j : j + w].reshape(-1, xp.shape[-1])


def _conv_input_grad(gy: np.ndarray, taps: np.ndarray, shape) -> np.ndarray:
    """Input gradient of a 'same' conv: (B*H*W, K) output gradients -> (B, C, H, W).

    taps is the weight as (kh, kw, C, K). Each tap's GEMM gy @ taps[i, j].T is
    added, in (i, j) order, into a zero-padded channel-last buffer at the
    window that tap read in the forward pass.
    """
    kh, kw, c, _ = taps.shape
    b, _, h, w = shape
    ph, pw = kh // 2, kw // 2
    gxp = np.zeros((b, h + 2 * ph, w + 2 * pw, c))
    for i in range(kh):
        for j in range(kw):
            gxp[:, i : i + h, j : j + w] += (gy @ taps[i, j].T).reshape(b, h, w, c)
    return gxp[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)


def _offsets(kh: int, kw: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(kh) for j in range(kw)]


def _conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conv2d's forward: the (B, K, H, W) output, a channel-last view, and the padded
    channel-last input that the backward pass reads again."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    if bias.shape != (w.shape[0],):
        raise ShapeError("conv2d.bias", bias.shape, w.shape)
    k, c, kh, kw = w.shape
    b, _, h, wd = x.shape
    xp = _pad_channel_last(x, kh // 2, kw // 2)
    taps = w.transpose(2, 3, 1, 0)  # (kh, kw, C, K), a view
    if c >= SHIFTED_GEMM_MIN_CHANNELS:
        y = _tap(xp, 0, 0, h, wd) @ taps[0, 0]
        for i, j in _offsets(kh, kw)[1:]:
            y += _tap(xp, i, j, h, wd) @ taps[i, j]
    else:
        cols = np.concatenate([xp[:, i : i + h, j : j + wd] for i, j in _offsets(kh, kw)], axis=-1)
        y = cols.reshape(-1, kh * kw * c) @ taps.reshape(-1, k)
    y += bias
    return y.reshape(b, h, wd, k).transpose(0, 3, 1, 2), xp


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 'same' convolution. x: (B,C,H,W), w: (K,C,kh,kw), bias: (K,).

    The input is copied once into a zero-padded channel-last buffer and the
    weight viewed as taps (kh, kw, C, K). From SHIFTED_GEMM_MIN_CHANNELS input
    channels on, the output is the sum over taps of that tap's shifted window
    times taps[i, j]; with fewer channels it is one GEMM on the channel-last
    (kh, kw, C) patch matrix. The weight gradient is one GEMM per tap on the
    same windows, the input gradient `_conv_input_grad`.
    """
    y, xp = _conv2d(x.data, w.data, bias.data)
    out = Tensor(y, _parents=(x, w, bias), op="conv2d")
    k, c, kh, kw = w.shape
    _, _, h, wd = x.shape
    taps = w.data.transpose(2, 3, 1, 0)

    def bwd(g):
        gy = g.transpose(0, 2, 3, 1).reshape(-1, k)  # (B*H*W, K)
        if w.needs_grad:
            gw = np.empty((kh, kw, c, k))
            for i, j in _offsets(kh, kw):
                gw[i, j] = _tap(xp, i, j, h, wd).T @ gy
            w._accum(gw.transpose(3, 2, 0, 1))
        if bias.needs_grad:
            bias._accum(gy.sum(axis=0))
        if x.needs_grad:
            x._accum(_conv_input_grad(gy, taps, x.data.shape))

    out._backward = bwd
    return out


def _avgpool2(x: np.ndarray) -> np.ndarray:
    """Each 2x2 window as (((x00 + x01) + x10) + x11) / 4, added from four strided views.

    That is the order numpy's mean(axis=(3, 5)) over the (B, C, H/2, 2, W/2, 2)
    view of a channel-last input sums in, and every pool in this pipeline
    receives a channel-last input: conv2d returns a channel-last view and relu
    keeps its layout. On a C-contiguous input that mean pairs the window as
    (x00 + x01) + (x10 + x11), which can differ from this in the last bit.
    """
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError("avgpool2", x.shape)
    return (((x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]) + x[:, :, 1::2, 0::2]) + x[:, :, 1::2, 1::2]) / 4.0


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling, stride 2. Spatial extents must be even."""
    out = Tensor(_avgpool2(x.data), _parents=(x,), op="avgpool2")

    def bwd(g):
        x._accum(np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    out._backward = bwd
    return out


def _upsample2(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError("upsample2", x.shape)
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor x2 upsampling on (B,C,H,W)."""
    out = Tensor(_upsample2(x.data), _parents=(x,), op="upsample2")

    def bwd(g):
        b, c, h, w = x.shape
        x._accum(g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)))

    out._backward = bwd
    return out


def _gap(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError("gap", x.shape)
    return x.mean(axis=(2, 3))


def gap(x: Tensor) -> Tensor:
    """Global average pooling (B,C,H,W) -> (B,C)."""
    out = Tensor(_gap(x.data), _parents=(x,), op="gap")
    h, w = x.shape[2:]

    def bwd(g):
        x._accum(np.broadcast_to(g[:, :, None, None], x.data.shape) / (h * w))

    out._backward = bwd
    return out


def _concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError("concat_channels", a.shape, b.shape)
    return np.concatenate([a, b], axis=1)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    ca = a.shape[1]
    out = Tensor(_concat_channels(a.data, b.data), _parents=(a, b), op="concat_channels")

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


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis."""
    p = _softmax(a.data)
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


# -- tape-free inference ------------------------------------------------------


def _checked(op: str, kernel):
    def run(*args):
        return _check_finite(op, kernel(*args))

    return run


# The network ops on plain float64 arrays: each runs the Tensor op's kernel and checks its output once,
# under the op's name, and builds no node. `constant` takes an array as it is.
arrays = SimpleNamespace(
    constant=_as_array,
    add=_checked("add", _add),
    mul=_checked("mul", _mul),
    relu=_checked("relu", _relu),
    sigmoid=_checked("sigmoid", _sigmoid),
    linear=_checked("linear", _linear),
    conv2d=_checked("conv2d", lambda x, w, bias: _conv2d(x, w, bias)[0]),
    avgpool2=_checked("avgpool2", _avgpool2),
    upsample2=_checked("upsample2", _upsample2),
    gap=_checked("gap", _gap),
    concat_channels=_checked("concat_channels", _concat_channels),
    softmax=_checked("softmax", _softmax),
)


def ops(x):
    """The ops to run a network on `x` with: this module's Tensor ops for a Tensor, which build the
    tape, or `arrays` for an ndarray, which build none. Both compute the same values."""
    return sys.modules[__name__] if isinstance(x, Tensor) else arrays


def value(x) -> np.ndarray:
    """The array of a Tensor, or an array itself."""
    return x.data if isinstance(x, Tensor) else x


# -- optimizer ----------------------------------------------------------------


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor], lr: float = 2e-4):
        self.lr = lr
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
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[name] / (1 - ADAM_BETA1**t)
        vhat = state.v[name] / (1 - ADAM_BETA2**t)
        p.data = _check_finite("adam_step", p.data - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS))


# -- gradient checking --------------------------------------------------------


def gradient_check(loss_fn, leaf: Tensor, rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn rebuilds the graph from current leaf data and returns the scalar
    loss Tensor. At most GRADCHECK_COORDS coordinates of the leaf are probed.
    """
    leaf.zero_grad()
    loss = loss_fn()
    loss.backward()
    if leaf.grad is None:
        raise ValueError(f"gradient_check: {leaf!r} received no gradient; "
                         "only trainable leaves and nodes that depend on one get .grad")
    analytic = np.array(leaf.grad, copy=True)
    flat = leaf.data.reshape(-1)
    n = flat.size
    if rng is None or n <= GRADCHECK_COORDS:
        idx = np.arange(min(n, GRADCHECK_COORDS))
    else:
        idx = rng.choice(n, size=GRADCHECK_COORDS, replace=False)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + GRADCHECK_STEP
        hi = float(loss_fn().data)
        flat[i] = orig - GRADCHECK_STEP
        lo = float(loss_fn().data)
        flat[i] = orig
        cd = (hi - lo) / (2 * GRADCHECK_STEP)
        an = analytic.reshape(-1)[i]
        worst = max(worst, abs(an - cd) / (abs(an) + abs(cd) + 1e-12))
    return worst
