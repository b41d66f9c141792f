"""The frozen classifier: a small CNN with GAP and a linear head.

Two conv stages (3x3, ReLU, 2x2 average pooling) followed by global average
pooling and an affine head. The same graph code backs training and inference,
so featurize reproduces the training-time features bit-exactly: on Tensors it
builds the tape, on the plain parameter arrays it runs the same kernels
without one.
Once trained, parameters live in plain numpy arrays and nothing outside
train_classifier writes to them.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import workers
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint
from .dataset import LabeledDataset

FEATURIZE_CHUNK = 64  # images per classifier pass in featurize_batch
ACCURACY_CHUNK = 128  # images per classifier pass in accuracy
CHANNELS = 1  # every image is a one-channel PGM
KERNEL = 3  # side of every conv kernel


@dataclass(frozen=True)
class ClassifierConfig:
    image_size: int = 16
    stage_channels: tuple[int, ...] = (8, 16)
    num_classes: int = 4

    def __post_init__(self):
        if not self.stage_channels:
            raise ValueError("stage_channels must name at least one stage")
        for name, value in [("image_size", self.image_size), ("num_classes", self.num_classes),
                            *(("stage_channels", c) for c in self.stage_channels)]:
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def latent_dim(self) -> int:
        return self.stage_channels[-1]


@dataclass
class ClassifierParams:
    config: ClassifierConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def head_w(self) -> np.ndarray:  # (N, |classes|)
        return self.tensors["head_w"]

    @property
    def head_b(self) -> np.ndarray:
        return self.tensors["head_b"]


@dataclass
class FeatureStack:
    features: list[np.ndarray]  # per-stage maps, last entry is f^l (C_l, H_l, W_l)
    z: np.ndarray  # (N,)
    logits: np.ndarray  # (|classes|,)
    probs: np.ndarray  # (|classes|,)

    @property
    def f_last(self) -> np.ndarray:
        return self.features[-1]


def tensor_shapes(config: ClassifierConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every classifier tensor, in initialization order."""
    shapes = {}
    c_in = CHANNELS
    for i, c_out in enumerate(config.stage_channels):
        shapes[f"conv{i}_w"] = (c_out, c_in, KERNEL, KERNEL)
        shapes[f"conv{i}_b"] = (c_out,)
        c_in = c_out
    shapes["head_w"] = (config.latent_dim, config.num_classes)
    shapes["head_b"] = (config.num_classes,)
    return shapes


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A weight of `shape` drawn with variance 2 / fan-in, the fan-in being prod(shape[1:])."""
    return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), shape)


def init_params(config: ClassifierConfig, seed: int) -> ClassifierParams:
    """He-normal conv weights, a head drawn with variance 1/latent_dim, zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        elif name == "head_w":
            tensors[name] = rng.normal(0.0, np.sqrt(1.0 / config.latent_dim), shape)
        else:
            tensors[name] = he_normal(rng, shape)
    return ClassifierParams(config, tensors)


def encode_graph(graph_params: dict, config: ClassifierConfig, x) -> dict:
    """The conv stages and GAP on a (B, C, H, W) batch: per-stage maps f{i}, f_last and z.

    Tensor x and parameters build the tape; ndarrays run the same kernels
    without one (`ad.ops`) and return ndarrays.
    """
    op = ad.ops(x)
    out = {}
    h = x
    for i in range(len(config.stage_channels)):
        h = op.relu(op.conv2d(h, graph_params[f"conv{i}_w"], graph_params[f"conv{i}_b"]))
        h = op.avgpool2(h)
        out[f"f{i}"] = h
    out["f_last"] = h
    out["z"] = op.gap(h)
    return out


def forward_graph(graph_params: dict, config: ClassifierConfig, x) -> dict:
    """Full forward on a (B, C, H, W) batch, Tensors or ndarrays as in `encode_graph`; returns every
    intermediate."""
    op = ad.ops(x)
    out = encode_graph(graph_params, config, x)
    out["logits"] = op.linear(out["z"], graph_params["head_w"], graph_params["head_b"])
    out["probs"] = op.softmax(out["logits"])
    return out


def check_images(config: ClassifierConfig, images) -> None:
    """Raise a ShapeError at the first image that is not (CHANNELS, image_size, image_size)."""
    shape = (CHANNELS, config.image_size, config.image_size)
    for image in images:
        if image.shape != shape:
            raise ad.ShapeError("featurize", image.shape, shape)


def featurize_batch(params: ClassifierParams, images) -> list[FeatureStack]:
    """Run (C, H, W) images through the frozen classifier, FEATURIZE_CHUNK per forward pass.

    The conv stages run tape-free on the whole chunk, which is bit-equal to
    one image at a time. The head runs per row through `head`: a batched
    `z @ W` (gemm) differs from the one-row product (gemv) in the last bits.
    """
    cfg = params.config
    check_images(cfg, images)
    stacks = []
    for start in range(0, len(images), FEATURIZE_CHUNK):
        nodes = encode_graph(params.tensors, cfg, np.stack(images[start : start + FEATURIZE_CHUNK]))
        maps = [nodes[f"f{i}"] for i in range(len(cfg.stage_channels))]
        for row, z in enumerate(nodes["z"]):
            logits, probs = head(params.head_w, params.head_b, z)
            stacks.append(FeatureStack(features=[m[row] for m in maps], z=z, logits=logits, probs=probs))
    return stacks


def featurize(params: ClassifierParams, image: np.ndarray) -> FeatureStack:
    """Run one (C, H, W) image through the frozen classifier."""
    return featurize_batch(params, [image])[0]


def head(W: np.ndarray, b: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear head on one latent (N,), or row-wise on a stack of them (M, N):
    logits = z W + b, probs = softmax(logits).

    A stack is one product (gemm), which can differ from its rows' one-row
    products (gemv) in the last bits.
    """
    logits = z @ W + b
    return logits, ad._softmax(logits)


def classify(params: ClassifierParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`head` with this classifier's weights, for a latent of its width."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (params.config.latent_dim,):
        raise ad.ShapeError("classify", z.shape, (params.config.latent_dim,))
    return head(params.head_w, params.head_b, z)


def accuracy(params: ClassifierParams, ds: LabeledDataset) -> float:
    """Share of `ds` whose argmax class is its label, by tape-free passes of ACCURACY_CHUNK images."""
    correct = 0
    for start in range(0, len(ds), ACCURACY_CHUNK):
        probs = forward_graph(params.tensors, params.config, np.stack(ds.images[start : start + ACCURACY_CHUNK]))["probs"]
        correct += int(np.sum(np.argmax(probs, axis=1) == np.asarray(ds.labels[start : start + ACCURACY_CHUNK])))
    return correct / len(ds)


def checkpoint_checksum(params: ClassifierParams) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()


def save_classifier(path, params: ClassifierParams) -> None:
    save_checkpoint(path, "classifier", params.tensors, asdict(params.config))


def load_classifier(path) -> ClassifierParams:
    role, tensors, cfg = load_checkpoint(path)
    if role != "classifier":
        raise ValueError(f"{path}: expected a classifier checkpoint, got role {role!r}")
    keys = sorted(f.name for f in fields(ClassifierConfig))
    if sorted(cfg) != keys:
        raise ValueError(f"{path}: classifier config keys {sorted(cfg)} are not {keys}")
    try:
        config = ClassifierConfig(**{**cfg, "stage_channels": tuple(cfg["stage_channels"])})
        expected = tensor_shapes(config)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed classifier config ({type(err).__name__}: {err})") from None
    check_tensors(path, tensors, expected)
    return ClassifierParams(config, tensors)


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 2e-4
    epochs: int = 160
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        check_learning_rate(self.lr)


def check_learning_rate(lr: float) -> None:
    """Reject a learning rate that cannot train: one that is not finite and positive."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")


def train_classifier(train_ds: LabeledDataset, test_ds: LabeledDataset | None,
                     hyper: TrainHyper, log=None) -> tuple[ClassifierParams, list[dict]]:
    """Train with Adam on one-hot KL divergence (== cross-entropy).

    The image size comes from the first train image and the class count from
    the distinct labels of both splits. Before the first step, every image
    must be (CHANNELS, image_size, image_size) and every label lie in
    [0, num_classes). Deterministic for a fixed hyper. Returns the frozen
    parameters and a per-epoch history of mean loss and train/test accuracy.
    With two epochs or more, one forked worker at idle priority
    (`workers.forked`) takes each epoch's accuracy pass while the next epoch
    trains; `log` gets each row once it is complete, in epoch order.
    """
    if len(train_ds) == 0:
        raise ValueError("train split is empty")
    splits = [train_ds] if test_ds is None else [train_ds, test_ds]
    config = ClassifierConfig(image_size=train_ds.images[0].shape[-1],
                              num_classes=len({label for ds in splits for label in ds.labels}))
    for ds in splits:
        check_images(config, ds.images)
        for label in ds.labels:
            if not 0 <= label < config.num_classes:
                raise ValueError(f"{ds.split} label {label} outside [0, {config.num_classes}): "
                                 "labels must be the class indices 0 to num_classes - 1")
    params = init_params(config, hyper.seed)
    gp = {k: ad.Tensor(v.copy(), trainable=True) for k, v in params.tensors.items()}
    state = ad.AdamState(gp, lr=hyper.lr)
    rng = np.random.default_rng(hyper.seed)
    n = len(train_ds)

    def accuracies(tensors: dict) -> dict:
        snapshot = ClassifierParams(config, tensors)
        accs = {"train_acc": accuracy(snapshot, train_ds)}
        if test_ds is not None and len(test_ds):
            accs["test_acc"] = accuracy(snapshot, test_ds)
        return accs

    history = []
    pending = deque()  # (row, future of its accuracies) of each epoch trained but not yet logged
    # one worker takes each epoch's accuracy pass while the next epoch trains; one epoch has nothing to overlap
    with workers.forked(accuracies, 1 if hyper.epochs > 1 else 0, background=True) as submit:
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                x = np.stack([train_ds.images[i] for i in idx])
                onehot = np.zeros((len(idx), config.num_classes))
                onehot[np.arange(len(idx)), [train_ds.labels[i] for i in idx]] = 1.0
                for t in gp.values():
                    t.zero_grad()
                nodes = forward_graph(gp, config, ad.constant(x))
                loss = ad.scale(ad.kld(ad.constant(onehot), nodes["probs"]), 1.0 / len(idx))
                loss.backward()
                ad.adam_step(gp, state)
                losses.append(float(loss.data))
            row = {"epoch": epoch, "loss": float(np.mean(losses))}
            pending.append((row, submit({k: t.data.copy() for k, t in gp.items()})))
            while pending and (pending[0][1].done() or epoch == hyper.epochs - 1):
                row, accs = pending.popleft()
                row.update(accs.result())
                history.append(row)
                if log is not None:
                    log(row)
    frozen = ClassifierParams(config, {k: t.data.copy() for k, t in gp.items()})
    for arr in frozen.tensors.values():
        arr.setflags(write=False)
    return frozen, history
