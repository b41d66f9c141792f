"""The frozen classifier: a small CNN with GAP and a linear head.

Two conv stages (3x3, ReLU, 2x2 average pooling) followed by global average
pooling and an affine head. The same graph code backs training and inference,
so featurize reproduces the training-time features bit-exactly.
Once trained, parameters live in plain numpy arrays and nothing outside
train_classifier writes to them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint
from .dataset import LabeledDataset

FEATURIZE_CHUNK = 64  # images per classifier pass in featurize_batch


@dataclass(frozen=True)
class ClassifierConfig:
    image_size: int = 16
    in_channels: int = 1
    stage_channels: tuple[int, ...] = (8, 16)
    num_classes: int = 4
    kernel: int = 3

    @property
    def latent_dim(self) -> int:
        return self.stage_channels[-1]

    @property
    def feature_size(self) -> int:
        return self.image_size // (2 ** len(self.stage_channels))


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
    c_in = config.in_channels
    for i, c_out in enumerate(config.stage_channels):
        shapes[f"conv{i}_w"] = (c_out, c_in, config.kernel, config.kernel)
        shapes[f"conv{i}_b"] = (c_out,)
        c_in = c_out
    shapes["head_w"] = (config.latent_dim, config.num_classes)
    shapes["head_b"] = (config.num_classes,)
    return shapes


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
            tensors[name] = rng.normal(0.0, np.sqrt(2.0 / (shape[1] * config.kernel**2)), shape)
    return ClassifierParams(config, tensors)


def _as_graph_params(params: ClassifierParams, trainable: bool) -> dict[str, ad.Tensor]:
    return {k: ad.Tensor(v.copy() if trainable else v, trainable=trainable) for k, v in params.tensors.items()}


def encode_graph(graph_params: dict[str, ad.Tensor], config: ClassifierConfig, x: ad.Tensor) -> dict[str, ad.Tensor]:
    """The conv stages and GAP on a (B, C, H, W) batch: per-stage maps f{i}, f_last and z."""
    out: dict[str, ad.Tensor] = {}
    h = x
    for i in range(len(config.stage_channels)):
        h = ad.relu(ad.conv2d(h, graph_params[f"conv{i}_w"], graph_params[f"conv{i}_b"]))
        h = ad.avgpool2(h)
        out[f"f{i}"] = h
    out["f_last"] = h
    out["z"] = ad.gap(h)
    return out


def forward_graph(graph_params: dict[str, ad.Tensor], config: ClassifierConfig, x: ad.Tensor) -> dict[str, ad.Tensor]:
    """Full forward on a (B, C, H, W) batch; returns every intermediate."""
    out = encode_graph(graph_params, config, x)
    out["logits"] = ad.linear(out["z"], graph_params["head_w"], graph_params["head_b"])
    out["probs"] = ad.softmax(out["logits"])
    return out


def featurize_batch(params: ClassifierParams, images) -> list[FeatureStack]:
    """Run (C, H, W) images through the frozen classifier, FEATURIZE_CHUNK per forward pass.

    The conv stages run on the whole chunk, which is bit-equal to one image at
    a time. The head runs per row through `head`: a batched `z @ W` (gemm)
    differs from the one-row product (gemv) in the last bits.
    """
    cfg = params.config
    shape = (cfg.in_channels, cfg.image_size, cfg.image_size)
    for image in images:
        if image.shape != shape:
            raise ad.ShapeError("featurize", image.shape, shape)
    gp = _as_graph_params(params, trainable=False)
    stacks = []
    for start in range(0, len(images), FEATURIZE_CHUNK):
        nodes = encode_graph(gp, cfg, ad.constant(np.stack(images[start : start + FEATURIZE_CHUNK])))
        maps = [nodes[f"f{i}"].data for i in range(len(cfg.stage_channels))]
        for row, z in enumerate(nodes["z"].data):
            logits, probs = head(params.head_w, params.head_b, z)
            stacks.append(FeatureStack(features=[m[row] for m in maps], z=z, logits=logits, probs=probs))
    return stacks


def featurize(params: ClassifierParams, image: np.ndarray) -> FeatureStack:
    """Run one (C, H, W) image through the frozen classifier."""
    return featurize_batch(params, [image])[0]


def head(W: np.ndarray, b: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear head on one latent: logits = W^T z + b, probs = softmax(logits)."""
    logits = (z[None] @ W + b)[0]
    e = np.exp(logits - logits.max())
    return logits, e / e.sum()


def classify(params: ClassifierParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`head` with this classifier's weights, for a latent of its width."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (params.config.latent_dim,):
        raise ad.ShapeError("classify", z.shape, (params.config.latent_dim,))
    return head(params.head_w, params.head_b, z)


def accuracy(params: ClassifierParams, ds: LabeledDataset, chunk: int = 128) -> float:
    gp = _as_graph_params(params, trainable=False)
    correct = 0
    for start in range(0, len(ds), chunk):
        x = np.stack(ds.images[start : start + chunk])
        probs = forward_graph(gp, params.config, ad.constant(x))["probs"].data
        correct += int(np.sum(np.argmax(probs, axis=1) == np.asarray(ds.labels[start : start + chunk])))
    return correct / len(ds)


def checkpoint_checksum(params: ClassifierParams) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()


def save_classifier(path, params: ClassifierParams) -> None:
    cfg = params.config
    save_checkpoint(path, "classifier", params.tensors, {
        "image_size": cfg.image_size,
        "in_channels": cfg.in_channels,
        "stage_channels": list(cfg.stage_channels),
        "num_classes": cfg.num_classes,
        "kernel": cfg.kernel,
    })


def load_classifier(path) -> ClassifierParams:
    role, tensors, cfg = load_checkpoint(path)
    if role != "classifier":
        raise ValueError(f"{path}: expected a classifier checkpoint, got role {role!r}")
    try:
        config = ClassifierConfig(
            image_size=cfg["image_size"],
            in_channels=cfg["in_channels"],
            stage_channels=tuple(cfg["stage_channels"]),
            num_classes=cfg["num_classes"],
            kernel=cfg["kernel"],
        )
        expected = tensor_shapes(config)
    except (KeyError, TypeError, IndexError) as err:
        raise ValueError(f"{path}: malformed classifier config ({type(err).__name__}: {err})") from None
    check_tensors(path, tensors, expected)
    return ClassifierParams(config, tensors)


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 2e-4
    epochs: int = 160
    batch_size: int = 16
    seed: int = 0


def train_classifier(train_ds: LabeledDataset, test_ds: LabeledDataset | None,
                     hyper: TrainHyper, config: ClassifierConfig | None = None,
                     log=None) -> tuple[ClassifierParams, list[dict]]:
    """Train with Adam on one-hot KL divergence (== cross-entropy).

    Deterministic for a fixed hyper/config. Returns the frozen parameters and
    a per-epoch history of mean loss and train/test accuracy.
    """
    if len(train_ds) == 0:
        raise ValueError("train split is empty")
    if config is None:
        config = ClassifierConfig(num_classes=len(set(train_ds.labels)))
    params = init_params(config, hyper.seed)
    gp = _as_graph_params(params, trainable=True)
    state = ad.AdamState(gp, lr=hyper.lr)
    rng = np.random.default_rng(hyper.seed)
    n = len(train_ds)
    history = []
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
            if not np.isfinite(loss.data):
                raise ad.NumericOverflowError(
                    f"classifier training diverged at epoch {epoch} step {start // hyper.batch_size}")
            loss.backward()
            ad.adam_step(gp, state)
            losses.append(float(loss.data))
        snapshot = ClassifierParams(config, {k: t.data.copy() for k, t in gp.items()})
        row = {"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": accuracy(snapshot, train_ds)}
        if test_ds is not None and len(test_ds):
            row["test_acc"] = accuracy(snapshot, test_ds)
        history.append(row)
        if log is not None:
            log(row)
    frozen = ClassifierParams(config, {k: t.data.copy() for k, t in gp.items()})
    for arr in frozen.tensors.values():
        arr.setflags(write=False)
    return frozen, history
