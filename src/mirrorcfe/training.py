"""Generator/discriminator training against the frozen classifier.

Each step samples a batch of KFE latents (plus a fraction of pure
reconstruction samples), decodes them to images, and alternates one
discriminator update with one generator update. The classifier only ever
appears as constant graph leaves; a checksum guards that it never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import cam as camlib
from . import geometry, losses
from .checkpoint import check_tensors, load_checkpoint, save_checkpoint
from .classifier import (CHANNELS, ClassifierParams, check_learning_rate, checkpoint_checksum, classify, featurize,
                         forward_graph, he_normal)
from .dataset import LabeledDataset

# Feature maps per generator pass in generate_images. Measured on a 2-vCPU VM with a 2 MB L2 cache per
# core, in ms per map for chunks of 1, 2, 3, 4 and 8: plain 0.62, 0.50, 0.47, 0.51, 0.66; SSC 1.20, 0.96,
# 0.88, 0.89, 0.98. Past a few maps a chunk's intermediates outgrow the cache.
DECODE_CHUNK = 3
WIDTH = 32  # channels of every hidden generator layer


class ClassifierMutatedError(RuntimeError):
    """The frozen classifier's weights changed during generator training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    lr: float = 2e-4
    w_cls: float = 1.0
    w_adv: float = 1.0
    w_rec: float = 1.0
    w_fea: float = 1.0
    w_tri: float = 1.0
    alpha: float = 0.2
    k_rule: str = "uniform"  # or "endpoints-grid"
    recon_prob: float = 0.25
    rho_lower: float = 0.2
    rho_upper: float = 0.8
    ssc: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        for name in ("w_cls", "w_adv", "w_rec", "w_fea", "w_tri"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.k_rule not in ("uniform", "endpoints-grid"):
            raise ValueError(f"unknown k_rule {self.k_rule!r}")
        check_learning_rate(self.lr)
        if not 0 <= self.recon_prob <= 1:
            raise ValueError(f"recon_prob must lie in [0, 1], got {self.recon_prob}")
        camlib.check_rho_bounds(self.rho_lower, self.rho_upper)


@dataclass
class GeneratorParams:
    tensors: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)

    @property
    def ssc(self) -> bool:
        """An SSC generator is one with skip-fusion weights."""
        return "g_fuse_w" in self.tensors


@dataclass
class DiscriminatorParams:
    tensors: dict[str, np.ndarray]


def generator_shapes(clf_cfg, ssc: bool) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of a generator that decodes `clf_cfg`'s features, in
    initialization order: it reads the latent channels, writes CHANNELS, and an SSC
    generator's skip reads the first stage."""
    latent, skip = clf_cfg.latent_dim, clf_cfg.stage_channels[0]
    shapes = {
        "g_conv1_w": (WIDTH, latent, 3, 3), "g_conv1_b": (WIDTH,),
        "g_conv2_w": (WIDTH, WIDTH, 3, 3), "g_conv2_b": (WIDTH,),
        "g_out_w": (CHANNELS, WIDTH, 3, 3), "g_out_b": (CHANNELS,),
    }
    if ssc:
        shapes.update({
            "g_fuse_w": (WIDTH, WIDTH + skip, 3, 3), "g_fuse_b": (WIDTH,),
            "spe0_bottleneck_w": (latent, skip, 1, 1), "spe0_bottleneck_b": (latent,),
            "spe0_decoder_w": (skip, 2 * latent, 1, 1), "spe0_decoder_b": (skip,),
        })
    return shapes


def init_generator(clf_cfg, seed: int, ssc: bool) -> GeneratorParams:
    """He-normal weights and zero biases in the layout of `generator_shapes`."""
    rng = np.random.default_rng(seed)
    tensors = {name: np.zeros(shape) if name.endswith("_b") else he_normal(rng, shape)
               for name, shape in generator_shapes(clf_cfg, ssc).items()}
    return GeneratorParams(tensors=tensors)


def init_discriminator(clf_cfg, seed: int) -> DiscriminatorParams:
    rng = np.random.default_rng(seed + 1)
    return DiscriminatorParams({
        "d_conv1_w": he_normal(rng, (8, CHANNELS, 3, 3)), "d_conv1_b": np.zeros(8),
        "d_conv2_w": he_normal(rng, (16, 8, 3, 3)), "d_conv2_b": np.zeros(16),
        "d_head_w": rng.normal(0.0, 0.25, (16, 1)), "d_head_b": np.zeros(1),
    })


def ssc_skip(gp: dict, config: dict, clf: ClassifierParams, f_s_first: np.ndarray,
             f_input, sources, targets, ks):
    """CSP-mixed skip features of B elements, for training and inference alike.

    Element i mixes its source image's first-stage features f_s_first[i] with
    their SPE edit under the CAM prior mask of (sources[i], targets[i], ks[i]),
    taken on its generator input f_input[i] and thresholded within the
    generator's own bounds config["rho_lower"], config["rho_upper"]. A Tensor
    f_input builds the tape, an ndarray runs tape-free (`ad.ops`).
    """
    f_s = ad.ops(f_input).constant(f_s_first)
    u = camlib.spe_transform(f_s, f_input, gp)
    masks = []
    for f_k, s, t, k in zip(ad.value(f_input), sources, targets, ks):
        cams = camlib.cam(clf.head_w, f_k)
        thr = camlib.rho(k, config["rho_lower"], config["rho_upper"])
        pm = camlib.prior_mask(cams.normalized[s], cams.normalized[t], thr, k, {0: f_s_first.shape[2:]})
        masks.append(pm.per_layer[0])
    return camlib.csp_mix(f_s, u, np.stack(masks))


def generator_forward(gp: dict, config: dict, clf: ClassifierParams, f_s_first: np.ndarray,
                      f_input, sources, targets, ks):
    """Decode (B, C_l, H_l, W_l) features to (B, C, H, W) images in (0, 1).

    An SSC generator (one with `g_fuse_w`) fuses at its first layer the
    `ssc_skip` of this context; a plain generator ignores the context. Tensor
    f_input and weights build the tape; ndarrays run the same kernels without
    one and return an ndarray.
    """
    op = ad.ops(f_input)
    h = op.relu(op.conv2d(op.upsample2(f_input), gp["g_conv1_w"], gp["g_conv1_b"]))
    if "g_fuse_w" in gp:
        skip = ssc_skip(gp, config, clf, f_s_first, f_input, sources, targets, ks)
        h = op.relu(op.conv2d(op.concat_channels(h, skip), gp["g_fuse_w"], gp["g_fuse_b"]))
    h = op.relu(op.conv2d(op.upsample2(h), gp["g_conv2_w"], gp["g_conv2_b"]))
    return op.sigmoid(op.conv2d(h, gp["g_out_w"], gp["g_out_b"]))


def discriminator_forward(dp: dict[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
    h = ad.avgpool2(ad.relu(ad.conv2d(x, dp["d_conv1_w"], dp["d_conv1_b"])))
    h = ad.avgpool2(ad.relu(ad.conv2d(h, dp["d_conv2_w"], dp["d_conv2_b"])))
    return ad.sigmoid(ad.linear(ad.gap(h), dp["d_head_w"], dp["d_head_b"]))


# -- batch sampling -----------------------------------------------------------


@dataclass
class BatchElement:
    x_s: np.ndarray
    source: int  # predicted class of x_s
    target: int  # == source for recon elements
    k: float | None  # None for a reconstruction element
    z_s: np.ndarray
    z_k: np.ndarray
    f_input: np.ndarray  # (C_l, H_l, W_l) fed to the generator
    f_s_stack: list[np.ndarray]
    p_intended: np.ndarray
    x_ref: np.ndarray | None = None
    z_ref: np.ndarray | None = None


def _draw_k(rule: str, rng: np.random.Generator) -> float:
    if rule == "uniform":
        return float(rng.uniform(0.0, 1.0))
    return float(rng.choice(np.linspace(0.0, 1.0, 11)))


def sample_kfe_batch(dataset: LabeledDataset, clf: ClassifierParams, stacks: list,
                     batch: int, rng: np.random.Generator, cfg: TrainConfig) -> list[BatchElement]:
    """Sample one training batch.

    `stacks` caches featurize() outputs for every dataset image. Each element
    is a KFE sample (random source image, random target class different from
    the predicted class, k from the configured rule) or, with probability
    recon_prob, a pure reconstruction sample of a real image.
    """
    labels = np.asarray(dataset.labels)
    classes = sorted(set(dataset.labels))
    if len(classes) < 2:
        raise ValueError("need at least 2 classes to sample KFE batches")
    pools = {c: np.flatnonzero(labels == c) for c in classes}
    elements = []
    for _ in range(batch):
        i = int(rng.integers(len(dataset)))
        stack = stacks[i]
        s_pred = int(np.argmax(stack.probs))
        if rng.uniform() < cfg.recon_prob:
            elements.append(BatchElement(
                x_s=dataset.images[i], source=s_pred, target=s_pred, k=None, z_s=stack.z, z_k=stack.z,
                f_input=stack.f_last, f_s_stack=stack.features, p_intended=stack.probs))
            continue
        others = [c for c in classes if c != s_pred]
        t = int(others[rng.integers(len(others))])
        k = _draw_k(cfg.k_rule, rng)
        mirror = geometry.make_mirror(clf.head_w, clf.head_b, s_pred, t)
        z_k = geometry.position(stack.z, mirror, k)
        f_k = geometry.kfe_feature(stack.f_last, stack.z, k, mirror)
        _, p_intended = classify(clf, z_k)
        if k == 0.0:
            # z_k == z_s makes the latent ratio degenerate unless the
            # reference is the source image itself
            x_ref, z_ref = dataset.images[i], stack.z
        else:
            ref_class = t if k >= 0.5 else s_pred
            j = int(pools[ref_class][rng.integers(len(pools[ref_class]))])
            x_ref, z_ref = dataset.images[j], stacks[j].z
        elements.append(BatchElement(
            x_s=dataset.images[i], source=s_pred, target=t, k=k,
            z_s=stack.z, z_k=z_k, f_input=f_k, f_s_stack=stack.features,
            p_intended=p_intended, x_ref=x_ref, z_ref=z_ref))
    return elements


# -- training loop ------------------------------------------------------------


def train_generator(clf: ClassifierParams, dataset: LabeledDataset, cfg: TrainConfig,
                    log=None) -> tuple[GeneratorParams, DiscriminatorParams, list[dict]]:
    """Alternating D/G optimization per the loss suite; classifier stays frozen.

    Returns generator/discriminator parameters and a per-step loss history
    with keys epoch, step, cls, adv_g, adv_d, rec, fea, tri, total.
    """
    checksum_before = checkpoint_checksum(clf)
    gen0 = init_generator(clf.config, cfg.seed, cfg.ssc)
    if cfg.ssc:  # the skip's CAM threshold bounds are saved with the weights and served as trained
        gen0.config.update(rho_lower=cfg.rho_lower, rho_upper=cfg.rho_upper)
    dis0 = init_discriminator(clf.config, cfg.seed)
    gp = {k: ad.Tensor(v.copy(), trainable=True) for k, v in gen0.tensors.items()}
    dp = {k: ad.Tensor(v.copy(), trainable=True) for k, v in dis0.tensors.items()}
    cp = {k: ad.Tensor(v, trainable=False) for k, v in clf.tensors.items()}
    g_state = ad.AdamState(gp, lr=cfg.lr)
    d_state = ad.AdamState(dp, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    tri_cfg = losses.TriConfig(alpha=cfg.alpha)
    stacks = [featurize(clf, img) for img in dataset.images]
    history: list[dict] = []
    n = len(dataset)
    steps_per_epoch = max(1, n // cfg.batch_size)

    for epoch in range(cfg.epochs):
        for step in range(steps_per_epoch):
            elements = sample_kfe_batch(dataset, clf, stacks, cfg.batch_size, rng, cfg)
            f_input = ad.constant(np.stack([e.f_input for e in elements]))
            x_gen = generator_forward(gp, gen0.config, clf, np.stack([e.f_s_stack[0] for e in elements]), f_input,
                                      [e.source for e in elements], [e.target for e in elements],
                                      [0.0 if e.k is None else e.k for e in elements])

            # discriminator step on detached fakes
            real_idx = rng.integers(n, size=cfg.batch_size)
            x_real = ad.constant(np.stack([dataset.images[int(i)] for i in real_idx]))
            d_real = discriminator_forward(dp, x_real)
            d_fake_detached = discriminator_forward(dp, ad.constant(x_gen.data))
            _, d_term, _ = losses.loss_adv(d_real, d_fake_detached)
            for t in dp.values():
                t.zero_grad()
            d_term.backward()
            ad.adam_step(dp, d_state)

            # generator step; the discriminator is a constant here, so it receives no gradient
            d_fake = discriminator_forward({k: ad.constant(t.data) for k, t in dp.items()}, x_gen)
            g_term, _, clamped = losses.loss_adv(ad.constant(d_real.data), d_fake)
            clf_nodes = forward_graph(cp, clf.config, x_gen)
            l_cls = losses.loss_cls(np.stack([e.p_intended for e in elements]), clf_nodes["probs"])

            rec_terms, fea_terms, tri_terms = [], [], []
            for i, e in enumerate(elements):
                x_i = ad.slice_rows(x_gen, i, i + 1)
                if e.k is None:
                    rec_terms.append(losses.loss_rec(e.x_s[None], x_i))
                else:
                    z_hat = ad.slice_rows(clf_nodes["z"], i, i + 1)
                    fea_terms.append(losses.loss_fea(e.z_k[None], z_hat))
                    if cfg.w_tri > 0:
                        tri_terms.append(losses.loss_tri(
                            e.x_s[None], x_i, e.x_ref[None], e.z_s, e.z_k, e.z_ref, e.k, tri_cfg))

            def _mean(terms):
                if not terms:
                    return ad.constant(0.0)
                acc = terms[0]
                for t in terms[1:]:
                    acc = ad.add(acc, t)
                return ad.scale(acc, 1.0 / len(terms))

            l_rec, l_fea, l_tri = _mean(rec_terms), _mean(fea_terms), _mean(tri_terms)
            total = ad.scale(l_cls, cfg.w_cls)
            total = ad.add(total, ad.scale(g_term, cfg.w_adv))
            total = ad.add(total, ad.scale(l_rec, cfg.w_rec))
            total = ad.add(total, ad.scale(l_fea, cfg.w_fea))
            total = ad.add(total, ad.scale(l_tri, cfg.w_tri))

            for t in gp.values():
                t.zero_grad()
            total.backward()
            ad.adam_step(gp, g_state)

            history.append({
                "epoch": epoch, "step": step,
                "cls": float(l_cls.data), "adv_g": float(g_term.data),
                "adv_d": float(d_term.data), "rec": float(l_rec.data),
                "fea": float(l_fea.data), "tri": float(l_tri.data),
                "total": float(total.data), "clamped": clamped,
            })
        if log is not None:
            log(history[-1])

    if checkpoint_checksum(clf) != checksum_before:
        raise ClassifierMutatedError("classifier weights changed during generator training")
    return (GeneratorParams({k: t.data.copy() for k, t in gp.items()}, config=gen0.config),
            DiscriminatorParams({k: t.data.copy() for k, t in dp.items()}), history)


# -- inference + checkpoint plumbing ------------------------------------------


def generate_images(gen: GeneratorParams, clf: ClassifierParams, f_inputs, source_stacks,
                    sources, targets, ks) -> list[np.ndarray]:
    """Decode (C_l, H_l, W_l) feature maps to (C, H, W) images, DECODE_CHUNK per generator pass.

    Row i's SSC context is its source image's FeatureStack source_stacks[i],
    its class pair and its step factor ks[i]; a plain generator ignores it.
    A chunk decodes tape-free, bit-equal to its rows one at a time.
    """
    images = []
    for start in range(0, len(f_inputs), DECODE_CHUNK):
        rows = slice(start, start + DECODE_CHUNK)
        x = generator_forward(gen.tensors, gen.config, clf, np.stack([st.features[0] for st in source_stacks[rows]]),
                              np.stack(f_inputs[rows]), sources[rows], targets[rows], ks[rows])
        images.extend(x)
    return images


def generate_image(gen: GeneratorParams, clf: ClassifierParams, f_input: np.ndarray,
                   source_stack, source: int, target: int, k: float) -> np.ndarray:
    """`generate_images` of one feature map with its SSC context."""
    return generate_images(gen, clf, [f_input], [source_stack], [source], [target], [k])[0]


def save_generator(path, gen: GeneratorParams) -> None:
    save_checkpoint(path, "generator", gen.tensors, {"ssc": gen.ssc, **gen.config})


def load_generator(path, clf_config) -> GeneratorParams:
    """A generator checkpoint, its tensors checked against the `generator_shapes` of `clf_config`: a
    generator built for another classifier fails here with one ValueError."""
    role, tensors, cfg = load_checkpoint(path)
    if role != "generator":
        raise ValueError(f"{path}: expected a generator checkpoint, got role {role!r}")
    ssc = bool(cfg.pop("ssc", False))
    gen = GeneratorParams(tensors, config=cfg)
    if ssc != gen.ssc:
        raise ValueError(f"{path}: manifest says ssc={ssc}, but the tensors are "
                         f"those of {'an SSC' if gen.ssc else 'a plain'} generator")
    if ssc:
        if not {"rho_lower", "rho_upper"} <= set(cfg):
            raise ValueError(f"{path}: SSC generator checkpoint lacks its rho_lower/rho_upper CAM bounds")
        bounds = cfg["rho_lower"], cfg["rho_upper"]
        if any(type(v) not in (int, float) for v in bounds):
            raise ValueError(f"{path}: SSC generator CAM bounds {bounds!r} are not numbers")
        try:
            camlib.check_rho_bounds(*bounds)
        except ValueError as err:
            raise ValueError(f"{path}: SSC generator CAM bounds: {err}") from None
    check_tensors(path, tensors, generator_shapes(clf_config, ssc))
    return gen


def save_discriminator(path, dis: DiscriminatorParams) -> None:
    save_checkpoint(path, "discriminator", dis.tensors)
