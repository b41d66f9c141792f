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
from .classifier import ClassifierParams, checkpoint_checksum, classify, forward_graph
from .dataset import LabeledDataset

# Feature maps per generator pass in generate_images. The widest conv's im2col patch matrix takes
# 590 KB per map: 2 maps stay within a 2 MB L2 cache, and at 8 a chunk decodes slower than one map at a time.
DECODE_CHUNK = 2


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; carries the last good parameter snapshot."""

    def __init__(self, message, generator, discriminator):
        super().__init__(message)
        self.generator = generator
        self.discriminator = discriminator


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
    w_prox: float = 0.0
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
        for name in ("w_cls", "w_adv", "w_rec", "w_fea", "w_tri", "w_prox"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.k_rule not in ("uniform", "endpoints-grid"):
            raise ValueError(f"unknown k_rule {self.k_rule!r}")


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


def _spe_shape(clf_cfg) -> camlib.SpeLayerShape:
    # tap the first conv stage
    return camlib.SpeLayerShape(
        channels=clf_cfg.stage_channels[0],
        size=clf_cfg.image_size // 2,
        latent_channels=clf_cfg.latent_dim,
        latent_size=clf_cfg.feature_size,
    )


def init_generator(clf_cfg, seed: int, ssc: bool, width: int = 32) -> GeneratorParams:
    rng = np.random.default_rng(seed)
    cl = clf_cfg.latent_dim
    mid = width

    def conv(c_out, c_in, k=3):
        return rng.normal(0.0, np.sqrt(2.0 / (c_in * k * k)), (c_out, c_in, k, k))

    tensors = {
        "g_conv1_w": conv(mid, cl), "g_conv1_b": np.zeros(mid),
        "g_conv2_w": conv(mid, mid), "g_conv2_b": np.zeros(mid),
        "g_out_w": conv(clf_cfg.in_channels, mid), "g_out_b": np.zeros(clf_cfg.in_channels),
    }
    if ssc:
        skip_c = clf_cfg.stage_channels[0]
        tensors["g_fuse_w"] = conv(mid, mid + skip_c)
        tensors["g_fuse_b"] = np.zeros(mid)
        tensors.update(camlib.init_spe_params(_spe_shape(clf_cfg), rng, "spe0"))
    return GeneratorParams(tensors=tensors, config={"in_channels": clf_cfg.in_channels, "width": mid})


def init_discriminator(clf_cfg, seed: int) -> DiscriminatorParams:
    rng = np.random.default_rng(seed + 1)

    def conv(c_out, c_in, k=3):
        return rng.normal(0.0, np.sqrt(2.0 / (c_in * k * k)), (c_out, c_in, k, k))

    return DiscriminatorParams({
        "d_conv1_w": conv(8, clf_cfg.in_channels), "d_conv1_b": np.zeros(8),
        "d_conv2_w": conv(16, 8), "d_conv2_b": np.zeros(16),
        "d_head_w": rng.normal(0.0, 0.25, (16, 1)), "d_head_b": np.zeros(1),
    })


def ssc_skip(gp: dict[str, ad.Tensor], config: dict, clf: ClassifierParams, f_s_first: np.ndarray,
             f_input: ad.Tensor, sources, targets, ks) -> ad.Tensor:
    """CSP-mixed skip features of B elements, for training and inference alike.

    Element i mixes its source image's first-stage features f_s_first[i] with
    their SPE edit under the CAM prior mask of (sources[i], targets[i], ks[i]),
    taken on its generator input f_input[i] and thresholded within the
    generator's own bounds config["rho_lower"], config["rho_upper"].
    """
    shape = _spe_shape(clf.config)
    f_s = ad.constant(f_s_first)
    u = camlib.spe_transform(f_s, f_input, gp, shape, "spe0")
    masks = []
    for f_k, s, t, k in zip(f_input.data, sources, targets, ks):
        cams = camlib.cam(clf.head_w, f_k)
        thr = camlib.rho(k, config["rho_lower"], config["rho_upper"])
        pm = camlib.prior_mask(cams.normalized[s], cams.normalized[t], thr, k, {0: (shape.size, shape.size)})
        masks.append(pm.per_layer[0])
    return camlib.csp_mix(f_s, u, np.stack(masks))


def generator_forward(gp: dict[str, ad.Tensor], config: dict, clf: ClassifierParams, f_s_first: np.ndarray,
                      f_input: ad.Tensor, sources, targets, ks) -> ad.Tensor:
    """Decode (B, C_l, H_l, W_l) features to (B, C, H, W) images in (0, 1).

    An SSC generator (one with `g_fuse_w`) fuses at its first layer the
    `ssc_skip` of this context; a plain generator ignores the context.
    """
    h = ad.relu(ad.conv2d(ad.upsample2(f_input), gp["g_conv1_w"], gp["g_conv1_b"]))
    if "g_fuse_w" in gp:
        skip = ssc_skip(gp, config, clf, f_s_first, f_input, sources, targets, ks)
        h = ad.relu(ad.conv2d(ad.concat_channels(h, skip), gp["g_fuse_w"], gp["g_fuse_b"]))
    h = ad.relu(ad.conv2d(ad.upsample2(h), gp["g_conv2_w"], gp["g_conv2_b"]))
    return ad.sigmoid(ad.conv2d(h, gp["g_out_w"], gp["g_out_b"]))


def discriminator_forward(dp: dict[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
    h = ad.avgpool2(ad.relu(ad.conv2d(x, dp["d_conv1_w"], dp["d_conv1_b"])))
    h = ad.avgpool2(ad.relu(ad.conv2d(h, dp["d_conv2_w"], dp["d_conv2_b"])))
    return ad.sigmoid(ad.linear(ad.gap(h), dp["d_head_w"], dp["d_head_b"]))


# -- batch sampling -----------------------------------------------------------


@dataclass
class BatchElement:
    kind: str  # "kfe" | "recon"
    x_s: np.ndarray
    source: int  # predicted class of x_s
    target: int  # == source for recon elements
    k: float | None
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
                kind="recon", x_s=dataset.images[i], source=s_pred, target=s_pred,
                k=None, z_s=stack.z, z_k=stack.z, f_input=stack.f_last,
                f_s_stack=stack.features, p_intended=stack.probs))
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
            kind="kfe", x_s=dataset.images[i], source=s_pred, target=t, k=k,
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
    from .classifier import featurize  # local import to avoid cycle at module load

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
    tri_cfg = losses.TriConfig(alpha=cfg.alpha, tri_weight=cfg.w_tri)
    stacks = [featurize(clf, img) for img in dataset.images]
    history: list[dict] = []
    n = len(dataset)
    steps_per_epoch = max(1, n // cfg.batch_size)
    last_good = (_snapshot_gen(gp, gen0), _snapshot_dis(dp))

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

            rec_terms, fea_terms, tri_terms, prox_terms = [], [], [], []
            for i, e in enumerate(elements):
                x_i = ad.slice_rows(x_gen, i, i + 1)
                if e.kind == "recon":
                    rec_terms.append(losses.loss_rec(e.x_s[None], x_i))
                else:
                    z_hat = ad.slice_rows(clf_nodes["z"], i, i + 1)
                    fea_terms.append(losses.loss_fea(e.z_k[None], z_hat))
                    if cfg.w_tri > 0:
                        tri_terms.append(losses.loss_tri(
                            e.x_s[None], x_i, e.x_ref[None], e.z_s, e.z_k, e.z_ref, e.k, tri_cfg))
                    if cfg.w_prox > 0:
                        prox_terms.append(losses.loss_rec(e.x_s[None], x_i))

            def _mean(terms):
                if not terms:
                    return ad.constant(0.0)
                acc = terms[0]
                for t in terms[1:]:
                    acc = ad.add(acc, t)
                return ad.scale(acc, 1.0 / len(terms))

            l_rec, l_fea, l_tri, l_prox = _mean(rec_terms), _mean(fea_terms), _mean(tri_terms), _mean(prox_terms)
            total = ad.scale(l_cls, cfg.w_cls)
            total = ad.add(total, ad.scale(g_term, cfg.w_adv))
            total = ad.add(total, ad.scale(l_rec, cfg.w_rec))
            total = ad.add(total, ad.scale(l_fea, cfg.w_fea))
            total = ad.add(total, ad.scale(l_tri, cfg.w_tri))
            if cfg.w_prox > 0:
                total = ad.add(total, ad.scale(l_prox, cfg.w_prox))

            if not np.isfinite(total.data):
                gen_last, dis_last = last_good
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} step {step}", gen_last, dis_last)
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
        last_good = (_snapshot_gen(gp, gen0), _snapshot_dis(dp))
        if log is not None:
            log(history[-1])

    if checkpoint_checksum(clf) != checksum_before:
        raise ClassifierMutatedError("classifier weights changed during generator training")
    return _snapshot_gen(gp, gen0), _snapshot_dis(dp), history


def _snapshot_gen(gp, template: GeneratorParams) -> GeneratorParams:
    return GeneratorParams({k: t.data.copy() for k, t in gp.items()}, config=dict(template.config))


def _snapshot_dis(dp) -> DiscriminatorParams:
    return DiscriminatorParams({k: t.data.copy() for k, t in dp.items()})


# -- inference + checkpoint plumbing ------------------------------------------


def generate_images(gen: GeneratorParams, clf: ClassifierParams, f_inputs, source_stacks,
                    sources, targets, ks) -> list[np.ndarray]:
    """Decode (C_l, H_l, W_l) feature maps to (C, H, W) images, DECODE_CHUNK per generator pass.

    Row i's SSC context is its source image's FeatureStack source_stacks[i],
    its class pair and its step factor ks[i]; a plain generator ignores it.
    A chunk decodes bit-equal to its rows one at a time.
    """
    gp = {name: ad.constant(v) for name, v in gen.tensors.items()}
    images = []
    for start in range(0, len(f_inputs), DECODE_CHUNK):
        rows = slice(start, start + DECODE_CHUNK)
        x = generator_forward(gp, gen.config, clf, np.stack([st.features[0] for st in source_stacks[rows]]),
                              ad.constant(np.stack(f_inputs[rows])), sources[rows], targets[rows], ks[rows])
        images.extend(x.data)
    return images


def generate_image(gen: GeneratorParams, clf: ClassifierParams, f_input: np.ndarray,
                   source_stack, source: int, target: int, k: float) -> np.ndarray:
    """`generate_images` of one feature map with its SSC context."""
    return generate_images(gen, clf, [f_input], [source_stack], [source], [target], [k])[0]


def save_generator(path, gen: GeneratorParams) -> None:
    save_checkpoint(path, "generator", gen.tensors, {"ssc": gen.ssc, **gen.config})


def generator_shapes(in_channels: int, width: int, latent_channels: int,
                     skip_channels: int | None) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor `init_generator` makes; an SSC generator has skip_channels."""
    shapes = {
        "g_conv1_w": (width, latent_channels, 3, 3), "g_conv1_b": (width,),
        "g_conv2_w": (width, width, 3, 3), "g_conv2_b": (width,),
        "g_out_w": (in_channels, width, 3, 3), "g_out_b": (in_channels,),
    }
    if skip_channels is not None:
        shapes.update({
            "g_fuse_w": (width, width + skip_channels, 3, 3), "g_fuse_b": (width,),
            "spe0_bottleneck_w": (latent_channels, skip_channels, 1, 1), "spe0_bottleneck_b": (latent_channels,),
            "spe0_decoder_w": (skip_channels, 2 * latent_channels, 1, 1), "spe0_decoder_b": (skip_channels,),
        })
    return shapes


def load_generator(path) -> GeneratorParams:
    """A generator checkpoint, its tensors checked against the manifest's in_channels and width.

    The classifier's latent and first-stage channel counts are not in the
    manifest; they are read off `g_conv1_w` and `spe0_bottleneck_w`.
    """
    role, tensors, cfg = load_checkpoint(path)
    if role != "generator":
        raise ValueError(f"{path}: expected a generator checkpoint, got role {role!r}")
    ssc = bool(cfg.pop("ssc", False))
    gen = GeneratorParams(tensors, config=cfg)
    if ssc != gen.ssc:
        raise ValueError(f"{path}: manifest says ssc={ssc}, but the tensors are "
                         f"those of {'an SSC' if gen.ssc else 'a plain'} generator")
    if ssc and not {"rho_lower", "rho_upper"} <= set(cfg):
        raise ValueError(f"{path}: SSC generator checkpoint lacks its rho_lower/rho_upper CAM bounds")
    if not {"in_channels", "width"} <= set(cfg):
        raise ValueError(f"{path}: generator checkpoint lacks its in_channels/width config")

    def channels(name):  # axis 1 of a stored 4-d weight; check_tensors reports it when absent or malformed
        shape = tensors[name].shape if name in tensors else ()
        return shape[1] if len(shape) == 4 else 0

    check_tensors(path, tensors, generator_shapes(cfg["in_channels"], cfg["width"], channels("g_conv1_w"),
                                                  channels("spe0_bottleneck_w") if ssc else None))
    return gen


def save_discriminator(path, dis: DiscriminatorParams) -> None:
    save_checkpoint(path, "discriminator", dis.tensors)


def load_discriminator(path) -> DiscriminatorParams:
    role, tensors, _ = load_checkpoint(path)
    if role != "discriminator":
        raise ValueError(f"{path}: expected a discriminator checkpoint, got role {role!r}")
    return DiscriminatorParams(tensors)
