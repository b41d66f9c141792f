"""Metrics: validity, proximity, denoised validity, and faithfulness."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .classifier import FEATURIZE_CHUNK, ClassifierParams, FeatureStack, classify, featurize_batch
from .classifier import featurize  # noqa: F401  (evaluation.featurize stays a binding of the one-image featurize)
from .dataset import LabeledDataset
from .training import GeneratorParams, generate_images


def gaussian_kernel(size: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Normalized 2-D Gaussian kernel; size must be odd and sigma finite and positive."""
    if size % 2 == 0:
        raise ValueError(f"blur kernel size must be odd, got {size}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"blur sigma must be finite and positive, got {sigma}")
    r = np.arange(size) - size // 2
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def gaussian_blur(images: np.ndarray, size: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Blur the last two axes of a (C, H, W) image, or of a stack of them, with
    edge-replicate padding (constants unchanged)."""
    kern = gaussian_kernel(size, sigma)
    pad = size // 2
    h, w = images.shape[-2:]
    xp = np.pad(images, [(0, 0)] * (images.ndim - 2) + [(pad, pad), (pad, pad)], mode="edge")
    out = np.zeros_like(images)
    for i in range(size):
        for j in range(size):
            out += kern[i, j] * xp[..., i : i + h, j : j + w]
    return out


def denoised_validity(clf: ClassifierParams, x_cfs, target: int,
                      size: int = 3, sigma: float = 1.0) -> list[bool]:
    """Re-classify each of a non-empty sequence of images after Gaussian blur;
    True where the argmax is still the target."""
    blurred = np.clip(gaussian_blur(np.stack(x_cfs), size, sigma), 0.0, 1.0)
    return [int(np.argmax(stack.probs)) == target for stack in featurize_batch(clf, blurred)]


def faithfulness(clf: ClassifierParams, z_k: np.ndarray, stack: FeatureStack) -> tuple[float, float]:
    """Feature roundtrip distance and mean absolute confidence difference.

    `stack` is the re-encoding of the image decoded for z_k. Compares both the
    latent (Euclidean) and the intended vs recovered class probabilities
    (mean L1).
    """
    _, p_intended = classify(clf, z_k)
    fea = float(np.linalg.norm(z_k - stack.z))
    conf_l1 = float(np.mean(np.abs(p_intended - stack.probs)))
    return fea, conf_l1


@dataclass
class EvalReport:
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    CSV_HEADER = ["sample", "source", "target", "first_cfe_k", "validity", "l1",
                  "d_validity", "fea_dist", "conf_l1"]

    def write_csv(self, path) -> None:
        write_csv(path, self.CSV_HEADER, self.rows)


def write_csv(path, header: list[str], rows: list[dict]) -> None:
    """The `header` columns of each row; keys outside the header are dropped."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=header, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


def evaluate_suite(clf: ClassifierParams, gen: GeneratorParams, test_set: LabeledDataset,
                   class_pairs: list[tuple[int, int]], steps: int = 21,
                   blur_size: int = 3, blur_sigma: float = 1.0,
                   max_per_pair: int | None = None) -> EvalReport:
    """Per-sample CFE metrics over the requested class pairs.

    Source class is the classifier's own prediction; samples predicted as the
    pair's source go through the trajectory, the first-CFE search, and the
    k=1 generation. No-flip samples stay in the report with validity metrics
    from the k=1 point and an empty first_cfe_k.

    The test split is featurized in chunks as the scan reaches them, so a
    capped pair featurizes nothing past the chunk holding its last row. Each
    pair's k=1 decodes and the classifier passes over its decoded and blurred
    counterfactuals run in chunks too; every row is bit-equal to its
    one-at-a-time computation.
    """
    if steps < geometry.FIRST_CFE_MIN_STEPS:
        raise ValueError(f"evaluate needs at least {geometry.FIRST_CFE_MIN_STEPS} trajectory steps, got {steps}")
    if max_per_pair is not None and max_per_pair < 1:
        raise ValueError(f"evaluate needs max_per_pair of at least 1 (or none, no cap), got {max_per_pair}")
    gaussian_kernel(blur_size, blur_sigma)  # reject a malformed blur before any sample is decoded
    report = EvalReport()
    stacks: list[FeatureStack] = []  # the test split, featurized a chunk at a time when the scan reaches it
    mirrors = [geometry.make_mirror(clf.head_w, clf.head_b, s, t) for s, t in class_pairs]  # a bad pair fails first
    for mirror in mirrors:
        s, t = mirror.source, mirror.target
        picked = []  # (test index, trajectory, first-CFE k) of this pair's rows
        for idx in range(len(test_set)):
            if max_per_pair is not None and len(picked) >= max_per_pair:
                break
            if idx == len(stacks):
                stacks += featurize_batch(clf, test_set.images[idx : idx + FEATURIZE_CHUNK])
            if int(np.argmax(stacks[idx].probs)) != s:
                continue
            traj = geometry.sample_trajectory(stacks[idx].z, mirror, clf.head_w, clf.head_b, steps=steps)
            try:
                first_k = geometry.first_cfe(traj)
            except geometry.NoFlipError:
                first_k = None
            picked.append((idx, traj, first_k))
        if not picked:
            continue
        source_stacks = [stacks[idx] for idx, _, _ in picked]
        f_k1 = [geometry.kfe_feature(st.f_last, st.z, 1.0, mirror) for st in source_stacks]
        n = len(picked)
        x_cfs = generate_images(gen, clf, f_k1, source_stacks, [s] * n, [t] * n, [1.0] * n)
        cf_stacks = featurize_batch(clf, x_cfs)
        d_valid = denoised_validity(clf, x_cfs, t, blur_size, blur_sigma)
        for (idx, traj, first_k), x_cf, cf_stack, d_ok in zip(picked, x_cfs, cf_stacks, d_valid):
            fea, conf_l1 = faithfulness(clf, traj.latent_at(1.0), cf_stack)
            report.rows.append({
                "sample": idx, "source": s, "target": t,
                "first_cfe_k": "" if first_k is None else f"{first_k:.6f}",
                "validity": int(np.argmax(cf_stack.probs) == t),
                "l1": float(np.mean(np.abs(x_cf - test_set.images[idx]))), "d_validity": int(d_ok),
                "fea_dist": fea, "conf_l1": conf_l1,
            })
    rows = report.rows
    if rows:
        found = [r for r in rows if r["first_cfe_k"] != ""]
        report.aggregates = {
            "n": len(rows),
            "first_cfe_rate": len(found) / len(rows),
            "mean_first_cfe_k": float(np.mean([float(r["first_cfe_k"]) for r in found])) if found else float("nan"),
            "validity": float(np.mean([r["validity"] for r in rows])),
            "l1": float(np.mean([r["l1"] for r in rows])),
            "d_validity": float(np.mean([r["d_validity"] for r in rows])),
            "fea_dist": float(np.mean([r["fea_dist"] for r in rows])),
            "conf_l1": float(np.mean([r["conf_l1"] for r in rows])),
        }
    return report
