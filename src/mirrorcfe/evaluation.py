"""Metrics: validity, proximity, denoised validity, and faithfulness."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .classifier import ClassifierParams, FeatureStack, classify, featurize
from .dataset import LabeledDataset
from .training import GeneratorParams, generate_image


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


def gaussian_blur(image: np.ndarray, size: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Blur a (C, H, W) image with edge-replicate padding (constants unchanged)."""
    kern = gaussian_kernel(size, sigma)
    pad = size // 2
    out = np.empty_like(image)
    for c in range(image.shape[0]):
        xp = np.pad(image[c], pad, mode="edge")
        acc = np.zeros_like(image[c])
        for i in range(size):
            for j in range(size):
                acc += kern[i, j] * xp[i : i + image.shape[1], j : j + image.shape[2]]
        out[c] = acc
    return out


def denoised_validity(clf: ClassifierParams, x_cf: np.ndarray, target: int,
                      size: int = 3, sigma: float = 1.0) -> bool:
    """Re-classify after Gaussian blur; True if the argmax is still the target."""
    blurred = np.clip(gaussian_blur(x_cf, size, sigma), 0.0, 1.0)
    return int(np.argmax(featurize(clf, blurred).probs)) == target


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
    """
    if steps < geometry.FIRST_CFE_MIN_STEPS:
        raise ValueError(f"evaluate needs at least {geometry.FIRST_CFE_MIN_STEPS} trajectory steps, got {steps}")
    gaussian_kernel(blur_size, blur_sigma)  # reject a malformed blur before any sample is decoded
    report = EvalReport()
    stacks: dict[int, FeatureStack] = {}  # each test image is featurized once, when first reached
    mirrors = [geometry.make_mirror(clf.head_w, clf.head_b, s, t) for s, t in class_pairs]  # a bad pair fails first
    for mirror in mirrors:
        s, t = mirror.source, mirror.target
        count = 0
        for idx, img in enumerate(test_set.images):
            if idx not in stacks:
                stacks[idx] = featurize(clf, img)
            stack = stacks[idx]
            if int(np.argmax(stack.probs)) != s:
                continue
            if max_per_pair is not None and count >= max_per_pair:
                break
            count += 1
            traj = geometry.sample_trajectory(stack.z, mirror, clf.head_w, clf.head_b, steps=steps)
            try:
                first = geometry.first_cfe(traj)
                first_k = first.k
            except geometry.NoFlipError:
                first_k = None
            f_k1 = geometry.kfe_feature(stack.f_last, stack.z, 1.0, mirror)
            x_cf = generate_image(gen, clf, f_k1, stack, s, t, 1.0)
            cf_stack = featurize(clf, x_cf)
            valid = int(np.argmax(cf_stack.probs)) == t
            l1 = float(np.mean(np.abs(x_cf - img)))
            d_valid = denoised_validity(clf, x_cf, t, blur_size, blur_sigma)
            z_k1 = traj.latent_at(1.0)
            fea, conf_l1 = faithfulness(clf, z_k1, cf_stack)
            report.rows.append({
                "sample": idx, "source": s, "target": t,
                "first_cfe_k": "" if first_k is None else f"{first_k:.6f}",
                "validity": int(valid), "l1": l1, "d_validity": int(d_valid),
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
