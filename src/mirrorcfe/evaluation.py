"""Metrics: validity, proximity, denoised validity, and faithfulness."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import geometry, workers
from .classifier import FEATURIZE_CHUNK, ClassifierParams, FeatureStack, classify, featurize_batch
from .classifier import featurize  # noqa: F401  (evaluation.featurize stays a binding of the one-image featurize)
from .dataset import LabeledDataset
from .training import GeneratorParams, generate_images


def gaussian_kernel(size: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Normalized 2-D Gaussian kernel; size must be positive and odd, and sigma finite and positive."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"blur kernel size must be positive and odd, got {size}")
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


# Rows an evaluate needs before its pairs fan out to worker processes: starting and joining the workers
# costs about 20 ms. Measured on a 2-vCPU VM, median of 12 interleaved rounds, in-process vs forked:
# 2 pairs x 25 rows 33 vs 43 ms (plain generator) and 53 vs 52 ms (SSC); 3 x 25 rows 63 vs 59 and
# 93 vs 72 ms; 4 x 25 rows 82 vs 67 and 113 vs 85 ms.
FORK_MIN_ROWS = 64


def _pair_rows(clf: ClassifierParams, gen: GeneratorParams, test_set: LabeledDataset, stacks: list[FeatureStack],
               mirror: geometry.Mirror, picked: list[int], steps: int, blur_size: int,
               blur_sigma: float) -> list[dict]:
    """The report rows of one class pair, test indices `picked`, in one array pass.

    One trajectory stack, one first-CFE bisection and one k=1 shift over all
    rows, then the k=1 decodes and the classifier passes over the decoded and
    blurred counterfactuals in chunks. Every row is bit-equal to its
    one-at-a-time computation, except that the bisection's midpoint logits
    are one product over the rows (see `geometry.first_cfe_batch`).
    """
    s, t = mirror.source, mirror.target
    source_stacks = [stacks[idx] for idx in picked]
    z_s = np.stack([st.z for st in source_stacks])
    traj = geometry.sample_trajectory(z_s, mirror, clf.head_w, clf.head_b, steps=steps)
    first_ks = geometry.first_cfe_batch(traj)
    f_k1 = geometry.kfe_feature(np.stack([st.f_last for st in source_stacks]), z_s, 1.0, mirror)
    n = len(picked)
    x_cfs = generate_images(gen, clf, f_k1, source_stacks, [s] * n, [t] * n, [1.0] * n)
    cf_stacks = featurize_batch(clf, x_cfs)
    d_valid = denoised_validity(clf, x_cfs, t, blur_size, blur_sigma)
    l1 = np.mean(np.abs(np.stack(x_cfs) - np.stack([test_set.images[idx] for idx in picked])), axis=(1, 2, 3))
    rows = []
    for idx, first_k, z_k1, cf_stack, d_ok, l1_row in zip(picked, first_ks, traj.latent_at(1.0), cf_stacks,
                                                         d_valid, l1):
        fea, conf_l1 = faithfulness(clf, z_k1, cf_stack)
        rows.append({
            "sample": idx, "source": s, "target": t,
            "first_cfe_k": "" if np.isnan(first_k) else f"{first_k:.6f}",
            "validity": int(np.argmax(cf_stack.probs) == t),
            "l1": float(l1_row), "d_validity": int(d_ok),
            "fea_dist": fea, "conf_l1": conf_l1,
        })
    return rows


def evaluate_suite(clf: ClassifierParams, gen: GeneratorParams, test_set: LabeledDataset,
                   class_pairs: list[tuple[int, int]], steps: int = 21,
                   blur_size: int = 3, blur_sigma: float = 1.0,
                   max_per_pair: int | None = None) -> EvalReport:
    """Per-sample CFE metrics over the requested class pairs.

    Source class is the classifier's own prediction; samples predicted as the
    pair's source go through the trajectory, the first-CFE search, and the
    k=1 generation. No-flip samples stay in the report with validity metrics
    from the k=1 point and an empty first_cfe_k.

    The test split is featurized in chunks as the scan for each pair's rows
    reaches them, so a capped pair featurizes nothing past the chunk holding
    its last row. Each pair's rows then take one array pass (`_pair_rows`).
    When at least two pairs have rows, there are FORK_MIN_ROWS rows in all
    and the process may use at least two CPUs, the passes run in forked
    worker processes (`workers.forked`), one per CPU and at most one per
    pair, which inherit the models and the featurized split and send back
    only their rows; the rows come back in pair order, so the report is the
    same bytes for any number of workers.
    """
    if steps < geometry.FIRST_CFE_MIN_STEPS:
        raise ValueError(f"evaluate needs at least {geometry.FIRST_CFE_MIN_STEPS} trajectory steps, got {steps}")
    if max_per_pair is not None and max_per_pair < 1:
        raise ValueError(f"evaluate needs max_per_pair of at least 1 (or none, no cap), got {max_per_pair}")
    gaussian_kernel(blur_size, blur_sigma)  # reject a malformed blur before any sample is decoded
    stacks: list[FeatureStack] = []  # the test split, featurized a chunk at a time when the scan reaches it
    mirrors = [geometry.make_mirror(clf.head_w, clf.head_b, s, t) for s, t in class_pairs]  # a bad pair fails first
    work = []  # (mirror, test indices) of each pair with rows, in pair order
    for mirror in mirrors:
        picked = []
        for idx in range(len(test_set)):
            if max_per_pair is not None and len(picked) >= max_per_pair:
                break
            if idx == len(stacks):
                stacks += featurize_batch(clf, test_set.images[idx : idx + FEATURIZE_CHUNK])
            if int(np.argmax(stacks[idx].probs)) == mirror.source:
                picked.append(idx)
        if picked:
            work.append((mirror, picked))

    def pair_pass(i: int) -> list[dict]:
        return _pair_rows(clf, gen, test_set, stacks, *work[i], steps, blur_size, blur_sigma)

    fan_out = len(work) > 1 and sum(len(picked) for _, picked in work) >= FORK_MIN_ROWS
    with workers.forked(pair_pass, len(work) if fan_out else 0) as submit:
        futures = [submit(i) for i in range(len(work))]
        per_pair = [future.result() for future in futures]
    report = EvalReport(rows=[row for rows in per_pair for row in rows])
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
