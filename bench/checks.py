"""Checks of each stage's outputs against the reference computations.

A check raises CheckFailed on the first violation and otherwise returns the
figures it measured. No check compares against a stored copy of an earlier
run's output: every expected value is recomputed from the inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

MIN_TEST_ACCURACY = 0.95
FEATURIZE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8
PGM_ROUNDING = 0.5 / 255.0
CSV_TOL = 1e-9  # the CSVs print floats with 9 or more decimals
CFE_TOL = 1e-3  # bisection tolerance of first_cfe
CFE_PRINT_TOL = 1e-6  # first_cfe_k is printed with 6 decimals
TIE = 1e-9  # logit gaps this small decide nothing


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Dataset:
    """The test split of a dataset directory, as the reference reader sees it."""

    test_images: np.ndarray  # (N, 1, H, W), in labels.csv order
    test_labels: np.ndarray
    test_files: list[Path]

    @classmethod
    def read(cls, data_dir: Path) -> "Dataset":
        images, labels, files = [], [], []
        with open(data_dir / "labels.csv", newline="") as f:
            for row in csv.DictReader(f):
                if row["split"] == "test":
                    files.append(data_dir / row["filename"])
                    images.append(ref.read_p5(files[-1]))
                    labels.append(int(row["label"]))
        return cls(np.stack(images), np.array(labels), files)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# -- train-classifier ------------------------------------------------------------


def check_classifier(clf_ckpt: Path, data: Dataset, featurize_sample: list[int]) -> dict:
    """Reference test accuracy, and agreement of the program's featurize with it."""
    from mirrorcfe.classifier import featurize, load_classifier

    role, clf = ref.read_mcfe1(clf_ckpt)
    expect(role == "classifier", f"{clf_ckpt}: role {role!r}")
    fwd = ref.classifier_forward(clf, data.test_images)
    acc = float(np.mean(np.argmax(fwd.logits, axis=1) == data.test_labels))
    expect(acc >= MIN_TEST_ACCURACY, f"reference test accuracy {acc:.4f} < {MIN_TEST_ACCURACY}")
    params = load_classifier(clf_ckpt)
    worst = 0.0
    for i in featurize_sample:
        stack = featurize(params, data.test_images[i])
        for got, want in ((stack.z, fwd.z[i]), (stack.logits, fwd.logits[i]), (stack.probs, fwd.probs[i]),
                          (stack.f_last, fwd.f_last[i])):
            worst = max(worst, float(np.max(np.abs(got - want))))
    expect(worst <= FEATURIZE_TOL, f"featurize differs from the reference forward by {worst:.3e}")
    return {"test_accuracy": acc, "featurize_max_abs_diff": worst}


# -- train-generator ----------------------------------------------------------------


def check_generator(gen_ckpt: Path, clf_ckpt: Path, data: Dataset, init_tensors: dict | None) -> dict:
    """Finite losses that fall; a plain generator must also beat its initialisation.

    The reconstruction test decodes the held-out (test) images' own last
    feature maps with the reference decoder, once with the trained weights and
    once with the initial ones, and compares the mean absolute pixel error.
    """
    rows = read_rows(Path(f"{gen_ckpt}.loss.csv"))
    expect(len(rows) >= 20, f"{len(rows)} loss rows")
    totals = []
    for row in rows:
        values = [float(v) for k, v in row.items() if k not in ("epoch", "step")]
        expect(all(math.isfinite(v) for v in values), f"non-finite loss row {row}")
        totals.append(float(row["total"]))
    tenth = len(totals) // 10
    early, late = float(np.mean(totals[:tenth])), float(np.mean(totals[-tenth:]))
    expect(late < early, f"late-step mean loss {late:.4f} not below early-step mean {early:.4f}")
    out = {"loss_early": early, "loss_late": late}
    if init_tensors is None:
        return out
    _, gen = ref.read_mcfe1(gen_ckpt)
    _, clf = ref.read_mcfe1(clf_ckpt)
    f_last = ref.classifier_forward(clf, data.test_images).f_last
    trained = float(np.mean(np.abs(ref.decode(gen, f_last) - data.test_images)))
    initial = float(np.mean(np.abs(ref.decode(init_tensors, f_last) - data.test_images)))
    expect(trained < initial, f"held-out reconstruction L1 {trained:.4f} not below initial {initial:.4f}")
    return {**out, "heldout_l1_trained": trained, "heldout_l1_initial": initial}


# -- explain -------------------------------------------------------------------------


def check_explain(out_dir: Path, steps: int, image_file: Path, clf: dict, source: int, target: int) -> int:
    """Frames and CSV of one explain request; returns how many frames, re-read
    from disk, rank source and target the other way round from the CSV."""
    frames = sorted(out_dir.glob("frame_*.pgm"))
    expect(len(frames) == steps, f"{out_dir}: {len(frames)} frames, expected {steps}")
    rows = read_rows(out_dir / "confidence.csv")
    expect(len(rows) == steps, f"{out_dir}: {len(rows)} CSV rows, expected {steps}")
    src = ref.read_p5(image_file)
    head_w, head_b = clf["head_w"], clf["head_b"]
    z = ref.classifier_forward(clf, src[None]).z[0]
    path = ref.mirror_path(head_w, head_b, z, source, target)
    frame_probs = ref.classifier_forward(clf, np.stack([ref.read_p5(f) for f in frames])).probs
    reversed_order = 0
    for i, row in enumerate(rows):
        k = i / (steps - 1)
        expect(abs(float(row["k"]) - k) <= CFE_PRINT_TOL, f"row {i}: k {row['k']}, expected {k}")
        q = path.q(k)
        for col, want in (("intended_q_target", q), ("intended_q_source", 1.0 - q)):
            expect(abs(float(row[col]) - want) <= CLOSED_FORM_TOL,
                   f"row {i}: {col} {row[col]}, closed form {want:.10f}")
        frame = ref.read_p5(frames[i])
        l1 = float(np.mean(np.abs(frame - src)))
        expect(abs(float(row["l1_to_source"]) - l1) <= PGM_ROUNDING + CSV_TOL,
               f"row {i}: l1_to_source {row['l1_to_source']}, written frame gives {l1:.9f}")
        csv_order = float(row["pred_p_source"]) > float(row["pred_p_target"])
        disk_order = frame_probs[i, source] > frame_probs[i, target]
        reversed_order += int(csv_order != disk_order)
    mid = rows[(steps - 1) // 2]
    expect(abs(float(mid["intended_q_target"]) - 0.5) <= CLOSED_FORM_TOL, f"q at k=0.5 is {mid['intended_q_target']}")
    expect(abs(float(rows[-1]["intended_q_target"]) - (1.0 - path.q(0.0))) <= CLOSED_FORM_TOL,
           f"q at k=1 is {rows[-1]['intended_q_target']}, expected 1 - q(0) = {1.0 - path.q(0.0):.10f}")
    return reversed_order


# -- evaluate --------------------------------------------------------------------------


def check_evaluate(report: Path, pairs: list[tuple[int, int]], max_per_pair: int | None, data: Dataset,
                   clf: dict, gen: dict | None, rows_to_decode: int, rng: np.random.Generator) -> list[dict]:
    """Rows per pair, first-CFE k against the closed-form flip, and decoded metrics.

    Each pair must report exactly the test images the reference forward
    predicts as its source, in test-split order, up to `max_per_pair`. `gen`
    is None for an SSC generator, which the reference decoder does not cover;
    then validity, l1 and conf_l1 go unchecked. Returns the report's rows.
    """
    rows = read_rows(report)
    fwd = ref.classifier_forward(clf, data.test_images)
    predicted = np.argmax(fwd.logits, axis=1)
    for s, t in pairs:
        got = [int(r["sample"]) for r in rows if int(r["source"]) == s and int(r["target"]) == t]
        want = [int(i) for i in np.flatnonzero(predicted == s)[:max_per_pair]]
        expect(got == want, f"pair {s}:{t}: rows for samples {got[:8]}..., reference predicts {want[:8]}... "
                            f"({len(got)} vs {len(want)})")
    W, b = clf["head_w"], clf["head_b"]
    grid = np.linspace(0.0, 1.0, 21)
    for r in rows:
        i, s, t = int(r["sample"]), int(r["source"]), int(r["target"])
        expect(predicted[i] == s, f"sample {i} reported with source {s}, reference predicts {predicted[i]}")
        path = ref.mirror_path(W, b, fwd.z[i], s, t)
        if r["first_cfe_k"] == "":
            for k in grid:
                logits = path.logits(k)
                gap = logits[t] - np.max(np.delete(logits, t))
                expect(gap <= TIE, f"sample {i} {s}:{t}: no first CFE reported, but k={k:.2f} flips")
            continue
        k_star = ref.first_flip_k(path)
        expect(k_star is not None, f"sample {i} {s}:{t}: first_cfe_k {r['first_cfe_k']} but no flip exists")
        k = float(r["first_cfe_k"])
        expect(k_star - CFE_PRINT_TOL <= k <= k_star + CFE_TOL + CFE_PRINT_TOL,
               f"sample {i} {s}:{t}: first_cfe_k {k} outside [{k_star:.6f}, {k_star:.6f} + {CFE_TOL}]")
    if gen is not None and rows:
        for j in rng.choice(len(rows), size=min(rows_to_decode, len(rows)), replace=False):
            r = rows[j]
            i, s, t = int(r["sample"]), int(r["source"]), int(r["target"])
            path = ref.mirror_path(W, b, fwd.z[i], s, t)
            f_k1 = fwd.f_last[i] + path.step[:, None, None]
            x_cf = ref.decode(gen, f_k1[None])
            out = ref.classifier_forward(clf, x_cf)
            top2 = np.sort(out.logits[0])[-2:]
            if top2[1] - top2[0] > TIE:
                expect(int(r["validity"]) == int(np.argmax(out.logits[0]) == t),
                       f"sample {i} {s}:{t}: validity {r['validity']} disagrees with the reference")
            l1 = float(np.mean(np.abs(x_cf[0] - data.test_images[i])))
            conf_l1 = float(np.mean(np.abs(ref.softmax(path.logits(1.0)) - out.probs[0])))
            for col, want in (("l1", l1), ("conf_l1", conf_l1)):
                expect(abs(float(r[col]) - want) <= CSV_TOL, f"sample {i} {s}:{t}: {col} {r[col]}, reference {want}")
    return rows


def quality(rows: list[dict]) -> dict:
    """Quality aggregates of evaluate rows, recorded beside the speed figures."""
    found = [float(r["first_cfe_k"]) for r in rows if r["first_cfe_k"] != ""]
    return {
        "rows": len(rows),
        "validity": float(np.mean([int(r["validity"]) for r in rows])),
        "d_validity": float(np.mean([int(r["d_validity"]) for r in rows])),
        "conf_l1": float(np.mean([float(r["conf_l1"]) for r in rows])),
        "first_cfe_rate": len(found) / len(rows),
        "mean_first_cfe_k": float(np.mean(found)) if found else float("nan"),
    }
