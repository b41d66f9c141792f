"""Command-line pipeline: dataset, training, animated transitions, metrics."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import geometry
from .classifier import (ClassifierConfig, TrainHyper, featurize, featurize_batch, load_classifier,
                         save_classifier, train_classifier)
from .dataset import DatasetConfig, LabeledDataset, generate_dataset, split
from .evaluation import evaluate_suite, write_csv
from .pgm import quantize, read_pgm, write_pgm
from .training import TrainConfig, load_generator, save_discriminator, save_generator, train_generator

_SCHEMA = {
    "dataset": {"image_size", "per_class", "noise_sigma", "seed", "train_fraction",
                "classes", "position_jitter", "thickness_range", "intensity_range"},
    "classifier": {"lr", "epochs", "batch_size", "seed"},
    "generator": {"epochs", "batch_size", "lr", "w_cls", "w_adv", "w_rec", "w_fea",
                  "w_tri", "w_prox", "alpha", "k_rule", "recon_prob", "rho_lower",
                  "rho_upper", "ssc", "seed"},
    "eval": {"steps", "blur_size", "blur_sigma", "pairs", "max_per_pair"},
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as f:
        try:
            cfg = json.load(f)  # malformed JSON or UTF-8 raises a ValueError already
        except RecursionError:
            raise ValueError(f"config {path}: JSON nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path}: expected a JSON object of sections, got {type(cfg).__name__}")
    for section, keys in cfg.items():
        if section not in _SCHEMA:
            raise ValueError(f"config: unknown section {section!r}")
        if not isinstance(keys, dict):
            raise ValueError(f"config section {section!r}: expected a JSON object, got {type(keys).__name__}")
        unknown = set(keys) - _SCHEMA[section]
        if unknown:
            raise ValueError(f"config section {section!r}: unknown keys {sorted(unknown)}")
    return cfg


def _seed_override(section: dict) -> dict:
    env = os.environ.get("MCFE_SEED")
    if env is not None:
        section = dict(section)
        section["seed"] = int(env)
    return section


# -- dataset directory layout --------------------------------------------------


def write_dataset_dir(out_dir: Path, train: LabeledDataset, test: LabeledDataset) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    index = 0
    for ds in (train, test):
        for img, label in zip(ds.images, ds.labels):
            name = f"img_{index:05}.pgm"
            write_pgm(out_dir / name, img)
            rows.append({"filename": name, "label": label, "split": ds.split})
            index += 1
    write_csv(out_dir / "labels.csv", ["filename", "label", "split"], rows)


def read_dataset_dir(data_dir: Path) -> tuple[LabeledDataset, LabeledDataset]:
    train = LabeledDataset(split="train")
    test = LabeledDataset(split="test")
    with open(data_dir / "labels.csv", newline="") as f:
        for row in csv.DictReader(f):
            ds = train if row["split"] == "train" else test
            ds.images.append(read_pgm(data_dir / row["filename"]))
            ds.labels.append(int(row["label"]))
    return train, test


# -- subcommands ----------------------------------------------------------------


def cmd_make_dataset(args) -> None:
    section = _seed_override(load_config(args.config).get("dataset", {}))
    fraction = section.pop("train_fraction", 0.6)
    if "classes" in section:
        section["classes"] = tuple(section["classes"])
    if "thickness_range" in section:
        section["thickness_range"] = tuple(section["thickness_range"])
    if "intensity_range" in section:
        section["intensity_range"] = tuple(section["intensity_range"])
    cfg = DatasetConfig(**section)
    full = generate_dataset(cfg)
    train, test = split(full, fraction, cfg.seed)
    write_dataset_dir(Path(args.out), train, test)
    print(f"wrote {len(train)} train + {len(test)} test images to {args.out}")


def cmd_train_classifier(args) -> None:
    section = _seed_override(load_config(args.config).get("classifier", {}))
    train_ds, test_ds = read_dataset_dir(Path(args.data))
    hyper = TrainHyper(**section)
    config = ClassifierConfig(num_classes=len(set(train_ds.labels + test_ds.labels)))
    params, history = train_classifier(train_ds, test_ds, hyper, config,
                                       log=lambda r: print(f"epoch {r['epoch']}: loss {r['loss']:.4f} "
                                                           f"train {r['train_acc']:.3f} test {r.get('test_acc', float('nan')):.3f}"))
    save_classifier(args.out, params)
    write_csv(str(args.out) + ".accuracy.csv", ["epoch", "loss", "train_acc", "test_acc"], history)
    print(f"wrote classifier checkpoint to {args.out}")


def cmd_train_generator(args) -> None:
    section = _seed_override(load_config(args.config).get("generator", {}))
    train_ds, _ = read_dataset_dir(Path(args.data))
    clf = load_classifier(args.classifier)
    cfg = TrainConfig(**section)
    gen, dis, history = train_generator(clf, train_ds, cfg,
                                        log=lambda r: print(f"epoch {r['epoch']}: total {r['total']:.4f}"))
    save_generator(args.out, gen)
    save_discriminator(str(args.out) + ".disc", dis)
    write_csv(str(args.out) + ".loss.csv",
              ["epoch", "step", "cls", "adv_g", "adv_d", "rec", "fea", "tri", "total"], history)
    print(f"wrote generator checkpoint to {args.out}")


def cmd_explain(args) -> None:
    from .training import generate_image

    if args.steps < 2:
        raise ValueError(f"explain needs at least 2 steps (k = 0 and k = 1), got {args.steps}")
    clf = load_classifier(args.classifier)
    gen = load_generator(args.generator)
    image = read_pgm(args.image)
    stack = featurize(clf, image)
    source = int(np.argmax(stack.probs))  # predicted class is the source label
    target = args.target
    if target == source:
        raise ValueError(f"target class {target} equals the predicted source class")
    mirror = geometry.make_mirror(clf.head_w, clf.head_b, source, target)
    points = geometry.sample_trajectory(stack.z, mirror, clf.head_w, clf.head_b, steps=args.steps).points
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = []
    for i, pt in enumerate(points):
        f_k = geometry.kfe_feature(stack.f_last, stack.z, pt.k, mirror)
        # the CSV describes the 8-bit frame on disk, not the float decode
        frames.append(quantize(generate_image(gen, clf, f_k, stack, source, target, pt.k)))
        write_pgm(out_dir / f"frame_{i:03}.pgm", frames[-1])
    rows = []
    for pt, x_k, pred in zip(points, frames, featurize_batch(clf, frames)):
        rows.append({
            "k": f"{pt.k:.6f}",
            "intended_q_source": f"{1.0 - pt.q_pair:.9f}",
            "intended_q_target": f"{pt.q_pair:.9f}",
            "pred_p_source": f"{pred.probs[source]:.9f}",
            "pred_p_target": f"{pred.probs[target]:.9f}",
            "l1_to_source": f"{float(np.mean(np.abs(x_k - image))):.9f}",
        })
    write_csv(out_dir / "confidence.csv",
              ["k", "intended_q_source", "intended_q_target", "pred_p_source",
               "pred_p_target", "l1_to_source"], rows)
    print(f"wrote {len(points)} frames to {out_dir}")


def cmd_evaluate(args) -> None:
    section = load_config(args.config).get("eval", {}) if args.config else {}
    clf = load_classifier(args.classifier)
    gen = load_generator(args.generator)
    _, test_ds = read_dataset_dir(Path(args.data))
    pairs_spec = args.pairs or section.get("pairs", "0:1")
    if isinstance(pairs_spec, str):
        pairs = [tuple(int(x) for x in p.split(":")) for p in pairs_spec.split(",")]
    else:
        pairs = [tuple(p) for p in pairs_spec]
    # only the values a flag or the config file sets; the defaults live in evaluate_suite
    options = {key: section[key] for key in ("steps", "blur_size", "blur_sigma", "max_per_pair") if key in section}
    options.update((key, getattr(args, key)) for key in ("steps", "blur_size", "blur_sigma")
                   if getattr(args, key) is not None)
    report = evaluate_suite(clf, gen, test_ds, pairs, **options)
    report.write_csv(args.out)
    for key, val in report.aggregates.items():
        print(f"{key}: {val}")
    print(f"wrote report to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mirrorcfe",
                                description="Step-wise counterfactual image transitions via decision-boundary reflection")
    sub = p.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-dataset", help="generate the synthetic shape dataset")
    mk.add_argument("--config")
    mk.add_argument("--out", required=True)
    mk.set_defaults(func=cmd_make_dataset)

    tc = sub.add_parser("train-classifier", help="train and freeze the classifier")
    tc.add_argument("--data", required=True)
    tc.add_argument("--config")
    tc.add_argument("--out", required=True)
    tc.set_defaults(func=cmd_train_classifier)

    tg = sub.add_parser("train-generator", help="train the generator/discriminator")
    tg.add_argument("--data", required=True)
    tg.add_argument("--classifier", required=True)
    tg.add_argument("--config")
    tg.add_argument("--out", required=True)
    tg.set_defaults(func=cmd_train_generator)

    ex = sub.add_parser("explain", help="emit the step-wise transition frames")
    ex.add_argument("--classifier", required=True)
    ex.add_argument("--generator", required=True)
    ex.add_argument("--image", required=True)
    ex.add_argument("--target", type=int, required=True)
    ex.add_argument("--steps", type=int, default=21)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_explain)

    ev = sub.add_parser("evaluate", help="compute the metric report")
    ev.add_argument("--data", required=True)
    ev.add_argument("--classifier", required=True)
    ev.add_argument("--generator", required=True)
    ev.add_argument("--config")
    ev.add_argument("--pairs", help="comma-separated source:target pairs, e.g. 0:1,1:0")
    ev.add_argument("--steps", type=int)
    ev.add_argument("--blur-size", type=int, dest="blur_size")
    ev.add_argument("--blur-sigma", type=float, dest="blur_sigma")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as err:  # single-line machine-parseable failure
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
