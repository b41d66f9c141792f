"""Command-line pipeline: dataset, training, animated transitions, metrics."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import geometry
from .classifier import TrainHyper, featurize, featurize_batch, load_classifier, save_classifier, train_classifier
from .dataset import DatasetConfig, LabeledDataset, generate_dataset, split
from .evaluation import evaluate_suite, write_csv
from .pgm import quantize, read_pgm, write_pgm
from .training import TrainConfig, generate_image, load_generator, save_discriminator, save_generator, train_generator


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


# Each config key with its default; a configured value must have the default's type (see `_fits`).
_SCHEMA = {
    "dataset": {**_defaults(DatasetConfig), "train_fraction": 0.6},
    "classifier": _defaults(TrainHyper),
    "generator": _defaults(TrainConfig),
    "eval": {"steps": 21, "blur_size": 3, "blur_sigma": 1.0, "max_per_pair": None, "pairs": "0:1"},
}


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of `default`; a bool is not an int."""
    if isinstance(default, tuple):  # a list of the element type
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if default is None:  # max_per_pair: no cap, or a cap
        return value is None or type(value) is int
    if type(default) is float:  # an int serves for a float
        return type(value) in (int, float)
    return type(value) is type(default)


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
        for key, value in keys.items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"config section {section!r}: unknown key {key!r}")
            default = _SCHEMA[section][key]
            if not _fits(value, default):
                raise ValueError(f"config {section}.{key}: {json.dumps(value)} lacks the type of its default {default!r}")
            keys[key] = tuple(value) if isinstance(default, tuple) else value
    return cfg


def _seed_override(section: dict) -> dict:
    env = os.environ.get("MCFE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"MCFE_SEED must be an integer, got {env!r}") from None
        section = {**section, "seed": seed}
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


def read_dataset_dir(data_dir: Path, splits: tuple[str, ...] = ("train", "test")) -> tuple[LabeledDataset, ...]:
    """The named splits of a dataset directory, in that order; images of other splits are not read.

    A labels.csv without a filename, label or split column, with a row whose
    filename or split is missing or empty, or with a label that is not an
    integer, raises a one-line ValueError naming it.
    """
    datasets = {name: LabeledDataset(split=name) for name in splits}
    path = data_dir / "labels.csv"
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = {"filename", "label", "split"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing column(s) {sorted(missing)}")
        for row in reader:
            for key in ("filename", "split"):
                if not row[key]:
                    raise ValueError(f"{path}: line {reader.line_num}: no {key}")
            ds = datasets.get(row["split"])
            if ds is not None:
                try:
                    label = int(row["label"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: line {reader.line_num}: label {row['label']!r} "
                                     "is not an integer") from None
                ds.images.append(read_pgm(data_dir / row["filename"]))
                ds.labels.append(label)
    return tuple(datasets.values())


def parse_pairs(spec: str) -> list[tuple[int, int]]:
    """Class pairs from "s:t,s:t,..."; anything else raises a one-line ValueError."""
    pairs = []
    for item in spec.split(","):
        try:
            s, t = (int(x) for x in item.split(":"))
        except ValueError:
            raise ValueError(f"pairs: expected comma-separated s:t class pairs such as 0:1,1:0, "
                             f"got {item!r}") from None
        pairs.append((s, t))
    return pairs


# -- subcommands ----------------------------------------------------------------


def cmd_make_dataset(args) -> None:
    section = _seed_override(load_config(args.config).get("dataset", {}))
    fraction = section.pop("train_fraction", _SCHEMA["dataset"]["train_fraction"])
    cfg = DatasetConfig(**section)
    full = generate_dataset(cfg)
    train, test = split(full, fraction, cfg.seed)
    write_dataset_dir(Path(args.out), train, test)
    print(f"wrote {len(train)} train + {len(test)} test images to {args.out}")


def cmd_train_classifier(args) -> None:
    section = _seed_override(load_config(args.config).get("classifier", {}))
    train_ds, test_ds = read_dataset_dir(Path(args.data))
    hyper = TrainHyper(**section)
    params, history = train_classifier(train_ds, test_ds, hyper,
                                       log=lambda r: print(f"epoch {r['epoch']}: loss {r['loss']:.4f} "
                                                           f"train {r['train_acc']:.3f} test {r.get('test_acc', float('nan')):.3f}"))
    save_classifier(args.out, params)
    write_csv(str(args.out) + ".accuracy.csv", ["epoch", "loss", "train_acc", "test_acc"], history)
    print(f"wrote classifier checkpoint to {args.out}")


def cmd_train_generator(args) -> None:
    section = _seed_override(load_config(args.config).get("generator", {}))
    (train_ds,) = read_dataset_dir(Path(args.data), ("train",))
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
    if args.steps < 2:
        raise ValueError(f"explain needs at least 2 steps (k = 0 and k = 1), got {args.steps}")
    clf = load_classifier(args.classifier)
    gen = load_generator(args.generator, clf.config)
    image = read_pgm(args.image)
    stack = featurize(clf, image)
    source = int(np.argmax(stack.probs))  # predicted class is the source label
    target = args.target
    if target == source:
        raise ValueError(f"target class {target} equals the predicted source class")
    mirror = geometry.make_mirror(clf.head_w, clf.head_b, source, target)
    traj = geometry.sample_trajectory(stack.z, mirror, clf.head_w, clf.head_b, steps=args.steps)
    ks = traj.ks.tolist()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = []
    for i, k in enumerate(ks):
        f_k = geometry.kfe_feature(stack.f_last, stack.z, k, mirror)
        # the CSV describes the 8-bit frame on disk, not the float decode
        frames.append(quantize(generate_image(gen, clf, f_k, stack, source, target, k)))
        write_pgm(out_dir / f"frame_{i:03}.pgm", frames[-1])
    rows = []
    q_targets = geometry.pair_confidence(traj.grid, mirror).tolist()
    for k, q, x_k, pred in zip(ks, q_targets, frames, featurize_batch(clf, frames)):
        rows.append({
            "k": f"{k:.6f}",
            "intended_q_source": f"{1.0 - q:.9f}",
            "intended_q_target": f"{q:.9f}",
            "pred_p_source": f"{pred.probs[source]:.9f}",
            "pred_p_target": f"{pred.probs[target]:.9f}",
            "l1_to_source": f"{float(np.mean(np.abs(x_k - image))):.9f}",
        })
    write_csv(out_dir / "confidence.csv",
              ["k", "intended_q_source", "intended_q_target", "pred_p_source",
               "pred_p_target", "l1_to_source"], rows)
    print(f"wrote {len(ks)} frames to {out_dir}")


def cmd_evaluate(args) -> None:
    options = load_config(args.config).get("eval", {})  # every eval key but pairs is an evaluate_suite option
    spec = options.pop("pairs", _SCHEMA["eval"]["pairs"])
    pairs = parse_pairs(args.pairs if args.pairs is not None else spec)
    clf = load_classifier(args.classifier)
    gen = load_generator(args.generator, clf.config)
    (test_ds,) = read_dataset_dir(Path(args.data), ("test",))
    # only the values a flag or the config file sets; the defaults live in evaluate_suite
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
