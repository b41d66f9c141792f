"""Hash every artifact of one fixed desk pipeline, to check byte-identity.

Runs, through `mirrorcfe.cli.main` with one BLAS thread:

- make-dataset: the default desk dataset (1,000 images) at seed 0;
- train-classifier: 16 epochs, lr 2e-3, batch 16;
- train-generator: a plain and an SSC generator, 1 epoch, batch 8,
  `endpoints-grid` k rule, `w_cls` 4;
- explain: the first 4 test images toward each class other than the
  predicted one, 21 steps, with each generator;
- evaluate: all 12 ordered class pairs over the test split, with each
  generator.

It prints the sorted `sha256sum`-style listing of every file written and,
last, the sha256 of that listing. Two commits produce the same artifacts
exactly when the last lines agree:

    python3 tools/artifact_hashes.py OUT_DIR [--repo CHECKOUT]

OUT_DIR must not exist yet. `--repo` names the checkout whose `src/` is
imported (default: the one holding this script), so one copy of the script
can hash any commit. The run takes under a minute on one core.

The digest must not depend on how many CPUs the run may use: `evaluate`
spreads its class pairs over one forked worker per CPU, and
`train-classifier` computes each epoch's accuracy in one forked worker
while the next epoch trains. The same run under `taskset -c 0`, where both
commands stay in-process, must print the same last line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

CONFIG = {
    "dataset": {"seed": 0},
    "classifier": {"epochs": 16, "lr": 2e-3, "batch_size": 16, "seed": 0},
}
GENERATOR = {"epochs": 1, "batch_size": 8, "k_rule": "endpoints-grid", "w_cls": 4.0, "seed": 0}
EXPLAIN_IMAGES = 4
CLASSES = 4


def run_pipeline(out: Path, config_dir: Path) -> None:
    import numpy as np

    from mirrorcfe import cli
    from mirrorcfe.classifier import featurize, load_classifier
    from mirrorcfe.pgm import read_pgm

    def run(*argv) -> None:
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"command failed: {' '.join(map(str, argv))}")

    configs = {}
    for name, generator in (("plain", {**GENERATOR, "ssc": False}), ("ssc", {**GENERATOR, "ssc": True})):
        configs[name] = config_dir / f"{name}.json"
        configs[name].write_text(json.dumps({**CONFIG, "generator": generator}))
    data, clf = out / "data", out / "clf.ckpt"
    run("make-dataset", "--config", configs["plain"], "--out", data)
    run("train-classifier", "--data", data, "--config", configs["plain"], "--out", clf)
    with open(data / "labels.csv", newline="") as f:
        tests = [r["filename"] for r in csv.DictReader(f) if r["split"] == "test"][:EXPLAIN_IMAGES]
    params = load_classifier(clf)
    sources = [int(np.argmax(featurize(params, read_pgm(data / name)).probs)) for name in tests]
    for name, config in configs.items():
        gen = out / f"{name}.ckpt"
        run("train-generator", "--data", data, "--classifier", clf, "--config", config, "--out", gen)
        for image, source in zip(tests, sources):
            for target in range(CLASSES):
                if target != source:
                    run("explain", "--classifier", clf, "--generator", gen, "--image", data / image,
                        "--target", target, "--out", out / f"explain_{name}" / f"{Path(image).stem}_t{target}")
        pairs = ",".join(f"{s}:{t}" for s in range(CLASSES) for t in range(CLASSES) if s != t)
        run("evaluate", "--data", data, "--classifier", clf, "--generator", gen, "--pairs", pairs,
            "--out", out / f"report_{name}.csv")


def listing(out: Path) -> str:
    """What `sha256sum` prints for every file under `out`, run there on `./` paths in sorted order."""
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  ./{path.relative_to(out).as_posix()}\n")
    return "".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="artifact directory to create")
    p.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is imported")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: the BLAS thread count can change summation order
    os.environ.pop("MCFE_SEED", None)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    args.out.mkdir(parents=True)
    config_dir = args.out.with_name(args.out.name + ".config")
    config_dir.mkdir()
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the listing
        run_pipeline(args.out, config_dir)
    text = listing(args.out)
    sys.stdout.write(text)
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  ({text.count(chr(10))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
