#!/usr/bin/env python3
"""Run one mirrorcfe benchmark workload in this process and print its figures.

    python3 bench/run.py --workload explain --seed 3 --seconds 12 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
workload under the span tracer and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs every workload, each in a fresh
process of its own. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1  # one thread: at most nproc on any machine, and no thread-pool jitter
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("train", "explain", "evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def run_all(args) -> int:
    """Each workload in a fresh process; prints one summary line per workload."""
    status = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        figures = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {figures}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # the thread count must be fixed before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MCFE_SEED", None)
    src = ROOT / "src"
    if not (src / "mirrorcfe" / "cli.py").is_file():
        print(f"error: no mirrorcfe sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import checks
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = workloads.Bench(args.workload, args.seed, args.seconds, work, tracer)
    correct, error = True, None
    try:
        bench.run()
    except (checks.CheckFailed, workloads.OperationFailed) as err:
        correct, error = False, f"{type(err).__name__}: {err}"
    finally:
        bench.close()
        if tracer is not None:
            tracer.uninstall()

    import mirrorcfe

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS}, "nproc": os.cpu_count(),
        "mirrorcfe": str(Path(mirrorcfe.__file__).resolve().parent),
        "correct": correct, "error": error, "samples": bench.samples(), "quality": bench.quality,
    }
    if correct:
        record["end_to_end"] = bench.end_to_end()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None and correct:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.save(traces / f"{args.workload}-seed{args.seed}.npz")
        record["per_layer"] = {k: v for k, (v, _) in workloads.per_layer(tracer).items()}
        record["per_operation"] = tracer.totals_by_operation()
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))

    if error:
        print(f"error: {error}", file=sys.stderr)
    if not correct:
        metrics = {}
    elif tracer is not None:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in workloads.per_layer(tracer).items()}
    else:
        units = {name: unit for name, unit, _ in workloads.END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["end_to_end"].items()}
    for key, value in {**record["samples"], **{f"quality.{k}": v for k, v in bench.quality.items()}}.items():
        print(f"# {key}: {value}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
