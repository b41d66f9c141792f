"""The benchmark's workloads: set-up, warm-up, timed rounds and checks.

Every stage runs through `mirrorcfe.cli.main`, called in-process, so
interpreter start-up is not timed. Every end-to-end metric is measured on
every workload; the workloads differ in which stage carries the time:

- train     each round trains the classifier and the acceptance generator,
            then serves three groups of 6 explain requests and a one-pair
            evaluate;
- explain   trains an SSC fixture in set-up; each round is twelve explain
            requests and a one-pair evaluate;
- evaluate  trains a plain fixture in set-up; each round is one 12-pair
            evaluate of the whole test split and 12 explain requests.

The small stages ride in every round rather than after the timed loop, so
that each metric samples the whole run: this machine's speed drifts by
10-20 % over tens of seconds, and a figure taken in one short window of a
run carries that drift whole.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference as ref
from mirrorcfe import cli
from mirrorcfe.classifier import ClassifierConfig
from mirrorcfe.training import init_generator

CLASSES = 4
STEPS = 21
SETUP_REPEATS = 3  # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0  # a set-up without fixtures takes 0.5 s, mostly file writes, and scatters
MIN_ROUNDS = 2  # a 12-pair evaluate round takes most of --seconds; one round alone reads slow
ALL_PAIRS = [(s, t) for s in range(CLASSES) for t in range(CLASSES) if s != t]
FEATURIZE_SAMPLE = 16  # test images on which featurize is compared with the reference
ROWS_TO_DECODE = 48  # evaluate rows re-derived through the reference decoder, per report

# desk dataset: default DatasetConfig (1000 images), 600/400 split, seed from --seed.
# Training keeps the acceptance configuration's seed 0: with the workload seed
# as training seed, one epoch left held-out reconstruction worse than the
# initial weights on seed 110 (0.2495 vs 0.2308 L1), because some initial
# generators already draw near-black images.
TRAIN_SEED = 0
CLASSIFIER = {"epochs": 16, "lr": 2e-3, "batch_size": 16, "seed": TRAIN_SEED}
ACCEPTANCE_GENERATOR = {"epochs": 1, "batch_size": 2, "k_rule": "endpoints-grid", "w_cls": 4.0, "ssc": False,
                        "seed": TRAIN_SEED}
FIXTURE_GENERATOR = {**ACCEPTANCE_GENERATOR, "batch_size": 8}
WARM_PER_CLASS = 4


@dataclass(frozen=True)
class Workload:
    train_timed: bool  # train in every round; otherwise train a fixture in set-up
    generator: dict  # train-generator config section
    groups: int  # inference groups per round, each a few explain requests and one evaluate
    explain_images: int  # per group; three requests each, one per non-predicted class
    eval_pairs: int  # per group; pairs cycle through all 12 ordered pairs
    eval_max_per_pair: int | None
    why: str


WORKLOADS = {
    "train": Workload(True, ACCEPTANCE_GENERATOR, 3, 2, 1, 25,
                      "training: tape backward, conv2d/_col2im, Adam, losses and the per-epoch accuracy pass"),
    "explain": Workload(False, {**FIXTURE_GENERATOR, "ssc": True}, 1, 4, 1, 25,
                        "explain requests on an SSC generator: CAM/SPE/CSP, checkpoint loads, PGM writes"),
    "evaluate": Workload(False, FIXTURE_GENERATOR, 1, 4, 12, None,
                         "12-pair evaluate: repeated featurize, first-CFE bisection and faithfulness decodes"),
}

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("clf_train_samples_per_s", "samples/s", "higher"),
    ("gen_train_samples_per_s", "samples/s", "higher"),
    ("explain_ms_p50", "ms", "lower"),
    ("eval_samples_per_s", "samples/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class OperationFailed(RuntimeError):
    pass


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _rate(runs: list[tuple[float, float]]) -> float:
    """Median over commands of work per second."""
    return statistics.median(n / s for n, s in runs)


class Bench:
    """One workload run: owns its work directory, timings and counts."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path, tracer=None):
        self.w = WORKLOADS[name]
        self.seed, self.seconds, self.work, self.tracer = seed, seconds, work, tracer
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.clf_runs: list[tuple[float, float]] = []  # (samples, seconds)
        self.gen_runs: list[tuple[float, float]] = []
        self.explain_ms: list[float] = []
        self.eval_runs: list[tuple[float, float]] = []  # (rows, seconds)
        self.timed_s = 0.0  # wall time of the timed commands so far
        self.rounds = 0
        self.eval_rows: list[dict] = []
        self.frames_checked = 0
        self.frames_reversed = 0
        self.quality: dict = {}
        self.rng = np.random.default_rng(seed)
        self._sink = open(os.devnull, "w")

    # -- one CLI command ------------------------------------------------------------

    def command(self, phase: str, argv: list[str]) -> float:
        """Run one CLI command in-process and return its wall time."""
        err = io.StringIO()
        span = self.tracer.operation(f"{phase}.{argv[0]}") if self.tracer else nullcontext()
        self.attempted += 1
        gc.collect()
        with redirect_stdout(self._sink), redirect_stderr(err), span:
            t0 = time.perf_counter()
            status = cli.main(argv)
            seconds = time.perf_counter() - t0
        if status != 0:
            self.failed += 1
            raise OperationFailed(f"{' '.join(argv)} -> {err.getvalue().strip()}")
        if phase == "timed":
            self.timed_s += seconds
        return seconds

    # -- stages -----------------------------------------------------------------------

    def make_dataset(self, phase: str, out: Path, per_class: int | None = None) -> None:
        section = {"seed": self.seed} if per_class is None else {"seed": self.seed, "per_class": per_class}
        config = _write_json(self.work / "dataset.json", {"dataset": section})
        self.command(phase, ["make-dataset", "--config", config, "--out", str(out)])

    def train_classifier(self, phase: str, data: Path, out: Path, epochs: int) -> None:
        config = _write_json(self.work / "classifier.json",
                             {"classifier": {**CLASSIFIER, "epochs": epochs}})
        seconds = self.command(phase, ["train-classifier", "--data", str(data), "--config", config, "--out", str(out)])
        if phase != "warmup":
            self.clf_runs.append((epochs * self.n_train, seconds))

    def train_generator(self, phase: str, data: Path, clf: Path, out: Path) -> None:
        section = self.w.generator
        config = _write_json(self.work / "generator.json", {"generator": section})
        seconds = self.command(phase, ["train-generator", "--data", str(data), "--classifier", str(clf),
                                       "--config", config, "--out", str(out)])
        if phase != "warmup":
            batch = section["batch_size"]
            self.gen_runs.append((section["epochs"] * (self.n_train // batch) * batch, seconds))

    def explain(self, phase: str, image: Path, target: int, out: Path, clf: Path, gen: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)
        seconds = self.command(phase, ["explain", "--classifier", str(clf), "--generator", str(gen),
                                       "--image", str(image), "--target", str(target),
                                       "--steps", str(STEPS), "--out", str(out)])
        if phase != "warmup":
            self.explain_ms.append(1000.0 * seconds)

    def evaluate(self, phase: str, pairs, max_per_pair: int | None, data: Path, clf: Path, gen: Path,
                 out: Path) -> None:
        spec = ",".join(f"{s}:{t}" for s, t in pairs)
        config = _write_json(self.work / "eval.json", {"eval": {"max_per_pair": max_per_pair}})
        seconds = self.command(phase, ["evaluate", "--data", str(data), "--classifier", str(clf),
                                       "--generator", str(gen), "--config", config, "--pairs", spec,
                                       "--out", str(out)])
        if phase != "warmup":
            self.eval_runs.append((len(checks.read_rows(out)), seconds))

    # -- phases ---------------------------------------------------------------------

    @property
    def data(self) -> Path:
        return self.work / "data"

    @property
    def clf(self) -> Path:
        return self.work / "clf.ckpt"

    @property
    def gen(self) -> Path:
        return self.work / "gen.ckpt"

    def warm_up(self) -> None:
        """Every stage once on a 16-image dataset, untimed."""
        warm = self.work / "warm"
        self.make_dataset("warmup", warm / "data", per_class=WARM_PER_CLASS)
        self.train_classifier("warmup", warm / "data", warm / "clf.ckpt", epochs=1)
        self.train_generator("warmup", warm / "data", warm / "clf.ckpt", warm / "gen.ckpt")
        _, clf = ref.read_mcfe1(warm / "clf.ckpt")
        test = checks.Dataset.read(warm / "data")
        source = int(np.argmax(ref.classifier_forward(clf, test.test_images[:1]).logits[0]))
        self.explain("warmup", test.test_files[0], (source + 1) % CLASSES, warm / "frames",
                     warm / "clf.ckpt", warm / "gen.ckpt")
        self.evaluate("warmup", ALL_PAIRS[:1], None, warm / "data", warm / "clf.ckpt", warm / "gen.ckpt",
                      warm / "report.csv")

    def set_up(self) -> None:
        """Warm-up, the desk dataset and, unless training is timed, the fixture models."""
        self.warm_up()
        self.make_dataset("setup", self.data)
        with open(self.data / "labels.csv") as f:
            self.n_train = sum(1 for line in f if line.rstrip().endswith(",train"))
        if not self.w.train_timed:
            self.train_classifier("setup", self.data, self.clf, CLASSIFIER["epochs"])
            self.train_generator("setup", self.data, self.clf, self.gen)

    def load_models(self) -> None:
        """Reference view of the trained models: test predictions set the request mix."""
        _, self.clf_tensors = ref.read_mcfe1(self.clf)
        _, gen = ref.read_mcfe1(self.gen)
        self.plain_gen = None if self.w.generator["ssc"] else gen
        self.predicted = np.argmax(ref.classifier_forward(self.clf_tensors, self.dataset.test_images).logits, axis=1)

    def explain_image(self, phase: str, image_index: int) -> None:
        """The three explain requests for one test image, one per non-predicted class."""
        image = self.dataset.test_files[image_index]
        source = int(self.predicted[image_index])
        out = self.work / "frames"
        for target in range(CLASSES):
            if target != source:
                self.explain(phase, image, target, out, self.clf, self.gen)
                self.frames_reversed += checks.check_explain(out, STEPS, image, self.clf_tensors, source, target)
                self.frames_checked += STEPS

    def evaluate_pairs(self, phase: str, pairs) -> None:
        report = self.work / "report.csv"
        self.evaluate(phase, pairs, self.w.eval_max_per_pair, self.data, self.clf, self.gen, report)
        self.eval_rows += checks.check_evaluate(report, pairs, self.w.eval_max_per_pair, self.dataset,
                                                self.clf_tensors, self.plain_gen, ROWS_TO_DECODE, self.rng)

    def play_round(self, r: int, order: np.ndarray) -> None:
        w = self.w
        if w.train_timed:
            self.train_classifier("timed", self.data, self.clf, CLASSIFIER["epochs"])
            self.train_generator("timed", self.data, self.clf, self.gen)
            self.load_models()
        for g in range(r * w.groups, (r + 1) * w.groups):
            for j in range(g * w.explain_images, (g + 1) * w.explain_images):
                self.explain_image("timed", int(order[j % len(order)]))
            self.evaluate_pairs("timed", [ALL_PAIRS[j % len(ALL_PAIRS)]
                                          for j in range(g * w.eval_pairs, (g + 1) * w.eval_pairs)])

    def run(self) -> None:
        while len(self.setup_s) < SETUP_REPEATS or sum(self.setup_s) < SETUP_SECONDS:
            t0 = time.perf_counter()
            self.set_up()
            self.setup_s.append(time.perf_counter() - t0)
        self.dataset = checks.Dataset.read(self.data)
        order = self.rng.permutation(len(self.dataset.test_files))
        if not self.w.train_timed:
            self.load_models()
        while self.timed_s < self.seconds or self.rounds < MIN_ROUNDS:
            self.play_round(self.rounds, order)
            self.rounds += 1

        sample = [int(i) for i in order[:FEATURIZE_SAMPLE]]
        self.quality["classifier"] = checks.check_classifier(self.clf, self.dataset, sample)
        init = None if self.w.generator["ssc"] else init_generator(ClassifierConfig(num_classes=CLASSES),
                                                                    TRAIN_SEED, ssc=False).tensors
        self.quality["generator"] = checks.check_generator(self.gen, self.clf, self.dataset, init)
        self.quality["evaluate"] = checks.quality(self.eval_rows)

    # -- results ----------------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "clf_train_samples_per_s": _rate(self.clf_runs),
            "gen_train_samples_per_s": _rate(self.gen_runs),
            "explain_ms_p50": statistics.median(self.explain_ms),
            "eval_samples_per_s": _rate(self.eval_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def samples(self) -> dict:
        return {
            "setup_repeats": len(self.setup_s),
            "timed_rounds": self.rounds,
            "train_classifier_runs": len(self.clf_runs),
            "train_generator_runs": len(self.gen_runs),
            "explain_requests": len(self.explain_ms),
            "evaluate_runs": len(self.eval_runs),
            "frames_checked": self.frames_checked,
            "frames_reversed_on_disk": self.frames_reversed,
        }

    def close(self) -> None:
        self._sink.close()


# -- per-layer metrics of the traced run ------------------------------------------------


def per_layer(tracer) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()

    def incl(name):
        return totals.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    return {
        "autodiff.conv2d.fwd_s": (incl("autodiff.conv2d"), "s"),
        "autodiff.conv2d.calls": (calls("autodiff.conv2d"), "count"),
        "autodiff.conv2d.bwd_s": (incl("autodiff.conv2d.bwd"), "s"),
        "autodiff.conv2d.bwd.calls": (calls("autodiff.conv2d.bwd"), "count"),
        "autodiff.conv2d.bwd_frozen_weight.calls": (tracer.conv_frozen_weight, "count"),
        "autodiff.conv2d.bwd_constant_input.calls": (tracer.conv_constant_input, "count"),
        "autodiff.col2im_s": (incl("autodiff._col2im"), "s"),
        "autodiff.backward_s": (incl("autodiff.Tensor.backward"), "s"),
        "autodiff.adam_step_s": (incl("autodiff.adam_step"), "s"),
        "autodiff.nodes": (tracer.nodes, "count"),
        "classifier.featurize_s": (incl("classifier.featurize"), "s"),
        "classifier.featurize.calls": (calls("classifier.featurize"), "count"),
        "classifier.forward_graph_s": (incl("classifier.forward_graph"), "s"),
        "classifier.accuracy_s": (incl("classifier.accuracy"), "s"),
        "dataset.generate_s": (incl("dataset.generate_dataset"), "s"),
        "geometry.sample_trajectory_s": (incl("geometry.sample_trajectory"), "s"),
        "geometry.first_cfe_s": (incl("geometry.first_cfe"), "s"),
        "geometry.point_at.calls": (calls("geometry.Trajectory.point_at"), "count"),
        "geometry.kfe_feature_s": (incl("geometry.kfe_feature"), "s"),
        "cam.cam_s": (incl("cam.cam"), "s"),
        "cam.prior_mask_s": (incl("cam.prior_mask"), "s"),
        "cam.spe_transform_s": (incl("cam.spe_transform"), "s"),
        "cam.csp_mix_s": (incl("cam.csp_mix"), "s"),
        "losses.loss_cls_s": (incl("losses.loss_cls"), "s"),
        "losses.loss_adv_s": (incl("losses.loss_adv"), "s"),
        "losses.loss_tri_s": (incl("losses.loss_tri"), "s"),
        "losses.all_s": (tracer.outermost_seconds("losses."), "s"),
        "training.sample_kfe_batch_s": (incl("training.sample_kfe_batch"), "s"),
        "training.generator_forward_s": (incl("training.generator_forward"), "s"),
        "training.discriminator_forward_s": (incl("training.discriminator_forward"), "s"),
        "training.generate_image_s": (incl("training.generate_image"), "s"),
        "training.generate_image.calls": (calls("training.generate_image"), "count"),
        "evaluation.faithfulness_s": (incl("evaluation.faithfulness"), "s"),
        "evaluation.denoised_validity_s": (incl("evaluation.denoised_validity"), "s"),
        "checkpoint.load_s": (incl("checkpoint.load_checkpoint"), "s"),
        "checkpoint.load.calls": (calls("checkpoint.load_checkpoint"), "count"),
        "pgm.write_s": (incl("pgm.write_pgm"), "s"),
        "pgm.write.calls": (calls("pgm.write_pgm"), "count"),
        "pgm.read_s": (incl("pgm.read_pgm"), "s"),
        "cli.self_s": (tracer.self_seconds("cli."), "s"),
    }
