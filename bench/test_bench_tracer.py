"""The span tracer counts every binding of a program function and leaves none behind."""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mirrorcfe.autodiff as ad  # noqa: E402
from mirrorcfe import classifier, cli, evaluation  # noqa: E402
from mirrorcfe.dataset import DatasetConfig, generate_dataset  # noqa: E402
from mirrorcfe.pgm import read_pgm, write_pgm  # noqa: E402
from mirrorcfe.training import TrainConfig, init_generator, save_generator, train_generator  # noqa: E402
from tracer import Tracer, program_modules  # noqa: E402


def bindings() -> dict[tuple[str, str], object]:
    """Every function bound in a program module or class namespace."""
    out = {}
    for module in program_modules():
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType):
                out[(module.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    if isinstance(member, types.FunctionType):
                        out[(f"{module.__name__}.{obj.__name__}", name)] = member
    return out


@pytest.fixture
def tracer():
    before = bindings()
    t = Tracer()
    with t.installed():
        yield t
    assert bindings() == before  # same function objects, bound where they were


@pytest.fixture(scope="module")
def clf():
    return classifier.init_params(classifier.ClassifierConfig(), seed=0)


def test_featurize_counted_through_every_binding(tracer, clf):
    image = np.zeros((1, 16, 16))
    data = generate_dataset(DatasetConfig(per_class=2, seed=0))
    with tracer.operation("test"):
        classifier.featurize(clf, image)
        evaluation.featurize(clf, image)
        cli.featurize(clf, image)
        # train_generator imports featurize when called and featurizes every image once
        train_generator(clf, data, TrainConfig(epochs=1, batch_size=4, seed=0))
    assert tracer.totals()["classifier.featurize"]["calls"] == 3 + len(data)


def test_lazy_import_in_explain_is_counted(tracer, clf, tmp_path):
    clf_path, gen_path, image = tmp_path / "clf.ckpt", tmp_path / "gen.ckpt", tmp_path / "x.pgm"
    classifier.save_classifier(clf_path, clf)
    save_generator(gen_path, init_generator(clf.config, seed=0, ssc=False))
    write_pgm(image, np.linspace(0.0, 1.0, 256).reshape(1, 16, 16))
    source = int(np.argmax(classifier.featurize(clf, read_pgm(image)).probs))
    argv = ["explain", "--classifier", str(clf_path), "--generator", str(gen_path), "--image", str(image),
            "--target", str((source + 1) % 4), "--steps", "21", "--out", str(tmp_path / "frames")]
    with tracer.operation("explain"):
        assert cli.main(argv) == 0
    totals = tracer.totals()
    assert totals["training.generate_image"]["calls"] == 21
    assert totals["pgm.write_pgm"]["calls"] == 21
    assert totals["checkpoint.load_checkpoint"]["calls"] == 2
    assert totals["cli.main"]["calls"] == 1


def test_spans_nest_and_conv_backward_is_timed(tracer):
    x = ad.constant(np.ones((1, 1, 4, 4)))
    w = ad.Tensor(np.ones((2, 1, 3, 3)), trainable=True)
    with tracer.operation("op"):
        ad.mean(ad.conv2d(x, w, ad.constant(np.zeros(2)))).backward()
    names = [tracer.names[i] for i in tracer.name]
    parent = list(tracer.parent)
    bwd = names.index("autodiff.conv2d.bwd")
    assert names[parent[bwd]] == "autodiff.Tensor.backward"
    assert names[parent[names.index("autodiff.conv2d")]] == "op"
    assert set(tracer.op) == {0}  # one operation, span 0
    assert tracer.conv_constant_input == 1 and tracer.conv_frozen_weight == 0
    a = tracer.arrays()
    assert np.all(a["self"] >= -1e-9) and a["duration"][0] >= a["duration"][1:].max()


def test_nothing_recorded_outside_operations(tracer, clf):
    classifier.featurize(clf, np.zeros((1, 16, 16)))
    assert len(tracer.name) == 0 and tracer.nodes == 0


def test_untraced_run_leaves_program_unwrapped(tmp_path):
    # a fresh interpreter: the untraced path must not import the tracer at all
    script = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
from pathlib import Path
import workloads
bench = workloads.Bench("train", 0, 1.0, Path({str(tmp_path)!r}))
bench.warm_up()
bench.close()
assert bench.attempted == 5 and bench.failed == 0, (bench.attempted, bench.failed)
assert "tracer" not in sys.modules
import importlib, pkgutil, mirrorcfe
for info in pkgutil.iter_modules(mirrorcfe.__path__):
    module = importlib.import_module("mirrorcfe." + info.name)
    for obj in vars(module).values():
        members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
        assert not any(hasattr(m, "__wrapped_by_tracer__") for m in members), obj
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_names_every_metric():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    layer = workloads.per_layer(Tracer())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
