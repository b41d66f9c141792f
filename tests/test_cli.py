"""End-to-end CLI pipeline on a miniature configuration."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorcfe.classifier import featurize, load_classifier
from mirrorcfe.cli import _SCHEMA, load_config, main, read_dataset_dir
from mirrorcfe.pgm import read_pgm

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = {
    "dataset": {"per_class": 10, "seed": 0, "train_fraction": 0.5},
    "classifier": {"epochs": 40, "batch_size": 4, "seed": 0},
    "generator": {"epochs": 1, "batch_size": 4, "seed": 0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One miniature pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY))
    data, clf, gen = root / "data", root / "clf.ckpt", root / "gen.ckpt"
    assert main(["make-dataset", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train-classifier", "--data", str(data), "--config", str(cfg),
                 "--out", str(clf)]) == 0
    assert main(["train-generator", "--data", str(data), "--classifier", str(clf),
                 "--config", str(cfg), "--out", str(gen)]) == 0
    return root


def test_dataset_roundtrip(workdir):
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 40
    assert {r["split"] for r in rows} == {"train", "test"}
    train, test = read_dataset_dir(data)
    assert len(train) == 20 and len(test) == 20
    # PGM files reproduce their quantized pixel values exactly
    img = read_pgm(data / rows[0]["filename"])
    assert np.array_equal(img, np.round(img * 255) / 255)


def test_classifier_artifacts(workdir):
    assert (workdir / "clf.ckpt").exists()
    with open(workdir / "clf.ckpt.accuracy.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == TINY["classifier"]["epochs"]
    assert set(rows[0]) == {"epoch", "loss", "train_acc", "test_acc"}
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] < losses[0]


def test_generator_artifacts(workdir):
    assert (workdir / "gen.ckpt").exists()
    assert (workdir / "gen.ckpt.disc").exists()
    with open(workdir / "gen.ckpt.loss.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert list(rows[0]) == ["epoch", "step", "cls", "adv_g", "adv_d", "rec", "fea", "tri", "total"]


def test_explain_frames_and_confidence(workdir):
    data = workdir / "data"
    train, test = read_dataset_dir(data)
    with open(data / "labels.csv", newline="") as f:
        first_test = next(r for r in csv.DictReader(f) if r["split"] == "test")
    image = data / first_test["filename"]
    out = workdir / "explain"
    # target 0 may collide with the predicted class; pick the other one then
    code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--image", str(image),
                 "--target", "0", "--steps", "5", "--out", str(out)])
    if code != 0:
        code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                     "--generator", str(workdir / "gen.ckpt"), "--image", str(image),
                     "--target", "1", "--steps", "5", "--out", str(out)])
    assert code == 0
    frames = sorted(out.glob("frame_*.pgm"))
    assert len(frames) == 5
    with open(out / "confidence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    qs = [float(r["intended_q_target"]) for r in rows]
    assert qs == sorted(qs)  # intended target confidence rises monotonically
    assert qs[2] == pytest.approx(0.5, abs=1e-6)  # projection at k=0.5
    for r in rows:
        assert 0.0 <= float(r["pred_p_target"]) <= 1.0
        assert float(r["l1_to_source"]) >= 0.0


def test_explain_csv_describes_written_frames(workdir):
    # every printed prediction and distance is the one the 8-bit frame on disk gives
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        first_test = next(r for r in csv.DictReader(f) if r["split"] == "test")
    image = read_pgm(data / first_test["filename"])
    clf = load_classifier(workdir / "clf.ckpt")
    source = int(np.argmax(featurize(clf, image).probs))
    target = (source + 1) % 4
    out = workdir / "explain_disk"
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"), "--image", str(data / first_test["filename"]),
                 "--target", str(target), "--steps", "21", "--out", str(out)]) == 0
    with open(out / "confidence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 21
    for i, row in enumerate(rows):
        frame = read_pgm(out / f"frame_{i:03}.pgm")
        probs = featurize(clf, frame).probs
        assert row["pred_p_source"] == f"{probs[source]:.9f}"
        assert row["pred_p_target"] == f"{probs[target]:.9f}"
        assert row["l1_to_source"] == f"{float(np.mean(np.abs(frame - image))):.9f}"


def test_explain_two_steps(workdir):
    data = workdir / "data"
    with open(data / "labels.csv", newline="") as f:
        row = next(iter(csv.DictReader(f)))
    out = workdir / "explain2"
    code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--image", str(data / row["filename"]),
                 "--target", "3", "--steps", "2", "--out", str(out)])
    if code != 0:  # predicted class happened to be 3
        code = main(["explain", "--classifier", str(workdir / "clf.ckpt"),
                     "--generator", str(workdir / "gen.ckpt"),
                     "--image", str(data / row["filename"]),
                     "--target", "2", "--steps", "2", "--out", str(out)])
    assert code == 0
    assert len(sorted(out.glob("frame_*.pgm"))) == 2
    with open(out / "confidence.csv", newline="") as f:
        assert len(list(csv.DictReader(f))) == 2


def test_evaluate_csv(workdir):
    # pick a pair whose source class the tiny classifier actually predicts
    from collections import Counter

    from mirrorcfe.classifier import featurize, load_classifier

    clf = load_classifier(workdir / "clf.ckpt")
    _, test_ds = read_dataset_dir(workdir / "data")
    preds = [int(np.argmax(featurize(clf, img).probs)) for img in test_ds.images]
    source = Counter(preds).most_common(1)[0][0]
    target = (source + 1) % 4
    out = workdir / "report.csv"
    assert main(["evaluate", "--data", str(workdir / "data"),
                 "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--pairs", f"{source}:{target}", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    assert {"sample", "source", "target", "validity"} <= set(rows[0])


def test_error_exit_codes(workdir, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"dataset": {"bogus_key": 1}}))
    assert main(["make-dataset", "--config", str(bad_cfg), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus_key" in err

    assert main(["evaluate", "--data", str(tmp_path / "missing"),
                 "--classifier", str(workdir / "clf.ckpt"),
                 "--generator", str(workdir / "gen.ckpt"),
                 "--out", str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("command, flags, word", [
    ("evaluate", ["--steps", "0"], "steps"),
    ("evaluate", ["--blur-size", "0"], "size"),
    ("evaluate", ["--blur-sigma", "0"], "sigma"),
    ("explain", ["--steps", "0"], "steps"),
])
def test_zero_flag_rejected(workdir, tmp_path, capsys, command, flags, word):
    # a 0 is a value, not "unset": it must be rejected, not replaced by the default
    models = ["--classifier", str(workdir / "clf.ckpt"), "--generator", str(workdir / "gen.ckpt")]
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--data", str(workdir / "data"), *models, "--out", str(out), *flags]
    else:
        argv = ["explain", *models, "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0",
                "--out", str(out), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("explain", ["--target", "-1"]),
    ("explain", ["--target", "7"]),
    ("evaluate", ["--pairs", "0:-1"]),
    ("evaluate", ["--pairs", "0:9"]),
])
def test_class_index_out_of_range(workdir, tmp_path, capsys, command, flags):
    # -1 used to explain toward the last class, 7 to leak an IndexError
    models = ["--classifier", str(workdir / "clf.ckpt"), "--generator", str(workdir / "gen.ckpt")]
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--data", str(workdir / "data"), *models, "--out", str(out), *flags]
    else:
        argv = ["explain", *models, "--image", str(workdir / "data" / "img_00000.pgm"), "--out", str(out), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and "[0, 4)" in err[0]
    assert not out.exists()


def test_truncated_checkpoint_one_error_line(workdir, tmp_path, capsys):
    bad = tmp_path / "gen.ckpt"
    bad.write_bytes((workdir / "gen.ckpt").read_bytes()[:-8])
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"), "--generator", str(bad),
                 "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and str(bad) in err[0]


def test_generator_missing_tensor_one_error_line(workdir, tmp_path, capsys):
    # it used to load, and explain then made its output directory and failed with KeyError: 'g_out_w'
    from mirrorcfe.checkpoint import load_checkpoint, save_checkpoint

    role, tensors, config = load_checkpoint(workdir / "gen.ckpt")
    del tensors["g_out_w"]
    bad = tmp_path / "gen.ckpt"
    save_checkpoint(bad, role, tensors, config)
    out = tmp_path / "out"
    assert main(["explain", "--classifier", str(workdir / "clf.ckpt"), "--generator", str(bad),
                 "--image", str(workdir / "data" / "img_00000.pgm"), "--target", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:") and "'g_out_w'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text, word", [
    ('{"dataset": 5}', "section 'dataset': expected a JSON object, got int"),
    ("[1]", "expected a JSON object of sections, got list"),
    ("[" * 100_000, "nested too deeply"),
], ids=["section-int", "top-level-list", "deep-nesting"])
def test_config_must_be_objects(tmp_path, capsys, text, word):
    # TypeError, AttributeError and RecursionError leaked from these before
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=word):
        load_config(str(path))
    assert main(["make-dataset", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError:")
    assert not (tmp_path / "d").exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from([*_SCHEMA, "bogus", *sorted(_SCHEMA["eval"])]), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(st.binary(max_size=48), _JSON.map(lambda v: json.dumps(v).encode())))
def test_config_fuzz_ends_in_one_value_error_line(tmp_path, raw):
    path = tmp_path / "fuzz.json"
    path.write_bytes(raw)
    try:
        cfg = load_config(str(path))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError are ValueErrors too
        assert "\n" not in str(err)
        return
    assert all(isinstance(keys, dict) and set(keys) <= _SCHEMA[section] for section, keys in cfg.items())


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"per_class": 3, "seed": 0, "train_fraction": 0.5}}))
    main(["make-dataset", "--config", str(cfg), "--out", str(tmp_path / "a")])
    monkeypatch.setenv("MCFE_SEED", "123")
    main(["make-dataset", "--config", str(cfg), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "img_00000.pgm").read_bytes()
    b = (tmp_path / "b" / "img_00000.pgm").read_bytes()
    assert a != b


def _cli_pipeline(root: Path, env: dict) -> dict[str, bytes]:
    """The five commands, each in a fresh interpreter; returns every file written."""
    root.mkdir()
    config = {**TINY, "generator": {**TINY["generator"], "ssc": True}}
    (root / "config.json").write_text(json.dumps(config))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "mirrorcfe.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)

    for argv in (["make-dataset", "--config", "config.json", "--out", "data"],
                 ["train-classifier", "--data", "data", "--config", "config.json", "--out", "clf.ckpt"],
                 ["train-generator", "--data", "data", "--classifier", "clf.ckpt", "--config", "config.json",
                  "--out", "gen.ckpt"],
                 ["evaluate", "--data", "data", "--classifier", "clf.ckpt", "--generator", "gen.ckpt",
                  "--pairs", "0:1,1:0,2:3,3:2", "--out", "report.csv"]):
        proc = cli(*argv)
        assert proc.returncode == 0, proc.stderr
    explain = ["explain", "--classifier", "clf.ckpt", "--generator", "gen.ckpt",
               "--image", "data/img_00020.pgm", "--steps", "5", "--out", "frames"]
    # the target must differ from the predicted class, which is either 0 or not
    if cli(*explain, "--target", "0").returncode != 0:
        proc = cli(*explain, "--target", "1")
        assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_byte_identical_across_processes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "MCFE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    a = _cli_pipeline(tmp_path / "a", env)
    b = _cli_pipeline(tmp_path / "b", env)
    assert "frames/confidence.csv" in a and "report.csv" in a and "gen.ckpt" in a
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
