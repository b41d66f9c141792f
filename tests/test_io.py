"""PGM image files and the binary checkpoint container."""

import struct

import numpy as np
import pytest

from mirrorcfe.checkpoint import load_checkpoint, save_checkpoint
from mirrorcfe.pgm import read_pgm, write_pgm


def test_pgm_roundtrip_quantized_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (1, 16, 16))
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    # writing quantizes to 8 bits; reading that file back must be exact
    quantized = np.round(np.clip(img, 0, 1) * 255) / 255.0
    assert np.array_equal(back, quantized)
    write_pgm(path, back)
    assert np.array_equal(read_pgm(path), back)


def test_pgm_header_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img.shape == (1, 2, 2)
    assert img[0, 0, 0] == 0.0 and img[0, 0, 1] == pytest.approx(128 / 255)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"b_weight": rng.normal(size=(3, 4)), "a_bias": rng.normal(size=(4,))}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "classifier", tensors, {"note": 1})
    role, back, cfg = load_checkpoint(path)
    assert role == "classifier"
    assert cfg == {"note": 1}
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])


def test_checkpoint_bytes_deterministic(tmp_path):
    tensors = {"w": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, "generator", tensors)
    save_checkpoint(p2, "generator", tensors)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"MCFE1")


def test_checkpoint_rejects_bad_role_and_magic(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.ckpt", "oracle", {"w": np.zeros(2)})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE1" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(bad)


@pytest.mark.parametrize("payload, word", [
    (b"P5\n2 2\n255\n\x00\x00\x00", "payload"),  # 3 of 4 pixels
    (b"P5\n2 2\n", "integers"),  # maxval missing
    (b"P5\n2 x\n255\n\x00\x00", "integers"),
    (b"P5\n2 -2\n255\n\x00\x00", "integers"),
], ids=["short-payload", "missing-maxval", "non-integer", "negative"])
def test_pgm_rejects_malformed(tmp_path, payload, word):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match=word) as info:
        read_pgm(path)
    assert str(path) in str(info.value)


def _checkpoint_bytes(tmp_path) -> bytes:
    save_checkpoint(tmp_path / "good.ckpt", "generator", {"w": np.ones(2)})  # payload bytes hold 0xf0
    return (tmp_path / "good.ckpt").read_bytes()


def _with_manifest_length(raw: bytes, delta: int) -> bytes:
    (mlen,) = struct.unpack_from("<I", raw, 5)
    return raw[:5] + struct.pack("<I", mlen + delta) + raw[9:]


@pytest.mark.parametrize("corrupt, word", [
    (lambda raw: raw[:-8], "payload"),  # truncated payload
    (lambda raw: raw[:7], "header"),  # 7-byte file
    (lambda raw: _with_manifest_length(raw, 8), "manifest"),  # manifest runs into the payload
    (lambda raw: raw[:9] + raw[9:].replace(b'"role"', b'"r\xffle"', 1), "manifest"),  # not UTF-8
], ids=["truncated-payload", "7-byte-file", "manifest-length", "non-utf8-manifest"])
def test_checkpoint_rejects_malformed(tmp_path, corrupt, word):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(corrupt(_checkpoint_bytes(tmp_path)))
    with pytest.raises(ValueError, match=word) as info:
        load_checkpoint(path)
    assert type(info.value) is ValueError and str(path) in str(info.value)


def _resaved(tmp_path, role, tensors, config, edit):
    # the same checkpoint with its tensors edited, as another writer might have left it
    path = tmp_path / f"{role}.ckpt"
    tensors = dict(tensors)
    edit(tensors)
    save_checkpoint(path, role, tensors, config)
    return path


@pytest.mark.parametrize("edit, word", [
    (lambda t: t.update(head_w=t["head_w"][:, :3]), "'head_w' has shape (16, 3)"),  # 3 columns, 4 classes
    (lambda t: t.pop("conv1_b"), "missing tensor 'conv1_b'"),
    (lambda t: t.update(extra=np.zeros(2)), "unexpected tensor 'extra'"),
], ids=["head-columns", "missing", "extra"])
def test_classifier_tensors_checked_against_config(tmp_path, edit, word):
    from mirrorcfe.classifier import ClassifierConfig, init_params, load_classifier, save_classifier

    params = init_params(ClassifierConfig(), seed=0)
    save_classifier(tmp_path / "good.ckpt", params)
    _, _, config = load_checkpoint(tmp_path / "good.ckpt")
    path = _resaved(tmp_path, "classifier", params.tensors, config, edit)
    with pytest.raises(ValueError, match=word.replace("(", r"\(").replace(")", r"\)")) as info:
        load_classifier(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("ssc", [False, True])
@pytest.mark.parametrize("edit, word", [
    (lambda t: t.pop("g_out_w"), "missing tensor 'g_out_w'"),
    (lambda t: t.update(g_conv2_w=t["g_conv2_w"][:8]), "'g_conv2_w' has shape"),  # width 8 of 32
], ids=["missing-out", "narrow-conv2"])
def test_generator_tensors_checked_against_config(tmp_path, edit, word, ssc):
    from mirrorcfe.classifier import ClassifierConfig
    from mirrorcfe.training import init_generator, load_generator, save_generator

    gen = init_generator(ClassifierConfig(), seed=0, ssc=ssc)
    gen.config.update(rho_lower=0.2, rho_upper=0.8)
    save_generator(tmp_path / "good.ckpt", gen)
    assert load_generator(tmp_path / "good.ckpt").tensors.keys() == gen.tensors.keys()
    _, _, config = load_checkpoint(tmp_path / "good.ckpt")
    path = _resaved(tmp_path, "generator", gen.tensors, config, edit)
    with pytest.raises(ValueError, match=word) as info:
        load_generator(path)
    assert str(path) in str(info.value)
