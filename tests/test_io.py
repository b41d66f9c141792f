"""PGM image files and the binary checkpoint container."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    (b"P5\n0 2\n255\n", "positive"),  # it used to read as a (1, 2, 0) image
], ids=["short-payload", "missing-maxval", "non-integer", "negative", "zero-width"])
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_tensor(tmp_path, bad):
    # a NaN weight used to load and fail only at explain/evaluate, as "leaf produced non-finite values"
    from mirrorcfe.classifier import ClassifierConfig, init_params, load_classifier, save_classifier

    params = init_params(ClassifierConfig(), seed=0)
    params.tensors["head_w"][3, 1] = bad
    path = tmp_path / "clf.ckpt"
    save_classifier(path, params)
    for load in (load_checkpoint, load_classifier):
        with pytest.raises(ValueError, match="tensor 'head_w' holds non-finite values") as info:
            load(path)
        assert type(info.value) is ValueError and str(path) in str(info.value) and "\n" not in str(info.value)


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


@pytest.mark.parametrize("edit, word", [
    pytest.param(lambda c: c.update(extra=1), "classifier config keys", id="extra"),  # used to be ignored
    pytest.param(lambda c: c.pop("num_classes"), "classifier config keys", id="missing"),
    # a manifest written before the input channels and kernel became constants must be re-made
    pytest.param(lambda c: c.update(in_channels=1, kernel=3), "classifier config keys", id="old-format"),
    # impossible values fail with the field named; with tensors to match, num_classes 0 used to load, and
    # explain then leaked a raw numpy error
    pytest.param(lambda c: c.update(num_classes=0), "num_classes must be an integer >= 1, got 0", id="classes-0"),
    pytest.param(lambda c: c.update(image_size=True), "image_size must be an integer >= 1, got True", id="bool"),
    pytest.param(lambda c: c.update(image_size=16.0), "image_size must be an integer >= 1, got 16.0", id="float"),
    pytest.param(lambda c: c.update(stage_channels=[]), "stage_channels must name at least one stage", id="no-stage"),
    pytest.param(lambda c: c.update(stage_channels=[8, 0]), "stage_channels must be an integer >= 1, got 0",
                 id="zero-stage"),
])
def test_classifier_manifest_holds_exactly_the_config_fields(tmp_path, edit, word):
    from mirrorcfe.classifier import ClassifierConfig, init_params, load_classifier, save_classifier

    params = init_params(ClassifierConfig(), seed=0)
    save_classifier(tmp_path / "good.ckpt", params)
    _, _, config = load_checkpoint(tmp_path / "good.ckpt")
    assert config == {"image_size": 16, "stage_channels": [8, 16], "num_classes": 4}
    edit(config)
    path = _resaved(tmp_path, "classifier", params.tensors, config, lambda t: None)
    with pytest.raises(ValueError, match=re.escape(word)) as info:
        load_classifier(path)
    assert type(info.value) is ValueError and str(path) in str(info.value) and "\n" not in str(info.value)


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
    assert load_generator(tmp_path / "good.ckpt", ClassifierConfig()).tensors.keys() == gen.tensors.keys()
    _, _, config = load_checkpoint(tmp_path / "good.ckpt")
    path = _resaved(tmp_path, "generator", gen.tensors, config, edit)
    with pytest.raises(ValueError, match=word) as info:
        load_generator(path, ClassifierConfig())
    assert str(path) in str(info.value)


# -- byte fuzz: every malformed file ends in one ValueError-family error ------------------------

_NUMBER = st.one_of(st.integers(-3, 3), st.integers(), st.floats(allow_nan=True, allow_infinity=True))
_ANY_JSON = st.recursive(st.none() | st.booleans() | _NUMBER | st.text(max_size=6),
                         lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                                    max_size=3), max_leaves=6)
_ENTRY = st.fixed_dictionaries({
    "name": st.sampled_from(["w", "g_conv1_w", "head_w"]) | _ANY_JSON,
    "shape": st.lists(_NUMBER, max_size=3) | _ANY_JSON,
    "offset": _NUMBER | _ANY_JSON,
})
_MANIFEST = st.one_of(
    st.fixed_dictionaries({"role": st.sampled_from(["classifier", "generator", "discriminator"]) | _ANY_JSON,
                           "tensors": st.lists(_ENTRY, max_size=3) | _ANY_JSON},
                          optional={"config": _ANY_JSON}),
    _ANY_JSON,
    st.integers(1, 3000).map(lambda n: "[" * n),  # nested too deeply to parse
)


def _mcfe1(manifest, payload: bytes) -> bytes:
    text = manifest if isinstance(manifest, str) and manifest.startswith("[") else json.dumps(manifest)
    raw = text.encode()
    return b"MCFE1" + struct.pack("<I", len(raw)) + raw + payload


def _edited(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


_GOOD_CHECKPOINT = _mcfe1({"role": "generator", "tensors": [{"name": "w", "shape": [2], "offset": 0}],
                           "config": {}}, np.ones(2).tobytes())
_CHECKPOINT_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(_mcfe1, _MANIFEST, st.binary(max_size=40)),
    st.builds(lambda n, edits: _edited(_GOOD_CHECKPOINT[:n], edits) if n else b"",
              st.integers(0, len(_GOOD_CHECKPOINT)), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                                               max_size=4)),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_CHECKPOINT_BYTES)
def test_checkpoint_fuzz_ends_in_one_value_error_line(tmp_path, raw):
    from mirrorcfe.classifier import ClassifierConfig, load_classifier
    from mirrorcfe.training import load_generator

    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    for load in (load_checkpoint, load_classifier, lambda p: load_generator(p, ClassifierConfig())):
        try:
            load(path)
        except ValueError as err:
            assert "\n" not in str(err)


_PGM_DIM = st.one_of(st.integers(0, 3).map(lambda n: str(n).encode()), st.integers(0, 10**40).map(lambda n: str(n).encode()),
                     st.sampled_from([b"-2", b"x", b"", b"#c\n2"]), st.binary(max_size=3))
_PGM_BYTES = st.one_of(
    st.binary(max_size=48),
    st.builds(lambda magic, fields, seps, payload: magic + b"".join(s + f for f, s in zip(fields, seps)) + payload,
              st.sampled_from([b"P5", b"P5", b"P5", b"P2", b"#c\nP5", b""]),
              st.tuples(_PGM_DIM, _PGM_DIM, st.one_of(st.just(b"255"), st.sampled_from([b"65535", b"0", b"x", b""]),
                                                      st.binary(max_size=3))),
              st.lists(st.sampled_from([b" ", b"\n", b"\t", b"", b"\r\n"]), min_size=3, max_size=3),
              st.sampled_from([b"", b"\n", b" "]).flatmap(lambda sep: st.binary(max_size=12).map(sep.__add__))),
)  # magic, then width, height and maxval, each drawn from valid, edge and junk values


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_PGM_BYTES)
def test_pgm_fuzz_ends_in_one_value_error_line(tmp_path, raw):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(raw)
    try:
        img = read_pgm(path)
    except ValueError as err:
        assert "\n" not in str(err)
        return
    assert img.ndim == 3 and img.shape[0] == 1 and img.size > 0
