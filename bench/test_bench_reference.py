"""The benchmark's reference computations against hand-computed cases."""

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


# -- file formats ------------------------------------------------------------------


def test_p5_header_with_comments_and_pixel_values(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# made by hand\n3 2\n# another\n255\n" + bytes([0, 51, 255, 102, 1, 254]))
    img = ref.read_p5(path)
    assert img.shape == (1, 2, 3)
    assert np.array_equal(img[0] * 255, [[0, 51, 255], [102, 1, 254]])


@pytest.mark.parametrize("raw", [
    b"P2\n2 1\n255\n" + bytes(2),  # ASCII magic
    b"P5\n2 1\n65535\n" + bytes(4),  # 16-bit
    b"P5\n2 2\n255\n" + bytes(3),  # short payload
    b"P5\n2 1\n255\n" + bytes(3),  # long payload
])
def test_p5_rejects_malformed(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        ref.read_p5(path)


def test_mcfe1_hand_built_file(tmp_path):
    manifest = json.dumps({"role": "generator", "config": {},
                           "tensors": [{"name": "a", "shape": [2], "offset": 0},
                                       {"name": "b", "shape": [1, 2], "offset": 16}]}).encode()
    payload = struct.pack("<4d", 1.5, -2.0, 0.25, 8.0)
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"MCFE1" + struct.pack("<I", len(manifest)) + manifest + payload)
    role, tensors = ref.read_mcfe1(path)
    assert role == "generator"
    assert np.array_equal(tensors["a"], [1.5, -2.0])
    assert np.array_equal(tensors["b"], [[0.25, 8.0]])


# -- networks ----------------------------------------------------------------------


def test_conv3x3_of_a_point_is_the_flipped_kernel():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 1.0
    w = np.arange(9.0).reshape(1, 1, 3, 3)
    y = ref.conv3x3(x, w, np.array([0.5]))
    assert np.array_equal(y[0, 0], w[0, 0, ::-1, ::-1] + 0.5)


def test_conv3x3_zero_padding_counts_neighbours():
    y = ref.conv3x3(np.ones((1, 2, 3, 3)), np.ones((1, 2, 3, 3)), np.zeros(1))
    assert np.array_equal(y[0, 0], 2 * np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]]))


def _centre(c_out=1, c_in=1):
    w = np.zeros((c_out, c_in, 3, 3))
    w[:, :, 1, 1] = 1.0
    return w


def test_classifier_forward_hand_case():
    t = {"conv0_w": _centre(), "conv0_b": np.zeros(1),
         "head_w": np.array([[1.0, -1.0]]), "head_b": np.array([0.0, 0.5])}
    x = np.array([[[[1.0, -2.0], [3.0, 4.0]]]])
    out = ref.classifier_forward(t, x)
    z = (1.0 + 0.0 + 3.0 + 4.0) / 4  # ReLU zeroes the -2, then 2x2 average
    assert np.allclose(out.z, [[z]], atol=1e-15)
    assert np.allclose(out.logits, [[z, 0.5 - z]], atol=1e-15)
    assert out.probs[0, 0] == pytest.approx(sig(z - (0.5 - z)), abs=1e-15)


def test_decode_hand_case():
    g = {"g_conv1_w": _centre(), "g_conv1_b": np.zeros(1), "g_conv2_w": _centre(), "g_conv2_b": np.zeros(1),
         "g_out_w": _centre(), "g_out_b": np.array([-1.0])}
    f = np.array([[[[0.5, 2.0], [-1.0, 0.0]]]])
    x = ref.decode(g, f)
    assert x.shape == (1, 1, 8, 8)
    # identity convolutions: each latent cell becomes a 4x4 block of sigmoid(relu(v) - 1)
    for (i, j), v in np.ndenumerate(f[0, 0]):
        assert np.allclose(x[0, 0, 4 * i : 4 * i + 4, 4 * j : 4 * j + 4], sig(max(v, 0.0) - 1.0), atol=1e-15)
    with pytest.raises(ValueError):
        ref.decode({**g, "g_fuse_w": _centre()}, f)


# -- mirror geometry ---------------------------------------------------------------------


def test_mirror_path_reflects_across_the_diagonal():
    W = np.eye(2)  # class c has weight e_c, so the 0|1 boundary is the line x = y
    path = ref.mirror_path(W, np.zeros(2), np.array([2.0, 0.0]), 0, 1)
    assert path.margin == -2.0
    assert np.allclose(path.latent(1.0), [0.0, 2.0], atol=1e-15)
    assert np.allclose(path.latent(0.5), [1.0, 1.0], atol=1e-15)
    assert path.q(0.0) == pytest.approx(sig(-2.0), abs=1e-15)
    assert path.q(0.5) == 0.5
    assert path.q(1.0) == pytest.approx(1.0 - path.q(0.0), abs=1e-15)
    assert np.allclose(path.logits(0.25), [1.5, 0.5], atol=1e-15)
    assert ref.first_flip_k(path) == pytest.approx(0.5, abs=1e-15)


def _line(logits0, delta, target):
    logits0, delta = np.asarray(logits0, float), np.asarray(delta, float)
    return ref.MirrorPath(z=np.zeros(1), step=np.zeros(1), margin=0.0, logits0=logits0, delta=delta, target=target)


@pytest.mark.parametrize("logits0, delta, want", [
    ([3, 0, 1], [-4, 4, 0], 3 / 8),  # gaps -3 + 8k and -1 + 4k: the later root wins
    ([3, 0, -1], [-4, 4, 6], 3 / 8),  # gap to class 2 closes at k = 1/2: flip on (3/8, 1/2)
    ([3, 0, 0], [-4, 4, 6], None),  # class 2 leads the target for every k > 0
    ([3, 0, 2], [-4, 4, 4], None),  # constant negative gap to class 2
    ([9, 0, 0], [-4, 4, 0], None),  # crosses class 0 only after k = 1
])
def test_first_flip_k(logits0, delta, want):
    got = ref.first_flip_k(_line(logits0, delta, target=1))
    assert got == (None if want is None else pytest.approx(want, abs=1e-15))
