"""Properties over mutated bytes at the places untrusted data enters.

PGM files, model files and config text come from outside the program.  Each
property mutates a valid file by a few byte edits and checks that every
outcome is a clean result or the documented typed error and exit code: a bad
image fails on its own with exit 1 and is named on stderr; a bad model or
config file exits 2 before any output row.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyes import render_eye
from irisvd import cli, ebp, harness, image_io, synth

# Bytes that PGM, model and config parsers give a meaning to, besides any byte.
_SPECIAL = b"0123456789 \t\n\r#-+.e=,_"


@st.composite
def mutated(draw, data: bytes, head: int = 64) -> bytes:
    """data after one or two byte edits, half of them in the first bytes."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 2))):
        limit = len(out) if draw(st.booleans()) else min(head, len(out))
        i = draw(st.integers(0, max(limit - 1, 0)))
        byte = draw(st.one_of(st.sampled_from(_SPECIAL), st.integers(0, 255)))
        op = draw(st.sampled_from(["replace", "replace", "insert", "delete", "truncate"]))
        if op == "insert" or not out:
            out.insert(i, byte)
        elif op == "replace":
            out[i] = byte
        elif op == "delete":
            del out[i]
        else:
            del out[i:]
    return bytes(out)


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _eye(sample: int = 1) -> image_io.GrayImage:
    spec = synth.EyeSpec(class_seed=synth.class_seed_for(0, 1), sample_seed=sample)
    return render_eye(spec)[0]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("edges")


# P5 of a whole eye, and P2 of a small patch (ASCII parsing is per pixel).
_PGMS = [
    image_io.write_pgm(_eye()),
    image_io.write_pgm(image_io.GrayImage(_eye().pixels[130:142, 150:166]), ascii=True),
]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(_PGMS).flatmap(mutated))
def test_mutated_pgm(work, data):
    try:
        image_io.read_pgm(data)
        parsed = True
    except image_io.PgmParseError:
        parsed = False
    path = work / "eye.pgm"
    path.write_bytes(data)
    code, out, err = run_cli(["segment", str(path)])
    rows = out.splitlines()
    assert rows[0] == cli.SEGMENT_HEADER
    if code == 0:
        assert parsed and err == ""
        assert len(rows) == 2 and len(rows[1].split(",")) == 10
    else:
        assert code == 1 and rows == [cli.SEGMENT_HEADER]
        stage = "(threshold|segment|bounds)" if parsed else "read"
        p = re.escape(str(path))
        assert re.fullmatch(f"{p}: stage '{stage}' failed on {p}: .+\n", err), err


@pytest.fixture(scope="module")
def classify_inputs(work):
    eye = work / "classify_eye.pgm"
    image_io.write_pgm_file(eye, _eye(2))
    net = ebp.init(ebp.MlpShape(3, ebp.default_hidden(3), 2), seed=4)
    net = replace(net, feature_scaling=((0.0, 40.0), (0.0, 10.0), (0.0, 5.0)))
    model = work / "model_src.txt"
    ebp.save_model(model, net)
    return eye, model.read_bytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_model(work, classify_inputs, data):
    eye, model_bytes = classify_inputs
    path = work / "model.txt"
    path.write_bytes(data.draw(mutated(model_bytes)))
    try:
        ebp.load_model(path)
        loaded = True
    except ebp.ModelFormatError:
        loaded = False
    code, out, err = run_cli(["classify", "--model", str(path), str(eye)])
    if code == 0:
        assert loaded and err == ""
        header, row = out.splitlines()
        assert header == cli.CLASSIFY_HEADER
        assert re.fullmatch(rf"{re.escape(str(eye))},\d+,\d\.\d{{4}}", row), row
    else:
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: .+\n", err), err


_CONFIG = """\
# every key, at values that keep a 2x4 experiment valid and cheap
segmentation.threshold = 70
segmentation.min_area = 2500
boundary.window = 5
boundary.jump = 25
boundary.annulus_width = 60
train.lr0 = 0.01
train.lr_inc = 1.05
train.lr_dec = 0.7
train.max_perf_inc = 1.04
train.max_epochs = 5
train.mse_goal = 1e-6
train.min_grad = 1e-10
train.seed = 0
train.dim = 3
synth.samples = 4
synth.seed = 0
experiment.class_counts = 2
experiment.dims = 3
experiment.epoch_cap = 5
experiment.n_train = 3
experiment.base_seed = 0
""".encode("ascii")


@pytest.fixture(scope="module")
def small_set(work):
    data = work / "synth2x4"
    synth.generate_dataset(2, 4, base_seed=0, out_dir=data)
    return data


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_config(work, small_set, data):
    path = work / "exp.cfg"
    path.write_bytes(data.draw(mutated(_CONFIG, head=len(_CONFIG))))
    argv = ["experiment", "--data", str(small_set), "--config", str(path),
            "--classes", "2", "--dims", "3", "--epochs", "5"]
    code, out, err = run_cli(argv)
    if code == 2:
        assert out == ""
        assert re.fullmatch(r"error: .+\n", err), err
        return
    header, row = out.splitlines()
    assert header == harness.REPORT_HEADER
    if code == 0:
        assert err == ""
        assert re.fullmatch(r"2,3,[01]\.\d{4},[1-5],\w+", row), row
    else:
        assert code == 1 and row == "2,3,,0,failed"
        assert re.fullmatch(r"cell \(2, 3\) failed: .+\n", err), err


_EYE = _eye(3).pixels.astype(np.float64)


@st.composite
def altered_eye(draw) -> np.ndarray:
    """The eye shifted, rescaled in brightness and cropped, as uint8 pixels.

    Shifts and crops move the pupil onto the border or cut it; brightness
    changes merge the iris into the dark mask or break it into many regions.
    """
    h, w = _EYE.shape
    dy, dx = draw(st.integers(-h // 3, h // 3)), draw(st.integers(-w // 3, w // 3))
    shifted = np.full_like(_EYE, draw(st.integers(0, 255)))
    shifted[max(dy, 0) : h + min(dy, 0), max(dx, 0) : w + min(dx, 0)] = _EYE[
        max(-dy, 0) : h + min(-dy, 0), max(-dx, 0) : w + min(-dx, 0)
    ]
    gain, offset = draw(st.floats(0.5, 1.5)), draw(st.integers(-60, 60))
    pixels = np.clip(np.rint(shifted * gain + offset), 0, 255).astype(np.uint8)
    top, bottom = draw(st.integers(0, h // 3)), h - draw(st.integers(0, h // 3))
    left, right = draw(st.integers(0, w // 3)), w - draw(st.integers(0, w // 3))
    return pixels[top:bottom, left:right]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(altered_eye())
def test_altered_eye(work, pixels):
    path, dumps = work / "altered.pgm", work / "dumps"
    image_io.write_pgm_file(path, image_io.GrayImage(pixels))
    code, out, err = run_cli(["segment", "--dump-stages", "--out", str(dumps), str(path)])
    rows = out.splitlines()
    assert rows[0] == cli.SEGMENT_HEADER
    if code == 0:
        assert err == "" and len(rows) == 2
        fields = rows[1].split(",")
        x_cp, y_cp = float(fields[1]), float(fields[2])
        left, right = int(fields[6]), int(fields[7])
        assert 0 <= x_cp < pixels.shape[1] and 0 <= y_cp < pixels.shape[0]
        assert 0 <= left < right < pixels.shape[1]
        dark = image_io.read_pgm_file(dumps / "altered_threshold.pnm").pixels == 0
        kept = image_io.read_pgm_file(dumps / "altered_filtered.pnm").pixels == 0
        assert np.array_equal(dark, pixels <= harness.PipelineConfig().threshold)
        assert kept.any() and not np.any(kept & ~dark)
    else:
        assert code == 1 and rows == [cli.SEGMENT_HEADER]
        p = re.escape(str(path))
        assert re.fullmatch(f"{p}: stage '(segment|bounds)' failed on {p}: .+\n", err), err
