"""Golden bytes: the seed-0 dataset, grid report, model, segment and classify
output, pinned by sha256.

Byte-identical output for the same seed and data is an invariant of the
project.  These tests render their own datasets through the command line and
compare full sha256 digests with values recorded on numpy 2.4.6 with
scipy-openblas 0.3.31.  A mismatch means a change altered the bytes a user
gets (or the platform's floating point differs): the failure names the numpy
version and the BLAS in use so the two cases can be told apart.
"""

import hashlib

import numpy as np
import pytest

from irisvd import cli
from irisvd.synth import generate_dataset

SYNTH_9X7 = "2b27f21638f74e740ec8a76f9dcc1bdff5b525e88745ddc68cef0eb293ccc448"
GRID_REPORT = "07a27233921a1fb83036fb60fccd911fbbabf85f7a13894c573219aa63b12c4e"
TRAIN_MODEL = "9a489de6fe524bd7a78a20e53853814d35623c2fbdc7b76b9b7c5df1ad24653e"
SEGMENT_DEGRADED = "05ee5d0a75e3edf7e1255869aae07b434c582c0fc24472d9072fbf9f81b980bd"
CLASSIFY_HELD_OUT = "322b587d61bb27c019c671cb3c22a9e28054014103d9778bd9000479f3ff053a"


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def assert_golden(data: bytes, pinned: str, what: str) -> None:
    digest = hashlib.sha256(data).hexdigest()
    assert digest == pinned, (
        f"{what}: sha256 {digest}, pinned {pinned} "
        f"(numpy {np.__version__}, BLAS {_blas()})"
    )


def sha256sum_listing(directory) -> bytes:
    """What `sha256sum *.pgm manifest.csv` prints in directory."""
    files = [*sorted(directory.glob("*.pgm")), directory / "manifest.csv"]
    return "".join(
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in files
    ).encode("ascii")


def synth(tmp_path_factory, classes: int, samples: int):
    out = tmp_path_factory.mktemp(f"golden_{classes}x{samples}")
    argv = ["synth", "--classes", str(classes), "--samples", str(samples),
            "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def eyes_9x7(tmp_path_factory):
    return synth(tmp_path_factory, 9, 7)


def test_synth_9x7_seed_0(eyes_9x7):
    assert_golden(sha256sum_listing(eyes_9x7), SYNTH_9X7, "synth 9x7 seed 0")


def test_grid_report_seed_0(eyes_9x7, tmp_path):
    report = tmp_path / "report.csv"
    argv = ["experiment", "--data", str(eyes_9x7), "--classes", "3,5,7,9",
            "--dims", "3,10,20,40", "--seed", "0", "--out", str(report)]
    assert cli.main(argv) == 0
    assert_golden(report.read_bytes(), GRID_REPORT, "experiment on synth 9x7 seed 0")


@pytest.fixture(scope="module")
def eyes_9x12(tmp_path_factory):
    return synth(tmp_path_factory, 9, 12)


@pytest.fixture(scope="module")
def model_9x12(eyes_9x12, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "model.txt"
    argv = ["train", "--data", str(eyes_9x12), "--dim", "20", "--seed", "0",
            "--out", str(model)]
    assert cli.main(argv) == 0
    return model


def test_train_model_seed_0(model_9x12):
    assert_golden(model_9x12.read_bytes(), TRAIN_MODEL, "train --dim 20 on synth 9x12 seed 0")


# The per-image subcommands print each image's path, so they run inside the
# dataset directory on bare file names.

def test_segment_degraded_seed_0(tmp_path, monkeypatch, capsys):
    generate_dataset(9, 8, base_seed=0, out_dir=tmp_path, eyelash_count=12,
                     noise_amplitude=12, bright_spot=True)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.main(["segment", *sorted(p.name for p in tmp_path.glob("*.pgm"))]) == 0
    out = capsys.readouterr().out
    assert_golden(out.encode("ascii"), SEGMENT_DEGRADED, "segment on degraded synth 9x8 seed 0")


def test_classify_held_out(eyes_9x12, model_9x12, monkeypatch, capsys):
    held_out = sorted(p.name for p in eyes_9x12.glob("*.pgm") if int(p.stem[-2:]) > 5)
    monkeypatch.chdir(eyes_9x12)
    capsys.readouterr()
    assert cli.main(["classify", "--model", str(model_9x12), *held_out]) == 0
    out = capsys.readouterr().out
    assert_golden(out.encode("ascii"), CLASSIFY_HELD_OUT, "classify samples 6-12 of synth 9x12")
