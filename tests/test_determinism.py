"""The same seed and data give the same report and model bytes whatever the
BLAS thread count, and in a spawned worker process as in this one.

Threaded BLAS splits a long product's sum between its threads, so a product
that grew past the library's threading threshold would make the bytes depend
on OPENBLAS_NUM_THREADS; a process pool would inherit that dependence."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from irisvd import cli
from irisvd.synth import generate_dataset

SRC = str(Path(cli.__file__).resolve().parents[1])
# Runs each argv of a JSON list through cli.main; exits with the worst code.
CHILD = ("import json, sys; from irisvd.cli import main; "
         "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")


def _commands(data: Path, out: Path) -> list[list[str]]:
    """A small grid and a train on data, writing the report and model to out."""
    out.mkdir()
    return [
        ["experiment", "--data", str(data), "--classes", "2,3", "--dims", "3,8",
         "--epochs", "300", "--n-train", "3", "--seed", "4", "--out", str(out / "report.csv")],
        ["train", "--data", str(data), "--dim", "8", "--epochs", "300", "--n-train", "3",
         "--out", str(out / "model.txt")],
    ]


def _outputs(out: Path) -> tuple[bytes, bytes]:
    return (out / "report.csv").read_bytes(), (out / "model.txt").read_bytes()


def test_bytes_independent_of_blas_threads_and_process(tmp_path, capsys):
    data = tmp_path / "data"
    generate_dataset(3, samples_per_class=5, base_seed=2, out_dir=data)
    for argv in _commands(data, tmp_path / "here"):
        assert cli.main(argv) == 0
    capsys.readouterr()
    want = _outputs(tmp_path / "here")
    assert want[0].count(b"\n") == 5  # a header and four cells

    # Two child processes, BLAS on one thread and on two.
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(_commands(data, out))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert _outputs(out) == want, f"{threads} BLAS threads"

    # The only worker of a spawn pool, the kind a parallel grid would use.
    out = tmp_path / "spawned"
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert list(pool.map(cli.main, _commands(data, out), timeout=120)) == [0, 0]
    assert _outputs(out) == want, "spawn worker"
