"""End-to-end command-line tests driving main() in process."""

import argparse
import csv
import importlib.util
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from irisvd import cli, ebp, harness, image_io, segmentation, svd, synth
from irisvd.ebp import ModelFormatError, TrainConfig
from irisvd.image_io import GrayImage, read_pgm_file, write_pgm_file
from irisvd.iris_boundary import IrisBounds, mark_bounds
from irisvd.segmentation import PupilGeometry, label_components_8, threshold_dark
from test_segmentation import flood_fill_components, oracle_geometry


@pytest.fixture(scope="module")
def eye_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_eyes")
    code = cli.main(["synth", "--classes", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_file(eye_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.txt"
    code = cli.main(
        [
            "train",
            "--data", str(eye_dir),
            "--dim", "20",
            "--seed", "3",
            "--epochs", "4000",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def manifest_rows(eye_dir):
    lines = (eye_dir / "manifest.csv").read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        name, cls, x_cp, y_cp, r_p, r_i = line.split(",")
        rows[name] = (float(x_cp), float(y_cp), float(r_p), float(r_i))
    return rows


class TestSynth:
    def test_writes_files_and_manifest(self, eye_dir, capsys):
        code = cli.main(
            ["synth", "--classes", "2", "--out", str(eye_dir.parent / "two")]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        count, manifest = out.split()
        assert count == "14"
        assert manifest.endswith("manifest.csv")
        pgms = list((eye_dir.parent / "two").glob("*.pgm"))
        assert len(pgms) == 14

    def test_zero_classes_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main(["synth", "--classes", "0", "--out", str(tmp_path)])
        assert info.value.code == 2

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert cli.main(
                ["synth", "--classes", "2", "--seed", "9", "--out", str(tmp_path / sub)]
            ) == 0
        capsys.readouterr()
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_ascii_flag(self, tmp_path, capsys, monkeypatch):
        argv = ["synth", "--classes", "2", "--samples", "3", "--out"]
        assert cli.main(argv + [str(tmp_path / "p5")]) == 0

        def read_back(data):
            raise AssertionError("synth --ascii-pgm read a file back")

        # Each P2 file is written once, with the bytes of the P5 file of the
        # same eye read back and rewritten as P2.
        monkeypatch.setattr(image_io, "read_pgm", read_back)
        assert cli.main(argv + [str(tmp_path / "p2"), "--ascii-pgm"]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        p5_files = sorted((tmp_path / "p5").glob("*.pgm"))
        assert len(p5_files) == 6
        for f in p5_files:
            p2 = (tmp_path / "p2" / f.name).read_bytes()
            assert p2.startswith(b"P2")
            assert p2 == image_io.write_pgm(read_pgm_file(f), ascii=True)


class TestSegment:
    def test_geometry_matches_manifest(self, eye_dir, capsys):
        rows = manifest_rows(eye_dir)
        images = sorted(str(p) for p in eye_dir.glob("class001_*.pgm"))
        code = cli.main(["segment"] + images)
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0] == cli.SEGMENT_HEADER
        assert len(out_lines) == len(images) + 1
        for line in out_lines[1:]:
            parts = line.split(",")
            name = parts[0].rsplit("/", 1)[-1]
            x_cp, y_cp = float(parts[1]), float(parts[2])
            true_x, true_y, _, true_ri = rows[name]
            assert abs(x_cp - true_x) <= 2.0
            assert abs(y_cp - true_y) <= 2.0
            left, right = int(parts[6]), int(parts[7])
            assert abs(left - round(true_x - true_ri)) <= 5
            assert abs(right - round(true_x + true_ri)) <= 5

    def test_blank_image_fails_batch(self, eye_dir, tmp_path, capsys):
        blank = tmp_path / "blank.pgm"
        write_pgm_file(blank, GrayImage(pixels=np.full((280, 320), 255, np.uint8)))
        good = sorted(eye_dir.glob("class001_*.pgm"))[0]
        code = cli.main(["segment", str(blank), str(good)])
        captured = capsys.readouterr()
        assert code == 1
        assert "blank.pgm" in captured.err
        assert "stage 'segment'" in captured.err
        assert len(captured.out.strip().splitlines()) == 2

    def test_dump_stages(self, eye_dir, tmp_path, capsys):
        img = sorted(eye_dir.glob("class002_*.pgm"))[0]
        code = cli.main(
            ["segment", str(img), "--dump-stages", "--out", str(tmp_path)]
        )
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert code == 0
        # Expected dumps from the flood-fill oracle, not the labelling code.
        eye = read_pgm_file(img)
        cfg = harness.PipelineConfig()
        dark = eye.pixels <= cfg.threshold
        kept = [c for c in flood_fill_components(dark) if len(c) >= cfg.min_pupil_area]
        filtered = np.zeros_like(dark)
        for x, y in set().union(*kept):
            filtered[y, x] = True
        pupil = PupilGeometry(*oracle_geometry(max(kept, key=len)))
        bounds = IrisBounds(int(row[6]), int(row[7]), row[8] == "1", row[9] == "1")
        expected = {
            "threshold": np.where(dark, 0, 255),
            "filtered": np.where(filtered, 0, 255),
            "bounds": mark_bounds(eye, pupil, bounds).pixels,
        }
        for suffix, pixels in expected.items():
            dumped = read_pgm_file(tmp_path / f"{img.stem}_{suffix}.pnm")
            assert np.array_equal(dumped.pixels, pixels), suffix

    def test_dump_name_collision_is_refused(self, eye_dir, tmp_path, monkeypatch, capsys):
        # Two different inputs with one stem would write the same dumps: exit
        # 2 before any image is read.  One file given twice is no collision.
        img = sorted(eye_dir.glob("class001_*.pgm"))[0]
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            (tmp_path / side / img.name).write_bytes(img.read_bytes())
        reads = []
        read = harness.read_pgm_file
        monkeypatch.setattr(harness, "read_pgm_file", lambda p: reads.append(p) or read(p))
        monkeypatch.chdir(tmp_path)
        a, b = f"a/{img.name}", f"b/{img.name}"
        code, out, err = run_main(["segment", a, b, "--dump-stages", "--out", "d"], capsys)
        assert (code, out, reads) == (2, "", [])
        assert err == f"error: {a} and {b} would both dump stages as d/{img.stem}_*.pnm\n"
        assert not Path("d").exists()
        # Without --out each dump goes beside its input, so the two do not meet.
        code, _, err = run_main(["segment", a, b, "--dump-stages"], capsys)
        assert (code, err) == (0, "")
        code, out, err = run_main(["segment", a, f"./a/../{a}", "--dump-stages", "--out", "d"],
                                  capsys)
        assert (code, err, len(out.splitlines())) == (0, "", 3)
        assert len(list(Path("d").glob("*.pnm"))) == 3

    @pytest.mark.parametrize("layout", ["flat", "subdirectories"])
    def test_dumps_beside_a_dataset_are_not_samples(self, eye_dir, tmp_path, capsys, layout):
        data = tmp_path / "data"
        for f in eye_dir.glob("*.pgm"):
            dest = data / f.name[:8] / f.name if layout == "subdirectories" else data / f.name
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(f.read_bytes())
        before = harness.load_dataset(data).samples
        img = next(data.rglob("class001_sample01.pgm"))
        code, _, err = run_main(["segment", str(img), "--dump-stages"], capsys)
        assert (code, err) == (0, "")
        assert len(list(img.parent.glob("class001_sample01_*"))) == 3
        assert harness.load_dataset(data).samples == before

    def test_row_of_eye_cropped_into_iris(self, tmp_path, monkeypatch, capsys):
        # A degraded eye cut off inside the iris on its right, as the
        # benchmark crops it: that side falls back to the image border.
        synth.generate_dataset(1, 1, base_seed=0, out_dir=tmp_path, eyelash_count=12,
                               noise_amplitude=12, bright_spot=True)
        eye = read_pgm_file(tmp_path / "class001_sample01.pgm")
        x_cp, r_p, r_i = 161.0, 29.0, 90.0  # from the manifest
        edge = round(x_cp + r_p + 0.5 * (r_i - r_p))
        write_pgm_file(tmp_path / "eye.pgm", GrayImage(eye.pixels[:, : edge + 1]))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_main(["segment", "eye.pgm"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            cli.SEGMENT_HEADER, f"eye.pgm,161.000,138.000,29.500,29.500,2629,70,{edge},0,1"
        ]


def dark_image(name: str) -> GrayImage:
    """An all-black eye, or a full-height black band 80 px wide on grey."""
    if name == "all_black":
        return GrayImage(np.zeros((280, 320), np.uint8))
    pixels = np.full((280, 320), 128, np.uint8)
    pixels[:, 120:200] = 0
    return GrayImage(pixels)


class TestSpanningDarkRegion:
    """A dark region from border to border is no pupil: the image fails at
    the segment stage in segment and classify, and the next image runs."""

    @pytest.mark.parametrize("command", ["segment", "classify"])
    @pytest.mark.parametrize("name", ["all_black", "full_height_band"])
    def test_fails_at_segment(self, eye_dir, model_file, tmp_path, capsys, command, name):
        path = tmp_path / f"{name}.pgm"
        write_pgm_file(path, dark_image(name))
        good = sorted(eye_dir.glob("class001_*.pgm"))[0]
        model = ["--model", str(model_file)] if command == "classify" else []
        code, out, err = run_main([command, *model, str(path), str(good)], capsys)
        assert code == 1
        p = re.escape(str(path))
        assert re.fullmatch(
            f"{p}: stage 'segment' failed on {p}: the largest dark region "
            r"\(\d+ pixels\) spans the image top to bottom\n",
            err,
        ), err
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == [str(good)]


class TestReadOnce:
    """Each image is decoded once per run, and labelled once."""

    def test_segment_reads_and_labels_each_image_once(self, eye_dir, monkeypatch, capsys):
        reads, labels = [], []
        read, label = harness.read_pgm_file, segmentation.label_components_8
        monkeypatch.setattr(harness, "read_pgm_file", lambda p: reads.append(p) or read(p))
        monkeypatch.setattr(
            segmentation, "label_components_8", lambda m: labels.append(m) or label(m)
        )
        images = sorted(eye_dir.glob("*.pgm"))[:3]
        code, out, _ = run_main(["segment", *map(str, images)], capsys)
        assert code == 0 and len(out.splitlines()) == 4
        assert reads == list(map(str, images))
        assert len(labels) == 3

    def test_dump_stages_labels_each_image_once(self, eye_dir, tmp_path, monkeypatch, capsys):
        labels = []
        label = segmentation.label_components_8

        def spy(mask):
            labels.append(mask)
            return label(mask)

        monkeypatch.setattr(segmentation, "label_components_8", spy)
        # A name cli imported for itself would count as well.
        monkeypatch.setattr(cli, "label_components_8", spy, raising=False)
        images = sorted(eye_dir.glob("*.pgm"))[:3]
        argv = ["segment", *map(str, images), "--dump-stages", "--out", str(tmp_path)]
        code, out, _ = run_main(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 4
        assert len(labels) == 3
        assert len(list(tmp_path.glob("*_filtered.pnm"))) == 3

    def test_experiment_decodes_each_image_once(self, eye_dir, monkeypatch, capsys):
        decodes, reads = [], []
        decode_pgm, read = image_io.read_pgm, harness.read_pgm_file
        monkeypatch.setattr(image_io, "read_pgm", lambda b: decodes.append(b) or decode_pgm(b))
        monkeypatch.setattr(harness, "read_pgm_file", lambda p: reads.append(p) or read(p))
        argv = ["experiment", "--data", str(eye_dir), "--classes", "2,3", "--dims", "3",
                "--epochs", "50"]
        code, out, _ = run_main(argv, capsys)
        images = sorted(eye_dir.glob("*.pgm"))
        assert code == 0 and len(out.splitlines()) == 3
        assert len(decodes) == len(images) == 21
        assert sorted(reads) == images


class TestTrain:
    def test_model_and_labels_written(self, model_file, eye_dir):
        assert model_file.is_file()
        labels = (
            model_file.with_name(model_file.name + ".labels").read_text().split()
        )
        assert labels == ["class001", "class002", "class003"]
        assert model_file.read_text().startswith("irisvd-mlp v1\n")

    def test_report_line(self, eye_dir, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code = cli.main(
            ["train", "--data", str(eye_dir), "--dim", "10", "--seed", "1",
             "--epochs", "500", "--out", str(out)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        path, epochs, mse, stop = line.split(",")
        assert path == str(out)
        assert int(epochs) <= 500
        assert float(mse) > 0.0
        assert stop in ("goal_met", "max_epochs", "gradient_floor")

    def test_deterministic_model(self, eye_dir, tmp_path, capsys):
        outs = []
        for sub in ("m1.txt", "m2.txt"):
            out = tmp_path / sub
            assert cli.main(
                ["train", "--data", str(eye_dir), "--dim", "5", "--seed", "4",
                 "--epochs", "300", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_blank_training_image_fails_its_stage(self, eye_dir, tmp_path, capsys):
        # Segmenting and templating still run per image, in file order, so
        # the first failure names its stage and file as it always has.
        data = tmp_path / "data"
        data.mkdir()
        for f in eye_dir.glob("*.pgm"):
            (data / f.name).write_bytes(f.read_bytes())
        blank = data / "class002_sample03.pgm"
        size = read_pgm_file(blank).pixels.shape
        write_pgm_file(blank, GrayImage(pixels=np.full(size, 255, np.uint8)))
        with pytest.raises(harness.PipelineStageError) as info:
            harness._template_spectrum(blank, harness.PipelineConfig())
        out = tmp_path / "m.txt"
        code, stdout, err = run_main(
            ["train", "--data", str(data), "--epochs", "50", "--out", str(out)], capsys
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: {info.value}\n"
        assert err.startswith(f"error: stage 'segment' failed on {blank}: ")
        assert not out.exists() and not cli._labels_path(out).exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--data", str(tmp_path / "nowhere"), "--out",
             str(tmp_path / "m.txt")]
        )
        assert code == 2
        assert "nowhere" in capsys.readouterr().err

    def test_one_class_is_refused(self, eye_dir, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for f in eye_dir.glob("class001_*.pgm"):
            (data / f.name).write_bytes(f.read_bytes())
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        out = tmp_path / "m.txt"
        error = f"error: need 2 classes with >= 3 samples in {data}, found 1\n"
        for argv in (["train", "--out", str(out)], ["experiment", "--dims", "3"]):
            code, stdout, err = run_main([*argv, "--data", str(data)], capsys)
            assert (code, stdout, err, reads) == (2, "", error, [])
        assert not out.exists() and not cli._labels_path(out).exists()

    def test_report_line_parses_as_csv(self, eye_dir, tmp_path, capsys):
        out = tmp_path / "m,1.txt"
        argv = ["train", "--data", str(eye_dir), "--dim", "3", "--epochs", "20",
                "--out", str(out)]
        code, stdout, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        [row] = csv.reader(stdout.splitlines())
        assert len(row) == 4 and row[0] == str(out)

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_small_class_warning_is_one_line(self, eye_dir, tmp_path, capsys):
        # Shown as a run outside the tests shows it: no category, source path
        # or source line.
        data = tmp_path / "data"
        data.mkdir()
        for f in sorted(eye_dir.glob("*.pgm")):
            if f.name.startswith(("class001_", "class002_", "class003_sample01")):
                (data / f.name).write_bytes(f.read_bytes())
        code, _, err = run_main(
            ["train", "--data", str(data), "--dim", "3", "--epochs", "20",
             "--out", str(tmp_path / "m.txt")], capsys
        )
        assert code == 0
        assert err == "warning: class 'class003' has only 1 samples, need 3; skipping\n"


class TestPathAsGiven:
    """segment and classify name each image exactly as its argument wrote
    it, so a caller can match rows and errors back to its inputs by string."""

    @pytest.fixture(params=["segment", "classify"])
    def command(self, request, eye_dir, model_file, monkeypatch):
        monkeypatch.chdir(eye_dir.parent)
        model = ["--model", str(model_file)] if request.param == "classify" else []
        return [request.param, *model]

    def test_row_starts_with_the_argument(self, command, eye_dir, capsys):
        given = f"./{eye_dir.name}//class001_sample01.pgm"
        code, out, err = run_main([*command, given], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split(",")[0] == given

    def test_path_with_a_comma_parses_as_csv(self, command, eye_dir, tmp_path, capsys):
        given = tmp_path / "x,y.pgm"
        given.write_bytes((eye_dir / "class001_sample01.pgm").read_bytes())
        code, out, err = run_main([*command, str(given)], capsys)
        assert (code, err) == (0, "")
        header, row = csv.reader(out.splitlines())
        assert len(row) == len(header) and row[0] == str(given)

    def test_error_starts_with_the_argument(self, command, eye_dir, capsys):
        missing = f"./{eye_dir.name}/./missing.pgm"
        code, out, err = run_main([*command, missing], capsys)
        assert (code, out.count("\n")) == (1, 1)
        # The OS error at the end of the line names the file as given too.
        assert err == (
            f"{missing}: stage 'read' failed on {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'\n"
        )


class TestClassify:
    def test_training_images_classified(self, eye_dir, model_file, capsys):
        images = [
            str(sorted(eye_dir.glob(f"class00{c}_*.pgm"))[0]) for c in (1, 2, 3)
        ]
        code = cli.main(["classify", "--model", str(model_file)] + images)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == cli.CLASSIFY_HEADER
        assert len(lines) == 4
        for line, want in zip(lines[1:], ("class001", "class002", "class003")):
            path, label, confidence = line.split(",")
            assert label == want
            assert 0.0 < float(confidence) <= 1.0

    def test_dimension_mismatch(self, eye_dir, model_file, monkeypatch, capsys):
        # k is the model's input count: there is no flag to ask for another.
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        with pytest.raises(SystemExit) as info:
            cli.main(["classify", "--model", str(model_file), "--dim", "3", img])
        assert (info.value.code, reads) == (2, [])
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --dim" in err

    def test_undecodable_labels_is_model_error(
        self, eye_dir, model_file, tmp_path, monkeypatch, capsys
    ):
        model = tmp_path / "model.txt"
        model.write_bytes(model_file.read_bytes())
        labels = tmp_path / "model.txt.labels"
        labels.write_bytes(b"class001\nclass\xff002\nclass003\n")
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["classify", "--model", str(model), img])
        assert (code, reads) == (2, [])
        assert capsys.readouterr() == ("", f"error: {labels}: line 2: not UTF-8 text\n")
        with pytest.raises(ModelFormatError):
            cli._read_utf8(labels, ModelFormatError)

    def test_labels_with_byte_order_mark(self, eye_dir, model_file, tmp_path, capsys):
        # A BOM is not part of the first label.
        model = tmp_path / "model.txt"
        model.write_bytes(model_file.read_bytes())
        labels = cli._labels_path(model)
        labels.write_bytes(b"\xef\xbb\xbf" + cli._labels_path(model_file).read_bytes())
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        assert cli.main(["classify", "--model", str(model_file), img]) == 0
        plain = capsys.readouterr()
        assert cli.main(["classify", "--model", str(model), img]) == 0
        assert capsys.readouterr() == plain
        assert plain.out.splitlines()[1].split(",")[1] == "class001"

    def test_label_with_a_comma_parses_as_csv(self, eye_dir, model_file, tmp_path, capsys):
        # As `train` labels a class directory named `cls,a`.
        model = tmp_path / "model.txt"
        model.write_bytes(model_file.read_bytes())
        cli._labels_path(model).write_text("cls,a\nclass002\nclass003\n")
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code, out, err = run_main(["classify", "--model", str(model), img], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.reader(out.splitlines()))
        assert [row[:2] for row in rows] == [["path", "class"], [img, "cls,a"]]
        assert len(rows[1]) == 3

    def test_library_forward_matches_row(self, eye_dir, model_file, capsys):
        # forward scales its own input, so a loaded model takes raw spectra.
        img = str(sorted(eye_dir.glob("class002_*.pgm"))[-1])
        assert cli.main(["classify", "--model", str(model_file), img]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        net = ebp.load_model(model_file)
        x = harness._template_spectrum(img, harness.PipelineConfig())[: net.shape.n_in]
        y = ebp.forward(net, x)
        i = ebp.decode(y)
        assert row == f"{img},class00{i + 1},{y[i]:.4f}"

    @pytest.mark.parametrize("text", ["class001\nclass002\n", "a\nb\nc\nd\n", ""])
    def test_labels_count_must_match_outputs(
        self, eye_dir, model_file, tmp_path, monkeypatch, capsys, text
    ):
        model = tmp_path / "model.txt"
        model.write_bytes(model_file.read_bytes())
        labels = tmp_path / "model.txt.labels"
        labels.write_text(text, encoding="utf-8")
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["classify", "--model", str(model), img])
        assert (code, reads) == (2, [])
        count = len(text.split())
        assert capsys.readouterr() == (
            "", f"error: {labels}: {count} labels for a model with 3 outputs\n"
        )

    def test_overflowing_model_fails_each_image(self, eye_dir, model_file, tmp_path, capsys):
        # Finite first-layer weights of alternating sign and size 1e308
        # overflow the forward pass: each image fails at stage 'forward'
        # instead of printing a nan confidence.
        net = ebp.load_model(model_file)
        signs = np.where(np.arange(net.w1.size) % 2, -1.0, 1.0).reshape(net.w1.shape)
        model = tmp_path / "huge.txt"
        ebp.save_model(model, replace(net, w1=1e308 * signs))
        images = [str(p) for p in sorted(eye_dir.glob("class001_*.pgm"))[:2]]
        code, out, err = run_main(["classify", "--model", str(model), *images], capsys)
        assert (code, out) == (1, cli.CLASSIFY_HEADER + "\n")
        lines = err.splitlines()
        assert len(lines) == 2, err
        for line, path in zip(lines, images):
            assert line.startswith(f"{path}: stage 'forward' failed on {path}: "), line

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (4, "scale 1 abc 1", "line 4: could not convert string to float: 'abc'"),
            (3, "scale 0 2 1", "line 3: scale minimum exceeds maximum"),
            (3, "scale 0 \u00e9 1", "line 3: non-ASCII byte"),
        ],
        ids=["bad_float", "inverted_scale", "non_ascii"],
    )
    def test_model_error_names_the_file_once(
        self, eye_dir, model_file, tmp_path, monkeypatch, capsys, line, text, message
    ):
        model = tmp_path / "model.txt"
        lines = model_file.read_text().splitlines()
        lines[line - 1] = text
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["classify", "--model", str(model), img])
        assert (code, reads) == (2, [])
        assert capsys.readouterr() == ("", f"error: {model}: {message}\n")

    def test_model_input_count_names_the_file(self, eye_dir, tmp_path, capsys):
        # One input more than a template has singular values.
        model = tmp_path / "model41.txt"
        net = ebp.init(ebp.MlpShape(41, ebp.default_hidden(41), 3), seed=0)
        ebp.save_model(model, net)
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["classify", "--model", str(model), img])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {model}: dimension 41 outside [1, 40]\n")

    def test_missing_model(self, eye_dir, tmp_path, capsys):
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(
            ["classify", "--model", str(tmp_path / "absent.txt"), img]
        )
        assert code == 2


class TestExperiment:
    def test_single_cell_grid(self, eye_dir, capsys):
        code = cli.main(
            ["experiment", "--data", str(eye_dir), "--classes", "3",
             "--dims", "20", "--epochs", "400"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "classes,dim,rate,epochs,stop_reason"
        assert len(lines) == 2
        assert lines[1].startswith("3,20,")

    def test_deterministic_and_file_output(self, eye_dir, tmp_path, capsys):
        reports = []
        for sub in ("r1.csv", "r2.csv"):
            out = tmp_path / sub
            code = cli.main(
                ["experiment", "--data", str(eye_dir), "--classes", "3",
                 "--dims", "3,10", "--epochs", "300", "--seed", "2",
                 "--out", str(out)]
            )
            assert code == 0
            stdout = capsys.readouterr().out
            assert stdout == out.read_text()
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_unwritable_out_keeps_report(self, eye_dir, tmp_path, capsys):
        # The report reaches stdout before --out is written, so a failed
        # write exits 1 without losing it.
        argv = ["experiment", "--data", str(eye_dir), "--classes", "3",
                "--dims", "3,10", "--epochs", "300", "--seed", "2", "--out"]
        missing = tmp_path / "missing" / "r.csv"
        code, stdout, err = run_main([*argv, str(missing)], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert run_main([*argv, str(tmp_path / "r.csv")], capsys)[0] == 0
        assert stdout == (tmp_path / "r.csv").read_text()

    def test_blank_training_image_fails_its_stage(self, eye_dir, tmp_path, capsys):
        # Segmenting and templating still run per image, in file order, so
        # the first failure names its stage and file as it always has.
        data = tmp_path / "data"
        data.mkdir()
        for f in eye_dir.glob("*.pgm"):
            (data / f.name).write_bytes(f.read_bytes())
        blank = data / "class002_sample03.pgm"
        size = read_pgm_file(blank).pixels.shape
        write_pgm_file(blank, GrayImage(pixels=np.full(size, 255, np.uint8)))
        with pytest.raises(harness.PipelineStageError) as info:
            harness._template_spectrum(blank, harness.PipelineConfig())
        out = tmp_path / "m.txt"
        code, stdout, err = run_main(
            ["train", "--data", str(data), "--epochs", "50", "--out", str(out)], capsys
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: {info.value}\n"
        assert err.startswith(f"error: stage 'segment' failed on {blank}: ")
        assert not out.exists() and not cli._labels_path(out).exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        code = cli.main(["experiment", "--data", str(tmp_path / "gone")])
        assert code == 2


# One in-range value per knob, unlike its default: config key, flag, value,
# and the subcommands whose flag it is.
KNOB_VALUES = [
    ("segmentation.threshold", "--threshold", "60", ("segment", "experiment")),
    ("segmentation.min_area", "--min-area", "1200", ("segment", "experiment")),
    ("boundary.window", "--window", "3", ("segment", "experiment")),
    ("boundary.jump", "--jump", "20", ("segment", "experiment")),
    ("boundary.annulus_width", "--annulus-width", "30", ("segment", "experiment")),
    ("train.lr0", "--lr", "0.1", ("train", "experiment")),
    ("train.lr_inc", "--lr-inc", "1.1", ("train", "experiment")),
    ("train.lr_dec", "--lr-dec", "0.5", ("train", "experiment")),
    ("train.max_perf_inc", "--max-perf-inc", "1.2", ("train", "experiment")),
    ("train.mse_goal", "--mse-goal", "1e-4", ("train", "experiment")),
    ("train.min_grad", "--min-grad", "1e-7", ("train", "experiment")),
    ("train.max_epochs", "--epochs", "300", ("train",)),
    ("train.seed", "--seed", "3", ("train",)),
    ("train.dim", "--dim", "7", ("train",)),
    ("train.n_train", "--n-train", "4", ("train",)),
    ("synth.samples", "--samples", "3", ("synth",)),
    ("synth.seed", "--seed", "4", ("synth",)),
    ("experiment.class_counts", "--classes", "3,5", ("experiment",)),
    ("experiment.dims", "--dims", "3,10", ("experiment",)),
    ("experiment.epoch_cap", "--epochs", "300", ("experiment",)),
    ("experiment.n_train", "--n-train", "4", ("experiment",)),
    ("experiment.base_seed", "--seed", "2", ("experiment",)),
]
KNOB_CASES = [(key, c, flag, value) for key, flag, value, cs in KNOB_VALUES for c in cs]

# Subcommand -> (the call in cli it hands its knobs to, what of that call to compare).
KNOB_SPIES = {
    "segment": ("segment_eye", lambda path, pcfg: pcfg),
    "train": ("fit_classifier", lambda spectra, classes, train_set, k, cfg: (train_set, k, cfg)),
    "synth": ("generate_dataset", lambda n_classes, **kwargs: kwargs),
    "experiment": ("run_experiment", lambda ds, grid, cfg, pcfg: (grid, cfg, pcfg)),
}


class TestConfigFile:
    def test_unknown_key_rejected(self, eye_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("segmentation.thresold = 70\n")
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["segment", "--config", str(cfg), img])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {cfg}: line 1: unknown config key 'segmentation.thresold'\n"
        )

    def test_missing_config_file(self, eye_dir, capsys):
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        code = cli.main(["segment", "--config", "/no/such/file.cfg", img])
        assert code == 2

    def test_config_sets_dim(self, eye_dir, tmp_path, capsys):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("# training knobs\ntrain.dim = 5\ntrain.max_epochs = 200\n")
        out = tmp_path / "m.txt"
        code = cli.main(
            ["train", "--data", str(eye_dir), "--config", str(cfg),
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        shape_line = out.read_text().splitlines()[1]
        assert shape_line == "shape 5 10 3"

    def test_flag_overrides_config(self, eye_dir, tmp_path, capsys):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("train.dim = 5\ntrain.max_epochs = 200\n")
        out = tmp_path / "m.txt"
        code = cli.main(
            ["train", "--data", str(eye_dir), "--config", str(cfg),
             "--dim", "4", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        shape_line = out.read_text().splitlines()[1]
        assert shape_line == "shape 4 8 3"

    def test_defaults_without_flags_or_config(self):
        args = cli.build_parser().parse_args(["train", "--data", "d"])
        assert cli._pipeline_config(args, {}) == harness.PipelineConfig()
        assert cli._knobs(args, {}, "train.") == {}

    @pytest.mark.parametrize(
        "config",
        ["", "train.max_epochs = 3\n"],
        # train.max_epochs is train's own; experiment.epoch_cap caps the grid.
        ids=["defaults", "train_max_epochs"],
    )
    def test_experiment_configs(self, tmp_path, monkeypatch, capsys, config):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        seen = {}

        def spy(ds, grid_cfg, train_cfg, pipeline):
            seen.update(grid=grid_cfg, train_cfg=train_cfg, pipeline=pipeline)
            return ()

        monkeypatch.setattr(cli, "load_dataset", lambda directory: None)
        monkeypatch.setattr(cli, "run_experiment", spy)
        cli.main(["experiment", "--data", "d", "--config", str(cfg)])
        capsys.readouterr()
        assert seen == {
            "grid": harness.GridConfig(),
            "train_cfg": TrainConfig(),
            "pipeline": harness.PipelineConfig(),
        }
        assert seen["grid"].epoch_cap == 8000

    @pytest.mark.parametrize("key", ["experiment.epoch_cap", "boundary.annulus_width"])
    def test_none_is_not_a_value(self, tmp_path, monkeypatch, capsys, key):
        # Each value parses as its flag does, and no flag takes `none`.
        cfg = tmp_path / "none.cfg"
        cfg.write_text(f"{key} = none\n")
        monkeypatch.setattr(cli, "load_dataset", lambda directory: pytest.fail("ran"))
        code = cli.main(["experiment", "--data", "d", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: {cfg}: line 1: bad value for {key}: "
            "invalid literal for int() with base 10: 'none'\n"
        ))

    def test_knob_values_cover_every_config_key(self):
        assert sorted(key for key, *_ in KNOB_VALUES) == sorted(cli.CONFIG_KEYS)

    @pytest.mark.parametrize(
        "key, command, flag, value", KNOB_CASES, ids=[f"{k}-{c}" for k, c, *_ in KNOB_CASES]
    )
    def test_flag_and_config_key_agree(
        self, eye_dir, tmp_path, monkeypatch, capsys, key, command, flag, value
    ):
        name, view = KNOB_SPIES[command]
        seen = []

        def spy(*args, **kwargs):
            seen.append(view(*args, **kwargs))
            raise RuntimeError("spy")

        monkeypatch.setattr(cli, name, spy)
        monkeypatch.setattr(
            cli, "_template_spectra", lambda paths, pcfg, images: {p: np.zeros(40) for p in paths}
        )
        cfg = tmp_path / "knob.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        inputs = {
            "segment": [str(sorted(eye_dir.glob("*.pgm"))[0])],
            "synth": ["--classes", "2", "--out", str(out)],
        }.get(command, ["--data", str(eye_dir), "--out", str(out)])
        for argv in ([flag, value], ["--config", str(cfg)], []):
            cli.main([command, *argv, *inputs])
        capsys.readouterr()
        by_flag, by_config, default = seen
        assert by_flag == by_config != default
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, config",
        [
            ("experiment", [], "experiment.dims =\n"),
            ("train", ["--lr-inc", "0.5"], ""),
            ("segment", [], "segmentation.threshold = 300\n"),
            ("train", [], "train.lr0 = inf\n"),
            ("train", [], "train.lr_inc = nan\n"),
            ("train", [], "train.lr_dec = nan\n"),
            ("train", [], "train.max_perf_inc = inf\n"),
            ("train", [], "train.mse_goal = nan\n"),
            ("train", [], "train.min_grad = nan\n"),
            ("train", ["--lr", "inf"], ""),
            ("train", ["--n-train", "-1"], ""),
            ("train", ["--n-train", "0"], ""),
            ("train", ["--dim", "0"], ""),
            ("train", ["--dim", "41"], ""),
            ("classify", [], ""),
            ("experiment", ["--dims", "3,41"], ""),
            ("synth", [], "synth.samples = 0\n"),
            ("synth", [], "synth.samples = -3\n"),
            ("segment", ["--min-area", "-5"], ""),
            ("segment", [], "segmentation.min_area = -3\n"),
            ("train", [], "train.dim = 3\ntrain.dim = 4\n"),
        ],
        ids=[
            "empty_dims", "lr_inc_below_1", "threshold_300", "lr0_inf",
            "lr_inc_nan", "lr_dec_nan", "max_perf_inc_inf", "mse_goal_nan",
            "min_grad_nan", "lr_flag_inf", "n_train_negative", "n_train_0",
            "train_dim_0", "train_dim_41", "classify_model_41", "experiment_dim_41",
            "synth_samples_0", "synth_samples_negative", "min_area_flag_negative",
            "min_area_negative", "duplicate_key",
        ],
    )
    def test_out_of_range_knob_is_config_error(
        self, eye_dir, tmp_path, monkeypatch, capsys, command, flags, config
    ):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(config)
        img = str(sorted(eye_dir.glob("*.pgm"))[0])
        out = tmp_path / "out"
        if command == "classify":
            # One input more than a template has singular values.
            net = ebp.init(ebp.MlpShape(41, ebp.default_hidden(41), 3), seed=0)
            ebp.save_model(out, replace(net, feature_scaling=[(0.0, 1.0)] * 41))
        inputs = {
            "segment": [img],
            "classify": ["--model", str(out), img],
            "synth": ["--classes", "2", "--out", str(out)],
        }.get(command, ["--data", str(eye_dir), "--out", str(out)])
        # Rejected before any image is read or any output written.
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        code = cli.main([command, "--config", str(cfg), *flags, *inputs])
        assert (code, reads) == (2, [])
        assert "error:" in capsys.readouterr().err
        assert out.exists() == (command == "classify")

    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "file"])
    @pytest.mark.parametrize(
        "command, key, flag, value, message",
        [
            ("segment", "segmentation.threshold", "--threshold", "300",
             "threshold must be in [0, 255], got 300"),
            ("segment", "boundary.annulus_width", "--annulus-width", "0",
             "default_annulus_width must be >= 1, got 0"),
            ("train", "train.lr_dec", "--lr-dec", "1.5",
             "lr_dec must be in (0, 1), got 1.5"),
            ("experiment", "experiment.epoch_cap", "--epochs", "0",
             "epoch_cap must be >= 1, got 0"),
            # train's split, checked as the grid's n_train is
            ("train", "train.n_train", "--n-train", "0", "n_train must be >= 1, got 0"),
            # feature dimensions, checked against the template's singular values
            ("train", "train.dim", "--dim", "41", "dimension 41 outside [1, 40]"),
            ("experiment", "experiment.dims", "--dims", "3,41", "dimension 41 outside [1, 40]"),
        ],
        ids=["pipeline", "edge", "train", "grid", "train_split", "train_dim", "grid_dims"],
    )
    def test_range_error_names_what_set_the_value(
        self, eye_dir, tmp_path, monkeypatch, capsys, command, key, flag, value, message,
        by_flag
    ):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [flag, value] if by_flag else ["--config", str(cfg)]
        inputs = ([str(sorted(eye_dir.glob("*.pgm"))[0])] if command == "segment"
                  else ["--data", str(eye_dir), "--out", str(tmp_path / "out")])
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        code = cli.main([command, *argv, *inputs])
        origin = flag if by_flag else f"{cfg}: {key}"
        assert (code, reads) == (2, [])
        assert capsys.readouterr() == ("", f"error: {origin}: {message}\n")

    def test_range_error_across_knobs_is_config_error(self, monkeypatch):
        # No knob fails on its own, so the error names no origin, but it is
        # still a ConfigError (exit 2), not a ValueError.
        @dataclass
        class Window:
            low: int = 0
            high: int = 10

            def __post_init__(self):
                if self.low >= self.high:
                    raise ValueError(f"low {self.low} must be below high {self.high}")

        args = argparse.Namespace(config=None)
        knobs = [cli.Knob(f"window.{n}", f"--{n}", "pipe", n, int, "") for n in ("low", "high")]
        monkeypatch.setattr(cli, "KNOBS", tuple(knobs))
        cfg = {"window.low": 5, "window.high": 3}
        with pytest.raises(cli.ConfigError, match=r"^low 5 must be below high 3$"):
            cli._config(Window, args, cfg, "window.")

    def test_undecodable_config_is_config_error(self, eye_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# knobs\nsegmentation.threshold = 7\xff0\n")
        reads = []
        monkeypatch.setattr(harness, "read_pgm_file", reads.append)
        code = cli.main(["experiment", "--data", str(eye_dir), "--config", str(cfg)])
        assert (code, reads) == (2, [])
        assert capsys.readouterr() == ("", f"error: {cfg}: line 2: not UTF-8 text\n")

    def test_byte_order_mark_ignored(self, eye_dir, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfsegmentation.threshold = 70\n")
        assert cli.load_config(str(cfg)) == {"segmentation.threshold": 70}
        img = str(sorted(eye_dir.glob("class001_*.pgm"))[0])
        assert cli.main(["segment", "--config", str(cfg), img]) == 0
        assert capsys.readouterr().err == ""
        # The BOM moves no line number of an undecodable byte.
        cfg.write_bytes(b"\xef\xbb\xbf# knobs\nsegmentation.threshold = 7\xff0\n")
        with pytest.raises(cli.ConfigError, match=": line 2: not UTF-8 text$"):
            cli.load_config(str(cfg))

    def test_comments_and_blank_lines(self):
        parsed = cli.parse_config_text(
            "# full comment\n\nsegmentation.threshold = 64  # inline\n"
        )
        assert parsed == {"segmentation.threshold": 64}

    def test_malformed_line(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("just words\n")

    def test_bad_value(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("segmentation.threshold = soft\n")

    def test_list_values(self):
        parsed = cli.parse_config_text(
            "experiment.class_counts = 3, 4, 5\nexperiment.dims = 20\n"
        )
        assert parsed["experiment.class_counts"] == (3, 4, 5)
        assert parsed["experiment.dims"] == (20,)


class TestReadme:
    def test_config_key_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| Key | Flag |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)`", table, flags=re.M)
        assert sorted(key for key, _ in rows) == sorted(cli.CONFIG_KEYS)
        assert dict(rows) == {knob.key: knob.flag for knob in cli.KNOBS}
        # Each Default cell starts with the default the knob's --help prints,
        # whole up to any `;` note; annulus_width's help says it in words.
        defaults = dict(
            re.findall(r"^\| `([^`]+)` \| `[^`]+` \| [^|]+ \| ([^|]+) \|$", table, flags=re.M)
        )
        wrong = []
        for knob in cli.KNOBS:
            cell = defaults[knob.key]
            if knob.key == "boundary.annulus_width":
                ok = "twice the larger pupil radius" in cell
            else:
                ok = cell.split(";")[0] == re.search(r"\(default ([^)]+)\)", knob.help)[1]
            if not ok:
                wrong.append(knob.key)
        assert wrong == []


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["synth", "segment", "train", "classify", "experiment"]
    )
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestFeaturePath:
    """Every subcommand that reads features takes singular values only."""

    def test_no_subcommand_builds_singular_vectors(self, eye_dir, model_file, tmp_path,
                                                   monkeypatch, capsys):
        # class001_sample05's template is rank-deficient, sample01's is not.
        model = tmp_path / "model.txt"
        images = [eye_dir / "class001_sample05.pgm", eye_dir / "class001_sample01.pgm"]
        runs = [
            ["classify", "--model", str(model_file), *map(str, images)],
            ["experiment", "--data", str(eye_dir), "--classes", "2,3", "--dims", "3",
             "--epochs", "200"],
            ["train", "--data", str(eye_dir), "--dim", "10", "--epochs", "200",
             "--out", str(model)],
        ]
        want = [run_main(argv, capsys) for argv in runs]
        want_model = model.read_bytes()

        # A sweep given a V^T builds singular vectors; none may be given one.
        vts = []
        sweep = svd._sweep
        monkeypatch.setattr(svd, "_sweep", lambda wt, vt=None: vts.append(vt) or sweep(wt, vt))
        got = [run_main(argv, capsys) for argv in runs]
        assert [code for code, _, _ in got] == [0, 0, 0]
        assert got == want
        assert model.read_bytes() == want_model
        assert vts and all(vt is None for vt in vts)


    def test_only_train_batches_the_svd(self, eye_dir, model_file, tmp_path, monkeypatch,
                                         capsys):
        # train takes every training spectrum from one batched call;
        # classify and experiment factorize each image on its own.
        factorized, batched = [], []
        factorize, spectra = harness.svd_factorize, harness.svd_spectra
        monkeypatch.setattr(
            harness, "svd_factorize", lambda a: factorized.append(a) or factorize(a)
        )
        monkeypatch.setattr(
            harness, "svd_spectra", lambda stack: batched.append(len(stack)) or spectra(stack)
        )
        images = sorted(eye_dir.glob("*.pgm"))
        runs = {
            "train": (["train", "--data", str(eye_dir), "--dim", "10", "--epochs", "200",
                       "--out", str(tmp_path / "m.txt")], 0, [15]),
            "classify": (["classify", "--model", str(model_file), *map(str, images[:2])],
                         2, []),
            "experiment": (["experiment", "--data", str(eye_dir), "--classes", "2,3",
                            "--dims", "3", "--epochs", "50"], len(images), []),
        }
        for command, (argv, factorizations, stacks) in runs.items():
            factorized.clear()
            batched.clear()
            assert run_main(argv, capsys)[0] == 0, command
            assert (len(factorized), batched) == (factorizations, stacks), command


HELP_COMMANDS = [[], ["synth"], ["segment"], ["train"], ["classify"], ["experiment"]]


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main parses with one argparse tree per process; no call may see
    what an earlier one parsed or printed."""

    def test_parser_built_once(self, eye_dir, monkeypatch, capsys):
        assert cli.build_parser() is cli.build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli.build_parser.__wrapped__()
        per_tree = len(built)
        assert per_tree >= 9
        built.clear()
        cli.build_parser.cache_clear()
        img = str(sorted(eye_dir.glob("*.pgm"))[0])
        for _ in range(4):
            assert run_main(["segment", img], capsys)[0] == 0
        assert len(built) == per_tree

    def test_flag_does_not_carry_over(self, eye_dir, monkeypatch, capsys):
        seen = []

        def spy(path, pcfg):
            seen.append(pcfg)
            raise RuntimeError("spy")

        monkeypatch.setattr(cli, "segment_eye", spy)
        img = str(sorted(eye_dir.glob("*.pgm"))[0])
        run_main(["segment", "--threshold", "50", img], capsys)
        run_main(["segment", img], capsys)
        assert seen == [harness.PipelineConfig(threshold=50), harness.PipelineConfig()]

    @pytest.mark.parametrize(
        "disruptor, code",
        [(["segment", "--no-such-flag"], 2), (["segment", "--help"], 0), (["--help"], 0)],
        ids=["usage_error", "segment_help", "help"],
    )
    def test_next_call_unaffected(self, eye_dir, capsys, disruptor, code):
        request = ["segment", str(sorted(eye_dir.glob("*.pgm"))[0])]
        cli.build_parser.cache_clear()
        fresh = run_main(request, capsys)
        first = run_main(disruptor, capsys)
        assert first[0] == code
        assert run_main(request, capsys) == fresh
        assert run_main(disruptor, capsys) == first

    @pytest.mark.parametrize("command", HELP_COMMANDS, ids=lambda c: c[0] if c else "irisvd")
    def test_help_matches_fresh_parser(self, command, monkeypatch, capsys):
        argv = [*command, "--help"]
        shown = set()
        for columns in ("120", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            cached = run_main(argv, capsys)
            with pytest.raises(SystemExit):
                cli.build_parser.__wrapped__().parse_args(argv)
            assert cached == (0, capsys.readouterr().out, "")
            shown.add(cached)
        # Subcommand help wraps differently at the two widths, so the
        # cached parser reads COLUMNS on every call.
        assert len(shown) == (2 if command else 1)


def load_perfbench(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / name
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing.py")


class TestBenchmarkHooks:
    def test_traced_names_still_exist(self):
        # The traced benchmark wraps these names where the program looks
        # them up; a rename would silently drop a span.
        tracing = load_tracing()
        modules = (cli, harness, segmentation, synth)
        for span, attr in tracing.WRAPPED.items():
            assert any(callable(getattr(m, attr, None)) for m in modules), span

    def test_synth_records_one_generate_span(self, tmp_path, capsys):
        # synth.generate_s is read from this span: one per synth call, so
        # it times the whole render and nothing else wraps it twice.
        tracing = load_tracing()
        tracer = tracing.Tracer()
        tracer.install((cli, harness, segmentation, synth))
        argv = ["synth", "--classes", "2", "--samples", "3", "--out", str(tmp_path)]
        try:
            with tracer.request("synth", kind="setup"):
                assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert [s["name"] for s in tracer.spans].count("synth.generate") == 1

    def test_segment_records_every_layer(self, eye_dir, capsys):
        # The traced benchmark exits 1 when a layer it expects has no span.
        tracing = load_tracing()
        tracer = tracing.Tracer()
        tracer.install((cli, harness, segmentation, synth))
        img = sorted(eye_dir.glob("*.pgm"))[0]
        try:
            with tracer.request("segment", kind="op"):
                assert cli.main(["segment", str(img)]) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        layers = (
            "image_io.read",
            "segmentation.threshold",
            "segmentation.geometry",
            "segmentation.label",
            "iris_boundary.bounds",
        )
        assert tracing.missing_layers(tracer.spans, layers) == []
        [label] = [s for s in tracer.spans if s["name"] == "segmentation.label"]
        mask = threshold_dark(read_pgm_file(img))
        assert label["attrs"]["regions"] == len(label_components_8(mask))

    def test_experiment_records_every_layer(self, eye_dir, capsys):
        # ebp.us_per_epoch divides the ebp.train spans by their epochs attr,
        # so each span's attrs must agree with its row of the report.
        tracing, bench = load_tracing(), load_perfbench("run.py")
        tracer = tracing.Tracer()
        tracer.install((cli, harness, segmentation, synth))
        argv = ["experiment", "--data", str(eye_dir), "--classes", "2,3",
                "--dims", "3,10", "--epochs", "300"]
        try:
            with tracer.request("experiment", kind="op"):
                assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert tracing.missing_layers(tracer.spans, bench.Grid.op_layers) == []
        trains = [s["attrs"] for s in tracer.spans if s["name"] == "ebp.train"]
        got = [(t["epochs"], t["capped"]) for t in trains]
        want = [(int(r[3]), r[4] == "max_epochs") for r in rows]
        assert got == want
        assert len(want) == 4 and 0 < sum(c for _, c in want) < 4

    def test_train_setup_records_every_layer(self, eye_dir, tmp_path, capsys):
        # classify's set-up trains its model; every set-up layer but the
        # benchmark's own synth call must show up in the traced train.
        tracing, bench = load_tracing(), load_perfbench("run.py")
        tracer = tracing.Tracer()
        tracer.install((cli, harness, segmentation, synth))
        argv = ["train", "--data", str(eye_dir), "--dim", "20", "--epochs", "200",
                "--out", str(tmp_path / "m.txt")]
        try:
            with tracer.request("cli", kind="setup"):
                assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        layers = [name for name in bench.Classify.setup_layers if name != "synth.generate"]
        assert layers == ["harness.load_dataset", "ebp.train"]
        assert tracing.missing_layers(tracer.spans, layers) == []

    def test_classify_records_every_layer(self, eye_dir, model_file, capsys):
        # One image with a rank-deficient template, one without.
        tracing, bench = load_tracing(), load_perfbench("run.py")
        images = [eye_dir / "class001_sample05.pgm", eye_dir / "class001_sample01.pgm"]
        tracer = tracing.Tracer()
        tracer.install((cli, harness, segmentation, synth))
        try:
            with tracer.request("classify", kind="op"):
                argv = ["classify", "--model", str(model_file), *map(str, images)]
                assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert tracing.missing_layers(tracer.spans, bench.Classify.op_layers) == []
        spans = [s for s in tracer.spans if s["name"] == "svd.factorize"]
        deficient = []
        for path in images:
            s = harness._template_spectrum(path, harness.PipelineConfig())
            deficient.append(bool(s[-1] <= s[0] * 1e-13))
        assert [s["attrs"]["rank_deficient"] for s in spans] == deficient == [True, False]
