"""Dataset loading, splitting, the image-to-feature pipeline, and the
experiment grid."""

import shutil

import numpy as np
import pytest

from irisvd import cli, harness, svd
from irisvd.ebp import TrainConfig
from irisvd.image_io import GrayImage, write_pgm_file
from irisvd.synth import EyeSpec, class_seed_for, generate_dataset, generate_eye


@pytest.fixture(scope="module")
def eye_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("eyes")
    generate_dataset(6, samples_per_class=7, base_seed=11, out_dir=out)
    return out


@pytest.fixture(scope="module")
def dataset(eye_dir):
    return harness.load_dataset(eye_dir)


class TestLoadDataset:
    def test_generator_layout(self, dataset):
        assert len(dataset.classes) == 6
        assert list(dataset.classes) == sorted(dataset.classes)
        for cls in dataset.classes:
            files = dataset.samples[cls]
            assert len(files) == 7
            assert [f.name for f in files] == sorted(f.name for f in files)

    def test_subdirectory_layout(self, eye_dir, tmp_path):
        root = tmp_path / "byclass"
        root.mkdir()
        src = sorted(eye_dir.glob("class001_*.pgm"))
        for name in ("alpha", "beta"):
            sub = root / name
            sub.mkdir()
            for f in src[:4]:
                shutil.copy(f, sub / f.name)
        ds = harness.load_dataset(root)
        assert ds.classes == ("alpha", "beta")
        assert len(ds.samples["alpha"]) == 4

    def test_small_class_skipped_with_warning(self, eye_dir, tmp_path):
        root = tmp_path / "mixed"
        root.mkdir()
        for f in eye_dir.glob("class001_*.pgm"):
            shutil.copy(f, root / f.name)
        for f in sorted(eye_dir.glob("class002_*.pgm"))[:2]:
            shutil.copy(f, root / f.name)
        with pytest.warns(UserWarning, match="class002"):
            ds = harness.load_dataset(root)
        assert ds.classes == ("class001",)

    def test_six_sample_class_accepted(self, eye_dir, tmp_path):
        root = tmp_path / "six"
        root.mkdir()
        for f in sorted(eye_dir.glob("class001_*.pgm"))[:6]:
            shutil.copy(f, root / f.name)
        for f in eye_dir.glob("class002_*.pgm"):
            shutil.copy(f, root / f.name)
        ds = harness.load_dataset(root)
        train_set, test_set = harness.split(ds)
        assert len(train_set["class001"]) == 5
        assert len(test_set["class001"]) == 1

    def test_empty_directory(self, tmp_path):
        with pytest.raises(harness.DatasetError):
            harness.load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(harness.DatasetError):
            harness.load_dataset(tmp_path / "nope")

    def test_inconsistent_dimensions_named(self, eye_dir, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        for f in eye_dir.glob("class001_*.pgm"):
            shutil.copy(f, root / f.name)
        odd = GrayImage(pixels=np.full((10, 10), 128, dtype=np.uint8))
        write_pgm_file(root / "class001_sample99.pgm", odd)
        with pytest.raises(harness.DatasetError, match="sample99"):
            harness.load_dataset(root)

    def test_unreadable_file_named(self, eye_dir, tmp_path):
        root = tmp_path / "corrupt"
        root.mkdir()
        for f in eye_dir.glob("class001_*.pgm"):
            shutil.copy(f, root / f.name)
        (root / "class001_sample98.pgm").write_bytes(b"not a pgm at all")
        with pytest.raises(harness.DatasetError, match="sample98"):
            harness.load_dataset(root)


class TestSplit:
    def test_five_two(self, dataset):
        train_set, test_set = harness.split(dataset)
        for cls in dataset.classes:
            assert len(train_set[cls]) == 5
            assert len(test_set[cls]) == 2

    def test_partition_disjoint_and_complete(self, dataset):
        train_set, test_set = harness.split(dataset)
        for cls in dataset.classes:
            both = train_set[cls] + test_set[cls]
            assert both == dataset.samples[cls]
            assert len(set(both)) == len(both)

    def test_train_gets_lexicographic_head(self, dataset):
        train_set, _ = harness.split(dataset)
        cls = dataset.classes[0]
        expected = dataset.samples[cls][:5]
        assert train_set[cls] == expected

    def test_deterministic(self, dataset):
        a = harness.split(dataset)
        b = harness.split(dataset)
        assert a == b

    def test_custom_n_train(self, dataset):
        train_set, test_set = harness.split(dataset, n_train=6)
        cls = dataset.classes[0]
        assert len(train_set[cls]) == 6
        assert len(test_set[cls]) == 1


class TestPipelineFeatures:
    def test_feature_vector_contract(self, dataset):
        path = dataset.samples[dataset.classes[0]][0]
        x = harness._template_spectrum(path, harness.PipelineConfig())
        assert x.shape == (40,)
        assert x[0] >= x[-1] >= 0.0

    def test_deterministic(self, dataset):
        path = dataset.samples[dataset.classes[0]][0]
        cfg = harness.PipelineConfig()
        a = harness._template_spectrum(path, cfg)
        b = harness._template_spectrum(path, cfg)
        assert np.array_equal(a, b)

    def test_blank_image_fails_at_segmentation(self, tmp_path):
        blank = GrayImage(pixels=np.full((280, 320), 255, dtype=np.uint8))
        path = tmp_path / "blank.pgm"
        write_pgm_file(path, blank)
        with pytest.raises(harness.PipelineStageError) as info:
            harness._template_spectrum(path, harness.PipelineConfig())
        assert info.value.stage == "segment"
        assert "blank.pgm" in str(info.value)

    def test_tight_crop_has_finite_spectrum(self, tmp_path, monkeypatch):
        # Cropped to the pupil plus 2 px, the template is rank-deficient and
        # its Jacobi sweeps used to overflow tau * tau; warnings are errors.
        # A pair too lopsided to rotate must not keep the sweeps running.
        sweeps = []

        class Rounds(list):
            def __iter__(self):
                sweeps.append(1)
                return super().__iter__()

        pairs = svd._round_robin_pairs
        monkeypatch.setattr(svd, "_round_robin_pairs", lambda n: Rounds(pairs(n)))
        img, _, _ = generate_eye(EyeSpec(class_seed=class_seed_for(0, 1), sample_seed=2))
        path = tmp_path / "crop.pgm"
        write_pgm_file(path, GrayImage(pixels=img.pixels[91:218, 39:247]))
        spectrum = harness._template_spectrum(path, harness.PipelineConfig())
        assert 0 < len(sweeps) < svd.JACOBI_MAX_SWEEPS
        assert spectrum.size == 40
        assert np.all(np.isfinite(spectrum)) and np.all(np.diff(spectrum) <= 0.0)
        assert spectrum[-1] < 1e-13 * spectrum[0]

    def test_dimension_bounds(self, dataset):
        # The CLI checks k before any image is read, against the template
        # shape; the spectrum must hold exactly that many values.
        path = dataset.samples[dataset.classes[0]][0]
        size = harness._template_spectrum(path, harness.PipelineConfig()).size
        assert cli._check_dim(size) == size
        for k in (0, size + 1):
            with pytest.raises(cli.ConfigError):
                cli._check_dim(k)


class TestCellSeed:
    def test_deterministic(self):
        assert harness.cell_seed(0, 5, 20) == harness.cell_seed(0, 5, 20)

    def test_distinct_cells(self):
        seeds = {
            harness.cell_seed(0, c, k)
            for c in (3, 4, 5, 10, 20)
            for k in (3, 10, 20, 40)
        }
        assert len(seeds) == 20

    def test_base_seed_matters(self):
        assert harness.cell_seed(0, 5, 20) != harness.cell_seed(1, 5, 20)


@pytest.fixture(scope="module")
def small_grid(dataset):
    grid = harness.GridConfig(
        class_counts=(3, 4, 6, 10), dims=(3, 10), base_seed=7, epoch_cap=300
    )
    return harness.run_experiment(dataset, grid)


class TestRunExperiment:
    def test_counts_beyond_dataset_skipped(self, small_grid):
        # 10 classes are not available, so only 3 counts times 2 dims remain.
        assert len(small_grid.cells) == 6
        assert {c.classes for c in small_grid.cells} == {3, 4, 6}

    def test_rates_in_unit_interval(self, small_grid):
        for cell in small_grid.cells:
            assert cell.error is None
            assert 0.0 <= cell.rate <= 1.0

    def test_epoch_cap_applies(self, small_grid):
        for cell in small_grid.cells:
            assert cell.epochs <= 300

    def test_only_selected_classes_featurized(self, dataset, monkeypatch):
        # Two of the six classes, seven images each.
        calls = []

        def fake_spectrum(path, cfg, img=None):
            calls.append(path)
            rng = np.random.default_rng(len(calls))
            return np.sort(rng.uniform(1.0, 10.0, 40))[::-1]

        monkeypatch.setattr(harness, "_template_spectrum", fake_spectrum)
        grid = harness.GridConfig(class_counts=(2,), dims=(3,), epoch_cap=20)
        (cell,) = harness.run_experiment(dataset, grid).cells
        assert cell.error is None
        assert len(calls) == 14

    def test_deterministic_report(self, dataset):
        grid = harness.GridConfig(class_counts=(3,), dims=(3, 10), epoch_cap=200)
        a = harness.run_experiment(dataset, grid)
        b = harness.run_experiment(dataset, grid)
        assert harness.emit_report(a) == harness.emit_report(b)

    def test_all_test_sets_empty_records_failure(self, eye_dir, tmp_path):
        root = tmp_path / "short"
        root.mkdir()
        for c in (1, 2, 3):
            for f in sorted(eye_dir.glob(f"class00{c}_*.pgm"))[:5]:
                shutil.copy(f, root / f.name)
        ds = harness.load_dataset(root)
        grid = harness.GridConfig(class_counts=(3,), dims=(3,), epoch_cap=50)
        result = harness.run_experiment(ds, grid)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is not None
        assert cell.rate is None
        assert cell.stop_reason == "failed"
        report = harness.emit_report(result)
        assert "3,3,,0,failed" in report

    def test_each_image_runs_once(self, eye_dir, tmp_path, monkeypatch):
        # A failing image fails every cell that holds it, with the same
        # message, but goes through the pipeline once per run.
        root = tmp_path / "blanked"
        shutil.copytree(eye_dir, root)
        blank = root / "class001_sample07.pgm"
        write_pgm_file(blank, GrayImage(pixels=np.full((280, 320), 255, np.uint8)))
        calls = []
        real = harness._template_spectrum

        def spy(path, cfg, img=None):
            calls.append(path)
            return real(path, cfg, img)

        monkeypatch.setattr(harness, "_template_spectrum", spy)
        ds = harness.load_dataset(root)
        grid = harness.GridConfig(class_counts=(2, 3), dims=(3, 10), epoch_cap=20)
        cells = harness.run_experiment(ds, grid).cells
        assert len(calls) == len(set(calls)) and blank in calls
        errors = {cell.error for cell in cells}
        assert len(cells) == 4 and len(errors) == 1
        assert f"stage 'segment' failed on {blank}" in errors.pop()

    def test_per_cell_seed_wired(self, dataset, monkeypatch):
        # Every cell's network must be seeded from the cell coordinates.
        seen = []
        real_init = harness.init

        def spy(shape, seed):
            seen.append(seed)
            return real_init(shape, seed)

        monkeypatch.setattr(harness, "init", spy)
        grid = harness.GridConfig(
            class_counts=(3, 4), dims=(3,), base_seed=5, epoch_cap=20
        )
        harness.run_experiment(dataset, grid)
        assert seen == [harness.cell_seed(5, 3, 3), harness.cell_seed(5, 4, 3)]


class TestEmitReport:
    def test_single_cell(self):
        grid = harness.ExperimentGrid(
            cells=(
                harness.GridCell(
                    classes=5, dim=20, rate=1.0, epochs=2150,
                    stop_reason="goal_met",
                ),
            )
        )
        text = harness.emit_report(grid)
        assert text == "classes,dim,rate,epochs,stop_reason\n5,20,1.0000,2150,goal_met\n"

    def test_rate_has_four_decimals(self):
        grid = harness.ExperimentGrid(
            cells=(
                harness.GridCell(
                    classes=8, dim=10, rate=0.8125, epochs=10,
                    stop_reason="max_epochs",
                ),
            )
        )
        assert "8,10,0.8125,10,max_epochs" in harness.emit_report(grid)

    def test_full_grid_line_count(self):
        cells = tuple(
            harness.GridCell(
                classes=c, dim=k, rate=0.5, epochs=1,
                stop_reason="max_epochs",
            )
            for c in harness.DEFAULT_CLASS_COUNTS
            for k in harness.DEFAULT_DIMS
        )
        text = harness.emit_report(harness.ExperimentGrid(cells=cells))
        assert len(text.splitlines()) == 45

    def test_reemission_identical(self):
        grid = harness.ExperimentGrid(
            cells=(
                harness.GridCell(
                    classes=3, dim=3, rate=0.5, epochs=9,
                    stop_reason="max_epochs",
                ),
            )
        )
        assert harness.emit_report(grid) == harness.emit_report(grid)


class TestGridConfigValidation:
    def test_bad_class_counts(self):
        with pytest.raises(ValueError):
            harness.GridConfig(class_counts=(1, 3))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            harness.GridConfig(dims=(0,))

    def test_bad_epoch_cap(self):
        with pytest.raises(ValueError):
            harness.GridConfig(epoch_cap=0)
