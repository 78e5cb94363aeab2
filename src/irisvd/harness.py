"""Dataset loading, train/test splitting, and the classes-by-dimension
experiment grid.

A dataset directory holds class-grouped PGM files, either flat with the
generator's class/sample naming or one subdirectory per class.  Each class's
first five samples (lexicographic) train the classifier and the remainder
test it.  The experiment sweeps class counts against feature dimensions,
training a fresh deterministically-seeded network per cell, and reports one
CSV row per cell.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ebp import (
    Mlp,
    MlpShape,
    TrainConfig,
    TrainReport,
    apply_scaling,
    attach_scaling,
    decode,
    default_hidden,
    encode_target,
    fit_scaling,
    forward,
    init,
    train,
)
from .image_io import GrayImage, read_pgm_file
from .iris_boundary import EdgeConfig, IrisBounds, iris_bounds
from .segmentation import (
    DEFAULT_DARK_THRESHOLD,
    DEFAULT_MIN_PUPIL_AREA,
    PupilGeometry,
    pupil_geometry,
    threshold_dark,
)
from .svd import Matrix, svd_factorize
from .template import extract_iris_basis

MIN_SAMPLES_PER_CLASS = 3
DEFAULT_N_TRAIN = 5

DEFAULT_CLASS_COUNTS = (3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 50)
DEFAULT_DIMS = (3, 10, 20, 40)

REPORT_HEADER = "classes,dim,rate,epochs,stop_reason"


class DatasetError(Exception):
    """Raised when a dataset directory cannot be loaded."""


class PipelineStageError(Exception):
    """A pipeline stage failed on one image; carries the stage's name."""

    def __init__(self, stage: str, path, cause: Exception):
        super().__init__(f"stage {stage!r} failed on {path}: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class Dataset:
    """Class ids in lexicographic order, each with its ordered sample paths,
    and every sample's image as load_dataset decoded it."""

    classes: tuple[str, ...]
    samples: dict[str, tuple[Path, ...]]
    images: dict[Path, GrayImage]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the image-to-feature pipeline."""

    threshold: int = DEFAULT_DARK_THRESHOLD
    min_pupil_area: int = DEFAULT_MIN_PUPIL_AREA
    edge: EdgeConfig = EdgeConfig()

    def __post_init__(self) -> None:
        if not 0 <= self.threshold <= 255:
            raise ValueError(f"threshold must be in [0, 255], got {self.threshold}")


@dataclass(frozen=True)
class GridConfig:
    """Experiment sweep: class counts against feature dimensions.

    epoch_cap bounds per-cell training (None keeps the TrainConfig cap);
    the per-cell seed is derived from base_seed and the cell coordinates,
    so cells are independent of execution order.
    """

    class_counts: tuple[int, ...] = DEFAULT_CLASS_COUNTS
    dims: tuple[int, ...] = DEFAULT_DIMS
    n_train: int = DEFAULT_N_TRAIN
    base_seed: int = 0
    epoch_cap: int | None = 8000

    def __post_init__(self) -> None:
        if not self.class_counts or min(self.class_counts) < 2:
            raise ValueError("class_counts must be >= 2 throughout")
        if not self.dims or min(self.dims) < 1:
            raise ValueError("dims must be >= 1 throughout")
        if self.n_train < 1:
            raise ValueError(f"n_train must be >= 1, got {self.n_train}")
        if self.epoch_cap is not None and self.epoch_cap < 1:
            raise ValueError(f"epoch_cap must be >= 1, got {self.epoch_cap}")


@dataclass(frozen=True)
class GridCell:
    classes: int
    dim: int
    rate: float | None
    epochs: int
    stop_reason: str
    error: str | None = None


@dataclass(frozen=True)
class ExperimentGrid:
    cells: tuple[GridCell, ...]


def _class_key(path: Path) -> str:
    stem = path.stem
    if "_sample" in stem:
        return stem.rsplit("_sample", 1)[0]
    if "_" in stem:
        return stem.rsplit("_", 1)[0]
    return stem


def load_dataset(directory) -> Dataset:
    """Scan a directory of PGM eye images into deterministic class groups.

    Subdirectories are treated as classes; flat files group by the portion
    of the name before the sample suffix.  Classes with fewer than
    MIN_SAMPLES_PER_CLASS samples are dropped with a warning.  Every image
    must parse and share one common size; the decoded images are kept, so
    nothing reads them again.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DatasetError(f"not a directory: {root}")

    groups: dict[str, list[Path]] = {}
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        files = sorted(sub.glob("*.pgm"))
        if files:
            groups[sub.name] = files
    for f in sorted(root.glob("*.pgm")):
        groups.setdefault(_class_key(f), []).append(f)

    kept: dict[str, tuple[Path, ...]] = {}
    for cls in sorted(groups):
        files = sorted(groups[cls])
        if len(files) < MIN_SAMPLES_PER_CLASS:
            warnings.warn(
                f"class {cls!r} has only {len(files)} samples, "
                f"need {MIN_SAMPLES_PER_CLASS}; skipping",
                stacklevel=2,
            )
            continue
        kept[cls] = tuple(files)
    if not kept:
        raise DatasetError(f"no classes with >= {MIN_SAMPLES_PER_CLASS} samples in {root}")

    images: dict[Path, GrayImage] = {}
    shape: tuple[int, int] | None = None
    for cls, files in kept.items():
        for f in files:
            try:
                img = images[f] = read_pgm_file(f)
            except Exception as exc:
                raise DatasetError(f"unreadable image {f}: {exc}") from exc
            if shape is None:
                shape = (img.width, img.height)
            elif (img.width, img.height) != shape:
                raise DatasetError(
                    f"image {f} is {img.width}x{img.height}, "
                    f"expected {shape[0]}x{shape[1]}"
                )
    return Dataset(classes=tuple(kept), samples=kept, images=images)


def split(
    ds: Dataset, n_train: int = DEFAULT_N_TRAIN
) -> tuple[dict[str, tuple[Path, ...]], dict[str, tuple[Path, ...]]]:
    """First n_train samples of each class train, the rest test.

    A class with no leftover samples gets an empty test tuple rather than
    an error; callers decide whether that matters.
    """
    train_set: dict[str, tuple[Path, ...]] = {}
    test_set: dict[str, tuple[Path, ...]] = {}
    for cls in ds.classes:
        files = ds.samples[cls]
        train_set[cls] = files[:n_train]
        test_set[cls] = files[n_train:]
    return train_set, test_set


def _stage(name: str, path, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise PipelineStageError(name, path, exc) from exc


def segment_eye(
    path, cfg: PipelineConfig, img: GrayImage | None = None
) -> tuple[GrayImage, np.ndarray, PupilGeometry, IrisBounds]:
    """Read one eye image and locate its pupil and iris bounds.

    Returns the image, its bool dark-pixel mask, the pupil and the bounds.
    Any stage failure surfaces as PipelineStageError naming the stage and
    the file.  img, when given, is path's image already decoded, and the
    read stage is skipped.
    """
    if img is None:
        img = _stage("read", path, read_pgm_file, path)
    mask = _stage("threshold", path, threshold_dark, img, cfg.threshold)
    pupil = _stage("segment", path, pupil_geometry, mask, cfg.min_pupil_area)
    bounds = _stage("bounds", path, iris_bounds, img, pupil, cfg.edge)
    return img, mask, pupil, bounds


def _template_spectrum(
    path, cfg: PipelineConfig, img: GrayImage | None = None
) -> np.ndarray:
    """All singular values of one image's iris-basis template, descending.

    A template is 40x40, so there are 40 values; callers take the first k,
    which the CLI checks before any image is read.  img is as for
    segment_eye.
    """
    img, _, pupil, bounds = segment_eye(path, cfg, img)
    tpl = _stage("template", path, extract_iris_basis, img, pupil, bounds)
    return _stage("svd", path, svd_factorize, Matrix(entries=tpl)).s


def cell_seed(base_seed: int, n_classes: int, dim: int) -> int:
    """Independent per-cell seed derived from the cell coordinates."""
    digest = hashlib.blake2b(
        f"{base_seed}/{n_classes}/{dim}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def fit_classifier(
    spectra: dict[Path, np.ndarray],
    classes: tuple[str, ...],
    train_set: dict[str, tuple[Path, ...]],
    k: int,
    cfg: TrainConfig,
) -> tuple[Mlp, TrainReport]:
    """Train a fresh network on the first k singular values of each
    training image; class i of `classes` is output i.

    The input scaling is fitted on the training rows and attached to the
    network, whose initial weights come from cfg.seed.
    """
    n_classes = len(classes)
    pairs = [(spectra[p][:k], i) for i, cls in enumerate(classes) for p in train_set[cls]]
    scaling = fit_scaling(np.array([x for x, _ in pairs]))
    net = attach_scaling(init(MlpShape(k, default_hidden(k), n_classes), cfg.seed), scaling)
    batch = [(apply_scaling(scaling, x), encode_target(i, n_classes)) for x, i in pairs]
    return train(net, batch, cfg)


def _train_cell(
    spectra: dict[Path, np.ndarray],
    classes: tuple[str, ...],
    train_set: dict[str, tuple[Path, ...]],
    test_set: dict[str, tuple[Path, ...]],
    k: int,
    cfg: TrainConfig,
) -> GridCell:
    test_pairs = [
        (spectra[p][:k], i) for i, cls in enumerate(classes) for p in test_set[cls]
    ]
    if not test_pairs:
        raise ValueError("no test samples in any selected class")

    trained, report = fit_classifier(spectra, classes, train_set, k, cfg)
    correct = sum(
        decode(forward(trained, apply_scaling(trained.feature_scaling, x))) == want
        for x, want in test_pairs
    )
    return GridCell(
        classes=len(classes),
        dim=k,
        rate=correct / len(test_pairs),
        epochs=report.epochs_run,
        stop_reason=report.stop_reason,
    )


def run_experiment(
    ds: Dataset,
    grid: GridConfig = GridConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    pipeline: PipelineConfig = PipelineConfig(),
) -> ExperimentGrid:
    """Fill the class-count by dimension grid over one dataset.

    Each image goes through the pipeline at most once per run: its spectrum,
    or the error it failed with, is kept for every later cell.  Class counts
    beyond the dataset are skipped; a failing cell is recorded with the
    first error among its images and the sweep continues.
    """
    counts = [c for c in grid.class_counts if c <= len(ds.classes)]
    train_set, test_set = split(ds, grid.n_train)
    base_cfg = train_cfg
    if grid.epoch_cap is not None:
        base_cfg = replace(base_cfg, max_epochs=grid.epoch_cap)

    spectra: dict[Path, np.ndarray | Exception] = {}
    cells: list[GridCell] = []
    for c in counts:
        classes = ds.classes[:c]
        for k in grid.dims:
            try:
                for p in (f for cls in classes for f in ds.samples[cls]):
                    if p not in spectra:
                        try:
                            spectra[p] = _template_spectrum(p, pipeline, ds.images[p])
                        except Exception as exc:
                            spectra[p] = exc
                    if isinstance(spectra[p], Exception):
                        raise spectra[p]
                cfg = replace(base_cfg, seed=cell_seed(grid.base_seed, c, k))
                cell = _train_cell(spectra, classes, train_set, test_set, k, cfg)
            except Exception as exc:
                cell = GridCell(
                    classes=c,
                    dim=k,
                    rate=None,
                    epochs=0,
                    stop_reason="failed",
                    error=str(exc),
                )
            cells.append(cell)
    return ExperimentGrid(cells=tuple(cells))


def emit_report(grid: ExperimentGrid) -> str:
    """CSV text, one row per cell in grid order.

    Failed cells keep their coordinates with an empty rate and the
    stop_reason "failed" so the table stays parseable.
    """
    lines = [REPORT_HEADER]
    for cell in grid.cells:
        rate = "" if cell.rate is None else f"{cell.rate:.4f}"
        lines.append(
            f"{cell.classes},{cell.dim},{rate},{cell.epochs},{cell.stop_reason}"
        )
    return "\n".join(lines) + "\n"
