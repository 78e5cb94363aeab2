"""Command-line front end: synth, segment, train, classify, experiment.

One executable with subcommands; every knob is a flag whose default is the
method's published constant, so running with no flags gives the faithful
configuration.  A `--config` file of `key = value` lines (dotted keys,
`#` comments) slots between the defaults and the flags: defaults < config
< flags.  A knob's key and flag are one row of `KNOBS` and set the same value.
Machine-parseable results go to stdout, diagnostics to stderr.

Exit codes: 0 full success; 1 runtime failures; 2 usage errors and a bad
config file or value, dataset directory or model file (or its `.labels`
sidecar).  `segment` and `classify` run each image through `_per_image` and
format their rows here: each image fails on its own, named on stderr with its
stage (a malformed PGM, an eye that cannot be segmented, a model whose
forward pass overflows), the rest are processed, and the run exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .ebp import (
    ModelFormatError, TrainConfig, decode, forward, load_model, save_model
)
from .harness import (
    DEFAULT_N_TRAIN,
    DatasetError,
    GridConfig,
    PipelineConfig,
    _stage,
    _template_spectra,
    _template_spectrum,
    emit_report,
    fit_classifier,
    load_dataset,
    run_experiment,
    segment_eye,
    split,
)
from .image_io import GrayImage, write_pgm_file
from .iris_boundary import EdgeConfig, IrisBounds, mark_bounds
from .segmentation import PupilGeometry
from .synth import MANIFEST_NAME, generate_dataset
from .template import TEMPLATE_COLS, TEMPLATE_ROWS

DEFAULT_DIM = 20

SEGMENT_HEADER = "path,x_cp,y_cp,r_x,r_y,area,left_x,right_x,left_fallback,right_fallback"
CLASSIFY_HEADER = "path,class,confidence"


def _segment_row(path: str, pupil: PupilGeometry, bounds: IrisBounds) -> tuple:
    """One SEGMENT_HEADER row: centroid and radii to 3 decimals, flags as 0/1."""
    return (
        path, f"{pupil.x_cp:.3f}", f"{pupil.y_cp:.3f}", f"{pupil.r_x:.3f}",
        f"{pupil.r_y:.3f}", pupil.area, bounds.left_x, bounds.right_x,
        int(bounds.left_fallback), int(bounds.right_fallback),
    )


def _per_image(header: str, images: list[str], row: Callable[[str], tuple]) -> int:
    """Write header, then row(path) of each path as given, as CSV rows; 1 if
    any failed.  Only a field with a comma, a quote or a line break is quoted.

    Whatever an image raises becomes its `<path>: <error>` line on stderr,
    and the next image runs; neither line rewrites the path.
    """
    out = csv.writer(sys.stdout, lineterminator="\n")  # per call: stdout may be redirected
    out.writerow(header.split(","))
    failures = 0
    for path in images:
        try:
            fields = row(path)
        except Exception as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failures += 1
        else:
            out.writerow(fields)
    return 1 if failures else 0


class ConfigError(Exception):
    """Raised for unusable config files or incompatible settings."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _shown(value) -> str:
    """A default as the help text writes it: 5e-7, 3,10,20."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return f"{value:g}".replace("e-0", "e-")


class Knob(NamedTuple):
    """One design-decision knob: its config key, its flag and where both go."""

    key: str  # dotted config key; its prefix names the callee
    flag: str
    parser: str  # "pipe", "tr" or the subcommand whose parser holds the flag
    keyword: str  # keyword of the config object or call the value goes to
    type: Callable
    help: str


_SYNTH = inspect.signature(generate_dataset).parameters

# Callees by key prefix: segmentation -> PipelineConfig, boundary -> EdgeConfig,
# train -> TrainConfig (train.dim is train's k, train.n_train its split), synth ->
# generate_dataset, experiment -> GridConfig.  Flags of one parser are added in this order.
KNOBS = (
    Knob("segmentation.threshold", "--threshold", "pipe", "threshold", int,
         f"dark threshold (default {PipelineConfig.threshold})"),
    Knob("segmentation.min_area", "--min-area", "pipe", "min_pupil_area", int,
         f"minimum pupil area in pixels (default {PipelineConfig.min_pupil_area})"),
    Knob("boundary.window", "--window", "pipe", "window", int,
         f"edge confirmation window (default {EdgeConfig.window})"),
    Knob("boundary.jump", "--jump", "pipe", "jump", int,
         f"edge intensity jump (default {EdgeConfig.jump})"),
    Knob("boundary.annulus_width", "--annulus-width", "pipe", "default_annulus_width", int,
         "fallback iris annulus width in pixels (default: twice the larger pupil radius)"),
    Knob("train.lr0", "--lr", "tr", "lr0", float,
         f"initial learning rate (default {TrainConfig.lr0})"),
    Knob("train.lr_inc", "--lr-inc", "tr", "lr_inc", float,
         f"rate increment on improvement (default {TrainConfig.lr_inc})"),
    Knob("train.lr_dec", "--lr-dec", "tr", "lr_dec", float,
         f"rate decrement on rejection (default {TrainConfig.lr_dec})"),
    Knob("train.max_perf_inc", "--max-perf-inc", "tr", "max_perf_inc", float,
         f"worst accepted error ratio (default {TrainConfig.max_perf_inc})"),
    Knob("train.mse_goal", "--mse-goal", "tr", "mse_goal", float,
         f"error goal (default {_shown(TrainConfig.mse_goal)})"),
    Knob("train.min_grad", "--min-grad", "tr", "min_grad", float,
         f"gradient floor (default {_shown(TrainConfig.min_grad)})"),
    Knob("train.dim", "--dim", "train", "k", int,
         f"feature dimension k (default {DEFAULT_DIM})"),
    Knob("train.max_epochs", "--epochs", "train", "max_epochs", int,
         f"epoch cap (default {TrainConfig.max_epochs})"),
    Knob("train.seed", "--seed", "train", "seed", int,
         f"weight init seed (default {TrainConfig.seed})"),
    Knob("train.n_train", "--n-train", "train", "n_train", int,
         f"training samples per class (default {DEFAULT_N_TRAIN})"),
    Knob("synth.samples", "--samples", "synth", "samples_per_class", _positive_int,
         f"samples per class (default {_SYNTH['samples_per_class'].default})"),
    Knob("synth.seed", "--seed", "synth", "base_seed", int,
         f"base seed (default {_SYNTH['base_seed'].default})"),
    Knob("experiment.class_counts", "--classes", "experiment", "class_counts",
         _parse_int_list,
         f"comma-separated class counts (default {_shown(GridConfig.class_counts)})"),
    Knob("experiment.dims", "--dims", "experiment", "dims", _parse_int_list,
         f"comma-separated dimensions (default {_shown(GridConfig.dims)})"),
    Knob("experiment.epoch_cap", "--epochs", "experiment", "epoch_cap", int,
         f"per-cell epoch cap (default {GridConfig.epoch_cap})"),
    Knob("experiment.base_seed", "--seed", "experiment", "base_seed", int,
         f"base seed for per-cell seeding (default {GridConfig.base_seed})"),
    Knob("experiment.n_train", "--n-train", "experiment", "n_train", int,
         f"training samples per class (default {GridConfig.n_train})"),
)

# Every knob, addressable by dotted name in a config file; a value parses as its flag does.
CONFIG_KEYS = {knob.key: knob.type for knob in KNOBS}


def parse_config_text(text: str) -> dict:
    """`key = value` per line; `#` starts a comment; unknown and repeated keys rejected."""
    values = {}
    set_on = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {set_on[key]})"
            )
        set_on[key] = lineno
        try:
            values[key] = CONFIG_KEYS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return values


def _read_utf8(path: Path, error: type[Exception]) -> str:
    """path's text; undecodable bytes raise error naming the file and line."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text") from None


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    text = _read_utf8(p, ConfigError)
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def _knobs(args, cfg: dict, prefix: str) -> dict:
    """Keyword arguments for the knobs under prefix that a flag or the config file set.

    A flag wins over the config file; a knob set by neither is left out, so
    the callee's own default applies.
    """
    out = {}
    for knob in KNOBS:
        if knob.key.startswith(prefix):
            flag = getattr(args, knob.key, None)
            if flag is not None:
                out[knob.keyword] = flag
            elif knob.key in cfg:
                out[knob.keyword] = cfg[knob.key]
    return out


def _origin(args, prefix: str, keyword: str) -> str:
    """What set the knob under prefix that fills keyword: `--flag` or `<config path>: <key>`."""
    knob = next(k for k in KNOBS if k.key.startswith(prefix) and k.keyword == keyword)
    return knob.flag if getattr(args, knob.key, None) is not None else f"{args.config}: {knob.key}"


def _config(cls, args, cfg: dict, prefix: str, drop=(), **fixed):
    """cls(**fixed) with the knobs under prefix but those in drop.  Any ValueError is a
    ConfigError, led by what set the knob that fails on its own if one does."""
    knobs = {n: v for n, v in _knobs(args, cfg, prefix).items() if n not in drop}
    try:
        return cls(**fixed, **knobs)
    except ValueError as exc:
        for keyword, value in knobs.items():
            try:
                cls(**{keyword: value})
            except ValueError as own:
                raise ConfigError(f"{_origin(args, prefix, keyword)}: {own}") from None
        raise ConfigError(str(exc)) from None


def _pipeline_config(args, cfg: dict) -> PipelineConfig:
    edge = _config(EdgeConfig, args, cfg, "boundary.")
    return _config(PipelineConfig, args, cfg, "segmentation.", edge=edge)


def _check_dim(k: int, origin: str) -> int:
    """k, checked against a template's singular value count; origin leads the error."""
    top = min(TEMPLATE_ROWS, TEMPLATE_COLS)
    if not 1 <= k <= top:
        raise ConfigError(f"{origin}: dimension {k} outside [1, {top}]")
    return k


def cmd_synth(args, cfg: dict) -> int:
    out = Path(args.out)
    files = generate_dataset(
        args.classes, out_dir=out, ascii=args.ascii_pgm, **_knobs(args, cfg, "synth.")
    )
    print(f"{len(files)} {out / MANIFEST_NAME}")
    return 0


def _check_dump_names(args) -> None:
    """Refuse two different inputs whose stage dumps would overwrite each other's."""
    first = {}
    for name in args.images:
        prefix = Path(args.out or Path(name).parent) / Path(name).stem
        other = first.setdefault(prefix.resolve(), name)
        if Path(other).resolve() != Path(name).resolve():
            raise ConfigError(f"{other} and {name} would both dump stages as {prefix}_*.pnm")


def _dump_stages(args, path: Path, img, mask, pupil, bounds) -> None:
    filtered = np.zeros_like(mask)
    for region in pupil.kept:
        filtered[region.ys, region.xs] = True
    out_dir = Path(args.out or path.parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = (
        ("threshold", GrayImage(np.where(mask, 0, 255))),
        ("filtered", GrayImage(np.where(filtered, 0, 255))),
        ("bounds", mark_bounds(img, pupil, bounds)),
    )
    for name, stage_img in stages:
        write_pgm_file(out_dir / f"{path.stem}_{name}.pnm", stage_img, ascii=args.ascii_pgm)


def cmd_segment(args, cfg: dict) -> int:
    pcfg = _pipeline_config(args, cfg)
    if args.dump_stages:
        _check_dump_names(args)

    def row(path: str) -> tuple:
        img, mask, pupil, bounds = segment_eye(path, pcfg)
        if args.dump_stages:
            _dump_stages(args, Path(path), img, mask, pupil, bounds)
        return _segment_row(path, pupil, bounds)

    return _per_image(SEGMENT_HEADER, args.images, row)


def _labels_path(model_path: Path) -> Path:
    return model_path.with_name(model_path.name + ".labels")


def cmd_train(args, cfg: dict) -> int:
    pcfg = _pipeline_config(args, cfg)
    knobs = _knobs(args, cfg, "train.")
    k = _check_dim(knobs.get("k", DEFAULT_DIM), _origin(args, "train.", "k"))
    n_train = knobs.get("n_train", DEFAULT_N_TRAIN)
    if n_train < 1:
        raise ConfigError(f"{_origin(args, 'train.', 'n_train')}: "
                          f"n_train must be >= 1, got {n_train}")
    tcfg = _config(TrainConfig, args, cfg, "train.", drop=("k", "n_train"))

    ds = load_dataset(args.data)
    train_set, _ = split(ds, n_train)
    files = [p for cls in ds.classes for p in train_set[cls]]
    spectra = _template_spectra(files, pcfg, ds.images)
    trained, report = fit_classifier(spectra, ds.classes, train_set, k, tcfg)

    out = Path(args.out)
    save_model(out, trained)
    _labels_path(out).write_text("".join(f"{c}\n" for c in ds.classes), encoding="utf-8")
    csv.writer(sys.stdout, lineterminator="\n").writerow(
        (out, report.epochs_run, f"{report.final_mse:.6g}", report.stop_reason))
    return 0


def cmd_classify(args, cfg: dict) -> int:
    pcfg = _pipeline_config(args, cfg)
    labels_file = _labels_path(Path(args.model))
    labels = None
    try:
        net = load_model(args.model)
        k = _check_dim(net.shape.n_in, args.model)
        if labels_file.is_file():
            labels = _read_utf8(labels_file, ModelFormatError).splitlines()
            labels = [ln for ln in labels if ln]
            if len(labels) != net.shape.n_out:
                raise ModelFormatError(
                    f"{labels_file}: {len(labels)} labels for a model with "
                    f"{net.shape.n_out} outputs"
                )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def row(path: str) -> tuple:
        x = _template_spectrum(path, pcfg)[:k]
        # Finite but huge weights or scales can overflow here; raising fails
        # the image at stage 'forward' rather than printing a nan confidence.
        with np.errstate(over="raise", invalid="raise"):
            y = _stage("forward", path, forward, net, x)
        index = decode(y)
        label = labels[index] if labels else str(index)
        return path, label, f"{float(y[index]):.4f}"

    return _per_image(CLASSIFY_HEADER, args.images, row)


def cmd_experiment(args, cfg: dict) -> int:
    pcfg = _pipeline_config(args, cfg)
    # train.seed, .dim, .max_epochs and .n_train are train's own; the grid sets its own.
    tcfg = _config(TrainConfig, args, cfg, "train.", drop=("seed", "k", "max_epochs", "n_train"))
    grid = _config(GridConfig, args, cfg, "experiment.")
    for k in grid.dims:
        _check_dim(k, _origin(args, "experiment.", "dims"))

    ds = load_dataset(args.data)
    cells = run_experiment(ds, grid, tcfg, pcfg)
    report = emit_report(cells)
    # Printed first, so an --out that cannot be written loses no report.
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="ascii")

    for cell in cells:
        if cell.error is not None:
            print(
                f"cell ({cell.classes}, {cell.dim}) failed: {cell.error}",
                file=sys.stderr,
            )
    if not cells:
        print("error: no grid cells matched the dataset", file=sys.stderr)
        return 1
    if all(cell.error is not None for cell in cells):
        return 1
    return 0


def _add_knobs(parser: argparse.ArgumentParser, where: str) -> None:
    """Add the flags of the knobs whose flag lives on parser `where`."""
    for knob in KNOBS:
        if knob.parser == where:
            parser.add_argument(knob.flag, dest=knob.key, type=knob.type, help=knob.help,
                                metavar=knob.flag[2:].replace("-", "_").upper())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, built once per process.

    Parsing keeps no state between calls, so in-process callers of `main`
    share one parser; a one-shot shell run still builds it once.  The
    subcommands' `cmd_*` functions are bound here, so patching one after
    the first call has no effect.
    """
    parser = argparse.ArgumentParser(
        prog="irisvd",
        description="Iris recognition via singular-value features and a "
        "backprop classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help="config file of 'key = value' lines with dotted keys")
    pipe = argparse.ArgumentParser(add_help=False)
    _add_knobs(pipe, "pipe")
    tr = argparse.ArgumentParser(add_help=False)
    _add_knobs(tr, "tr")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic eye dataset")
    p.add_argument("--classes", type=_positive_int, required=True,
                   help="number of classes")
    _add_knobs(p, "synth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ascii-pgm", dest="ascii_pgm", action="store_true",
                   help="write ASCII (P2) instead of binary PGMs")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("segment", parents=[common, pipe],
                       help="segment pupils and iris bounds, one CSV row per image")
    p.add_argument("images", nargs="+", help="input PGM files")
    p.add_argument("--dump-stages", dest="dump_stages", action="store_true",
                   help="write thresholded, filtered, and annotated PGMs")
    p.add_argument("--out", default=None,
                   help="directory for stage dumps (default: beside each input)")
    p.add_argument("--ascii-pgm", dest="ascii_pgm", action="store_true",
                   help="write stage dumps as ASCII (P2)")
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("train", parents=[common, pipe, tr],
                       help="train a classifier on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    _add_knobs(p, "train")
    p.add_argument("--out", default="model.txt",
                   help="model file path (default %(default)s)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("classify", parents=[common, pipe],
                       help="classify eye images with a trained model")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("images", nargs="+", help="input PGM files")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("experiment", parents=[common, pipe, tr],
                       help="run the classes-by-dimension grid and emit CSV")
    p.add_argument("--data", required=True, help="dataset directory")
    _add_knobs(p, "experiment")
    p.add_argument("--out", default=None, help="also write the CSV here")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A shown warning is one `warning: <message>` line; the filters still
    # decide which warnings show.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args, load_config(args.config))
        except (ConfigError, DatasetError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
