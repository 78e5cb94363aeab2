"""Pupil localisation.

Dark pixels are thresholded to a mask, a plain 2-D bool array, and
8-connected regions are labelled by the run-based two-scan algorithm of He,
Chao & Suzuki (IEEE TIP 2008): every run of True in the mask is found in one
vectorised pass, runs in consecutive rows that touch are merged by vectorised
min-label hooking and pointer jumping (Shiloach & Vishkin 1982), and each
region keeps its pixel coordinates as arrays.  Regions smaller than the
minimum pupil area (eyelashes) are cleared, and the surviving largest region
yields the pupil centroid and its horizontal/vertical radii.

Coordinates are (x, y) with origin top-left, x rightward, y downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage, round_half_away

DEFAULT_DARK_THRESHOLD = 70
DEFAULT_MIN_PUPIL_AREA = 2500


class PupilNotFoundError(RuntimeError):
    """No dark region of at least the minimum pupil area survived filtering."""


@dataclass(frozen=True, eq=False)
class Region:
    """One 8-connected foreground region: its pixel coordinates in scan order."""

    label: int
    xs: np.ndarray
    ys: np.ndarray

    @property
    def area(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class PupilGeometry:
    """Pupil centroid, half-run radii, and pixel area."""

    x_cp: float
    y_cp: float
    r_x: float
    r_y: float
    area: int

    def __post_init__(self):
        if self.r_x <= 0 or self.r_y <= 0:
            raise ValueError("pupil radii must be positive")


def threshold_dark(img: GrayImage, t: int = DEFAULT_DARK_THRESHOLD) -> np.ndarray:
    """The bool mask of pixels with intensity <= t (dark is True).

    PipelineConfig checks t where it enters.
    """
    return img.pixels <= t


def label_components_8(mask: np.ndarray) -> list[Region]:
    """Label 8-connected foreground regions, labels 1..n in row-major first-encounter order.

    The first scan takes every run of True in the mask at once and merges
    runs of consecutive rows that overlap or touch diagonally; the second
    numbers the resolved components in scan order and groups each region's
    pixel coordinates.
    """
    w = mask.shape[1]
    # In the flattened changes along the padded rows, each run of True shows
    # as its start then its end: row * (w + 1) + x, the end half-open.
    steps = np.diff(np.pad(mask, ((0, 0), (1, 1))), axis=1)
    flat = np.flatnonzero(steps)
    start, end = flat[::2], flat[1::2]
    if not start.size:
        return []

    # The runs of the row above that touch run i, one column of diagonal
    # slack included, are the slice [lo, hi) of the scan order.
    lo = np.searchsorted(end, start - (w + 1))
    hi = np.searchsorted(start, end - (w + 1), side="right")

    # Edge e joins run src[e] to run dst[e] of the row above.  Each round
    # hooks every root to the smallest root beside it, then jumps pointers
    # until each run points at its root (Shiloach & Vishkin 1982).
    counts = hi - lo
    src = np.repeat(np.arange(start.size), counts)
    dst = np.arange(src.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    root = np.arange(start.size)
    # Parents only decrease and each round lowers at least one root, so there
    # are at most runs - 1 rounds.
    while not np.array_equal(a := root[src], b := root[dst]):
        np.minimum.at(root, np.concatenate((a, b)), np.concatenate((b, a)))
        while not np.array_equal(jumped := root[root], root):
            root = jumped

    # The roots, root[i] == i, are each component's first run, in scan order.
    run_label = np.cumsum(root == np.arange(root.size))[root] - 1
    ys, xs = np.divmod(np.flatnonzero(mask), w)
    pixel_label = np.repeat(run_label, end - start)
    order = np.argsort(pixel_label, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(pixel_label))[:-1])
    return [Region(label, xs[g], ys[g]) for label, g in enumerate(groups, start=1)]


def filter_small_regions(
    regions: list[Region], mask: np.ndarray, min_area: int = DEFAULT_MIN_PUPIL_AREA
) -> np.ndarray:
    """A copy of mask with every region of area below min_area cleared."""
    out = mask.copy()
    for region in regions:
        if region.area < min_area:
            out[region.ys, region.xs] = False
    return out


def pupil_geometry(mask: np.ndarray, min_area: int = DEFAULT_MIN_PUPIL_AREA) -> PupilGeometry:
    """Locate the pupil in a thresholded mask.

    Labels the mask, drops regions below min_area, picks the largest survivor
    (ties broken by lowest label), and measures:

    - centroid: arithmetic mean of member pixel coordinates,
    - r_x: half the length of the region's foreground run along the row
      through the centroid,
    - r_y: half the run length along the column through the centroid.

    Raises PupilNotFoundError when nothing survives the area filter.
    """
    regions = label_components_8(mask)
    survivors = [r for r in regions if r.area >= min_area]
    if not survivors:
        raise PupilNotFoundError(
            f"no dark region of area >= {min_area} pixels "
            f"(largest found: {max((r.area for r in regions), default=0)})"
        )
    pupil = max(survivors, key=lambda r: (r.area, -r.label))

    # Integer coordinates sum exactly, so the mean does not depend on order.
    x_cp = float(pupil.xs.mean())
    y_cp = float(pupil.ys.mean())

    row = int(round_half_away(y_cp))
    col = int(round_half_away(x_cp))
    r_x = _run_length_through(pupil.xs[pupil.ys == row], col) / 2.0
    r_y = _run_length_through(pupil.ys[pupil.xs == col], row) / 2.0
    return PupilGeometry(x_cp=x_cp, y_cp=y_cp, r_x=r_x, r_y=r_y, area=pupil.area)


def _run_length_through(line: np.ndarray, anchor: int) -> int:
    # Length of the contiguous run of the sorted member coordinates in one
    # row (or column) that contains the anchor; falls back to the longest run
    # for concave shapes whose centroid lies outside the region, and to 1 for
    # an empty line.
    edges = np.concatenate(([0], np.flatnonzero(np.diff(line) != 1) + 1, [line.size]))
    i = int(np.searchsorted(line, anchor))
    if i < line.size and line[i] == anchor:
        run = int(np.searchsorted(edges, i, side="right")) - 1
        return int(edges[run + 1] - edges[run])
    return int(np.diff(edges).max(initial=1))


def geometry_csv_line(path: str, geom: PupilGeometry) -> str:
    """One comma-separated debug record: path, centroid, radii, area."""
    return (
        f"{path},{geom.x_cp:.3f},{geom.y_cp:.3f},"
        f"{geom.r_x:.3f},{geom.r_y:.3f},{geom.area}"
    )
