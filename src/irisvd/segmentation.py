"""Pupil localisation.

Dark pixels are thresholded to a mask, a plain 2-D bool array, and
8-connected regions are labelled by the run-based two-scan algorithm of He,
Chao & Suzuki (IEEE TIP 2008): every run of True in the mask is found in one
vectorised pass, runs in consecutive rows that touch are merged by vectorised
min-label hooking and pointer jumping (Shiloach & Vishkin 1982), and each
region keeps its pixel coordinates as arrays, expanded from its runs once the
runs are sorted by label.  Regions smaller than the minimum pupil area
(eyelashes) are dropped, and the surviving largest region, unless it spans
the image from border to border, yields the pupil centroid and its
horizontal/vertical radii.

Coordinates are (x, y) with origin top-left, x rightward, y downward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Pupil centroid, half-run radii, and pixel area; kept holds the regions
    that passed the area filter (left out of equality, hashing and repr)."""

    x_cp: float
    y_cp: float
    r_x: float
    r_y: float
    area: int
    kept: tuple[Region, ...] = field(default=(), compare=False, repr=False)

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
    h, w = mask.shape
    # The mask's rows, each ended by one False, flattened after one leading
    # False: each run of True shows in its changes as its start then its
    # end, row * (w + 1) + x, the end half-open.
    padded = np.zeros(h * (w + 1) + 1, dtype=bool)
    padded[1:].reshape(h, w + 1)[:, :w] = mask
    flat = np.flatnonzero(padded[1:] != padded[:-1])
    start, end = flat[::2], flat[1::2]
    if not start.size:
        return []

    # The runs of the row above that touch run i, one column of diagonal
    # slack included, are the slice [lo, hi) of the scan order.
    lo = end.searchsorted(start - (w + 1))
    hi = start.searchsorted(end - (w + 1), side="right")

    # Edge e joins run src[e] to run dst[e] of the row above.  Each round
    # hooks every root to the smallest root beside it, then jumps pointers
    # until each run points at its root (Shiloach & Vishkin 1982).
    counts = hi - lo
    src = np.arange(start.size).repeat(counts)
    dst = np.arange(src.size) + (lo - counts.cumsum() + counts).repeat(counts)
    root = np.arange(start.size)
    # Parents only decrease and each round lowers at least one root, so there
    # are at most runs - 1 rounds.
    while ((a := root[src]) != (b := root[dst])).any():
        np.minimum.at(root, np.concatenate((a, b)), np.concatenate((b, a)))
        while ((jumped := root[root]) != root).any():
            root = jumped

    # The roots, root[i] == i, are each component's first run, in scan order.
    # Sorting the runs by label, not the pixels, keeps each region's
    # runs, and so its pixels, in scan order.  A run of length n that starts
    # at (x, row) and at offset k of the sorted pixels gives n times its row,
    # and x - k plus the pixels' offsets as columns.
    run_label = (root == np.arange(root.size)).cumsum()[root] - 1
    order = run_label.argsort(kind="stable")
    first, length = start[order], (end - start)[order]
    stop = length.cumsum()
    row, x = np.divmod(first, w + 1)
    ys = row.repeat(length)
    xs = (x - stop + length).repeat(length) + np.arange(stop[-1])
    bounds = [0, *stop[np.bincount(run_label).cumsum() - 1].tolist()]
    return [
        Region(label, xs[a:b], ys[a:b])
        for label, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1)
    ]


def pupil_geometry(mask: np.ndarray, min_area: int = DEFAULT_MIN_PUPIL_AREA) -> PupilGeometry:
    """Locate the pupil in a thresholded mask.

    Labels the mask, drops regions below min_area, keeps the survivors in
    label order as the result's kept, picks the largest survivor (ties
    broken by lowest label), and measures:

    - centroid: arithmetic mean of member pixel coordinates,
    - r_x: half the length of the region's foreground run along the row
      through the centroid,
    - r_y: half the run length along the column through the centroid.

    Raises PupilNotFoundError when nothing survives the area filter, and
    when the largest survivor touches two opposite borders of the mask: a
    dark region that spans the image is background, not a pupil.
    """
    regions = label_components_8(mask)
    survivors = [r for r in regions if r.area >= min_area]
    if not survivors:
        raise PupilNotFoundError(
            f"no dark region of area >= {min_area} pixels "
            f"(largest found: {max((r.area for r in regions), default=0)})"
        )
    pupil = max(survivors, key=lambda r: (r.area, -r.label))
    for coords, size, way in zip((pupil.ys, pupil.xs), mask.shape,
                                 ("top to bottom", "left to right")):
        if coords.min() == 0 and coords.max() == size - 1:
            raise PupilNotFoundError(
                f"the largest dark region ({pupil.area} pixels) spans the image {way}"
            )

    # Integer coordinates sum exactly, and an integer quotient is correctly
    # rounded, so the centroid is the float ndarray.mean gives.
    x_cp = int(pupil.xs.sum()) / pupil.area
    y_cp = int(pupil.ys.sum()) / pupil.area

    row = round_half_away(y_cp)
    col = round_half_away(x_cp)
    # A region's pixels are in scan order, so its ys are sorted.
    top, bottom = pupil.ys.searchsorted(row), pupil.ys.searchsorted(row + 1)
    r_x = _run_length_through(pupil.xs[top:bottom], col) / 2.0
    r_y = _run_length_through(pupil.ys[pupil.xs == col], row) / 2.0
    return PupilGeometry(x_cp, y_cp, r_x, r_y, pupil.area, tuple(survivors))


def _run_length_through(line: np.ndarray, anchor: int) -> int:
    # Length of the contiguous run of the sorted member coordinates in one
    # row (or column) that contains the anchor; falls back to the longest run
    # for concave shapes whose centroid lies outside the region, and to 1 for
    # an empty line.  A coordinate minus its position is constant along a
    # run and grows from one run to the next.
    key = line - np.arange(line.size)
    i = line.searchsorted(anchor)
    if i < line.size and line[i] == anchor:
        return int(key.searchsorted(key[i], "right") - key.searchsorted(key[i]))
    starts = np.flatnonzero(np.diff(key)) + 1
    return int(np.diff(starts, prepend=0, append=line.size).max(initial=1))
