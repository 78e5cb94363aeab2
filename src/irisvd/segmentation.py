"""Pupil localisation.

Dark pixels are thresholded to a binary mask, 8-connected regions are
labelled with a two-pass union-find over row runs, regions smaller than the
minimum pupil area (eyelashes) are cleared, and the surviving largest region
yields the pupil centroid and its horizontal/vertical radii.

Coordinates are (x, y) with origin top-left, x rightward, y downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_io import BinaryImage, GrayImage, round_half_away

DEFAULT_DARK_THRESHOLD = 70
DEFAULT_MIN_PUPIL_AREA = 2500


class PupilNotFoundError(RuntimeError):
    """No dark region of at least the minimum pupil area survived filtering."""


@dataclass(frozen=True)
class Region:
    """One 8-connected foreground region."""

    label: int
    area: int
    pixels: frozenset
    bounding_box: tuple[int, int, int, int]  # (x_min, y_min, x_max, y_max)

    def __post_init__(self):
        if self.area != len(self.pixels) or self.area < 1:
            raise ValueError("region area must equal its pixel count and be >= 1")
        x_min, y_min, x_max, y_max = self.bounding_box
        for x, y in self.pixels:
            if not (x_min <= x <= x_max and y_min <= y <= y_max):
                raise ValueError(f"pixel ({x},{y}) outside bounding box")


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


def threshold_dark(img: GrayImage, t: int = DEFAULT_DARK_THRESHOLD) -> BinaryImage:
    """Mark pixels with intensity <= t as foreground 1 (dark goes to 1)."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {t}")
    return BinaryImage((img.pixels <= t).astype(np.uint8))


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _row_runs(bits_row: np.ndarray) -> list[tuple[int, int]]:
    # Half-open [start, end) column spans of consecutive 1s.
    padded = np.empty(bits_row.size + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = bits_row
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def label_components_8(bin_img: BinaryImage) -> list[Region]:
    """Label 8-connected foreground regions, labels 1..n in row-major first-encounter order.

    First pass merges row runs through a union-find (runs in consecutive rows
    are 8-adjacent when their spans overlap or touch diagonally); second pass
    numbers the resolved components in scan order and collects pixels.
    """
    bits = bin_img.bits
    uf = _UnionFind()
    rows_runs: list[list[tuple[int, int, int]]] = []  # (x0, x1, run_id) per row
    prev: list[tuple[int, int, int]] = []
    for y in range(bin_img.height):
        current = []
        for x0, x1 in _row_runs(bits[y]):
            rid = uf.make()
            # 8-adjacency with the previous row allows one column of diagonal slack.
            for px0, px1, prid in prev:
                if px0 < x1 + 1 and x0 < px1 + 1:
                    uf.union(rid, prid)
            current.append((x0, x1, rid))
        rows_runs.append(current)
        prev = current

    label_of_root: dict[int, int] = {}
    pixels: dict[int, list[tuple[int, int]]] = {}
    boxes: dict[int, list[int]] = {}
    for y, runs in enumerate(rows_runs):
        for x0, x1, rid in runs:
            root = uf.find(rid)
            label = label_of_root.get(root)
            if label is None:
                label = len(label_of_root) + 1
                label_of_root[root] = label
                pixels[label] = []
                boxes[label] = [x0, y, x1 - 1, y]
            pixels[label].extend((x, y) for x in range(x0, x1))
            box = boxes[label]
            box[0] = min(box[0], x0)
            box[2] = max(box[2], x1 - 1)
            box[3] = y

    return [
        Region(
            label=label,
            area=len(pix),
            pixels=frozenset(pix),
            bounding_box=tuple(boxes[label]),
        )
        for label, pix in sorted(pixels.items())
    ]


def filter_small_regions(
    regions: list[Region],
    bin_img: BinaryImage,
    min_area: int = DEFAULT_MIN_PUPIL_AREA,
) -> BinaryImage:
    """Clear every region with area strictly below min_area; keep the rest."""
    out = np.array(bin_img.bits, copy=True)
    for region in regions:
        if region.area < min_area:
            for x, y in region.pixels:
                out[y, x] = 0
    return BinaryImage(out)


def pupil_geometry(
    bin_img: BinaryImage, min_area: int = DEFAULT_MIN_PUPIL_AREA
) -> PupilGeometry:
    """Locate the pupil in a thresholded mask.

    Labels the mask, drops regions below min_area, picks the largest survivor
    (ties broken by lowest label), and measures:

    - centroid: arithmetic mean of member pixel coordinates,
    - r_x: half the length of the region's foreground run along the row
      through the centroid,
    - r_y: half the run length along the column through the centroid.

    Raises PupilNotFoundError when nothing survives the area filter.
    """
    regions = label_components_8(bin_img)
    survivors = [r for r in regions if r.area >= min_area]
    if not survivors:
        raise PupilNotFoundError(
            f"no dark region of area >= {min_area} pixels "
            f"(largest found: {max((r.area for r in regions), default=0)})"
        )
    pupil = max(survivors, key=lambda r: (r.area, -r.label))

    xs = np.fromiter((p[0] for p in pupil.pixels), dtype=np.float64, count=pupil.area)
    ys = np.fromiter((p[1] for p in pupil.pixels), dtype=np.float64, count=pupil.area)
    x_cp = float(xs.mean())
    y_cp = float(ys.mean())

    row = int(round_half_away(y_cp))
    col = int(round_half_away(x_cp))
    r_x = _run_length_through(pupil.pixels, row, col, horizontal=True) / 2.0
    r_y = _run_length_through(pupil.pixels, row, col, horizontal=False) / 2.0
    return PupilGeometry(x_cp=x_cp, y_cp=y_cp, r_x=r_x, r_y=r_y, area=pupil.area)


def _run_length_through(pixels: frozenset, row: int, col: int, horizontal: bool) -> int:
    # Length of the contiguous member run in the given row (or column) that
    # contains the centroid column (or row); falls back to the longest run in
    # that line for concave shapes whose centroid lies outside the region.
    if horizontal:
        line = sorted(x for x, y in pixels if y == row)
        anchor = col
    else:
        line = sorted(y for x, y in pixels if x == col)
        anchor = row
    if not line:
        return 1
    runs = []
    run_start = line[0]
    prev = line[0]
    for v in line[1:]:
        if v != prev + 1:
            runs.append((run_start, prev))
            run_start = v
        prev = v
    runs.append((run_start, prev))
    for lo, hi in runs:
        if lo <= anchor <= hi:
            return hi - lo + 1
    return max(hi - lo + 1 for lo, hi in runs)


def geometry_csv_line(path: str, geom: PupilGeometry) -> str:
    """One comma-separated debug record: path, centroid, radii, area."""
    return (
        f"{path},{geom.x_cp:.3f},{geom.y_cp:.3f},"
        f"{geom.r_x:.3f},{geom.r_y:.3f},{geom.area}"
    )
