"""Iris-basis template: strip collection, downsampling, and normalization.

The pixels immediately left and right of the pupil carry the least-occluded
iris texture, so the template is built from two vertical strips bounded by
the pupil on one side and the detected iris boundary on the other.  The
strips are joined side by side, reduced with a block mean, squared up to a
fixed shape, and scaled to [0, 1] so templates from different images are
directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage, block_downsample
from .iris_boundary import IrisBounds
from .segmentation import PupilGeometry

TEMPLATE_ROWS = 40
TEMPLATE_COLS = 40
TEMPLATE_BLOCK = 3


class TemplateExtractionError(Exception):
    """Raised when no usable iris strip exists on either side of the pupil."""


@dataclass(frozen=True, eq=False)
class IrisTemplate:
    """Fixed-size iris image with entries scaled to [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"template must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("template must not be empty")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("template entries must lie in [0, 1]")
        arr = np.array(arr, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def cols(self) -> int:
        return int(self.values.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IrisTemplate):
            return NotImplemented
        return np.array_equal(self.values, other.values)


def _fit_width(arr: np.ndarray, out_cols: int) -> np.ndarray:
    """Center-crop when too wide, replicate edge columns when too narrow."""
    width = arr.shape[1]
    if width > out_cols:
        off = (width - out_cols) // 2
        return arr[:, off : off + out_cols]
    if width < out_cols:
        pad_left = (out_cols - width) // 2
        pad_right = out_cols - width - pad_left
        return np.pad(arr, ((0, 0), (pad_left, pad_right)), mode="edge")
    return arr


def extract_iris_basis(
    img: GrayImage,
    pupil: PupilGeometry,
    bounds: IrisBounds,
    out_rows: int = TEMPLATE_ROWS,
    out_cols: int = TEMPLATE_COLS,
    block: int = TEMPLATE_BLOCK,
) -> IrisTemplate:
    """Build the iris-basis template from one eye image.

    The left strip covers columns [left_x, x_cp - r_x) and the right strip
    (x_cp + r_x, right_x], both over block*out_rows rows centered on the
    pupil; pupil columns are never sampled.  Rows (or columns) that fall
    outside the image are clamped to the border, which replicates edge
    pixels.  Raises TemplateExtractionError when both strips are narrower
    than the downsampling block.
    """
    if out_rows < 1 or out_cols < 1:
        raise ValueError(f"output shape {out_rows}x{out_cols} must be positive")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")

    strip_h = block * out_rows
    row0 = math.ceil(pupil.y_cp - strip_h / 2.0)
    rows = np.clip(np.arange(row0, row0 + strip_h), 0, img.height - 1)

    left_hi = math.ceil(pupil.x_cp - pupil.r_x)
    right_lo = math.floor(pupil.x_cp + pupil.r_x) + 1
    left_cols = np.arange(bounds.left_x, left_hi)
    right_cols = np.arange(right_lo, bounds.right_x + 1)
    if left_cols.size < block and right_cols.size < block:
        raise TemplateExtractionError(
            f"iris strips are {left_cols.size} and {right_cols.size} columns "
            f"wide; at least one must reach the block size {block}"
        )

    cols = np.clip(np.concatenate([left_cols, right_cols]), 0, img.width - 1)
    strip = img.pixels[np.ix_(rows, cols)].astype(np.float64)
    reduced = block_downsample(GrayImage(pixels=strip), block)
    values = _fit_width(reduced.pixels.astype(np.float64), out_cols) / 255.0
    return IrisTemplate(values=values)
