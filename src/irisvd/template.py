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

import numpy as np

from .image_io import GrayImage, block_downsample
from .iris_boundary import IrisBounds
from .segmentation import PupilGeometry

TEMPLATE_ROWS = 40
TEMPLATE_COLS = 40
TEMPLATE_BLOCK = 3


class TemplateExtractionError(Exception):
    """Raised when no usable iris strip exists on either side of the pupil."""


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


def extract_iris_basis(img: GrayImage, pupil: PupilGeometry, bounds: IrisBounds) -> np.ndarray:
    """The (TEMPLATE_ROWS, TEMPLATE_COLS) iris-basis template of one eye image.

    The left strip covers columns [left_x, x_cp - r_x) and the right strip
    (x_cp + r_x, right_x], both over TEMPLATE_BLOCK * TEMPLATE_ROWS rows
    centered on the pupil; pupil columns are never sampled.  Rows (or
    columns) that fall outside the image are clamped to the border, which
    replicates edge pixels.  The strips' block means, scaled to [0, 1], are
    the float64 entries.  Raises TemplateExtractionError when both strips
    are narrower than the block.
    """
    strip_h = TEMPLATE_BLOCK * TEMPLATE_ROWS
    row0 = math.ceil(pupil.y_cp - strip_h / 2.0)
    rows = np.clip(np.arange(row0, row0 + strip_h), 0, img.height - 1)

    left_hi = math.ceil(pupil.x_cp - pupil.r_x)
    right_lo = math.floor(pupil.x_cp + pupil.r_x) + 1
    left_cols = np.arange(bounds.left_x, left_hi)
    right_cols = np.arange(right_lo, bounds.right_x + 1)
    if left_cols.size < TEMPLATE_BLOCK and right_cols.size < TEMPLATE_BLOCK:
        raise TemplateExtractionError(
            f"iris strips are {left_cols.size} and {right_cols.size} columns "
            f"wide; at least one must reach the block size {TEMPLATE_BLOCK}"
        )

    cols = np.clip(np.concatenate([left_cols, right_cols]), 0, img.width - 1)
    reduced = block_downsample(img.pixels[np.ix_(rows, cols)], TEMPLATE_BLOCK)
    return _fit_width(reduced, TEMPLATE_COLS) / 255.0
