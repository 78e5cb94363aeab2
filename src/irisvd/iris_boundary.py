"""Iris/sclera boundary detection along the horizontal line through the pupil.

The iris sits between the pupil and the sclera, and the sclera is much
brighter than the iris, so the boundary shows up as an abrupt intensity rise
on the scanline through the pupil center.  A single bright pixel inside the
iris can also produce a sudden rise, so every candidate rise is confirmed by
comparing mean intensities over small windows on each side of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image_io import GrayImage, round_half_away
from .segmentation import PupilGeometry

DEFAULT_EDGE_WINDOW = 5
DEFAULT_EDGE_JUMP = 25


class EdgeNotFoundError(Exception):
    """No qualifying intensity rise before the image border."""


@dataclass(frozen=True)
class EdgeConfig:
    """Knobs for the scanline edge detector.

    window and jump are not taken from any measured data; they are exposed
    here precisely because they are tuning constants.  default_annulus_width
    of None means "twice the larger pupil radius" at the point of use.
    """

    window: int = DEFAULT_EDGE_WINDOW
    jump: int = DEFAULT_EDGE_JUMP
    default_annulus_width: int | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.jump <= 0:
            raise ValueError(f"jump must be positive, got {self.jump}")
        if self.default_annulus_width is not None and self.default_annulus_width < 1:
            raise ValueError(
                f"default_annulus_width must be >= 1, got {self.default_annulus_width}"
            )


@dataclass(frozen=True)
class IrisBounds:
    """Left and right iris/sclera boundary columns.

    left_fallback / right_fallback record sides where no edge was detected
    and the bound was synthesized instead (mirrored from the other side, or
    taken from the configured default annulus width).
    """

    left_x: int
    right_x: int
    left_fallback: bool = False
    right_fallback: bool = False

    def __post_init__(self) -> None:
        if self.left_x < 0:
            raise ValueError(f"left_x must be >= 0, got {self.left_x}")
        if self.right_x <= self.left_x:
            raise ValueError(
                f"right_x must exceed left_x, got {self.left_x}..{self.right_x}"
            )


def scanline(img: GrayImage, pupil: PupilGeometry) -> np.ndarray:
    """Contrast-stretched int64 profile of the row through the pupil center.

    The stretch uses only this row's min and max, so the iris/sclera step
    spans as much of [0, 255] as the row allows.  A constant row has no
    contrast to stretch and degenerates to an all-zero profile.
    """
    line = img.pixels[round_half_away(pupil.y_cp)]
    low, high = int(line.min()), int(line.max())
    if high <= low:
        return np.zeros(line.shape, dtype=np.int64)
    # The stretched values lie in [0, 255], so rounding half away from zero
    # is truncating x + 0.5, and nothing needs clipping.
    return ((line - low) * 255.0 / (high - low) + 0.5).astype(np.int64)


def _pupil_edge_column(pupil: PupilGeometry, direction: str) -> int:
    if direction == "right":
        return round_half_away(pupil.x_cp + pupil.r_x)
    return round_half_away(pupil.x_cp - pupil.r_x)


def detect_edge(
    profile: np.ndarray,
    pupil: PupilGeometry,
    direction: str,
    window: int = DEFAULT_EDGE_WINDOW,
    jump: int = DEFAULT_EDGE_JUMP,
) -> int:
    """First confirmed intensity rise outward of the pupil on one side.

    A column c qualifies when the consecutive-pixel rise in the scan
    direction reaches `jump` and the mean over the `window` columns outward
    of c exceeds the mean over the `window` columns inward of c by at least
    `jump`.  The windows exclude c itself, so an isolated bright pixel is
    its own candidate and fails confirmation instead of polluting a window.
    Candidates start one full window outside the pupil so the pupil/iris
    transition never lands in the inward window.  EdgeConfig checks window
    and jump where they enter.

    Every candidate is tested at once.  The window sums are differences of
    one cumulative sum, and each mean is its sum / window, the float that
    ndarray.mean gives on a window of integer intensities.  The left scan
    is the right scan of the mirrored profile.
    """
    edge = _pupil_edge_column(pupil, direction)
    width = profile.size
    line = profile if direction == "right" else profile[::-1]
    first = edge + window + 1 if direction == "right" else width - edge + window
    last = width - 1 - window
    if window <= first <= last:
        sums = np.concatenate(([0], np.cumsum(line)))
        rise = line[first : last + 1] - line[first - 1 : last]
        outward = sums[first + window + 1 : last + window + 2] - sums[first + 1 : last + 2]
        inward = sums[first : last + 1] - sums[first - window : last + 1 - window]
        hits = np.flatnonzero((rise >= jump) & (outward / window - inward / window >= jump))
        if hits.size:
            c = first + int(hits[0])
            return c if direction == "right" else width - 1 - c
    raise EdgeNotFoundError(
        f"no intensity rise of at least {jump} found scanning {direction} "
        f"from column {edge}"
    )


def iris_bounds(
    img: GrayImage, pupil: PupilGeometry, cfg: EdgeConfig = EdgeConfig()
) -> IrisBounds:
    """Detect both iris boundaries, falling back when a side finds no edge.

    A single failed side copies the annulus width (boundary to pupil edge)
    of the side that worked; if both fail, cfg.default_annulus_width is
    applied (None meaning twice the larger pupil radius).  The result is
    clamped to the image and flags which sides were synthesized.
    """
    profile = scanline(img, pupil)
    pupil_left = _pupil_edge_column(pupil, "left")
    pupil_right = _pupil_edge_column(pupil, "right")

    left_x: int | None = None
    right_x: int | None = None
    try:
        left_x = detect_edge(profile, pupil, "left", cfg.window, cfg.jump)
    except EdgeNotFoundError:
        pass
    try:
        right_x = detect_edge(profile, pupil, "right", cfg.window, cfg.jump)
    except EdgeNotFoundError:
        pass

    left_fb = left_x is None
    right_fb = right_x is None
    if left_x is None and right_x is None:
        width = cfg.default_annulus_width
        if width is None:
            width = round_half_away(2.0 * max(pupil.r_x, pupil.r_y))
        left_x = pupil_left - width
        right_x = pupil_right + width
    elif left_x is None:
        left_x = pupil_left - (right_x - pupil_right)
    elif right_x is None:
        right_x = pupil_right + (pupil_left - left_x)

    left_x = max(0, left_x)
    right_x = min(img.width - 1, right_x)
    return IrisBounds(
        left_x=left_x,
        right_x=right_x,
        left_fallback=left_fb,
        right_fallback=right_fb,
    )


def mark_bounds(img: GrayImage, pupil: PupilGeometry, bounds: IrisBounds) -> GrayImage:
    """Debug copy of the image with the scanline and both bounds painted.

    The scanned row is lifted to at least mid-gray and the two boundary
    columns are set to 255 along it, which is enough to eyeball the result
    in any PGM viewer.
    """
    pixels = np.array(img.pixels, dtype=np.float64)
    row = round_half_away(pupil.y_cp)
    pixels[row] = np.maximum(pixels[row], 128)
    for col in (bounds.left_x, bounds.right_x):
        lo = max(0, row - 4)
        hi = min(img.height, row + 5)
        pixels[lo:hi, col] = 255
    return GrayImage(pixels=pixels)


def bounds_csv_line(bounds: IrisBounds) -> str:
    """Comma-separated bounds record: left, right, and the fallback flags."""
    return (
        f"{bounds.left_x},{bounds.right_x},"
        f"{int(bounds.left_fallback)},{int(bounds.right_fallback)}"
    )
