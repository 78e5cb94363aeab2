"""Reference copies of the iris boundary code, each kept verbatim as it was
before it was rewritten, so that the rewrite can be held to it.

- reference_detect_edge is detect_edge as it was when it stepped through the
  candidate columns one at a time in Python.  The prefix-sum scan must give
  the same column, or the same EdgeNotFoundError text, for every profile,
  pupil, window and jump.
- reference_iris_bounds is iris_bounds as it was with one try per side and
  three fallback branches (both sides failed, left failed, right failed).
  It calls the library's detect_edge, so it holds only the fallback rule:
  iris_bounds must give the same IrisBounds, or the same error, on every
  image, pupil and EdgeConfig.
"""

from __future__ import annotations

import numpy as np

from irisvd.image_io import GrayImage, round_half_away
from irisvd.iris_boundary import (
    DEFAULT_EDGE_JUMP,
    DEFAULT_EDGE_WINDOW,
    EdgeConfig,
    EdgeNotFoundError,
    IrisBounds,
    _pupil_edge_column,
    detect_edge,
    scanline,
)
from irisvd.segmentation import PupilGeometry


def reference_detect_edge(
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
    """
    edge = _pupil_edge_column(pupil, direction)
    width = profile.size
    step = 1 if direction == "right" else -1

    c = edge + step * (window + 1)
    while window <= c <= width - 1 - window:
        rise = int(profile[c]) - int(profile[c - step])
        if rise >= jump:
            if direction == "right":
                outward = profile[c + 1 : c + window + 1]
                inward = profile[c - window : c]
            else:
                outward = profile[c - window : c]
                inward = profile[c + 1 : c + window + 1]
            if float(outward.mean()) - float(inward.mean()) >= jump:
                return c
        c += step
    raise EdgeNotFoundError(
        f"no intensity rise of at least {jump} found scanning {direction} "
        f"from column {edge}"
    )


def reference_iris_bounds(
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
