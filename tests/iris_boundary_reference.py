"""Reference edge scan: detect_edge as it was when it stepped through the
candidate columns one at a time in Python.

Kept verbatim so the prefix-sum scan can be held to it: the same column, or
the same EdgeNotFoundError text, for every profile, pupil, window and jump.
"""

from __future__ import annotations

import numpy as np

from irisvd.iris_boundary import (
    DEFAULT_EDGE_JUMP,
    DEFAULT_EDGE_WINDOW,
    EdgeNotFoundError,
    _pupil_edge_column,
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
