"""Reference pupil measurement: pupil_geometry as it was before the row
through the centroid was sliced from the sorted rows and before a region
that spans the image was refused.

Kept verbatim so the current code can be held to it: the same geometry, or
the same error, on every mask whose largest region does not span the image.
"""

from __future__ import annotations

import numpy as np

from irisvd.image_io import round_half_away
from irisvd.segmentation import (
    DEFAULT_MIN_PUPIL_AREA,
    PupilGeometry,
    PupilNotFoundError,
    label_components_8,
)


def reference_pupil_geometry(
    mask: np.ndarray, min_area: int = DEFAULT_MIN_PUPIL_AREA
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
