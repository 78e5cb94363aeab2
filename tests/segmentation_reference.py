"""Reference 8-connected labeller: label_components_8 as it was when the
runs were merged by a per-edge Python union-find.

Kept verbatim so the vectorised hooking labeller can be held to it: the same
labels, and the same pixel coordinates in the same order, for every mask.
"""

from __future__ import annotations

import numpy as np

from irisvd.segmentation import Region


def reference_label_components_8(mask: np.ndarray) -> list[Region]:
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

    parent = list(range(start.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (first, stop) in enumerate(zip(lo.tolist(), hi.tolist())):
        for j in range(first, stop):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    # A component's root is its first run, so root order is scan order.
    _, run_label = np.unique([find(i) for i in range(start.size)], return_inverse=True)
    ys, xs = np.divmod(np.flatnonzero(mask), w)
    pixel_label = np.repeat(run_label, end - start)
    order = np.argsort(pixel_label, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(pixel_label))[:-1])
    return [Region(label, xs[g], ys[g]) for label, g in enumerate(groups, start=1)]
