"""Reference synthetic eye renderer: generate_eye as it was when the texture
was evaluated on the whole canvas and only the iris band was kept.

Kept verbatim so the band-only renderer can be held to it: the same pixels,
PupilGeometry and IrisBounds for every spec.  Its eyelashes are drawn one
segment at a time by _draw_segment, the np.linspace rasteriser that the
batched synth._draw_segments replaced.
"""

from __future__ import annotations

import numpy as np

from irisvd.image_io import GrayImage, round_half_away
from irisvd.iris_boundary import IrisBounds
from irisvd.segmentation import PupilGeometry
from irisvd.synth import (
    _EYELASH_VALUE,
    EyeSpec,
    _sample_stream,
    _texture_params,
)


def _draw_segment(canvas, x0, y0, x1, y1, value) -> None:
    n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.rint(np.linspace(x0, x1, n)).astype(np.int64)
    ys = np.rint(np.linspace(y0, y1, n)).astype(np.int64)
    h, w = canvas.shape
    ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    canvas[ys[ok], xs[ok]] = value


def reference_generate_eye(spec: EyeSpec) -> tuple[GrayImage, PupilGeometry, IrisBounds]:
    """Render one eye and return it with the exact geometry that was drawn.

    The returned PupilGeometry and IrisBounds reflect the jittered values
    actually used, not the nominal ones in the EyeSpec; the pupil area is
    the exact rasterized pixel count.
    """
    radial, angular, cross = _texture_params(spec)
    rng = _sample_stream(spec)

    cx = spec.pupil_center[0] + int(rng.integers(-2, 3))
    cy = spec.pupil_center[1] + int(rng.integers(-2, 3))
    r_p = max(29.0, spec.pupil_radius + int(rng.integers(-1, 2)))
    r_i = spec.iris_radius + int(rng.integers(-2, 3))

    ygrid, xgrid = np.mgrid[0 : spec.height, 0 : spec.width]
    dist = np.hypot(xgrid - cx, ygrid - cy)
    theta = np.arctan2(ygrid - cy, xgrid - cx)

    canvas = np.full((spec.height, spec.width), float(spec.sclera_value))
    iris_mask = dist <= r_i
    u = np.clip((dist - r_p) / (r_i - r_p), 0.0, 1.0)
    tex = np.zeros_like(canvas)
    for a, f, p in zip(*radial):
        tex += a * np.sin(2.0 * np.pi * f * u + p)
    for a, f, p in zip(*angular):
        tex += a * np.sin(f * theta + p)
    for a, fr, fa, pr, pa in zip(*cross):
        tex += a * np.sin(2.0 * np.pi * fr * u + pr) * np.sin(fa * theta + pa)
    canvas[iris_mask] = spec.iris_base + tex[iris_mask]
    pupil_mask = dist <= r_p
    canvas[pupil_mask] = float(spec.pupil_value)

    if spec.noise_amplitude > 0:
        canvas += rng.integers(
            -spec.noise_amplitude, spec.noise_amplitude + 1, canvas.shape
        )

    lash_top = cy - r_i
    for _ in range(spec.eyelash_count):
        x0 = cx + rng.uniform(-0.9, 0.9) * r_i
        y0 = lash_top - int(rng.integers(4, 16))
        for _ in range(3):
            x1 = x0 + int(rng.integers(-10, 11))
            y1 = y0 - int(rng.integers(3, 13))
            _draw_segment(canvas, x0, y0, x1, y1, _EYELASH_VALUE)
            x0, y0 = x1, y1

    if spec.bright_spot:
        row = int(round_half_away(cy))
        col = int(round_half_away(cx + (r_p + r_i) / 2.0))
        canvas[row, col] = 255.0

    pixels = np.clip(round_half_away(canvas), 0, 255).astype(np.float64)
    img = GrayImage(pixels=pixels)
    pupil = PupilGeometry(
        x_cp=float(cx),
        y_cp=float(cy),
        r_x=float(r_p),
        r_y=float(r_p),
        area=int(np.count_nonzero(pupil_mask)),
    )
    bounds = IrisBounds(
        left_x=int(round_half_away(cx - r_i)),
        right_x=int(round_half_away(cx + r_i)),
    )
    return img, pupil, bounds
