"""Deterministic synthetic eye images with exact ground-truth geometry.

Every test that would otherwise need a real iris database runs on these.
Images are rendered from explicit seeds through numpy's Philox counter-based
generator, so the same spec produces bit-identical pixels on any platform:
the class stream (key ``[class_seed, 0]``) draws the iris texture pattern,
and the sample stream (key ``[class_seed, sample_seed + 1]``) draws noise,
geometric jitter, and eyelash placement.

The iris texture is a sum of class-seeded sinusoids in the normalized radial
coordinate and the polar angle.  Amplitudes are budgeted so that the rendered
bands never collide with the segmentation threshold or the scanline edge
detector: radial slope along a row stays too small to fake a boundary rise,
and the iris stays in [80, 160] before noise.  Realism is a non-goal; stable
class separability is the requirement.

The texture is evaluated on the iris's bounding box, whose band alone is
kept, and its sines are shared where their arguments repeat.  The distance
and the radial waves depend on |dx| and |dy| alone, so they are evaluated on
the grid of distinct |dx| by distinct |dy|, a quarter of the box for an
integral centre, and gathered onto the box.  The angular waves depend on the
offsets from the centre, which the jitter moves by whole pixels, so they are
evaluated once per class and centre fraction on a square of integer offsets
that holds every jittered box; an eye's box is a slice of it.  The bytes are
the same as when the texture covered the whole canvas: each band pixel's
terms are the same doubles, summed in the same order (radial, angular,
cross); the noise is still drawn for the whole canvas before the eyelashes,
so the sample stream advances as it did; and the whole canvas is rounded,
then cast straight to uint8.

generate_dataset renders its classes concurrently, one task per class on a
thread pool of min(n_classes, usable CPUs) threads opened and shut inside
the call.  A task draws its class's texture parameters once, builds its own
angular waves, and renders and writes its eyes in sample order.  Every
stream is keyed by the eye's own seeds, so no two tasks share a generator
and the bytes do not depend on the thread count.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .image_io import GrayImage, round_half_away, write_pgm_file
from .iris_boundary import IrisBounds
from .segmentation import PupilGeometry

# Texture amplitude split: waves with a radial gradient (pure radial plus
# the radial factor of the cross products) are kept gentle because they are
# the only components with a slope along the scanline through the center;
# angular waves are constant along that line and may carry more.  The
# radial-slope pool is _RADIAL_AMPLITUDE + _CROSS_AMPLITUDE.
_RADIAL_AMPLITUDE = 8.0
_CROSS_AMPLITUDE = 4.0
_ANGULAR_AMPLITUDE = 26.0
_TEXTURE_AMPLITUDE = _RADIAL_AMPLITUDE + _CROSS_AMPLITUDE + _ANGULAR_AMPLITUDE
_EYELASH_VALUE = 25.0
_MAX_NOISE = 12

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = "filename,class,x_cp,y_cp,r_pupil,r_iris"


@dataclass(frozen=True)
class EyeSpec:
    """Everything that determines one rendered eye image."""

    class_seed: int
    sample_seed: int
    width: int = 320
    height: int = 280
    pupil_center: tuple[float, float] = (160.0, 140.0)
    pupil_radius: float = 30.0
    iris_radius: float = 90.0
    pupil_value: int = 30
    iris_base: int = 120
    sclera_value: int = 235
    eyelash_count: int = 4
    noise_amplitude: int = 8
    bright_spot: bool = False

    def __post_init__(self) -> None:
        if self.class_seed < 0 or self.sample_seed < 0:
            raise ValueError("seeds must be non-negative")
        if self.class_seed >> 64 or self.sample_seed >> 63:
            raise ValueError("seeds must fit in 64 bits")
        if self.width < 8 or self.height < 8:
            raise ValueError(f"image {self.width}x{self.height} too small")
        if self.pupil_radius < 29:
            raise ValueError(
                f"pupil_radius must be >= 29, got {self.pupil_radius}"
            )
        # A render moves the centre and the iris radius by up to 2 px and the
        # pupil radius by up to 1, so these checks hold for every geometry
        # it can draw, not only for the nominal one.
        if not self.iris_radius - 2 > self.pupil_radius + 1:
            raise ValueError(
                f"pupil_radius {self.pupil_radius} must stay below iris_radius "
                f"{self.iris_radius} by more than 3 once jittered"
            )
        cx, cy = self.pupil_center
        border = min(cx, cy, self.width - 1 - cx, self.height - 1 - cy)
        if not self.iris_radius + 4 < border:
            raise ValueError(
                f"iris_radius {self.iris_radius} reaches the border once jittered "
                f"(reach {self.iris_radius} + 4, min center distance {border})"
            )
        if not 0 <= self.pupil_value <= 40:
            raise ValueError(f"pupil_value must be in [0, 40], got {self.pupil_value}")
        lo = self.iris_base - _TEXTURE_AMPLITUDE
        hi = self.iris_base + _TEXTURE_AMPLITUDE
        if lo < 80 or hi > 160:
            raise ValueError(
                f"iris_base {self.iris_base} pushes the textured band "
                f"[{lo}, {hi}] outside [80, 160]"
            )
        if not 200 <= self.sclera_value <= 255:
            raise ValueError(
                f"sclera_value must be in [200, 255], got {self.sclera_value}"
            )
        if not 0 <= self.noise_amplitude <= _MAX_NOISE:
            raise ValueError(
                f"noise_amplitude must be in [0, {_MAX_NOISE}], "
                f"got {self.noise_amplitude}"
            )
        if not 0 <= self.eyelash_count <= 12:
            raise ValueError(
                f"eyelash_count must be in [0, 12], got {self.eyelash_count}"
            )


def _class_stream(spec: EyeSpec) -> np.random.Generator:
    key = np.array([spec.class_seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_stream(spec: EyeSpec) -> np.random.Generator:
    key = np.array([spec.class_seed, spec.sample_seed + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _texture_params(spec: EyeSpec):
    """Class-seeded sinusoid parameters; a function of class_seed only.

    Three families: pure radial waves, pure angular waves, and cross
    products of the two.  The mix spreads the class signal across many
    singular values of the extracted template, so higher feature dimensions
    stay informative.  Amplitudes are normalized to the module budgets,
    which keeps the worst-case radial slope along the scanline the same no
    matter how many components share a budget; angular waves are constant
    along that line regardless of frequency.
    """
    rng = _class_stream(spec)
    raw_r = rng.uniform(0.4, 1.0, 5)
    freq_r = rng.uniform(0.8, 2.5, 5)
    phase_r = rng.uniform(0.0, 2.0 * np.pi, 5)
    raw_a = rng.uniform(0.4, 1.0, 8)
    freq_a = rng.integers(2, 25, 8)
    phase_a = rng.uniform(0.0, 2.0 * np.pi, 8)
    raw_c = rng.uniform(0.4, 1.0, 4)
    freq_cr = rng.uniform(0.8, 2.5, 4)
    freq_ca = rng.integers(2, 25, 4)
    phase_cr = rng.uniform(0.0, 2.0 * np.pi, 4)
    phase_ca = rng.uniform(0.0, 2.0 * np.pi, 4)
    radial = (raw_r * (_RADIAL_AMPLITUDE / raw_r.sum()), freq_r, phase_r)
    angular = (raw_a * (_ANGULAR_AMPLITUDE / raw_a.sum()), freq_a, phase_a)
    cross = (
        raw_c * (_CROSS_AMPLITUDE / raw_c.sum()),
        freq_cr,
        freq_ca,
        phase_cr,
        phase_ca,
    )
    return radial, angular, cross


def _draw_segments(canvas, starts, stops, value) -> None:
    """Set to value every pixel that a segment from starts[i] to stops[i]
    passes, both (m, 2) arrays of (x, y).  A segment of n points is
    np.linspace's: k·step + start for k < n, with the last point set to
    stop, each rounded to the nearest pixel.  Each segment must have n >= 2
    for its step to exist; every lash segment rises 3 to 12 pixels."""
    n = np.abs(stops - starts).max(axis=1).astype(np.int64) + 1
    seg = np.repeat(np.arange(n.size), n)
    ends = np.cumsum(n)
    k = np.arange(seg.size) - (ends - n)[seg]
    step = (stops - starts) / (n - 1)[:, None]
    points = k[:, None] * step[seg] + starts[seg]
    points[ends - 1] = stops
    xs, ys = np.rint(points).astype(np.int64).T
    h, w = canvas.shape
    ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    canvas[ys[ok], xs[ok]] = value


def _radial_waves(radial, cross, u):
    """The radial waves summed in order, then the radial factor
    a·sin(2π·fr·u + pr) of each cross wave, at normalized radii u; stacked
    on a new first axis."""
    waves = np.zeros((1 + len(cross[0]), *u.shape))
    for a, f, p in zip(*radial):
        waves[0] += a * np.sin(2.0 * np.pi * f * u + p)
    for k, (a, fr, pr) in enumerate(zip(cross[0], cross[1], cross[3]), 1):
        waves[k] = a * np.sin(2.0 * np.pi * fr * u + pr)
    return waves


def _angular_waves(angular, cross, dx, dy):
    """Each angular wave a·sin(f·θ + p), then the angular factor
    sin(fa·θ + pa) of each cross wave, at offsets (dx, dy) from the centre;
    stacked on a new first axis."""
    theta = np.arctan2(dy, dx)
    waves = np.empty((len(angular[0]) + len(cross[0]), *theta.shape))
    for k, (a, f, p) in enumerate(zip(*angular)):
        waves[k] = a * np.sin(f * theta + p)
    for k, (fa, pa) in enumerate(zip(cross[2], cross[4]), len(angular[0])):
        waves[k] = np.sin(fa * theta + pa)
    return waves


def _render_eye(
    spec: EyeSpec, texture, class_angles: dict
) -> tuple[GrayImage, PupilGeometry, IrisBounds]:
    """Render one eye from spec's class texture and return it with the
    jittered geometry it drew, not the nominal one in the EyeSpec; the
    pupil area is the rasterized pixel count.  class_angles maps each centre
    fraction to its angular waves on the square of integer offsets of
    radius reach (built on first use).  Every spec that shares the dict must
    share class_seed and iris_radius."""
    radial, angular, cross = texture
    rng = _sample_stream(spec)

    cx = spec.pupil_center[0] + int(rng.integers(-2, 3))
    cy = spec.pupil_center[1] + int(rng.integers(-2, 3))
    r_p = max(29.0, spec.pupil_radius + int(rng.integers(-1, 2)))
    r_i = spec.iris_radius + int(rng.integers(-2, 3))

    # Only the bounding box of the iris is measured and textured, and only
    # its band is kept: each band pixel's arithmetic is the same as on the
    # whole canvas.  EyeSpec keeps the box inside the canvas and r_i > r_p.
    top, bottom = math.floor(cy - r_i), math.floor(cy + r_i) + 1
    left, right = math.floor(cx - r_i), math.floor(cx + r_i) + 1
    xs, ys = np.arange(left, right) - cx, np.arange(top, bottom) - cy
    # The distance and the radial waves depend on |dx| and |dy| alone (hypot
    # drops the signs bit for bit), so they are evaluated once per distinct
    # pair, a quarter of the box for an integral centre, and gathered.
    ax, jx = np.unique(np.abs(xs), return_inverse=True)
    ay, jy = np.unique(np.abs(ys), return_inverse=True)
    grid = np.hypot(ay[:, None], ax)
    dist = grid.take(jy, axis=0).take(jx, axis=1)
    rad = _radial_waves(radial, cross, (grid - r_p) / (r_i - r_p)).take(jy, 1).take(jx, 2)

    # col - cx and (col - floor(cx)) - frac(cx) are the same real number, so
    # they round to the same double: a field over integer offsets serves
    # every jittered centre with the same fraction.  The square of offsets
    # up to reach holds the box of every jittered r_i, so a box is a slice.
    col0, row0 = math.floor(cx), math.floor(cy)
    frac = (cx - col0, cy - row0)
    reach = math.ceil(spec.iris_radius) + 3
    if frac not in class_angles:
        offsets = np.arange(-reach, reach + 1)
        dx, dy = np.meshgrid(offsets - frac[0], offsets - frac[1])
        class_angles[frac] = _angular_waves(angular, cross, dx, dy)
    y0, x0 = top - row0 + reach, left - col0 + reach
    ang = class_angles[frac][:, y0 : y0 + bottom - top, x0 : x0 + right - left]

    # The sum runs in the order of the whole-canvas renderer: the radial
    # waves, each angular wave, then each cross wave (a·sinR)·sinA.
    tex = rad[0]
    n_angular = len(angular[0])
    for wave in ang[:n_angular]:
        tex += wave
    for radial_factor, angular_factor in zip(rad[1:], ang[n_angular:]):
        tex += radial_factor * angular_factor

    canvas = np.full((spec.height, spec.width), float(spec.sclera_value))
    box = canvas[top:bottom, left:right]
    band = (dist > r_p) & (dist <= r_i)
    box[band] = (spec.iris_base + tex)[band]
    pupil_mask = dist <= r_p
    box[pupil_mask] = float(spec.pupil_value)

    if spec.noise_amplitude > 0:
        canvas += rng.integers(
            -spec.noise_amplitude, spec.noise_amplitude + 1, canvas.shape
        )

    # Each lash is a polyline of 3 segments; its 4 points are drawn one by
    # one from the sample stream, and every segment is rasterised at once.
    lash_top = cy - r_i
    lashes = np.empty((spec.eyelash_count, 4, 2))
    for lash in lashes:
        x = cx + rng.uniform(-0.9, 0.9) * r_i
        y = lash_top - int(rng.integers(4, 16))
        lash[0] = x, y
        for point in lash[1:]:
            x += int(rng.integers(-10, 11))
            y -= int(rng.integers(3, 13))
            point[:] = x, y
    _draw_segments(canvas, lashes[:, :3].reshape(-1, 2), lashes[:, 1:].reshape(-1, 2),
                   _EYELASH_VALUE)

    if spec.bright_spot:
        row = round_half_away(cy)
        col = round_half_away(cx + (r_p + r_i) / 2.0)
        canvas[row, col] = 255.0

    # Rounded and clipped straight to uint8, which GrayImage takes as it is.
    pixels = round_half_away(canvas)
    img = GrayImage(pixels=np.clip(pixels, 0, 255, out=pixels).astype(np.uint8))
    pupil = PupilGeometry(
        x_cp=float(cx),
        y_cp=float(cy),
        r_x=float(r_p),
        r_y=float(r_p),
        area=int(np.count_nonzero(pupil_mask)),
    )
    bounds = IrisBounds(
        left_x=round_half_away(cx - r_i),
        right_x=round_half_away(cx + r_i),
    )
    return img, pupil, bounds


def class_seed_for(base_seed: int, class_index: int) -> int:
    """Stable 64-bit per-class seed derived from the dataset base seed."""
    digest = hashlib.blake2b(
        f"{base_seed}/class/{class_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _render_class(
    spec: EyeSpec, c: int, samples_per_class: int, out: Path, ascii: bool
) -> list[tuple[Path, str]]:
    """Render and write the eyes of class c, spec's class, in sample order;
    return the path and the manifest row of each."""
    texture = _texture_params(spec)
    class_angles = {}
    eyes = []
    for s in range(1, samples_per_class + 1):
        img, pupil, bounds = _render_eye(
            replace(spec, sample_seed=s), texture, class_angles
        )
        name = f"class{c:03d}_sample{s:02d}.pgm"
        path = out / name
        write_pgm_file(path, img, ascii=ascii)
        r_iris = (bounds.right_x - bounds.left_x) / 2.0
        eyes.append((
            path,
            f"{name},{c},{pupil.x_cp:.3f},{pupil.y_cp:.3f},"
            f"{pupil.r_x:.3f},{r_iris:.3f}",
        ))
    return eyes


def generate_dataset(
    n_classes: int,
    samples_per_class: int = 7,
    base_seed: int = 0,
    out_dir: str | Path = ".",
    ascii: bool = False,
    **spec_overrides,
) -> list[Path]:
    """Write n_classes x samples_per_class eye images plus a truth manifest.

    Files are named class<ccc>_sample<ss>.pgm with 1-based zero-padded
    indices, P2 when ascii is true, else P5; the manifest holds one row per
    file with the jittered geometry actually rendered.  The classes render
    concurrently, one task per class on a pool of min(n_classes, usable
    CPUs) threads that lives only for this call; numpy releases the GIL for
    most of an eye.  Every eye's streams are keyed by its own seeds, so the
    bytes do not depend on the thread count, and regenerating with the same
    arguments reproduces every file byte for byte.  The overrides are
    checked before any thread starts or file is written.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if samples_per_class < 1:
        raise ValueError(
            f"samples_per_class must be >= 1, got {samples_per_class}"
        )
    spec = EyeSpec(class_seed=0, sample_seed=1, **spec_overrides)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=min(n_classes, _usable_cpus())) as pool:
        tasks = [
            pool.submit(
                _render_class,
                replace(spec, class_seed=class_seed_for(base_seed, c)),
                c, samples_per_class, out, ascii,
            )
            for c in range(1, n_classes + 1)
        ]
        eyes = [eye for task in tasks for eye in task.result()]
    rows = [MANIFEST_HEADER, *(row for _, row in eyes)]
    (out / MANIFEST_NAME).write_text("\n".join(rows) + "\n", encoding="ascii")
    return [path for path, _ in eyes]
