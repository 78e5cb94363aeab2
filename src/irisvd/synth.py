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

The texture is evaluated only on the iris band (r_p < distance <= r_i), a
quarter of a 320x280 canvas; the distance only on the bounding box of the
iris.  The bytes are the same as when both covered the whole canvas: each
band pixel goes through the same arithmetic, its texture terms are summed
in the same order (radial, angular, cross), and the noise is still drawn
for the whole canvas before the eyelashes, so the sample stream advances as
it did.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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
        # generate_eye moves the centre and the iris radius by up to 2 px and
        # the pupil radius by up to 1, so these checks hold for every
        # geometry it can draw, not only for the nominal one.
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


def _draw_segment(canvas, x0, y0, x1, y1, value) -> None:
    n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.rint(np.linspace(x0, x1, n)).astype(np.int64)
    ys = np.rint(np.linspace(y0, y1, n)).astype(np.int64)
    h, w = canvas.shape
    ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    canvas[ys[ok], xs[ok]] = value


def generate_eye(spec: EyeSpec) -> tuple[GrayImage, PupilGeometry, IrisBounds]:
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

    # Only the bounding box of the iris is measured, and only its band pixels
    # are textured: each pixel's arithmetic is the same as on the whole
    # canvas.  EyeSpec keeps the box inside the canvas and r_i above r_p.
    top, bottom = math.floor(cy - r_i), math.floor(cy + r_i) + 1
    left, right = math.floor(cx - r_i), math.floor(cx + r_i) + 1
    ygrid, xgrid = np.mgrid[top:bottom, left:right]
    dx, dy = xgrid - cx, ygrid - cy
    dist = np.hypot(dx, dy)
    band = (dist > r_p) & (dist <= r_i)
    u = (dist[band] - r_p) / (r_i - r_p)
    theta = np.arctan2(dy[band], dx[band])
    tex = np.zeros_like(u)
    for a, f, p in zip(*radial):
        tex += a * np.sin(2.0 * np.pi * f * u + p)
    for a, f, p in zip(*angular):
        tex += a * np.sin(f * theta + p)
    for a, fr, fa, pr, pa in zip(*cross):
        tex += a * np.sin(2.0 * np.pi * fr * u + pr) * np.sin(fa * theta + pa)

    canvas = np.full((spec.height, spec.width), float(spec.sclera_value))
    box = canvas[top:bottom, left:right]
    box[band] = spec.iris_base + tex
    pupil_mask = dist <= r_p
    box[pupil_mask] = float(spec.pupil_value)

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
        row = round_half_away(cy)
        col = round_half_away(cx + (r_p + r_i) / 2.0)
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


def generate_dataset(
    n_classes: int,
    samples_per_class: int = 7,
    base_seed: int = 0,
    out_dir: str | Path = ".",
    **spec_overrides,
) -> list[Path]:
    """Write n_classes x samples_per_class eye images plus a truth manifest.

    Files are named class<ccc>_sample<ss>.pgm with 1-based zero-padded
    indices; the manifest holds one row per file with the jittered geometry
    actually rendered.  Regenerating with the same arguments reproduces every
    file byte for byte.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if samples_per_class < 1:
        raise ValueError(
            f"samples_per_class must be >= 1, got {samples_per_class}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths: list[Path] = []
    rows = [MANIFEST_HEADER]
    for c in range(1, n_classes + 1):
        cseed = class_seed_for(base_seed, c)
        for s in range(1, samples_per_class + 1):
            spec = EyeSpec(class_seed=cseed, sample_seed=s, **spec_overrides)
            img, pupil, bounds = generate_eye(spec)
            name = f"class{c:03d}_sample{s:02d}.pgm"
            path = out / name
            write_pgm_file(path, img)
            r_iris = (bounds.right_x - bounds.left_x) / 2.0
            rows.append(
                f"{name},{c},{pupil.x_cp:.3f},{pupil.y_cp:.3f},"
                f"{pupil.r_x:.3f},{r_iris:.3f}"
            )
            paths.append(path)
    (out / MANIFEST_NAME).write_text("\n".join(rows) + "\n", encoding="ascii")
    return paths
