"""Tests for scanline edge detection and iris bound recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisvd.image_io import GrayImage
from irisvd.iris_boundary import (
    EdgeConfig,
    EdgeNotFoundError,
    detect_edge,
    iris_bounds,
    mark_bounds,
    scanline,
)
from irisvd.segmentation import PupilGeometry, pupil_geometry, threshold_dark
from irisvd.synth import EyeSpec, class_seed_for, generate_eye
from iris_boundary_reference import reference_detect_edge, reference_iris_bounds

WIDTH = 320


def make_pupil(x_cp=120.0, y_cp=10.0, r_x=30.0, r_y=8.0, area=2827):
    return PupilGeometry(x_cp=x_cp, y_cp=y_cp, r_x=r_x, r_y=r_y, area=area)


def step_profile(edge=180, low=100, high=200, width=WIDTH):
    vals = np.full(width, low, dtype=np.int64)
    vals[edge:] = high
    return vals


def banded_image(
    height=21,
    width=WIDTH,
    x_cp=120,
    pupil_r=30,
    iris_r=60,
    pupil_val=10,
    iris_val=120,
    sclera_val=240,
):
    """Rows all identical: dark pupil band, mid iris band, bright elsewhere."""
    row = np.full(width, sclera_val, dtype=np.float64)
    row[x_cp - iris_r : x_cp + iris_r + 1] = iris_val
    row[x_cp - pupil_r : x_cp + pupil_r + 1] = pupil_val
    return GrayImage(pixels=np.tile(row, (height, 1)))


class TestEdgeConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            EdgeConfig(window=0)

    def test_rejects_bad_jump(self):
        with pytest.raises(ValueError, match="jump"):
            EdgeConfig(jump=0)

    def test_rejects_bad_default_width(self):
        with pytest.raises(ValueError, match="default_annulus_width"):
            EdgeConfig(default_annulus_width=0)


class TestScanline:
    def test_row_is_rounded_center(self):
        pixels = np.array(banded_image().pixels)
        pixels[11, :40] = 0  # only row 11 has this dark band
        img = GrayImage(pixels=pixels)

        def row_at(y_cp):
            return scanline(img, make_pupil(y_cp=y_cp)).tolist()

        assert row_at(10.4) == row_at(10.0) != row_at(11.0) == row_at(10.5)

    def test_flat_row_degenerates_to_zero(self):
        img = GrayImage(pixels=np.full((5, 9), 77.0))
        prof = scanline(img, make_pupil(x_cp=4.0, y_cp=2.0, r_x=1.0, r_y=1.0))
        assert np.all(prof == 0)

    def test_three_band_row_keeps_steps(self):
        row = np.concatenate(
            [np.full(20, 10.0), np.full(20, 120.0), np.full(20, 240.0)]
        )
        img = GrayImage(pixels=np.tile(row, (3, 1)))
        vals = scanline(img, make_pupil(x_cp=10.0, y_cp=1.0, r_x=3.0, r_y=3.0))
        assert vals[0] == 0 and vals[59] == 255
        # stretched mid band: (120 - 10) * 255 / 230 rounded
        assert vals[30] == 122
        diffs = np.diff(vals)
        assert np.count_nonzero(diffs) == 2
        assert np.all(diffs >= 0)

    def test_min_maps_to_zero_max_to_255(self):
        img = banded_image()
        prof = scanline(img, make_pupil())
        assert prof.min() == 0
        assert prof.max() == 255


class TestDetectEdge:
    def test_clean_step(self):
        prof = step_profile()
        assert detect_edge(prof, make_pupil(), "right", window=5, jump=40) == 180

    def test_isolated_bright_pixel_is_rejected(self):
        prof = step_profile()
        prof[160] = 255
        assert detect_edge(prof, make_pupil(), "right", window=5, jump=40) == 180

    def test_flat_profile_raises(self):
        prof = np.full(WIDTH, 99)
        with pytest.raises(EdgeNotFoundError):
            detect_edge(prof, make_pupil(), "right")

    def test_monotone_gentle_ramp_raises(self):
        # rises everywhere, but never by `jump` within one pixel
        prof = np.arange(WIDTH) * 255 // (WIDTH - 1)
        with pytest.raises(EdgeNotFoundError):
            detect_edge(prof, make_pupil(), "right", window=5, jump=40)

    def test_left_direction_mirror(self):
        vals = np.full(WIDTH, 100, dtype=np.int64)
        vals[: 60 + 1] = 200
        assert detect_edge(vals, make_pupil(), "left", window=5, jump=40) == 60

    def test_result_strictly_outside_pupil(self):
        rng = np.random.default_rng(7)
        pupil = make_pupil()
        for _ in range(50):
            vals = rng.integers(0, 256, WIDTH)
            for direction in ("left", "right"):
                try:
                    col = detect_edge(vals, pupil, direction, window=3, jump=25)
                except EdgeNotFoundError:
                    continue
                if direction == "right":
                    assert col > pupil.x_cp + pupil.r_x
                else:
                    assert col < pupil.x_cp - pupil.r_x

    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_bright_spike_never_moves_edge(self, window):
        """A lone bright pixel in the iris interior leaves the edge alone."""
        base = np.full(WIDTH, 0, dtype=np.int64)
        base[151:180] = 100
        base[180:] = 200
        pupil = make_pupil()
        ref = detect_edge(base, pupil, "right", window, 40)
        assert ref == 180
        rng = np.random.default_rng(11)
        first = 150 + window + 1
        for _ in range(60):
            pos = int(rng.integers(first, 180 - window))
            mag = int(rng.integers(100, 256))
            vals = np.array(base)
            vals[pos] = mag
            got = detect_edge(vals, pupil, "right", window, 40)
            assert got == ref, f"spike {mag} at {pos} moved edge to {got}"


def edge_outcome(fn, profile, pupil, direction, window, jump):
    try:
        return fn(profile, pupil, direction, window, jump)
    except EdgeNotFoundError as exc:
        return f"EdgeNotFoundError: {exc}"


@st.composite
def edge_scan(draw):
    """A profile of steps and noise, a pupil edge anywhere near it, and the knobs."""
    width = draw(st.integers(1, 48))
    levels = st.sampled_from([0, 20, 25, 26, 100, 200, 255]) | st.integers(0, 255)
    profile = np.array(draw(st.lists(levels, min_size=width, max_size=width)), dtype=np.int64)
    x_cp = draw(st.floats(-4.0, width + 4.0, allow_nan=False))
    r_x = draw(st.floats(0.5, 12.0, allow_nan=False))
    direction = draw(st.sampled_from(["left", "right"]))
    window, jump = draw(st.integers(1, 8)), draw(st.integers(1, 80))
    return profile, make_pupil(x_cp=x_cp, r_x=r_x), direction, window, jump


def bounds_outcome(fn, img, pupil, cfg):
    try:
        return fn(img, pupil, cfg)
    except ValueError as exc:
        return f"ValueError: {exc}"


def border_iris_image(side, width=WIDTH, pupil_r=20, iris_r=60, x_cp=40):
    """Rows all identical: the iris band runs into the border on `side`, so
    that side has no edge and its mirrored bound lies outside the image."""
    row = np.full(width, 240.0)
    row[: x_cp + iris_r + 1] = 120.0
    row[x_cp - pupil_r : x_cp + pupil_r + 1] = 10.0
    if side == "right":
        row, x_cp = row[::-1], width - 1 - x_cp
    pupil = make_pupil(x_cp=float(x_cp), r_x=float(pupil_r), r_y=float(pupil_r))
    return GrayImage(pixels=np.tile(row, (21, 1))), pupil


def dark_band_image(width, lo, hi):
    """A bright image with a dark pupil band and no iris: neither side has an edge."""
    pixels = np.full((21, width), 240.0)
    pixels[:, lo:hi] = 10.0
    return GrayImage(pixels=pixels)


class TestDetectEdgeAgainstReference:
    """The prefix-sum scan gives the column, or the error text, of the
    column-by-column loop, and iris_bounds gives the IrisBounds of the
    three-branch fallback it replaced (tests/iris_boundary_reference.py)."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(edge_scan())
    def test_random_scans(self, scan):
        assert edge_outcome(detect_edge, *scan) == edge_outcome(reference_detect_edge, *scan)

    @pytest.mark.parametrize("direction", ["left", "right"])
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_candidates_next_to_the_borders(self, direction, window):
        # A step on each column of the scan, the first and last allowed
        # candidates included, and a pupil edge on each column around them.
        width = 4 * window + 6
        for step in range(width + 1):
            profile = np.zeros(width, dtype=np.int64)
            if direction == "right":
                profile[step:] = 200
            else:
                profile[:step] = 200
            for edge in range(-2, width + 2):
                pupil = make_pupil(x_cp=edge + (-1.0 if direction == "right" else 1.0),
                                   r_x=1.0)
                scan = (profile, pupil, direction, window, 40)
                assert edge_outcome(detect_edge, *scan) == edge_outcome(
                    reference_detect_edge, *scan
                )

    def test_scanlines_of_degraded_eyes(self):
        # Both sides of every degraded eye, whole and cut into the iris band
        # on the left and on the right, so that one side has no edge.
        for c in range(1, 10):
            for s in range(1, 9):
                spec = EyeSpec(class_seed_for(0, c), s, eyelash_count=12,
                               noise_amplitude=12, bright_spot=True)
                img, truth, bounds = generate_eye(spec)
                x = round(truth.x_cp)
                depth = round((truth.r_x + (bounds.right_x - bounds.left_x) / 2) / 2)
                for pixels in (img.pixels, img.pixels[:, x - depth:],
                               img.pixels[:, : x + depth + 1]):
                    eye = GrayImage(pixels)
                    pupil = pupil_geometry(threshold_dark(eye))
                    profile = scanline(eye, pupil)
                    for direction in ("left", "right"):
                        scan = (profile, pupil, direction, 5, 25)
                        assert edge_outcome(detect_edge, *scan) == edge_outcome(
                            reference_detect_edge, *scan
                        )
                    bounds_in = (eye, pupil, EdgeConfig())
                    assert bounds_outcome(iris_bounds, *bounds_in) == bounds_outcome(
                        reference_iris_bounds, *bounds_in
                    )

    @pytest.mark.parametrize(
        "img, pupil, cfg, fallbacks",
        [
            # a pupil taller than wide: the default is twice r_y
            (dark_band_image(WIDTH, 90, 151), make_pupil(r_y=36.0), EdgeConfig(), (True, True)),
            (dark_band_image(WIDTH, 90, 151), make_pupil(),
             EdgeConfig(default_annulus_width=25), (True, True)),
            (dark_band_image(60, 5, 46),
             make_pupil(x_cp=25.0, r_x=20.0, r_y=20.0, area=1300), EdgeConfig(), (True, True)),
            (*border_iris_image("left"), EdgeConfig(), (True, False)),
            (*border_iris_image("right"), EdgeConfig(), (False, True)),
        ],
        ids=["both_fail_default", "both_fail_width_25", "both_fail_clamped",
             "left_clamped", "right_clamped"],
    )
    def test_bounds_no_degraded_eye_reaches(self, img, pupil, cfg, fallbacks):
        got = iris_bounds(img, pupil, cfg)
        assert got == reference_iris_bounds(img, pupil, cfg)
        assert (got.left_fallback, got.right_fallback) == fallbacks


class TestIrisBounds:
    def test_banded_image_edges(self):
        img = banded_image()
        got = iris_bounds(img, make_pupil())
        # first columns at sclera intensity just past the 60 px iris band
        assert got.left_x == 59
        assert got.right_x == 181
        assert not got.left_fallback and not got.right_fallback

    def test_symmetric_image_symmetric_bounds(self):
        img = banded_image()
        got = iris_bounds(img, make_pupil())
        left_w = 120 - got.left_x
        right_w = got.right_x - 120
        assert abs(left_w - right_w) <= 3

    def test_occluded_left_mirrors_right(self):
        img = banded_image()
        pixels = np.array(img.pixels, dtype=np.float64)
        pixels[:, :90] = 10.0
        got = iris_bounds(GrayImage(pixels=pixels), make_pupil())
        assert got.left_fallback and not got.right_fallback
        assert got.right_x == 181
        assert 90 - got.left_x == got.right_x - 150

    def test_double_failure_uses_default_width(self):
        pixels = np.full((21, WIDTH), 240.0)
        pixels[:, 90:151] = 10.0
        got = iris_bounds(GrayImage(pixels=pixels), make_pupil())
        assert got.left_fallback and got.right_fallback
        assert got.left_x == 90 - 60 and got.right_x == 150 + 60

    def test_double_failure_explicit_width(self):
        pixels = np.full((21, WIDTH), 240.0)
        pixels[:, 90:151] = 10.0
        cfg = EdgeConfig(default_annulus_width=25)
        got = iris_bounds(GrayImage(pixels=pixels), make_pupil(), cfg)
        assert got.left_x == 65 and got.right_x == 175

    def test_fallback_clamped_to_image(self):
        pixels = np.full((21, 60), 240.0)
        pixels[:, 5:46] = 10.0
        pupil = make_pupil(x_cp=25.0, y_cp=10.0, r_x=20.0, r_y=20.0, area=1300)
        got = iris_bounds(GrayImage(pixels=pixels), pupil)
        assert got.left_x == 0
        assert got.right_x == 59

    def test_deterministic(self):
        img = banded_image()
        a = iris_bounds(img, make_pupil())
        b = iris_bounds(img, make_pupil())
        assert a == b


class TestDebugOutput:
    def test_mark_bounds_paints_columns(self):
        img = banded_image()
        pupil = make_pupil()
        got = iris_bounds(img, pupil)
        marked = mark_bounds(img, pupil, got)
        assert marked.pixels.shape == img.pixels.shape
        assert marked.pixels[10, got.left_x] == 255
        assert marked.pixels[10, got.right_x] == 255
        # source untouched
        assert img.pixels[10, got.left_x] != 255
