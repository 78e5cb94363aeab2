"""Thresholding, 8-connected labeling, region filtering, pupil geometry.

The labeling tests compare against an independent stack-based flood-fill
oracle, which lives here, not in the package, so the two routes stay
separate.  The union-find labeller the package used before
(tests/segmentation_reference.py) pins the exact labels and pixel order.
"""

from itertools import cycle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisvd.harness import PipelineConfig
from irisvd.image_io import GrayImage, round_half_away
from irisvd.segmentation import (
    PupilGeometry,
    PupilNotFoundError,
    filter_small_regions,
    label_components_8,
    pupil_geometry,
    threshold_dark,
)
from irisvd.synth import EyeSpec, class_seed_for, generate_eye
from pupil_geometry_reference import reference_pupil_geometry
from segmentation_reference import reference_label_components_8

NEIGHBORS_8 = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]


def flood_fill_components(bits: np.ndarray) -> list[set]:
    """Oracle: 8-connected components by explicit flood fill, scan order."""
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    components = []
    for y in range(h):
        for x in range(w):
            if bits[y, x] and not seen[y, x]:
                stack = [(x, y)]
                seen[y, x] = True
                comp = set()
                while stack:
                    cx, cy = stack.pop()
                    comp.add((cx, cy))
                    for dx, dy in NEIGHBORS_8:
                        nx, ny = cx + dx, cy + dy
                        if 0 <= nx < w and 0 <= ny < h and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((nx, ny))
                components.append(comp)
    return components


def oracle_run_length(line: list, anchor: int) -> int:
    """Run of the sorted line that holds anchor, else the longest run, else 1."""
    if not line:
        return 1
    runs = []
    run_start = prev = line[0]
    for v in line[1:]:
        if v != prev + 1:
            runs.append((run_start, prev))
            run_start = v
        prev = v
    runs.append((run_start, prev))
    for lo, hi in runs:
        if lo <= anchor <= hi:
            return hi - lo + 1
    return max(hi - lo + 1 for lo, hi in runs)


def oracle_geometry(comp: set) -> tuple:
    """(x_cp, y_cp, r_x, r_y, area) of one oracle component, in plain Python."""
    x_cp = sum(x for x, _ in comp) / len(comp)
    y_cp = sum(y for _, y in comp) / len(comp)
    row, col = round_half_away(y_cp), round_half_away(x_cp)
    r_x = oracle_run_length(sorted(x for x, y in comp if y == row), col) / 2.0
    r_y = oracle_run_length(sorted(y for x, y in comp if x == col), row) / 2.0
    return x_cp, y_cp, r_x, r_y, len(comp)


def disk_mask(w, h, cx, cy, r):
    ys, xs = np.mgrid[0:h, 0:w]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def c_mask(w, h, cx, cy, r_in, r_out):
    """A thick ring open to the right: its centroid lies in the hole."""
    ys, xs = np.mgrid[0:h, 0:w]
    d2 = (xs - cx) ** 2 + (ys - cy) ** 2
    ring = (d2 >= r_in * r_in) & (d2 <= r_out * r_out)
    gap = (xs > cx) & (np.abs(ys - cy) < r_in)
    return ring & ~gap


class TestFloodFillOracle:
    """Sanity for the oracle itself before anything leans on it."""

    def test_two_diagonal_pixels_one_component(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 0] = bits[1, 1] = 1
        assert len(flood_fill_components(bits)) == 1

    def test_separated_pixels_two_components(self):
        bits = np.zeros((1, 3), dtype=bool)
        bits[0, 0] = bits[0, 2] = 1
        assert len(flood_fill_components(bits)) == 2


class TestThresholdDark:
    def test_boundary_value_is_foreground(self):
        img = GrayImage(np.array([[70, 71]]))
        assert threshold_dark(img, 70).tolist() == [[True, False]]

    def test_bright_pixel_excluded(self):
        img = GrayImage(np.array([[255]]))
        assert not threshold_dark(img, 70)[0, 0]

    def test_all_zero_image_all_foreground(self):
        img = GrayImage(np.zeros((4, 5), dtype=np.uint8))
        assert threshold_dark(img, 70).sum() == 20

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, size=(20, 20)))
        t = 70
        out = threshold_dark(img, t)
        assert out.dtype == bool and np.array_equal(out, img.pixels <= t)

    def test_invalid_threshold(self):
        # Checked once, where the threshold enters: the pipeline config.
        with pytest.raises(ValueError, match="threshold"):
            PipelineConfig(threshold=256)


class TestLabelComponents:
    def test_diagonal_touch_is_one_region(self):
        bits = np.zeros((2, 2), dtype=bool)
        bits[0, 0] = bits[1, 1] = 1
        regions = label_components_8(bits)
        assert len(regions) == 1
        assert regions[0].area == 2

    def test_gap_separates_regions(self):
        bits = np.array([[True, False, True]])
        regions = label_components_8(bits)
        assert len(regions) == 2

    def test_empty_image(self):
        regions = label_components_8(np.zeros((4, 4), dtype=bool))
        assert regions == []

    def test_matches_flood_fill_oracle_random(self):
        rng = np.random.default_rng(42)
        for density in (0.2, 0.5, 0.8):
            bits = (rng.random((64, 64)) < density)
            regions = label_components_8(bits)
            oracle = flood_fill_components(bits)
            assert {frozenset(zip(r.xs.tolist(), r.ys.tolist())) for r in regions} == {
                frozenset(c) for c in oracle
            }

    def test_labels_follow_scan_order(self):
        rng = np.random.default_rng(7)
        bits = (rng.random((32, 32)) < 0.3)
        regions = label_components_8(bits)
        firsts = [(r.ys[0], r.xs[0]) for r in regions]
        assert firsts == sorted(firsts)
        assert [r.label for r in regions] == list(range(1, len(regions) + 1))
        for r in regions:
            assert np.all(np.diff(r.ys * bits.shape[1] + r.xs) > 0)

    def test_areas_sum_to_foreground(self):
        rng = np.random.default_rng(11)
        bits = (rng.random((40, 40)) < 0.4)
        regions = label_components_8(bits)
        assert sum(r.area for r in regions) == bits.sum()


def square_spiral(n: int) -> np.ndarray:
    """A one-pixel path spiralling inward, its turns two pixels apart."""
    bits = np.zeros((n, n), dtype=bool)
    y = x = 0
    bits[0, 0] = True
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in range(2)]
    for (dy, dx), length in zip(cycle([(0, 1), (1, 0), (0, -1), (-1, 0)]), lengths):
        for _ in range(length):
            y, x = y + dy, x + dx
            bits[y, x] = True
    return bits


def serpentine(h: int, w: int) -> np.ndarray:
    """Full-height strokes in every other column, joined alternately at the
    bottom and the top: one path that winds across the whole image."""
    bits = np.zeros((h, w), dtype=bool)
    bits[:, ::2] = True
    for k, x in enumerate(range(1, w - 1, 2)):
        bits[h - 1 if k % 2 == 0 else 0, x] = True
    return bits


def vertical_zigzag(h: int, w: int, amplitude: int = 9, spacing: int = 4) -> np.ndarray:
    """Parallel one-pixel strokes that zigzag left and right down the image."""
    ys = np.arange(h)
    swing = np.abs((ys % (2 * amplitude)) - amplitude)
    bits = np.zeros((h, w), dtype=bool)
    for x0 in range(0, w - amplitude, spacing):
        bits[ys, x0 + swing] = True
    return bits


FIXED_MASKS = {
    "empty": np.zeros((6, 7), dtype=bool),
    "full": np.ones((6, 7), dtype=bool),
    "row": np.ones((1, 50), dtype=bool),
    "column": np.ones((50, 1), dtype=bool),
    "square_spiral": square_spiral(280),
    "vertical_zigzag": vertical_zigzag(280, 320),
    "serpentine": serpentine(280, 320),
    "checkerboard": np.indices((280, 320)).sum(axis=0) % 2 == 0,
}


def degraded_eye_masks() -> list[np.ndarray]:
    """Dark masks of every eye of the degraded recipe (synth 9x8 with 12
    eyelashes, noise 12 and a bright spot), whole and cropped into the
    iris band on the left and on the right."""
    masks = []
    for c in range(1, 10):
        for s in range(1, 9):
            spec = EyeSpec(class_seed_for(0, c), s, eyelash_count=12,
                           noise_amplitude=12, bright_spot=True)
            img, pupil, bounds = generate_eye(spec)
            mask = threshold_dark(img)
            x = round(pupil.x_cp)
            depth = round((pupil.r_x + (bounds.right_x - bounds.left_x) / 2) / 2)
            masks += [mask, mask[:, x - depth:], mask[:, : x + depth + 1]]
    return masks


def assert_labels_like_reference(bits: np.ndarray) -> None:
    got, want = label_components_8(bits), reference_label_components_8(bits)
    assert [r.label for r in got] == [r.label for r in want]
    for g, r in zip(got, want):
        assert g.xs.tolist() == r.xs.tolist() and g.ys.tolist() == r.ys.tolist()


class TestLabelAgainstReference:
    """Hooking and pointer jumping give the union-find labeller's regions
    (tests/segmentation_reference.py): the same labels, and the same pixel
    coordinates in the same order."""

    def test_fixture_shapes(self):
        assert FIXED_MASKS["square_spiral"].sum() > 39000
        for name in ("square_spiral", "serpentine"):
            assert len(flood_fill_components(FIXED_MASKS[name])) == 1, name
        assert len(label_components_8(FIXED_MASKS["checkerboard"])) == 1

    @pytest.mark.parametrize("name", FIXED_MASKS)
    def test_fixed_masks(self, name):
        assert_labels_like_reference(FIXED_MASKS[name])

    def test_degraded_eyes(self):
        masks = degraded_eye_masks()
        assert len(masks) == 216
        for bits in masks:
            assert_labels_like_reference(bits)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_masks(self, h, w, density, seed):
        bits = np.random.default_rng(seed).random((h, w)) < density
        assert_labels_like_reference(bits)


class TestFilterSmallRegions:
    def _square(self, side, pad=2):
        size = side + 2 * pad
        bits = np.zeros((size, size), dtype=bool)
        bits[pad : pad + side, pad : pad + side] = 1
        return bits

    def test_area_2500_kept(self):
        img = self._square(50)  # 2500 pixels exactly
        regions = label_components_8(img)
        out = filter_small_regions(regions, img, 2500)
        assert out.sum() == 2500

    def test_area_2499_cleared(self):
        bits = np.zeros((54, 54), dtype=bool)
        bits[2:52, 2:52] = 1
        bits[2, 2] = 0  # 2499 pixels
        out = filter_small_regions(label_components_8(bits), bits, 2500)
        assert out.sum() == 0
        assert bits.sum() == 2499  # cleared in a copy

    def test_empty_image(self):
        out = filter_small_regions([], np.zeros((3, 3), dtype=bool), 2500)
        assert out.sum() == 0

    def test_never_sets_bits(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((30, 30)) < 0.3)
        out = filter_small_regions(label_components_8(bits), bits, 10)
        assert not np.any(out & ~bits)


class TestPupilGeometry:
    def test_filled_disk(self):
        bits = disk_mask(320, 280, 160, 140, 30)
        assert bits.sum() >= 2500
        geom = pupil_geometry(bits)
        # Exact values from the rasterized mask itself.
        ys, xs = np.nonzero(bits)
        assert geom.x_cp == pytest.approx(xs.mean(), abs=1e-9)
        assert geom.y_cp == pytest.approx(ys.mean(), abs=1e-9)
        assert abs(geom.x_cp - 160) <= 0.5 and abs(geom.y_cp - 140) <= 0.5
        assert abs(geom.r_x - 30) <= 1 and abs(geom.r_y - 30) <= 1
        assert geom.area == int(bits.sum())

    def test_filled_rectangle_exact(self):
        bits = np.zeros((280, 320), dtype=bool)
        bits[100:150, 80:140] = 1  # 60 wide, 50 tall
        geom = pupil_geometry(bits)
        assert geom.x_cp == pytest.approx((80 + 139) / 2)
        assert geom.y_cp == pytest.approx((100 + 149) / 2)
        assert geom.r_x == pytest.approx(30.0)
        assert geom.r_y == pytest.approx(25.0)

    def test_eyelash_strokes_only_raises(self):
        bits = np.zeros((280, 320), dtype=bool)
        for i in range(8):  # thin strokes, each far below 2500 px
            x = 30 + i * 30
            bits[40:90, x : x + 2] = 1
        with pytest.raises(PupilNotFoundError):
            pupil_geometry(bits)

    def test_largest_region_wins(self):
        bits = np.zeros((300, 300), dtype=bool)
        bits[10:70, 10:70] = 1  # 3600
        bits[100:180, 100:180] = 1  # 6400
        geom = pupil_geometry(bits, min_area=2500)
        assert geom.area == 6400
        assert geom.x_cp == pytest.approx((100 + 179) / 2)

    def test_matches_oracle_pipeline(self):
        # Largest flood-fill component (first in scan order on a tie),
        # measured in plain Python; integer sums make the centroid exact.
        disk = disk_mask(200, 200, 90, 110, 35)
        disk[5:10, 5:10] = 1  # small distractor
        masks = [(disk, 2500), (c_mask(200, 200, 100, 100, 30, 45), 2500)]
        rng = np.random.default_rng(13)
        # Inside a one-pixel margin: at these densities the largest region
        # of a bare random mask spans it, and is then no pupil.
        masks += [
            (np.pad(rng.random((48, 48)) < d, 1), 1) for d in (0.3, 0.45, 0.6)
        ]
        fallbacks = 0
        for bits, min_area in masks:
            geom = pupil_geometry(bits, min_area=min_area)
            big = max(flood_fill_components(bits), key=len)
            assert (geom.x_cp, geom.y_cp, geom.r_x, geom.r_y, geom.area) == (
                oracle_geometry(big)
            )
            fallbacks += (round_half_away(geom.x_cp), round_half_away(geom.y_cp)) not in big
        assert fallbacks >= 1  # the C-shaped mask's centroid lies in its hole


def spans_image(region, shape) -> bool:
    """Does the region touch two opposite borders of a mask of this shape?"""
    h, w = shape
    return bool(
        (region.ys.min() == 0 and region.ys.max() == h - 1)
        or (region.xs.min() == 0 and region.xs.max() == w - 1)
    )


def geometry_outcome(fn, bits, min_area):
    try:
        return fn(bits, min_area)
    except PupilNotFoundError as exc:
        return str(exc)


class TestGeometryAgainstReference:
    """pupil_geometry measures every pupil as the code before it did
    (tests/pupil_geometry_reference.py), and differs from it only by
    refusing a largest region that spans the mask."""

    def assert_like_reference(self, bits, min_area):
        got = geometry_outcome(pupil_geometry, bits, min_area)
        want = geometry_outcome(reference_pupil_geometry, bits, min_area)
        if got == want:
            return False
        regions = [r for r in label_components_8(bits) if r.area >= min_area]
        pupil = max(regions, key=lambda r: (r.area, -r.label))
        assert isinstance(want, PupilGeometry) and "spans the image" in got
        assert spans_image(pupil, bits.shape)
        return True

    @pytest.mark.parametrize("min_area", [1, 2500])
    @pytest.mark.parametrize("name", FIXED_MASKS)
    def test_fixed_masks(self, name, min_area):
        # Bare, most of them span the mask; inside a margin none does, and
        # the spiral and the zigzag put the centroid off the region.
        bits = FIXED_MASKS[name]
        self.assert_like_reference(bits, min_area)
        assert not self.assert_like_reference(np.pad(bits, 1), min_area)

    def test_degraded_eyes(self):
        masks = degraded_eye_masks()
        assert not any(self.assert_like_reference(bits, 2500) for bits in masks)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        h=st.integers(1, 30),
        w=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_masks(self, h, w, density, seed):
        bits = np.random.default_rng(seed).random((h, w)) < density
        self.assert_like_reference(bits, 1)
        assert not self.assert_like_reference(np.pad(bits, 1), 1)


class TestSpanningRegion:
    """A dark region that touches two opposite borders is not a pupil."""

    @pytest.mark.parametrize(
        "cut, way",
        [
            ((slice(None), slice(None)), "top to bottom"),
            ((slice(None), slice(120, 200)), "top to bottom"),
            ((slice(100, 180), slice(None)), "left to right"),
        ],
        ids=["all_dark", "full_height_band", "full_width_band"],
    )
    def test_refused(self, cut, way):
        bits = np.zeros((280, 320), dtype=bool)
        bits[cut] = True
        with pytest.raises(PupilNotFoundError, match=f"spans the image {way}"):
            pupil_geometry(bits)

    @pytest.mark.parametrize(
        "cut",
        [
            (slice(0, 60), slice(0, 60)),
            (slice(0, 60), slice(100, 180)),
            (slice(0, 279), slice(100, 180)),
            (slice(1, 280), slice(100, 180)),
            (slice(100, 180), slice(0, 319)),
            (slice(100, 180), slice(1, 320)),
        ],
        ids=["corner", "one_border", "short_of_bottom", "short_of_top", "short_of_right",
             "short_of_left"],
    )
    def test_kept(self, cut):
        bits = np.zeros((280, 320), dtype=bool)
        bits[cut] = True
        assert pupil_geometry(bits).area == bits.sum()
