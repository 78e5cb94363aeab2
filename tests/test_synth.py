"""Tests for the synthetic eye generator and its ground truth."""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference
from eyes import render_eye
from irisvd import synth
from irisvd.image_io import read_pgm_file, round_half_away, write_pgm
from irisvd.iris_boundary import iris_bounds, scanline
from irisvd.segmentation import label_components_8, pupil_geometry, threshold_dark
from irisvd.synth import (
    MANIFEST_HEADER,
    MANIFEST_NAME,
    EyeSpec,
    class_seed_for,
    generate_dataset,
)
from synth_reference import _draw_segment, reference_generate_eye


def clean_spec(**kw):
    base = dict(class_seed=42, sample_seed=1, eyelash_count=0, noise_amplitude=0)
    base.update(kw)
    return EyeSpec(**base)


class TestEyeSpecValidation:
    def test_rejects_small_pupil(self):
        with pytest.raises(ValueError, match="pupil_radius"):
            clean_spec(pupil_radius=28)

    def test_rejects_pupil_not_below_iris(self):
        with pytest.raises(ValueError, match="below iris_radius"):
            clean_spec(pupil_radius=90, iris_radius=90)

    def test_rejects_iris_reaching_border(self):
        with pytest.raises(ValueError, match="border"):
            clean_spec(iris_radius=150)

    def test_rejects_bright_pupil(self):
        with pytest.raises(ValueError, match="pupil_value"):
            clean_spec(pupil_value=41)

    def test_rejects_iris_base_out_of_band(self):
        with pytest.raises(ValueError, match="iris_base"):
            clean_spec(iris_base=100)

    def test_rejects_dark_sclera(self):
        with pytest.raises(ValueError, match="sclera_value"):
            clean_spec(sclera_value=190)

    def test_rejects_heavy_noise(self):
        with pytest.raises(ValueError, match="noise_amplitude"):
            clean_spec(noise_amplitude=13)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seeds"):
            EyeSpec(class_seed=-1, sample_seed=0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(pupil_radius=30.0, iris_radius=33.0), "below iris_radius"),
            (dict(pupil_center=(94.0, 140.0)), "border"),
            (dict(pupil_center=(160.0, 94.0)), "border"),
            (dict(width=255), "border"),
            (dict(height=235), "border"),
        ],
        ids=["iris", "left", "top", "right", "bottom"],
    )
    def test_rejects_jittered_geometry_on_the_boundary(self, change, message):
        with pytest.raises(ValueError, match=message):
            clean_spec(**change)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.data(),
        st.sampled_from(["iris", "left", "top", "right", "bottom"]),
        st.floats(0.001, 1.0),
    )
    def test_rejects_geometry_just_outside(self, data, side, miss):
        spec = data.draw(eye_specs())
        (cx, cy), r_i = spec.pupil_center, spec.iris_radius
        change = {
            "iris": dict(iris_radius=spec.pupil_radius + 3 - miss),
            "left": dict(pupil_center=(r_i + 4 - miss, cy)),
            "top": dict(pupil_center=(cx, r_i + 4 - miss)),
            "right": dict(width=math.floor(cx + r_i + 5 - miss)),
            "bottom": dict(height=math.floor(cy + r_i + 5 - miss)),
        }[side]
        message = "below iris_radius" if side == "iris" else "border"
        with pytest.raises(ValueError, match=message):
            replace(spec, **change)

    def test_tightest_spec_renders_at_every_jitter(self):
        # The iris 3.01 px wider than the pupil and 4.01 px from the left and
        # top borders: the jitter's extremes leave a thin band, in the canvas.
        lefts = []
        for sample in range(100):
            _, _, bounds = render_eye(
                EyeSpec(class_seed=5, sample_seed=sample, width=74, height=74,
                        pupil_center=(36.02, 36.02), pupil_radius=29.0,
                        iris_radius=32.01, eyelash_count=0)
            )
            lefts.append(bounds.left_x)
        assert min(lefts) == 0


class TestGenerateEye:
    def test_clean_render_band_contract(self):
        img, pupil, bounds = render_eye(clean_spec())
        ygrid, xgrid = np.mgrid[0 : img.height, 0 : img.width]
        dist = np.hypot(xgrid - pupil.x_cp, ygrid - pupil.y_cp)
        pupil_px = img.pixels[dist <= pupil.r_x]
        sclera_px = img.pixels[dist > bounds.right_x - pupil.x_cp]
        iris_px = img.pixels[(dist > pupil.r_x) & (dist <= bounds.right_x - pupil.x_cp)]
        assert pupil_px.max() <= 40
        assert sclera_px.min() >= 200
        assert iris_px.min() >= 80 and iris_px.max() <= 160

    def test_deterministic(self):
        spec = EyeSpec(class_seed=7, sample_seed=3)
        a, pa, ba = render_eye(spec)
        b, pb, bb = render_eye(spec)
        assert a == b
        assert pa == pb and ba == bb

    def test_same_class_closer_than_cross_class(self):
        spec = clean_spec()
        ygrid, xgrid = np.mgrid[0 : spec.height, 0 : spec.width]
        dist = np.hypot(
            xgrid - spec.pupil_center[0], ygrid - spec.pupil_center[1]
        )
        annulus = (dist >= spec.pupil_radius + 5) & (dist <= spec.iris_radius - 5)
        for class_a, class_b in [(1, 2), (10, 11), (500, 9999)]:
            a1 = render_eye(EyeSpec(class_seed=class_a, sample_seed=1))[0]
            a2 = render_eye(EyeSpec(class_seed=class_a, sample_seed=2))[0]
            b1 = render_eye(EyeSpec(class_seed=class_b, sample_seed=1))[0]
            va1 = a1.pixels[annulus].astype(np.float64)
            va2 = a2.pixels[annulus].astype(np.float64)
            vb1 = b1.pixels[annulus].astype(np.float64)
            same = np.abs(va1 - va2).mean()
            cross = np.abs(va1 - vb1).mean()
            assert same < cross, f"classes {class_a}/{class_b}: {same} !< {cross}"

    def test_truth_matches_segmentation(self):
        for seed in (3, 77):
            img, pupil, bounds = render_eye(
                EyeSpec(class_seed=seed, sample_seed=seed + 1)
            )
            measured = pupil_geometry(threshold_dark(img))
            assert abs(measured.x_cp - pupil.x_cp) <= 2.0
            assert abs(measured.y_cp - pupil.y_cp) <= 2.0
            assert abs(measured.r_x - pupil.r_x) <= 0.1 * pupil.r_x
            assert abs(measured.r_y - pupil.r_y) <= 0.1 * pupil.r_y
            got = iris_bounds(img, measured)
            assert abs(got.left_x - bounds.left_x) <= 5
            assert abs(got.right_x - bounds.right_x) <= 5

    def test_pupil_survives_filter_eyelashes_do_not(self):
        img, _, _ = render_eye(EyeSpec(class_seed=5, sample_seed=2, eyelash_count=8))
        regions = label_components_8(threshold_dark(img))
        big = [r for r in regions if r.area >= 2500]
        assert len(big) == 1
        assert len(regions) > 1  # the eyelash strokes are present
        small = [r for r in regions if r.area < 2500]
        assert small and all(r.area < 200 for r in small)

    def test_scanline_minimum_inside_pupil(self):
        img, pupil, _ = render_eye(EyeSpec(class_seed=9, sample_seed=4))
        col = int(np.argmin(scanline(img, pupil)))
        assert pupil.x_cp - pupil.r_x <= col <= pupil.x_cp + pupil.r_x

    def test_detected_right_edge_near_nominal_radius(self):
        for seed in (1, 2, 3, 4):
            img, pupil, _ = render_eye(EyeSpec(class_seed=seed, sample_seed=6))
            got = iris_bounds(img, pupil)
            assert not got.right_fallback and not got.left_fallback
            assert abs(got.right_x - (pupil.x_cp + 90)) <= 3
            left_w = pupil.x_cp - got.left_x
            right_w = got.right_x - pupil.x_cp
            assert abs(left_w - right_w) <= 3

    def test_bright_spot_does_not_move_edges(self):
        plain = EyeSpec(class_seed=21, sample_seed=2)
        spotted = EyeSpec(class_seed=21, sample_seed=2, bright_spot=True)
        img_a, pupil, _ = render_eye(plain)
        img_b, _, _ = render_eye(spotted)
        assert not img_a == img_b
        assert iris_bounds(img_a, pupil) == iris_bounds(img_b, pupil)


def render(generate, spec):
    """What a renderer makes of spec: its float canvas before rounding
    and its outputs, or its error message.

    The canvas is compared bit for bit, because a change in the order of the
    texture sum moves it by an ulp, which seldom moves a rounded pixel.
    """
    canvases = []

    def spy(values):
        if np.ndim(values) == 2:
            canvases.append(np.asarray(values).tobytes())
        return round_half_away(values)

    with (
        mock.patch.object(synth, "round_half_away", spy),
        mock.patch.object(synth_reference, "round_half_away", spy),
    ):
        try:
            img, pupil, bounds = generate(spec)
        except ValueError as exc:
            return str(exc)
    return canvases, img.pixels.tolist(), pupil, bounds


@st.composite
def eye_specs(draw):
    """Any spec EyeSpec accepts, on a canvas of at most about 240x240: the
    iris more than 3 px wider than the pupil and more than 4 px from each
    border, the most the jitter can take from either."""
    r_p = draw(st.floats(29.0, 45.0))
    r_i = r_p + draw(st.floats(3.01, 50.0))
    cx = r_i + draw(st.floats(4.01, 24.0))
    cy = r_i + draw(st.floats(4.01, 24.0))
    return EyeSpec(
        class_seed=draw(st.integers(0, 2**64 - 1)),
        sample_seed=draw(st.integers(0, 2**63 - 1)),
        width=math.ceil(cx + r_i) + 6 + draw(st.integers(0, 20)),
        height=math.ceil(cy + r_i) + 6 + draw(st.integers(0, 20)),
        pupil_center=(cx, cy),
        pupil_radius=r_p,
        iris_radius=r_i,
        pupil_value=draw(st.integers(0, 40)),
        iris_base=draw(st.integers(118, 122)),
        sclera_value=draw(st.integers(200, 255)),
        eyelash_count=draw(st.integers(0, 12)),
        noise_amplitude=draw(st.integers(0, 12)),
        bright_spot=draw(st.booleans()),
    )


class TestSameBytesAsReference:
    """The band-only renderer against the whole-canvas one it replaced
    (tests/synth_reference.py): the same float canvas before rounding, and
    the same pixels, PupilGeometry and IrisBounds."""

    @pytest.mark.parametrize(
        "spec",
        [
            *(EyeSpec(class_seed=class_seed_for(0, c), sample_seed=s)
              for c in (1, 5, 9) for s in (1, 4, 7)),
            EyeSpec(class_seed=class_seed_for(3, 2), sample_seed=5, eyelash_count=12,
                    noise_amplitude=12, bright_spot=True),
            EyeSpec(class_seed=11, sample_seed=2, noise_amplitude=0),
            EyeSpec(class_seed=class_seed_for(2, 108), sample_seed=7, width=160,
                    height=140, pupil_center=(80.0, 70.0), iris_radius=55.0,
                    pupil_radius=29.0, eyelash_count=0),
            EyeSpec(class_seed=23, sample_seed=3, pupil_center=(141.37, 152.5),
                    pupil_radius=31.5, iris_radius=74.25),
        ],
        ids=lambda spec: f"{spec.class_seed}-{spec.sample_seed}",
    )
    def test_specs(self, spec):
        assert render(render_eye, spec) == render(reference_generate_eye, spec)

    def test_jittered_pupil_wider_than_iris_rejected(self):
        # Class seed 3353 drew r_p 29 and r_i 28 from these radii, an eye
        # with no iris band.
        with pytest.raises(ValueError, match="below iris_radius"):
            EyeSpec(class_seed=3353, sample_seed=1, width=63, height=63,
                    pupil_center=(31.0, 31.0), pupil_radius=29.0, iris_radius=30.0,
                    noise_amplitude=0, eyelash_count=0)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(eye_specs())
    def test_any_valid_spec(self, spec):
        assert render(render_eye, spec) == render(reference_generate_eye, spec)


class TestDrawSegments:
    """The batched rasteriser against np.linspace one segment at a time
    (tests/synth_reference.py)."""

    @staticmethod
    def check(starts, stops):
        batched, alone = np.zeros((40, 50)), np.zeros((40, 50))
        synth._draw_segments(batched, starts, stops, 1.0)
        for (x0, y0), (x1, y1) in zip(starts, stops):
            _draw_segment(alone, x0, y0, x1, y1, 1.0)
        assert batched.tobytes() == alone.tobytes()

    def test_random_segments(self):
        # Stops on half pixels: there k·step + start can round to another
        # pixel than stop, so the last point must be stop itself.  Some
        # points fall off the canvas.
        rng = np.random.default_rng(20)
        for _ in range(300):
            starts = rng.uniform(-5.0, 55.0, (4, 2))
            stops = rng.integers(-5, 55, (4, 2)) + rng.choice([0.0, 0.5], (4, 2))
            self.check(starts, stops)

    def test_endpoint_off_by_rounding(self):
        # 8 · ((6.5 - x0) / 8) + x0 is 6.500000000000001, which rounds to 7;
        # the stop 6.5 rounds to 6.
        self.check(np.array([[-2.1015563913409983, 0.0]]), np.array([[6.5, 0.0]]))

    def test_no_segments(self):
        self.check(np.empty((0, 2)), np.empty((0, 2)))


def jittered_offsets(spec):
    """Every x and every y offset from the centre that render_eye can
    measure for spec: each jittered centre over the box of the widest
    jittered iris."""
    r_i = spec.iris_radius + 2
    axes = []
    for c in spec.pupil_center:
        axes.append(np.unique(np.concatenate([
            np.arange(math.floor(c + j - r_i), math.floor(c + j + r_i) + 1) - (c + j)
            for j in range(-2, 3)
        ])))
    return axes


class TestDistanceIgnoresSigns:
    """The distance and the radial waves are evaluated once per distinct
    (|dx|, |dy|), which gives the same bytes only if np.hypot drops the
    signs of its arguments bit for bit."""

    @staticmethod
    def check(spec):
        dx, dy = jittered_offsets(spec)
        signed = np.hypot(dy[:, None], dx)
        assert np.hypot(np.abs(dy)[:, None], np.abs(dx)).tobytes() == signed.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            EyeSpec(class_seed=1, sample_seed=1),
            EyeSpec(class_seed=1, sample_seed=1, width=160, height=140,
                    pupil_center=(80.0, 70.0), iris_radius=55.0, pupil_radius=29.0),
            EyeSpec(class_seed=1, sample_seed=1, pupil_center=(141.37, 152.5),
                    pupil_radius=31.5, iris_radius=74.25),
        ],
        ids=["integral", "integral-small", "fractional"],
    )
    def test_specs(self, spec):
        self.check(spec)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(eye_specs())
    def test_any_valid_spec(self, spec):
        self.check(spec)


def reference_dataset(n_classes, samples_per_class, base_seed, **spec_overrides):
    """The bytes of every file generate_dataset should write, each eye
    rendered on its own by the whole-canvas reference."""
    files, rows = {}, [MANIFEST_HEADER]
    for c in range(1, n_classes + 1):
        for s in range(1, samples_per_class + 1):
            spec = EyeSpec(class_seed=class_seed_for(base_seed, c), sample_seed=s,
                           **spec_overrides)
            img, pupil, bounds = reference_generate_eye(spec)
            name = f"class{c:03d}_sample{s:02d}.pgm"
            files[name] = write_pgm(img)
            r_iris = (bounds.right_x - bounds.left_x) / 2.0
            rows.append(f"{name},{c},{pupil.x_cp:.3f},{pupil.y_cp:.3f},"
                        f"{pupil.r_x:.3f},{r_iris:.3f}")
    files[MANIFEST_NAME] = ("\n".join(rows) + "\n").encode("ascii")
    return files


def assert_reference_files(out, n_classes, samples_per_class, base_seed,
                           **spec_overrides):
    """out holds exactly the files of reference_dataset, byte for byte."""
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    expected = reference_dataset(n_classes, samples_per_class, base_seed,
                                 **spec_overrides)
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, name


class TestDatasetAgainstReference:
    """generate_dataset takes the angular waves of each class from one field
    per centre fraction, which render_eye alone never does; every file it
    writes is held to the reference renderer."""

    @pytest.mark.parametrize(
        "n_classes, samples, base_seed, overrides",
        [
            (9, 7, 0, {}),
            # perfbench's degraded eyes
            (3, 8, 7, dict(eyelash_count=12, noise_amplitude=12, bright_spot=True)),
            # 127.3 + 1 rounds to a double of the next binade, so the
            # centre fraction of a class changes with the jitter
            (3, 7, 2, dict(pupil_center=(127.3, 128.6))),
            (4, 1, 3, {}),
        ],
        ids=["synth-9x7", "degraded", "fractional", "one-sample"],
    )
    def test_every_file(self, tmp_path, n_classes, samples, base_seed, overrides):
        generate_dataset(n_classes, samples, base_seed=base_seed, out_dir=tmp_path,
                         **overrides)
        assert_reference_files(tmp_path, n_classes, samples, base_seed, **overrides)

    @pytest.mark.parametrize(
        "n_classes, samples, base_seed, overrides, builds",
        [
            (9, 7, 0, {}, 9),
            (2, 7, 0, dict(pupil_center=(141.37, 152.5)), 2),
            # two centre fractions per class, as drawn for this seed
            (3, 7, 2, dict(pupil_center=(127.3, 128.6)), 6),
            # one eye a class: one disc per class, not one band per eye
            (4, 1, 0, {}, 4),
        ],
        ids=["integral", "fractional", "fraction-changes", "one-sample"],
    )
    def test_angular_waves_built_once_per_class_and_fraction(
        self, tmp_path, n_classes, samples, base_seed, overrides, builds
    ):
        # Classes build their waves on concurrent threads, so the builds are
        # counted under a lock: a Mock's call_count is not atomic.
        count, lock, build = [0], threading.Lock(), synth._angular_waves

        def counted(*args):
            with lock:
                count[0] += 1
            return build(*args)

        with mock.patch.object(synth, "_angular_waves", counted):
            generate_dataset(n_classes, samples, base_seed=base_seed, out_dir=tmp_path,
                             **overrides)
        assert count[0] == builds

    def test_nothing_outlives_a_class(self, tmp_path):
        # Class 2 is rendered after class 1, and each eye once more on its own.
        generate_dataset(2, 4, base_seed=6, out_dir=tmp_path)
        for c in (1, 2):
            for s in range(1, 5):
                spec = EyeSpec(class_seed=class_seed_for(6, c), sample_seed=s)
                alone = write_pgm(render_eye(spec)[0])
                assert (tmp_path / f"class{c:03d}_sample{s:02d}.pgm").read_bytes() == alone


def bounded(fn, *args, timeout=120.0, **kwargs):
    """fn(*args, **kwargs) on a thread of its own, joined within timeout
    seconds; its result is returned and its exception raised here."""
    outcome = {}

    def run():
        try:
            outcome["result"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn.__name__} still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool generate_dataset opens."""
    sizes, pool = [], synth.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(synth, "ThreadPoolExecutor", spy)
    return sizes


DEGRADED = dict(eyelash_count=12, noise_amplitude=12, bright_spot=True)
SMALL = dict(width=160, height=140, pupil_center=(80.0, 70.0), iris_radius=55.0,
             pupil_radius=29.0)


class TestConcurrentClasses:
    """generate_dataset renders its classes on a pool of threads that lives
    only for the call."""

    @pytest.mark.parametrize(
        "n_classes, samples, base_seed, overrides",
        [(9, 3, 0, {}), (9, 8, 0, DEGRADED)],
        ids=["synth-9x3", "degraded"],
    )
    def test_more_threads_than_cores_write_the_reference_bytes(
        self, tmp_path, monkeypatch, pool_sizes, n_classes, samples, base_seed, overrides
    ):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        threads = threading.active_count()
        sys.setswitchinterval(1e-5)
        try:
            bounded(generate_dataset, n_classes, samples, base_seed=base_seed,
                    out_dir=tmp_path, **overrides)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert pool_sizes == [4]
        assert_reference_files(tmp_path, n_classes, samples, base_seed, **overrides)

    @pytest.mark.parametrize(
        "n_classes, cpus, workers",
        [(9, 4, 4), (2, 4, 2), (3, 1, 1), (1, 2, 1)],
    )
    def test_workers_are_capped_by_classes_and_cpus(
        self, tmp_path, monkeypatch, pool_sizes, n_classes, cpus, workers
    ):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        paths = bounded(generate_dataset, n_classes, 2, base_seed=4, out_dir=tmp_path,
                        **SMALL)
        assert threading.active_count() == threads
        assert pool_sizes == [workers]
        assert [p.name for p in paths] == [
            f"class{c:03d}_sample{s:02d}.pgm"
            for c in range(1, n_classes + 1) for s in (1, 2)
        ]

    def test_bad_override_starts_no_thread_and_writes_nothing(
        self, tmp_path, pool_sizes
    ):
        threads = threading.active_count()
        with pytest.raises(ValueError, match="noise_amplitude"):
            bounded(generate_dataset, 3, 2, out_dir=tmp_path / "out",
                    noise_amplitude=13)
        assert pool_sizes == []
        assert threading.active_count() == threads
        assert not (tmp_path / "out").exists()

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(synth.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(synth.os, "cpu_count", lambda: 3)
        assert synth._usable_cpus() == 3


class TestGenerateDataset:
    def test_file_and_manifest_counts(self, tmp_path):
        paths = generate_dataset(3, 7, base_seed=11, out_dir=tmp_path)
        assert len(paths) == 21
        names = sorted(p.name for p in paths)
        assert names[0] == "class001_sample01.pgm"
        assert names[-1] == "class003_sample07.pgm"
        lines = (tmp_path / "manifest.csv").read_text().splitlines()
        assert lines[0] == "filename,class,x_cp,y_cp,r_pupil,r_iris"
        assert len(lines) == 22

    def test_nine_class_table_size(self, tmp_path):
        paths = generate_dataset(9, 7, base_seed=1, out_dir=tmp_path)
        assert len(paths) == 63

    def test_full_database_size(self, tmp_path):
        # smaller canvas keeps the 756-image render quick
        paths = generate_dataset(
            108,
            7,
            base_seed=2,
            out_dir=tmp_path,
            width=160,
            height=140,
            pupil_center=(80.0, 70.0),
            iris_radius=55.0,
            pupil_radius=29.0,
            eyelash_count=0,
        )
        assert len(paths) == 756

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_dataset(2, 3, base_seed=5, out_dir=a)
        generate_dataset(2, 3, base_seed=5, out_dir=b)
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_geometry_parses_and_matches(self, tmp_path):
        generate_dataset(2, 2, base_seed=9, out_dir=tmp_path)
        lines = (tmp_path / "manifest.csv").read_text().splitlines()[1:]
        for line in lines:
            name, cls, x, y, rp, ri = line.split(",")
            img = read_pgm_file(tmp_path / name)
            assert img.width == 320 and img.height == 280
            assert int(cls) in (1, 2)
            assert 27 <= float(rp) <= 33
            assert 86 <= float(ri) <= 94
            measured = pupil_geometry(threshold_dark(img))
            assert abs(measured.x_cp - float(x)) <= 2.0
            assert abs(measured.y_cp - float(y)) <= 2.0

    def test_rejects_zero_classes(self, tmp_path):
        with pytest.raises(ValueError, match="n_classes"):
            generate_dataset(0, 7, base_seed=1, out_dir=tmp_path)


class TestClassSeeds:
    def test_stable(self):
        assert class_seed_for(3, 1) == class_seed_for(3, 1)

    def test_distinct_across_classes_and_bases(self):
        seeds = {class_seed_for(b, c) for b in range(5) for c in range(1, 20)}
        assert len(seeds) == 5 * 19
