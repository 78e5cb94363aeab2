"""Tests for iris-basis template extraction."""

from __future__ import annotations

import numpy as np
import pytest

from irisvd.image_io import GrayImage
from irisvd.iris_boundary import IrisBounds
from irisvd.segmentation import PupilGeometry
from irisvd.synth import EyeSpec, generate_eye
from irisvd.template import TemplateExtractionError, extract_iris_basis


def column_banded(
    width=320, height=280, x_cp=160, pupil_r=30, iris_r=90,
    pupil_val=10, iris_val=120, sclera_val=235,
):
    """Vertical bands only, so every strip pixel is iris-valued."""
    row = np.full(width, float(sclera_val))
    row[x_cp - iris_r : x_cp + iris_r + 1] = iris_val
    row[x_cp - pupil_r : x_cp + pupil_r + 1] = pupil_val
    return GrayImage(pixels=np.tile(row, (height, 1)))


def make_pupil(x_cp=160.0, y_cp=140.0, r_x=30.0, r_y=30.0, area=2827):
    return PupilGeometry(x_cp=x_cp, y_cp=y_cp, r_x=r_x, r_y=r_y, area=area)


class TestExtractIrisBasis:
    def test_output_shape_default(self):
        img = column_banded()
        out = extract_iris_basis(img, make_pupil(), IrisBounds(69, 251))
        assert out.shape == (40, 40) and out.dtype == np.float64

    def test_constant_iris_gives_constant_template(self):
        img = column_banded()
        out = extract_iris_basis(img, make_pupil(), IrisBounds(70, 250))
        assert np.all(np.abs(out - 120.0 / 255.0) <= 1.0 / 255.0)

    def test_never_samples_pupil_columns(self):
        pixels = np.full((280, 320), 100.0)
        pixels[:, 130:191] = 255.0  # pupil span painted with a sentinel
        img = GrayImage(pixels=pixels)
        out = extract_iris_basis(img, make_pupil(), IrisBounds(69, 251))
        assert out.max() == 100.0 / 255.0

    def test_narrow_strips_are_padded_to_shape(self):
        img = column_banded()
        out = extract_iris_basis(img, make_pupil(), IrisBounds(100, 220))
        assert out.shape == (40, 40)
        assert np.all(np.abs(out - 120.0 / 255.0) <= 1.0 / 255.0)

    def test_wide_strips_are_cropped_to_shape(self):
        img = column_banded(iris_r=120)
        out = extract_iris_basis(img, make_pupil(), IrisBounds(40, 280))
        assert out.shape == (40, 40)

    def test_border_rows_replicate(self):
        img = column_banded(height=100)
        out = extract_iris_basis(img, make_pupil(y_cp=50.0), IrisBounds(70, 250))
        assert out.shape == (40, 40)
        assert np.all(np.abs(out - 120.0 / 255.0) <= 1.0 / 255.0)

    def test_both_strips_narrow_raises(self):
        img = column_banded()
        with pytest.raises(TemplateExtractionError, match="block size"):
            extract_iris_basis(img, make_pupil(), IrisBounds(128, 192))

    def test_single_side_suffices(self):
        img = column_banded()
        out = extract_iris_basis(img, make_pupil(), IrisBounds(129, 251))
        assert out.shape == (40, 40)

    def test_entries_bounded_on_synthetic_eyes(self):
        for seed in (1, 5, 9):
            img, pupil, bounds = generate_eye(EyeSpec(class_seed=seed, sample_seed=2))
            out = extract_iris_basis(img, pupil, bounds)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == (40, 40)

    def test_translation_equivariance(self):
        img, pupil, bounds = generate_eye(EyeSpec(class_seed=13, sample_seed=3))
        dx, dy = 3, 2
        shifted = np.full(img.pixels.shape, 235.0)
        shifted[dy:, dx:] = img.pixels[:-dy, :-dx].astype(np.float64)
        pupil2 = PupilGeometry(
            x_cp=pupil.x_cp + dx, y_cp=pupil.y_cp + dy,
            r_x=pupil.r_x, r_y=pupil.r_y, area=pupil.area,
        )
        bounds2 = IrisBounds(bounds.left_x + dx, bounds.right_x + dx)
        a = extract_iris_basis(img, pupil, bounds)
        b = extract_iris_basis(GrayImage(pixels=shifted), pupil2, bounds2)
        assert np.array_equal(a, b)

    def test_same_class_templates_closer_than_cross_class(self):
        def template_for(class_seed, sample_seed):
            img, pupil, bounds = generate_eye(
                EyeSpec(class_seed=class_seed, sample_seed=sample_seed)
            )
            return extract_iris_basis(img, pupil, bounds)

        for class_a, class_b in [(101, 202), (7, 8)]:
            a1 = template_for(class_a, 1)
            a2 = template_for(class_a, 2)
            b1 = template_for(class_b, 1)
            same = np.linalg.norm(a1 - a2)
            cross = np.linalg.norm(a1 - b1)
            assert same < cross, f"{class_a}/{class_b}: {same} !< {cross}"
