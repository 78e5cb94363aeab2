"""One synthetic eye for tests, rendered the way generate_dataset renders
each file, with its class texture drawn for this eye alone."""

from __future__ import annotations

from irisvd.image_io import GrayImage
from irisvd.iris_boundary import IrisBounds
from irisvd.segmentation import PupilGeometry
from irisvd.synth import EyeSpec, _render_eye, _texture_params


def render_eye(spec: EyeSpec) -> tuple[GrayImage, PupilGeometry, IrisBounds]:
    """The eye spec draws, with the jittered geometry it drew."""
    return _render_eye(spec, _texture_params(spec), {})
