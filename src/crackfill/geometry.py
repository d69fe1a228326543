"""Frames, camera intrinsics, and rigid transforms for the repair cell.

Coordinate conventions
----------------------
Three right-handed frames are used throughout, all in millimetres:

* ``camera``: pinhole frame. +x right in the image, +y down in the
  image, +z along the optical axis away from the camera. Depth values
  are distances along the optical axis (z), not along the pixel ray.
* ``laser``: line-scanner frame. +x along the projected laser line
  (the lateral axis of a profile), +z the scanner's height axis.
* ``robot``: the robot base frame. The specimen surface is usually the
  z = nominal plane with +z up.

A RigidTransform maps points from its source frame into its target
frame: ``p_target = rotation @ p_source + translation``. The camera
mount transform therefore carries camera-frame points into the robot
base frame.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatch, NonPositiveDepth

ROTATION_TOL = 1e-9


class Frame(str, enum.Enum):
    CAMERA = "camera"
    LASER = "laser"
    ROBOT = "robot"


@dataclass(frozen=True)
class Point3:
    """A 3D point tagged with the frame its coordinates live in."""

    x: float
    y: float
    z: float
    frame: Frame

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a: np.ndarray, frame: Frame) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]), frame)


@dataclass(frozen=True)
class PixelCoord:
    """Pixel position with the depth sampled at that pixel (mm)."""

    u: float
    v: float
    depth: float


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. Focal lengths and principal point in pixels."""

    fx: float
    fy: float
    px: float
    py: float
    image_width: int
    image_height: int

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")
        if not (0 <= self.px < self.image_width):
            raise ValueError(f"principal point px={self.px} outside [0, {self.image_width})")
        if not (0 <= self.py < self.image_height):
            raise ValueError(f"principal point py={self.py} outside [0, {self.image_height})")

    def matrix(self) -> np.ndarray:
        """The 3x3 projection matrix K."""
        return np.array(
            [
                [self.fx, 0.0, self.px],
                [0.0, self.fy, self.py],
                [0.0, 0.0, 1.0],
            ]
        )


def _check_rotation(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.allclose(r.T @ r, np.eye(3), atol=ROTATION_TOL, rtol=0.0):
        raise ValueError("rotation matrix is not orthonormal within 1e-9")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise ValueError("rotation matrix determinant is not +1 within 1e-9")
    return r


def _check_translation(t) -> np.ndarray:
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise ValueError(f"translation must have 3 components, got {t.shape}")
    return t


@dataclass
class RigidTransform:
    """Rigid motion mapping source-frame points into the target frame.

    The constructor rejects rotations that are not orthonormal with
    determinant +1 (within 1e-9); it never silently re-normalizes.
    Frame tags are optional: transforms built from the scenario config
    carry them, scratch transforms in tests may omit them.
    """

    rotation: np.ndarray
    translation: np.ndarray
    source_frame: Frame | None = None
    target_frame: Frame | None = None

    def __post_init__(self) -> None:
        self.rotation = _check_rotation(self.rotation)
        self.translation = _check_translation(self.translation)

    def at(self, translation) -> "RigidTransform":
        """The same rotation and frames at another translation.

        The rotation passed its check when this transform was built, so
        it is shared, not checked again.
        """
        moved = copy.copy(self)
        moved.translation = _check_translation(translation)
        return moved

    @staticmethod
    def identity(source_frame: Frame | None = None, target_frame: Frame | None = None) -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), source_frame, target_frame)

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        """Apply to an (..., 3) array of coordinates."""
        xyz = np.asarray(xyz, dtype=float)
        return xyz @ self.rotation.T + self.translation


def rotation_about_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_about_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_rotation(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about an arbitrary (non-zero) axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    ux, uy, uz = axis / norm
    k = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + math.sin(angle_rad) * k + (1.0 - math.cos(angle_rad)) * (k @ k)


def pixel_to_camera(pixel: PixelCoord, k: CameraIntrinsics) -> Point3:
    """Back-project a pixel with known depth into the camera frame.

    Inverts the pinhole projection: x = inv(K) * depth * [u, v, 1]^T,
    where depth is the optical-axis distance to the surface point.
    """
    if pixel.depth <= 0:
        raise NonPositiveDepth(f"cannot back-project pixel with depth {pixel.depth}")
    x = (pixel.u - k.px) / k.fx * pixel.depth
    y = (pixel.v - k.py) / k.fy * pixel.depth
    return Point3(x, y, pixel.depth, Frame.CAMERA)


def transform_point(p: Point3, t: RigidTransform, target_frame: Frame | None = None) -> Point3:
    """Map a point through a rigid transform, checking frame tags."""
    if t.source_frame is not None and p.frame != t.source_frame:
        raise FrameMismatch(f"point in frame {p.frame.value!r} fed to transform from {t.source_frame.value!r}")
    out_frame = target_frame if target_frame is not None else t.target_frame
    if out_frame is None:
        raise ValueError("target frame unknown: pass target_frame or tag the transform")
    return Point3.from_array(t.apply(p.as_array()), out_frame)


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform; frame tags swap roles."""
    r_inv = t.rotation.T
    return RigidTransform(r_inv, -r_inv @ t.translation, t.target_frame, t.source_frame)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Composition outer after inner: (outer . inner)(p) = outer(inner(p)).

    Frame tags, when both transforms declare them, must chain
    (inner.target == outer.source) or FrameMismatch is raised.
    """
    if (
        inner.target_frame is not None
        and outer.source_frame is not None
        and inner.target_frame != outer.source_frame
    ):
        raise FrameMismatch(
            f"cannot compose: inner targets {inner.target_frame.value!r}, outer expects {outer.source_frame.value!r}"
        )
    rotation = outer.rotation @ inner.rotation
    translation = outer.rotation @ inner.translation + outer.translation
    return RigidTransform(rotation, translation, inner.source_frame, outer.target_frame)
