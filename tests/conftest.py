"""Shared builders for the test suite.

Most tests construct small scenes directly; the helpers here cover the
handful of shapes used across modules: flat plates, straight
rectangular cracks, and synthetic laser profiles with exactly known
areas and edges.
"""

import numpy as np
import pytest

from crackfill import (
    CameraIntrinsics,
    CrackSpec,
    FilledPlate,
    Frame,
    Heightfield,
    LaserProfile,
    PixelCoord,
    Point3,
    RigidTransform,
    Waypoint,
    axis_angle_rotation,
    generate_specimen,
)

CAMERA_DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=600.0, fy=600.0, px=320.0, py=240.0, image_width=640, image_height=480)


def make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0), nominal=0.0) -> Heightfield:
    return Heightfield.flat(origin, cell, nx, ny, nominal).copy()


def make_rect_crack(
    width=8.0,
    depth=5.0,
    cell=0.1,
    y0=10.0,
    y1=140.0,
    origin=(-25.0, 0.0),
    nx=500,
    ny=1500,
) -> FilledPlate:
    spec = CrackSpec(path=[(0.0, y0), (0.0, y1)], width=width, depth=depth)
    return generate_specimen(spec, origin=origin, cell_size=cell, nx=nx, ny=ny)


def camera_pose(height_mm=500.0, x=0.0, y=0.0) -> RigidTransform:
    """Camera looking straight down at the plate from the given height."""
    return RigidTransform(CAMERA_DOWN, [x, y, height_mm], Frame.CAMERA, Frame.ROBOT)


def tilted(pose: RigidTransform, angle_rad: float) -> RigidTransform:
    """pose turned by angle_rad about a fixed oblique axis."""
    rotation = axis_angle_rotation(np.array([1.0, 0.5, 0.0]), angle_rad) @ pose.rotation
    return RigidTransform(rotation, pose.translation, pose.source_frame, pose.target_frame)


def counted(calls: dict, name: str, fn):
    """fn, adding one to calls[name] on each call."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def make_waypoint(x: float, y: float, z: float) -> Waypoint:
    """An RGB-D waypoint at robot (x, y, z), not yet laser-refined."""
    return Waypoint(
        pixel=PixelCoord(0.0, 0.0, 500.0),
        camera_pt=Point3(0.0, 0.0, 500.0, Frame.CAMERA),
        robot_pt=Point3(x, y, z, Frame.ROBOT),
    )


def down_scan_pose(x=0.0, y=0.0, z=310.0) -> RigidTransform:
    """Scanner pose sampling along robot x, across a crack along robot y."""
    return RigidTransform(np.eye(3), [x, y, z], Frame.LASER, Frame.ROBOT)


def rect_profile(n=1024, span=40.0, left_frac=0.35, right_frac=0.65, depth=2.0) -> tuple[LaserProfile, int, int]:
    """One-line batch crossing a rectangular trough, plus its exact edge indices.

    Trough samples are a+1 .. b-1; the falling wall is the first
    difference at index a and the rising wall at b-1, so detect_edges
    reports the window (a, b-1): one baseline sample plus the trough.
    """
    x = np.linspace(-span / 2, span / 2, n)
    z = np.zeros(n)
    a = int(n * left_frac)
    b = int(n * right_frac)
    z[a + 1 : b] = -depth
    return LaserProfile(x, z[None]), a, b - 1


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation built from a random axis and angle."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return axis_angle_rotation(axis, rng.uniform(-np.pi, np.pi))
