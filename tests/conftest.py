"""Shared builders for the test suite.

Most tests construct small scenes directly; the helpers here cover the
handful of shapes used across modules: flat plates, straight
rectangular cracks, and synthetic laser profiles with exactly known
areas and edges.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from crackfill import (
    CameraIntrinsics,
    CrackSpec,
    Frame,
    Heightfield,
    LaserProfile,
    PixelCoord,
    Point3,
    RigidTransform,
    Waypoint,
    axis_angle_rotation,
    generate_specimen,
    specimen,
)

CAMERA_DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

# The default tile and one that leaves a ragged last tile of image rows
# (7 rows of 640 pixels; 480 = 68 x 7 + 4).
TILES = [specimen.TILE_CELLS, 4500]


@pytest.fixture(params=TILES, ids=lambda cells: f"tile{cells}")
def tile(request, monkeypatch):
    """Work in row tiles of request.param cells (see specimen.row_tiles)."""
    monkeypatch.setattr(specimen, "TILE_CELLS", request.param)
    return request.param


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
) -> Heightfield:
    spec = CrackSpec(path=[(0.0, y0), (0.0, y1)], width=width, depth=depth)
    return generate_specimen(spec, origin=origin, cell_size=cell, nx=nx, ny=ny)


def row_deficit(plate: Heightfield, y: float) -> float:
    """Trough area (mm^2) below the nominal surface along the grid row
    nearest y, summed cell by cell over the whole plate."""
    row = plate.heightfield().heights[int(plate.iy_of(y))]
    return float(np.maximum(0.0, plate.nominal_surface - row).sum() * plate.cell_size)


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
    difference at index a and the rising wall at b-1, so measure
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


def _edge_or_any(lo: int, hi: int, edge: int):
    """An index in [lo, hi], the grid edge edge as often as any other."""
    return st.just(edge) | st.integers(lo, hi)


@st.composite
def base_and_patch_plates(draw, max_cells: int = 24):
    """A small plate: a flat or a dense base, alone or with a patch over a
    random box (empty, touching any of the grid's edges, or the whole grid),
    whose cells may all lie below nominal. Heights are quarter-millimetre
    steps about the nominal surface."""
    nx, ny = draw(st.integers(1, max_cells)), draw(st.integers(1, max_cells))
    cell = draw(st.sampled_from([0.5, 1.0, 2.0]))
    nominal = draw(st.sampled_from([0.0, 3.0]))
    origin = (-nx * cell / 2, -ny * cell / 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = Heightfield.flat(origin, cell, nx, ny, nominal)
    else:
        base = Heightfield(origin, cell, nx, ny, nominal + rng.integers(-12, 5, (ny, nx)) / 4, nominal)
    if draw(st.booleans()):
        return base
    r0, c0 = draw(_edge_or_any(0, ny, 0)), draw(_edge_or_any(0, nx, 0))
    r1, c1 = draw(_edge_or_any(r0, ny, ny)), draw(_edge_or_any(c0, nx, nx))
    highest = draw(st.sampled_from([4, -1]))  # -1: every patch cell below nominal
    cells = nominal + rng.integers(-12, highest + 1, (r1 - r0, c1 - c0)) / 4
    return replace(base, box=(slice(r0, r1), slice(c0, c1)), cells=cells)
