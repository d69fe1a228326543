"""Simulated RGB-D depth camera and laser line scanner.

The depth camera ray-casts every pixel against the heightfield and
reports optical-axis depth (the z coordinate of the hit point in the
camera frame), with multiplicative Gaussian noise. The laser scanner
scans a batch of stations, sampling a fixed number of points along a
straight line at each, and reports surface height relative to its
reference standoff, with additive Gaussian noise and a hard validity
gate on measuring range.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoIntersection, StationOutsideGrid
from .geometry import CameraIntrinsics, RigidTransform
from .specimen import Heightfield, row_tiles

logger = logging.getLogger(__name__)

SCANNER_POINTS = 1024
SCANNER_RANGE_MM = (200.0, 420.0)
SCANNER_STANDOFF_MM = 310.0
DEFAULT_MASK_THRESHOLD_MM = 0.2
DEFAULT_DEPTH_SIGMA_FRACTION = 0.02
DEFAULT_LASER_SIGMA_MM = 0.02

_RAYCAST_ITERATIONS = 16

# Every stream id passed to SensorNoise.derive, by pipeline stage. Ids must
# stay distinct, and fixed, so each stage keeps its own reproducible noise.
NOISE_STREAMS = {"refine": 2, "validate": 3, "calibrate": 4, "localize_scans": 10}


@dataclass
class DepthImage:
    """Per-pixel optical-axis depth (mm) with a validity mask."""

    depth_mm: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        self.depth_mm = np.asarray(self.depth_mm, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.depth_mm.shape != self.valid.shape:
            raise ValueError("depth and validity mask shapes differ")
        if not np.all(np.isfinite(self.depth_mm)):
            raise ValueError("depth image must not contain NaN or inf")


@dataclass
class MaskImage:
    """Binary crack mask; True marks crack pixels."""

    flags: np.ndarray

    def __post_init__(self) -> None:
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.ndim != 2:
            raise ValueError("mask must be 2-D")


@dataclass
class LaserProfile:
    """A batch of laser lines sampled at lateral positions x (mm, scanner frame).

    x is strictly increasing with uniform pitch span/(n-1); z is height
    relative to the scanner's reference standoff, one row per station,
    (stations, n), all scanned with the same x. Samples outside the
    scanner's measuring range are flagged invalid.
    """

    x: np.ndarray
    z: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.valid is None:
            self.valid = np.ones(self.z.shape, dtype=bool)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.x.ndim != 1 or self.z.ndim != 2 or self.z.shape[1:] != self.x.shape:
            raise ValueError("x must be 1-D and z hold one row per station of equal length")
        if self.valid.shape != self.z.shape:
            raise ValueError("validity mask and z shapes differ")
        dx = np.diff(self.x)
        if len(dx) == 0 or np.any(dx <= 0) or not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
            raise ValueError("x must be strictly increasing with uniform pitch")

    @property
    def n_points(self) -> int:
        return len(self.x)

    @property
    def n_lines(self) -> int:
        return len(self.z)

    @property
    def pitch(self) -> float:
        return float(self.x[1] - self.x[0])


@dataclass(frozen=True)
class SensorNoise:
    """Noise model shared by both sensors, fully determined by the seed.

    extrinsic_bias, when present, is a robot-frame perturbation applied
    to the camera mount used for back-projection (the renderer always
    uses the true mount); it models imperfect hand-eye calibration.
    """

    depth_sigma_fraction: float = DEFAULT_DEPTH_SIGMA_FRACTION
    laser_sigma_mm: float = DEFAULT_LASER_SIGMA_MM
    extrinsic_bias: RigidTransform | None = None
    seed: int = 0

    def generator(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def derive(self, *key: int) -> "SensorNoise":
        """This model under the seed drawn from its seed and key."""
        child = int(np.random.SeedSequence((self.seed,) + key).generate_state(1)[0])
        return SensorNoise(self.depth_sigma_fraction, self.laser_sigma_mm, self.extrinsic_bias, child)

    @staticmethod
    def noiseless() -> "SensorNoise":
        """Exact sensors and hand-eye calibration: the only "no noise" value."""
        return SensorNoise(depth_sigma_fraction=0.0, laser_sigma_mm=0.0)


def _ray_dirs(k: CameraIntrinsics, camera_pose: RigidTransform, rows: slice) -> np.ndarray:
    """Robot-frame directions (rows, width, 3) of the pixel rays of the given
    image rows, each with unit z in the camera frame."""
    uu, vv = np.meshgrid(np.arange(k.image_width, dtype=float), np.arange(k.image_height, dtype=float)[rows])
    dirs_c = np.stack([(uu - k.px) / k.fx, (vv - k.py) / k.fy, np.ones_like(uu)], axis=-1)
    return dirs_c @ camera_pose.rotation.T


def _step(hf: Heightfield, origin: np.ndarray, t: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """One fixed-point step: the depth at which each ray (dirs, one row per ray)
    reaches the height of the cell under its hit at depth t."""
    ox, oy, oz = origin
    h = hf.lookup(ox + t * dirs[:, 0], oy + t * dirs[:, 1])[0]
    return (h - oz) / dirs[:, 2]


def _first_step(
    hf: Heightfield, k: CameraIntrinsics, camera_pose: RigidTransform, rows: slice, threshold_mm: float, t: np.ndarray, hit: np.ndarray, flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The first fixed-point step of the pixel rays of a tile of image rows,
    from the nominal surface, into the tile's depth t, validity hit and
    mask flags (flat views of render_view's outputs). A ray the step leaves
    in place is judged at the point and cell it was stepped from, the same
    floats a judgement at its depth would read; a ray parallel to the plate
    keeps depth 0. Returns the rays the step moved, their directions, and
    whether every ray settled."""
    ox, oy, oz = camera_pose.translation
    d = _ray_dirs(k, camera_pose, rows).reshape(-1, 3)
    dz = d[:, 2]
    live = np.abs(dz) > 1e-12
    dz[~live] = 1.0  # no moved ray is parallel to the plate, so d[rays] keeps its z
    t_old = (hf.nominal_surface - oz) / dz
    t_old[~live] = 0.0
    x = ox + t_old * d[:, 0]
    y = oy + t_old * d[:, 1]
    h, on_grid = hf.lookup(x, y)
    np.divide(h - oz, dz, out=t)
    t[~live] = 0.0
    np.logical_and(on_grid, t > 0, out=hit)
    np.greater(hf.nominal_surface - h, threshold_mm, out=flags)
    flags &= hit
    rays = np.flatnonzero(t != t_old)
    return rays, d[rays], bool(np.allclose(t[rays], t_old[rays], atol=1e-9, rtol=0.0))


def render_view(
    hf: Heightfield,
    k: CameraIntrinsics,
    camera_pose: RigidTransform,
    threshold_mm: float = DEFAULT_MASK_THRESHOLD_MM,
) -> tuple[DepthImage, MaskImage]:
    """Noise-free depth and the ground-truth mask, both from one raycast.

    Rays are parameterized with unit z in the camera frame, so the ray
    parameter equals depth. The intersection uses fixed-point iteration
    against the nearest-cell surface height, which converges in one
    step for a camera looking straight down and within a few steps for
    the mild tilts this rig uses. A pixel is valid when its ray runs
    forward into a hit on the grid; invalid pixels read depth 0. The mask
    flags the valid hits below the nominal surface by more than
    threshold_mm. Raises NoIntersection when no pixel ray hits the grid.

    The cast is one pass of tiles of image rows (see row_tiles), each
    computing its ray directions once and taking the first step over all
    its rays (see _first_step). A ray's next depth depends only on its
    own depth, so each later step updates only the rays whose depth
    changed in the step before, and only the rays the first step moved
    are judged again once the iteration stops; the stop rule still
    compares every ray of a step.
    """
    shape = (k.image_height, k.image_width)
    depth, valid, flags = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    flat_t, flat_valid, flat_flags = depth.reshape(-1), valid.reshape(-1), flags.reshape(-1)
    moved, dirs = [], []
    settled = True
    for rows in row_tiles(*shape):
        cells = slice(rows.start * k.image_width, rows.stop * k.image_width)
        rays, d, tile_settled = _first_step(hf, k, camera_pose, rows, threshold_mm, flat_t[cells], flat_valid[cells], flat_flags[cells])
        moved.append(rays + cells.start)
        dirs.append(d)
        settled &= tile_settled
    moved, d = np.concatenate(moved), np.concatenate(dirs)
    origin = camera_pose.translation
    moving, d_moving = moved, d
    for _ in range(_RAYCAST_ITERATIONS - 1):
        if settled:
            break
        t_old = flat_t[moving]
        t_new = _step(hf, origin, t_old, d_moving)
        flat_t[moving] = t_new
        settled = np.allclose(t_new, t_old, atol=1e-9, rtol=0.0)
        changed = t_new != t_old
        moving, d_moving = moving[changed], d_moving[changed]
    if not settled:
        logger.debug("raycast stopped after %d steps with %d rays still moving", _RAYCAST_ITERATIONS, moving.size)
    t = flat_t[moved]
    x = origin[0] + t * d[:, 0]
    y = origin[1] + t * d[:, 1]
    h, on_grid = hf.lookup(x, y)
    hit = (t > 0) & on_grid
    flat_valid[moved] = hit
    flat_flags[moved] = hit & (hf.nominal_surface - h > threshold_mm)
    np.copyto(depth, 0.0, where=~valid)
    if not valid.any():
        raise NoIntersection("no camera ray intersects the heightfield")
    return DepthImage(depth_mm=depth, valid=valid), MaskImage(flags=flags)


def _jittered(depth_mm: np.ndarray, valid: np.ndarray, jitter: np.ndarray, sigma_fraction: float) -> np.ndarray:
    """Noisy depths from the stream's standard normals drawn for these pixels:
    depth + (jitter * depth) * sigma_fraction where valid, 0 elsewhere.
    jitter is scaled in place."""
    jitter *= depth_mm
    jitter *= sigma_fraction
    return np.where(valid, depth_mm + jitter, 0.0)


def add_depth_noise(depth: DepthImage, noise: SensorNoise) -> DepthImage:
    """One noisy reading of a noise-free depth image.

    Each valid pixel gets Gaussian jitter with sigma proportional to its
    depth; without depth noise the image is returned as it is.
    """
    if noise.depth_sigma_fraction <= 0:
        return depth
    jitter = noise.generator(0).standard_normal(depth.depth_mm.shape)
    return DepthImage(_jittered(depth.depth_mm, depth.valid, jitter, noise.depth_sigma_fraction), depth.valid)


def depth_noise_at(depth: DepthImage, noise: SensorNoise, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The depths add_depth_noise(depth, noise) reads at pixels (rows, cols), bit for bit.

    The noise stream is drawn in row tiles (see row_tiles), which
    continue it exactly as one full-frame draw does, and stops after the
    last row read: its normals cannot be skipped, only cut short. No
    pixels, or no depth noise, draw nothing.
    """
    values = depth.depth_mm[rows, cols]
    if noise.depth_sigma_fraction <= 0 or rows.size == 0:
        return values
    rng = noise.generator(0)
    width = depth.depth_mm.shape[1]
    jitter = np.empty(rows.shape)
    for tile in row_tiles(int(rows.max()) + 1, width):
        draw = rng.standard_normal((tile.stop - tile.start, width))
        here = (rows >= tile.start) & (rows < tile.stop)
        jitter[here] = draw[rows[here] - tile.start, cols[here]]
    return _jittered(values, depth.valid[rows, cols], jitter, noise.depth_sigma_fraction)


def render_depth(
    hf: Heightfield,
    k: CameraIntrinsics,
    camera_pose: RigidTransform,
    noise: SensorNoise = SensorNoise.noiseless(),
) -> DepthImage:
    """Render the depth camera view of the specimen.

    Depth is the optical-axis distance to the surface hit, perturbed
    per pixel by Gaussian noise with sigma proportional to depth.
    Raises NoIntersection when no pixel ray hits the grid.
    """
    depth, _ = render_view(hf, k, camera_pose)
    return add_depth_noise(depth, noise)


def render_truth_mask(
    hf: Heightfield,
    k: CameraIntrinsics,
    camera_pose: RigidTransform,
    threshold_mm: float = DEFAULT_MASK_THRESHOLD_MM,
) -> MaskImage:
    """The ground-truth mask of render_view; raises NoIntersection when no ray hits."""
    return render_view(hf, k, camera_pose, threshold_mm)[1]


def scan_profile(
    hf: Heightfield,
    poses: Sequence[RigidTransform],
    span_mm: float,
    noises: Sequence[SensorNoise],
    standoff_mm: float = SCANNER_STANDOFF_MM,
) -> LaserProfile:
    """Scan one laser line of SCANNER_POINTS samples at every station.

    Returns a batch with one row per pose, each scanned with the noise
    model at the same position in noises. Every line runs along its
    laser frame's x axis, centred on the scanner origin; the scanner
    measures straight down. z is reported relative to the reference
    standoff, so a scanner parked exactly standoff_mm above a flat
    surface reads zero. Samples whose absolute range leaves the
    scanner's measuring window are flagged invalid. Raises
    StationOutsideGrid when any line leaves the grid.
    """
    if len(noises) != len(poses):
        raise ValueError(f"{len(poses)} stations but {len(noises)} noise models")
    if span_mm <= 0:
        raise ValueError(f"span must be positive, got {span_mm}")
    lateral = np.linspace(-span_mm / 2.0, span_mm / 2.0, SCANNER_POINTS)
    direction = np.array([p.rotation[:, 0] for p in poses]).reshape(-1, 3)
    if np.any(np.abs(direction[:, 2]) > 1e-9):
        raise ValueError("laser line must be horizontal (x axis of the laser frame parallel to the surface)")
    origin = np.array([p.translation for p in poses]).reshape(-1, 3)
    ox, oy, oz = origin.T[..., None]
    xs = ox + lateral * direction[:, [0]]
    ys = oy + lateral * direction[:, [1]]
    h, on_grid = hf.lookup(xs, ys)
    if not np.all(on_grid):
        raise StationOutsideGrid("scan line leaves the heightfield")
    distance = oz - h
    valid = (distance >= SCANNER_RANGE_MM[0]) & (distance <= SCANNER_RANGE_MM[1])
    z = h - (oz - standoff_mm)
    for row, noise in zip(z, noises):
        if noise.laser_sigma_mm > 0:
            row += noise.generator(1).normal(0.0, noise.laser_sigma_mm, size=row.shape)
    return LaserProfile(x=lateral, z=z, valid=valid)
