"""Crack perception: mask binarization, thinning, and waypoint extraction.

The chain turns a binary crack mask into an ordered list of robot-frame
waypoints: skeletonize the mask to a one-pixel centreline, subsample it
at a minimum pixel spacing, attach depths, back-project through the
camera model, and order the points along the crack's dominant axis.
The skeleton and its subsample depend on the mask alone, so repeated
scans of one view redo only the depth and later steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyPath
from .geometry import CameraIntrinsics, Frame, PixelCoord, Point3, RigidTransform, pixel_to_camera, transform_point
from .profile import row_medians
from .sensors import DepthImage, MaskImage, SensorNoise, depth_noise_at

logger = logging.getLogger(__name__)

DEFAULT_MIN_SPACING_PX = 8.0

# Row and column offsets of a pixel's 3x3 neighbourhood, in raster order.
_WINDOW_ROWS, _WINDOW_COLS = (a.ravel() for a in np.mgrid[-1:2, -1:2])


@dataclass
class Skeleton:
    """One-pixel-wide centreline: boolean image plus raster-order pixels."""

    flags: np.ndarray

    def __post_init__(self) -> None:
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.ndim != 2:
            raise ValueError("skeleton must be 2-D")

    def pixels(self) -> list[tuple[int, int]]:
        """Set pixels as (row, col) in raster order."""
        rows, cols = np.nonzero(self.flags)
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class Waypoint:
    """A crack point carried through the localization chain.

    Immutable: each stage that learns more about the point (refined
    position, measured area, planned speed) returns a new Waypoint.
    """

    pixel: PixelCoord
    camera_pt: Point3
    robot_pt: Point3
    refined_robot_pt: Point3 | None = None
    area_mm2: float | None = None
    speed_mm_s: float | None = None

    def position(self) -> Point3:
        """Best known robot-frame position (refined when available)."""
        return self.refined_robot_pt if self.refined_robot_pt is not None else self.robot_pt


def binarize(image, threshold: float) -> np.ndarray:
    """Pixels at or above threshold become crack pixels."""
    data = image.flags if isinstance(image, MaskImage) else np.asarray(image)
    return data >= threshold


def _neighbours(img: np.ndarray) -> list[np.ndarray]:
    """The 8 neighbours of every pixel, clockwise from north."""
    p = np.pad(img, 1, constant_values=False)
    return [
        p[:-2, 1:-1],  # N
        p[:-2, 2:],    # NE
        p[1:-1, 2:],   # E
        p[2:, 2:],     # SE
        p[2:, 1:-1],   # S
        p[2:, :-2],    # SW
        p[1:-1, :-2],  # W
        p[:-2, :-2],   # NW
    ]


def _transitions(nb: list[np.ndarray]) -> np.ndarray:
    """Count of 0->1 transitions around the cyclic neighbour sequence."""
    total = np.zeros(nb[0].shape, dtype=int)
    for a, b in zip(nb, nb[1:] + nb[:1]):
        total += (~a) & b
    return total


def _reach(seed: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Pixels of within 8-connected to seed through within."""
    reached = seed & within
    while True:
        grown = reached | (within & np.any(_neighbours(reached), axis=0))
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def _protect_components(img: np.ndarray, deletions: np.ndarray) -> np.ndarray:
    """Drop deletions that would erase an entire connected component.

    The pixels no kept pixel reaches make up the components the pass would
    erase; each of them keeps its first pixel in raster order.
    """
    doomed = img & ~_reach(img & ~deletions, img)
    while doomed.any():
        deletions[np.unravel_index(np.argmax(doomed), doomed.shape)] = False
        # the pixel just withheld is the only one in doomed not deleted
        doomed &= ~_reach(doomed & ~deletions, doomed)
    return deletions


def skeletonize(mask) -> Skeleton:
    """Two-subiteration thinning to a one-pixel-wide skeleton.

    Runs the classic parallel thinning to a fixpoint: each pass deletes
    boundary pixels whose neighbourhood has 2..6 set neighbours, exactly
    one 0->1 transition, and the directional corner products zero (the
    two subiterations alternate which corners). Deletions that would
    erase a whole component are withheld so every input component keeps
    at least one pixel, and a final sweep dissolves any residual 2x2
    blocks so no set pixel has a fully set 2x2 neighbourhood.

    Only the bounding box of the set pixels, plus a one-pixel border, is
    thinned: every pixel outside it is clear and stays clear.
    """
    img = (mask.flags if isinstance(mask, MaskImage) else np.asarray(mask, dtype=bool)).copy()
    rows = np.flatnonzero(img.any(axis=1))
    cols = np.flatnonzero(img.any(axis=0))
    if rows.size:
        box = img[max(rows[0] - 1, 0) : rows[-1] + 2, max(cols[0] - 1, 0) : cols[-1] + 2]
        _thin(box)
        _dissolve_squares(box)
    return Skeleton(flags=img)


def _thin(img: np.ndarray) -> None:
    """Parallel thinning of img, in place, until a full pass deletes nothing."""
    while True:
        changed = False
        for phase in (0, 1):
            nb = _neighbours(img)
            b = sum(n.astype(int) for n in nb)
            a = _transitions(nb)
            north, east, south, west = nb[0], nb[2], nb[4], nb[6]
            if phase == 0:
                corner1 = ~(north & east & south)
                corner2 = ~(east & south & west)
            else:
                corner1 = ~(north & east & west)
                corner2 = ~(north & south & west)
            deletions = img & (b >= 2) & (b <= 6) & (a == 1) & corner1 & corner2
            deletions = _protect_components(img, deletions)
            if deletions.any():
                img[deletions] = False
                changed = True
        if not changed:
            return


def _safe_to_delete(img: np.ndarray, r: int, c: int) -> bool:
    """A deletion keeps local connectivity when the pixel's neighbourhood
    has exactly one 0->1 transition and 2..6 set neighbours."""
    nb = _neighbours(np.pad(img, 1)[r : r + 3, c : c + 3])
    b = sum(int(n[1, 1]) for n in nb)
    return _transitions(nb)[1, 1] == 1 and 2 <= b <= 6


def _dissolve_squares(img: np.ndarray) -> None:
    """Remove one pixel from every remaining fully set 2x2 block."""
    while True:
        block = img[:-1, :-1] & img[:-1, 1:] & img[1:, :-1] & img[1:, 1:]
        rows, cols = np.nonzero(block)
        if len(rows) == 0:
            return
        r, c = int(rows[0]), int(cols[0])
        corners = [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
        victim = next((p for p in corners if _safe_to_delete(img, *p)), None)
        if victim is None:
            # fall back to the least-connected corner
            nb_counts = [img[max(rr - 1, 0) : rr + 2, max(cc - 1, 0) : cc + 2].sum() for rr, cc in corners]
            victim = corners[int(np.argmin(nb_counts))]
            logger.debug("dissolving 2x2 block at %s without a connectivity-safe corner", victim)
        img[victim] = False


def space_pixels(skeleton: Skeleton, min_spacing_px: float = DEFAULT_MIN_SPACING_PX) -> tuple[tuple[int, int], ...]:
    """Subsample the skeleton at a minimum Euclidean pixel spacing.

    Pixels are visited in the skeleton's raster order and kept greedily
    when at least min_spacing_px from every kept pixel; the result is
    (row, col) pairs in that order. An empty skeleton yields no pixels
    (with a warning), not an error.
    """
    pts = skeleton.pixels()
    if not pts:
        logger.warning("empty skeleton: no crack pixels to extract")
    kept: list[tuple[int, int]] = []
    for r, c in pts:
        if all((r - kr) ** 2 + (c - kc) ** 2 >= min_spacing_px**2 for kr, kc in kept):
            kept.append((r, c))
    return tuple(kept)


def extract_pixels(
    pixels: Sequence[tuple[int, int]], depth: DepthImage, noise: SensorNoise = SensorNoise.noiseless()
) -> list[PixelCoord]:
    """Attach a depth to each (row, col) skeleton pixel.

    depth is the clean image; noise gives the scan's reading of it (see
    add_depth_noise), formed only at the pixels read (see
    depth_noise_at). Depth per pixel is the median of valid depths in
    its 3x3 neighbourhood; a pixel with no valid depth nearby is dropped
    with a warning.
    """
    if not pixels:
        return []
    h, w = depth.depth_mm.shape
    centres = np.array(pixels)
    rows = centres[:, :1] + _WINDOW_ROWS
    cols = centres[:, 1:] + _WINDOW_COLS
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    rows, cols = np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1)
    ok = inside & depth.valid[rows, cols]
    medians = row_medians(depth_noise_at(depth, noise, rows, cols), ok)
    out: list[PixelCoord] = []
    for (r, c), found, median in zip(pixels, ok.any(axis=1).tolist(), medians.tolist()):
        if not found:
            logger.warning("dropping skeleton pixel (%d, %d): no valid depth in 3x3 window", r, c)
            continue
        out.append(PixelCoord(u=float(c), v=float(r), depth=median))
    return out


def pixels_to_robot(pixels: list[PixelCoord], k: CameraIntrinsics, camera_to_robot: RigidTransform) -> list[Waypoint]:
    """Back-project pixels and carry them into the robot base frame."""
    out = []
    for px in pixels:
        cam = pixel_to_camera(px, k)
        robot = transform_point(cam, camera_to_robot, Frame.ROBOT)
        out.append(Waypoint(pixel=px, camera_pt=cam, robot_pt=robot))
    return out


def runs_along_x(points: Sequence[Point3]) -> bool:
    """Whether a crack through these points runs along robot x.

    It does when the points' x extent is at least their y extent, so a
    lone point, which has no extent, counts as running along x. The
    points must not be empty.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) >= (max(ys) - min(ys))


def order_path(waypoints: list[Waypoint]) -> list[Waypoint]:
    """Order waypoints along the crack's dominant axis.

    Sort ascending by robot x when the crack runs along x (see
    runs_along_x), otherwise by robot y; ties fall back to the other
    coordinate. The input list is not modified.
    """
    if not waypoints:
        raise EmptyPath("cannot order an empty waypoint list")
    if runs_along_x([wp.position() for wp in waypoints]):
        key = lambda wp: (wp.position().x, wp.position().y)
    else:
        key = lambda wp: (wp.position().y, wp.position().x)
    return sorted(waypoints, key=key)
