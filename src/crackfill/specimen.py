"""Synthetic specimen plates: heightfields, carved cracks, and deposition.

A specimen is a regular grid of surface heights over the robot-frame
xy plane, held as a base plus one patch (see Heightfield). Cracks are
carved as troughs below the nominal surface, into one block patched
over a flat plate; repair material is added by the deposition model,
which fills the local trough bottom-up and piles any excess into a bead
cap above the surface. All lengths are millimetres, areas mm^2, volumes
mm^3.
"""

from __future__ import annotations

import copy
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Overfill, PathOutsideGrid, SegmentOutsideGrid, ZeroLengthSegment, ZeroSpeed

logger = logging.getLogger(__name__)

# Hard sanity bound on how far a bead cap may rise above the nominal
# surface before deposition is considered outside the model's regime.
MAX_OVERFILL_MM = 80.0

DEFAULT_NOZZLE_DIAMETER_MM = 4.0

# Work over a full-size grid or image runs in tiles of whole rows holding
# about this many cells, each written straight into the one output array,
# so its float64 temporaries take a tile's worth of memory, not the grid's.
TILE_CELLS = 1 << 15

Profile = float | Sequence[tuple[float, float]]


def row_tiles(n_rows: int, row_cells: int) -> Iterator[slice]:
    """Consecutive slices of n_rows rows, each holding about TILE_CELLS cells
    (at least one row) of row_cells cells per row."""
    step = max(1, TILE_CELLS // row_cells)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def profile_values(profile: Profile, s: np.ndarray) -> np.ndarray:
    """Evaluate a width/depth profile at arclengths s along the path."""
    s = np.asarray(s, dtype=float)
    if isinstance(profile, (int, float)):
        return np.full(s.shape, float(profile))
    pts = np.asarray(profile, dtype=float)
    return np.interp(s, pts[:, 0], pts[:, 1])


def _profile_extremes(profile: Profile, length: float) -> np.ndarray:
    """Values at both path ends and at each breakpoint on the path: the
    profile is piecewise linear, so its extremes are among them."""
    knots = [] if isinstance(profile, (int, float)) else [s for s, _ in profile]
    return profile_values(profile, np.clip([0.0, length, *knots], 0.0, length))


@dataclass(frozen=True, eq=False)
class Heightfield:
    """Surface heights on a grid with square cells: a base plus one patch.

    Cell (ix, iy) is centred at (origin[0] + ix*cell_size,
    origin[1] + iy*cell_size). heights is the base, of shape (ny, nx); box
    is the patch's (rows, columns) slices and cells its heights, and every
    cell outside the box holds the base's height. Heights are absolute z;
    the undamaged plate sits at z = nominal_surface. The patch is empty
    unless given: a carved specimen is a flat base with its carved block
    as its patch (see generate_specimen), and a filled plate the base it
    was laid on with the box the fill could change (see deposit_path),
    which reads the base and never writes it.

    heights is the base, not the plate the patch composes: a reader of it
    either means the base or holds a plate with no patch, such as the
    calibration strips' plate. lookup (the one point read), copy_box and
    heightfield() read the composed plate. Plates compare by identity.
    """

    origin: tuple[float, float]
    cell_size: float
    nx: int
    ny: int
    heights: np.ndarray
    nominal_surface: float = 0.0
    box: tuple[slice, slice] = (slice(0, 0), slice(0, 0))
    cells: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        heights, cells = np.asarray(self.heights, dtype=float), np.asarray(self.cells, dtype=float)
        if heights.shape != (self.ny, self.nx):
            raise ValueError(f"heights shape {heights.shape} != (ny={self.ny}, nx={self.nx})")
        if cells.shape != heights[self.box].shape:
            raise ValueError(f"patch cells shape {cells.shape} != its box's {heights[self.box].shape}")
        if not (np.all(np.isfinite(heights)) and np.all(np.isfinite(cells))):
            raise ValueError("heights must be finite")
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "cells", cells)

    def _replace(self, **changes) -> "Heightfield":
        """dataclasses.replace without the checks: every value changed is a
        view or copy of a checked plate's arrays, or cells laid on one."""
        out = copy.copy(self)
        for name, value in changes.items():
            object.__setattr__(out, name, value)
        return out

    @staticmethod
    def flat(origin: tuple[float, float], cell_size: float, nx: int, ny: int, nominal_surface: float = 0.0) -> "Heightfield":
        """A plate at nominal_surface everywhere, held as that one value:
        heights is a read-only view of it at every cell, so a caller that
        writes takes copy(). It is checked as a plate of one cell."""
        hf = Heightfield(origin, cell_size, 1, 1, np.full((1, 1), float(nominal_surface)), nominal_surface)
        return hf._replace(nx=nx, ny=ny, heights=np.broadcast_to(hf.heights, (ny, nx)))

    def copy(self) -> "Heightfield":
        """An independent copy; its arrays passed the finiteness check with self's."""
        return self._replace(heights=self.heights.copy(), cells=self.cells.copy())

    def x_of(self, ix) -> np.ndarray | float:
        return self.origin[0] + np.asarray(ix) * self.cell_size

    def y_of(self, iy) -> np.ndarray | float:
        return self.origin[1] + np.asarray(iy) * self.cell_size

    # The nearest cell index; a position off the grid is first clipped to
    # the index one cell beyond its edge (-1 or n), so the cast never
    # overflows and in-grid indices are unchanged.
    def ix_of(self, x) -> np.ndarray:
        return np.rint(np.clip((np.asarray(x) - self.origin[0]) / self.cell_size, -1, self.nx)).astype(int)

    def iy_of(self, y) -> np.ndarray:
        return np.rint(np.clip((np.asarray(y) - self.origin[1]) / self.cell_size, -1, self.ny)).astype(int)

    def lookup(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """The height of each point's nearest cell, and whether the point is
        on the grid; a point off it reads the cell nearest it on the grid's
        edge."""
        iy, ix = self.iy_of(y), self.ix_of(x)
        cy, cx = np.clip(iy, 0, self.ny - 1), np.clip(ix, 0, self.nx - 1)
        rows, cols = self.box
        h = np.asarray(self.heights[cy, cx])
        inside = (cy >= rows.start) & (cy < rows.stop) & (cx >= cols.start) & (cx < cols.stop)
        h[inside] = self.cells[cy[inside] - rows.start, cx[inside] - cols.start]
        return h, (cy == iy) & (cx == ix)

    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of cell centres."""
        return (
            self.origin[0],
            self.origin[0] + (self.nx - 1) * self.cell_size,
            self.origin[1],
            self.origin[1] + (self.ny - 1) * self.cell_size,
        )

    def copy_box(self, box: tuple[slice, slice]) -> np.ndarray:
        """A fresh array of the heights of the (rows, columns) box, which
        holds the patch's box: the base's, with the patch's cells over them."""
        out = self.heights[box].copy()
        if self.cells.size:
            (rows, cols), (patch_rows, patch_cols) = box, self.box
            out[patch_rows.start - rows.start : patch_rows.stop - rows.start, patch_cols.start - cols.start : patch_cols.stop - cols.start] = self.cells
        return out

    def heightfield(self) -> "Heightfield":
        """The plate as a full-size copy with no patch."""
        return self._replace(heights=self.copy_box((slice(0, self.ny), slice(0, self.nx))), box=(slice(0, 0), slice(0, 0)), cells=np.empty((0, 0)))


@dataclass(frozen=True)
class CrackSpec:
    """Geometry of a crack to carve: a polyline with width/depth profiles.

    width and depth may be constants or breakpoint tables [(s, value)...]
    over arclength, interpolated linearly. The cross-section at
    each station is rectangular: width w(s) across the path, depth d(s)
    below the nominal surface.
    """

    path: Sequence[tuple[float, float]]
    width: Profile
    depth: Profile

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("crack path needs at least 2 points")
        if any(_profile_extremes(p, self.arclength()).min() <= 0 for p in (self.width, self.depth)):
            raise ValueError("width and depth profiles must be positive along the path")

    def arclength(self) -> float:
        pts = np.asarray(self.path, dtype=float)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    def max_width(self) -> float:
        return float(_profile_extremes(self.width, self.arclength()).max())


@dataclass(frozen=True)
class DepositionParams:
    """Extruder parameters: constant volumetric flow and nozzle size."""

    flow_rate_mm3_s: float
    nozzle_diameter_mm: float = DEFAULT_NOZZLE_DIAMETER_MM
    purge_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.flow_rate_mm3_s <= 0:
            raise ValueError(f"flow rate must be positive, got {self.flow_rate_mm3_s}")
        if self.nozzle_diameter_mm <= 0:
            raise ValueError(f"nozzle diameter must be positive, got {self.nozzle_diameter_mm}")
        if self.purge_time_s < 0:
            raise ValueError(f"purge time must be non-negative, got {self.purge_time_s}")


@dataclass(frozen=True)
class DepositResult:
    """Outcome of one deposition segment."""

    elapsed_s: float
    volume_target_mm3: float
    volume_deposited_mm3: float


def _path_distance_field(xs: np.ndarray, ys: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each cell centre (xs[ix], ys[iy]) to the polyline and
    arclength of the closest point."""
    gx, gy = np.meshgrid(xs, ys)
    best_d2 = np.full(gx.shape, np.inf)
    best_s = np.zeros(gx.shape)
    s0 = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        seg_len = float(np.hypot(*d))
        if seg_len**2 == 0:
            continue
        t = ((gx - a[0]) * d[0] + (gy - a[1]) * d[1]) / seg_len**2
        t = np.clip(t, 0.0, 1.0)
        px = a[0] + t * d[0]
        py = a[1] + t * d[1]
        d2 = (gx - px) ** 2 + (gy - py) ** 2
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        best_s[closer] = s0 + t[closer] * seg_len
        s0 += seg_len
    return np.sqrt(best_d2), best_s


def generate_specimen(
    spec: CrackSpec,
    *,
    origin: tuple[float, float],
    cell_size: float,
    nx: int,
    ny: int,
    nominal_surface: float = 0.0,
) -> Heightfield:
    """Carve the crack into a flat plate, held as the flat plate with the
    one block of it that the carve visits as its patch.

    The block is the cells within the maximum half width of the path's
    bounding box, with one spare cell on each side; every cell outside it
    lies farther than that from the path and keeps the nominal height. The
    block is carved into a fresh array in row tiles (see row_tiles), each
    cell with the same arithmetic.

    Raises PathOutsideGrid when the trough (path swept by its half
    width) would not fit inside the grid.
    """
    plate = Heightfield.flat(origin, cell_size, nx, ny, nominal_surface)
    pts = np.asarray(spec.path, dtype=float)
    half_w = spec.max_width() / 2.0
    x_min, x_max, y_min, y_max = plate.bounds()
    if (
        pts[:, 0].min() - half_w < x_min
        or pts[:, 0].max() + half_w > x_max
        or pts[:, 1].min() - half_w < y_min
        or pts[:, 1].max() + half_w > y_max
    ):
        raise PathOutsideGrid("crack path plus half-width does not fit inside the grid")

    # one spare cell on each side absorbs rounding at the block's edges
    lo = np.floor((pts.min(axis=0) - half_w - origin) / cell_size).astype(int) - 1
    hi = np.ceil((pts.max(axis=0) + half_w - origin) / cell_size).astype(int) + 2
    ix0, iy0 = np.maximum(lo, 0).tolist()
    ix1, iy1 = np.minimum(hi, (nx, ny)).tolist()
    block = np.full((iy1 - iy0, ix1 - ix0), float(nominal_surface))
    xs, ys = plate.x_of(np.arange(ix0, ix1)), plate.y_of(np.arange(iy0, iy1))
    for tile in row_tiles(*block.shape):
        dist, s = _path_distance_field(xs, ys[tile], pts)
        near = dist <= half_w
        widths = profile_values(spec.width, s[near])
        depths = profile_values(spec.depth, s[near])
        carved = dist[near] <= widths / 2.0
        rows, cols = np.nonzero(near)
        block[tile][rows[carved], cols[carved]] = nominal_surface - depths[carved]
    return plate._replace(box=(slice(iy0, iy1), slice(ix0, ix1)), cells=block)


def _brent_roots(f: Callable[[np.ndarray, np.ndarray], np.ndarray], xa: float, xb: float, n: int) -> np.ndarray:
    """The root in [xa, xb] of each of n functions by Brent's method (Brent,
    1973), ported elementwise from SciPy's Zeros/brentq.c (xtol 1e-12, rtol
    4 eps, 100 iterations); tests/test_specimen.py checks it against SciPy
    bit for bit. f(x, at) evaluates function at[i] at x[i]. Each function
    takes its own steps and leaves the batch once converged; the branches
    it does not take are computed too, and may divide by zero."""
    xtol, rtol = 1e-12, 4 * sys.float_info.epsilon
    roots = np.empty(n)
    at, xpre, xcur = np.arange(n), np.full(n, xa), np.full(n, xb)
    fpre, fcur = f(xpre, at), f(xcur, at)
    signs = np.sign(fpre) * np.sign(fcur)  # < 0 where the ends bracket a root, 0 where one is a root
    if (signs > 0).any():
        raise ValueError("f(xa) and f(xb) must have different signs")
    roots[fcur == 0] = xb
    roots[fpre == 0] = xa
    at, xpre, xcur, fpre, fcur = (a[signs < 0] for a in (at, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(at.size)
    with np.errstate(all="ignore"):
        for _ in range(100):
            if not at.size:
                return roots
            flip = np.sign(fpre) * np.sign(fcur) < 0
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                roots[at[done]] = xcur[done]
                go = ~done
                at, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    a[go] for a in (at, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
                )
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            # a good short step where one is tried, a bisection otherwise
            good = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            good &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, at)
    if at.size:
        raise RuntimeError("Brent's method did not converge in 100 iterations")
    return roots


def _cap_shapes(chords: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Rows (radius**2, base, riser) of a bead cap of each chord and area.

    Up to a semicircle the bead cross-section is a circular segment of
    the given chord, whose circle centre lies base below the surface;
    beyond that the extra material is modelled as a rectangular riser of
    the same width under a semicircular cap. Every sin, cos and power
    runs on Python floats, so each cap is the one math gives on its own;
    numpy does the rest of the arithmetic, which rounds the same.
    """
    chord_sq = np.array([c**2 for c in chords.tolist()])
    semi_area = math.pi * chord_sq / 8.0
    shapes = np.zeros((3, len(chords)))
    segment = areas <= semi_area
    segment_chord_sq, segment_area = chord_sq[segment], areas[segment]

    def f(th: np.ndarray, at: np.ndarray) -> np.ndarray:
        th_list = th.tolist()
        sin = list(map(math.sin, th_list))
        sin_cos = np.array(sin) * np.array(list(map(math.cos, th_list)))
        return segment_chord_sq[at] * (th - sin_cos) / (4.0 * np.array([s**2 for s in sin])) - segment_area[at]

    theta = _brent_roots(f, 1e-9, math.pi / 2.0, segment_area.size).tolist()
    radius = chords[segment] / (2.0 * np.array(list(map(math.sin, theta))))
    shapes[0, segment] = [r**2 for r in radius.tolist()]
    shapes[1, segment] = radius * np.array(list(map(math.cos, theta)))
    shapes[0, ~segment] = [(c / 2.0) ** 2 for c in chords[~segment].tolist()]
    shapes[2, ~segment] = (areas[~segment] - semi_area[~segment]) / chords[~segment]
    return shapes


def _caps(view: np.ndarray, first: int, size: int, rows, j_first, centre, chords, areas, shapes, o_perp: float, cell_size: float) -> np.ndarray:
    """Pile one bead cap on each row of view, over its size cells from
    j_first, and return each row's highest cell. view holds its lines'
    cells from cell first on; j_first counts from the line's start.

    Row rows[i] gets the cap of chord chords[i] and shape shapes[:, i] (see
    _cap_shapes) centred at centre[i] (mm across the line), scaled so its
    cells hold areas[i] (mm^2); a cap that covers no cell spreads its area
    evenly. The arithmetic runs in place, so a tile holds about three
    arrays of its size at once.
    """
    offsets = o_perp + (j_first[:, None] + np.arange(size)) * cell_size - centre[:, None]
    outside = np.abs(offsets) > chords[:, None] / 2.0
    radius_sq, base, riser = shapes[:, :, None]
    # z = riser + sqrt(max(radius_sq - offsets**2, 0)) - base, in the offsets' array
    z = np.square(offsets, out=offsets)
    np.subtract(radius_sq, z, out=z)
    np.sqrt(np.maximum(z, 0.0, out=z), out=z)
    z += riser
    z -= base
    z[outside] = 0.0
    total = z.sum(axis=1) * cell_size
    spread = total <= 0
    scale = np.ones(len(z))
    scale[~spread] = areas[~spread] / total[~spread]
    z *= scale[:, None]
    z[spread] = (areas[spread] / (z.shape[1] * cell_size))[:, None]
    cells = sliding_window_view(view, size, axis=1, writeable=True)  # [r, j]: row r's cells first + j onwards
    z += cells[rows, j_first - first]
    cells[rows, j_first - first] = z
    return z.max(axis=1)


def _water_fill(runs: np.ndarray, budget_area, ceiling: float, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Raise the lowest cells of each row toward the ceiling, spending budget_area (mm^2) on each row.

    budget_area is one budget for every row or one per row. Returns the
    filled rows and each row's unspent remainder of its budget (positive
    when the row fills completely).
    """
    budget = np.broadcast_to(budget_area, len(runs))
    capacity = np.maximum(0.0, ceiling - runs).sum(axis=1) * cell_size
    level = np.full(len(runs), float(ceiling))
    part = np.flatnonzero(budget < capacity)
    if part.size:
        h_sorted = np.sort(runs[part], axis=1)
        prefix = np.cumsum(h_sorted, axis=1)
        k = np.arange(1, runs.shape[1] + 1)
        # cost[:, k - 1]: levelling the k lowest cells up to the next height
        cost = (np.append(h_sorted[:, 1:], np.full((part.size, 1), np.inf), axis=1) * k - prefix) * cell_size
        i = np.argmax(cost >= budget[part, None], axis=1)
        fill = budget[part] / (cell_size * (i + 1)) + prefix[np.arange(part.size), i] / (i + 1)
        level[part] = np.where(ceiling < fill, ceiling, fill)
    remaining = budget - capacity
    remaining[part] = 0.0
    return np.maximum(runs, level[:, None]), remaining


@dataclass(frozen=True)
class _Segment:
    """A checked deposition segment and the grid lines it lays: count lines
    across axis dom, from index first in steps of step (+1 or -1)."""

    start: np.ndarray
    end: np.ndarray
    length: float
    dom: int
    first: int
    step: int
    count: int

    @property
    def last(self) -> int:
        return self.first + self.step * (self.count - 1)


def _segment(hf: Heightfield, start, end, include_end: bool) -> _Segment:
    """Check one segment's geometry and find its grid lines (see lay_out)."""
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    if not hf.lookup([p0[0], p1[0]], [p0[1], p1[1]])[1].all():
        raise SegmentOutsideGrid(f"segment {tuple(p0.tolist())} -> {tuple(p1.tolist())} leaves the grid")
    # Compare the ends, not the length: the norm of a distinct but tiny
    # offset (say 1e-200 mm) squares to zero and would read as no segment.
    if np.array_equal(p0, p1):
        raise ZeroLengthSegment(f"deposition segment starts and ends at {tuple(p0.tolist())}")
    dom = 0 if abs(p1[0] - p0[0]) >= abs(p1[1] - p0[1]) else 1
    if dom == 0:
        i_from, i_to = int(hf.ix_of(p0[0])), int(hf.ix_of(p1[0]))
    else:
        i_from, i_to = int(hf.iy_of(p0[1])), int(hf.iy_of(p1[1]))
    step = 1 if i_to >= i_from else -1
    if not include_end and i_to != i_from:
        i_to -= step
    length = float(np.linalg.norm(p1 - p0))
    return _Segment(p0, p1, length, dom, i_from, step, abs(i_to - i_from) + 1)


@dataclass(frozen=True)
class _Lines:
    """A run's grid lines on a base plus one patch, one row per line: whole
    holds the base's lines, and cells the patch's cells of the lines held,
    from cell first on, as a view of the patch. Every other cell of a line
    is whole's."""

    whole: np.ndarray
    cells: np.ndarray
    held: slice
    first: int

    def read(self, tile: slice, c0: int, c1: int) -> np.ndarray:
        """Cells c0 to c1 (exclusive) of the lines in tile: a view where one
        array holds them all, otherwise a copy composed of the two."""
        a, b = max(tile.start, self.held.start), min(tile.stop, self.held.stop)
        lo, hi = max(c0, self.first), min(c1, self.first + self.cells.shape[1])
        if a >= b or lo >= hi:
            return self.whole[tile, c0:c1]
        patch = self.cells[a - self.held.start : b - self.held.start, lo - self.first : hi - self.first]
        if (a, b, lo, hi) == (tile.start, tile.stop, c0, c1):
            return patch
        out = self.whole[tile, c0:c1].copy()
        out[a - tile.start : b - tile.start, lo - c0 : hi - c0] = patch
        return out


def _line_sums(lines: _Lines) -> np.ndarray:
    """The sum of each whole line, rounded like that of the line held
    contiguously on its own: each row tile is summed as a contiguous array,
    a view where the lines are held so and a copy otherwise."""
    m, n = lines.whole.shape
    return np.concatenate([np.ascontiguousarray(lines.read(tile, 0, n)).sum(axis=1) for tile in row_tiles(m, n)])


# A cell lower than the nominal surface by more than this is below it.
_WET_DEPTH_MM = 1e-12


def _wet_band(lines: _Lines, c0: int, c1: int, nominal: float) -> tuple[int, int] | None:
    """The first and last of cells c0 to c1 (exclusive) at which any of
    lines lies below the surface at nominal, counted from the line's start;
    None when no cell does. Read in row tiles."""
    wet = np.zeros(c1 - c0, dtype=bool)
    for tile in row_tiles(len(lines.whole), c1 - c0):
        wet |= (lines.read(tile, c0, c1) < nominal - _WET_DEPTH_MM).any(axis=0)
    wet = np.flatnonzero(wet)
    return (c0 + int(wet[0]), c0 + int(wet[-1])) if wet.size else None


def _reach(nozzle: float, cell_size: float, n: int) -> int:
    """How many cells from a line's nozzle centre cell the flood looks for
    a trough, on lines of n cells: no cell lies more than n - 1 away,
    however wide the nozzle."""
    return min(max(1, math.ceil(nozzle / 2.0 / cell_size)), n - 1)


@dataclass(frozen=True)
class _Troughs:
    """A run's lines as the plate holds them before the run is laid.

    before holds each line's sum. bounds holds four rows of cells per
    line, counted from the line's start: the first and last cell of the
    run of below-surface cells holding the nearest such cell at or below
    the nozzle centre's cell, then the nearest such cell at or above the
    centre and the last cell of its run. A side without one has its cells
    n past the centre, beyond any reach.
    """

    before: np.ndarray
    bounds: np.ndarray

    def nearest(self, j_c: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lines with a below-surface cell within reach of their centre
        cell j_c, and on each the first and last cell of the run holding
        the nearest such cell; the lower one wins a tie."""
        left_lo, left_hi, right, right_hi = self.bounds
        to_left = np.maximum(j_c - left_hi, 0)
        to_right = right - j_c
        take_left = (to_left <= to_right) & (to_left <= reach)
        wet = np.flatnonzero(take_left | (to_right <= reach))
        take_left = take_left[wet]
        return wet, np.where(take_left, left_lo[wet], right[wet]), np.where(take_left, left_hi[wet], right_hi[wet])


def _troughs(lines: _Lines, j_c: np.ndarray, wet: tuple[int, int] | None, nominal: float) -> _Troughs:
    """The troughs of lines around each centre cell j_c, on a plate whose
    surface is at nominal, with each line's sum. wet is the lines' band of
    below-surface cells (see _wet_band). Only that band, plus one dry cell
    each side, can bound a run, and it is read in row tiles."""
    before = _line_sums(lines)
    n = lines.whole.shape[1]
    bounds = np.repeat([j_c - n, j_c + n], 2, axis=0)
    if wet is not None:
        c0, c1 = max(wet[0] - 1, 0), min(wet[1] + 2, n)
        cells = np.arange(c0, c1)
        for tile in row_tiles(len(j_c), c1 - c0):
            below = lines.read(tile, c0, c1) < nominal - _WET_DEPTH_MM
            dry = ~below
            centre = j_c[tile]
            left = np.where(below & (cells <= centre[:, None]), cells, -1).max(axis=1)
            right = np.where(below & (cells >= centre[:, None]), cells, n).min(axis=1)
            left_lo = np.where(dry & (cells < left[:, None]), cells, c0 - 1).max(axis=1) + 1
            right_hi = np.where(dry & (cells > right[:, None]), cells, c1).min(axis=1) - 1
            # a centre cell below the surface is both, and its run ends at right_hi
            left_hi = np.where(left == centre, right_hi, left)
            found = [left >= 0, left >= 0, right < n, right < n]
            bounds[:, tile] = np.where(found, [left_lo, left_hi, right, right_hi], bounds[:, tile])
    return _Troughs(before=before, bounds=bounds)


@dataclass(frozen=True)
class _Run:
    """Segments laid as one block of grid lines: they share a dominant axis
    and a direction, and each one's lines pick up where the previous one's
    stop, so the lines are distinct and each only changes itself.

    Lines are held in ascending index order from lo: each line's segment,
    its nozzle centre across the line (mm) and that centre's cell. wet is
    the band of the lines' below-surface cells on the layout's plate (see
    _wet_band). troughs, when set, survey the lines as the layout's plate
    holds them; only a path's first run has them.
    """

    segments: tuple[_Segment, ...]
    lo: int
    seg_of: np.ndarray
    centre_perp: np.ndarray
    j_c: np.ndarray
    wet: tuple[int, int] | None
    troughs: _Troughs | None = None

    @property
    def dom(self) -> int:
        return self.segments[0].dom

    @property
    def step(self) -> int:
        return self.segments[0].step

    @property
    def hi(self) -> int:
        """One past the run's last line."""
        return self.lo + len(self.seg_of)

    @property
    def span(self) -> tuple[int, int]:
        """The first and last cell across the lines that is below the
        surface on the layout's plate or some line's nozzle centre cell."""
        lo, hi = int(self.j_c.min()), int(self.j_c.max())
        return (lo, hi) if self.wet is None else (min(lo, self.wet[0]), max(hi, self.wet[1]))

    def lines(self, plate: Heightfield) -> _Lines:
        """This run's grid lines on plate (see _Lines)."""
        rows, cols = plate.box
        along, first = (cols, rows.start) if self.dom == 0 else (rows, cols.start)
        a = min(max(self.lo, along.start), self.hi)
        b = max(min(self.hi, along.stop), a)
        if self.dom == 0:
            whole, cells = plate.heights[:, self.lo : self.hi].T, plate.cells[:, a - cols.start : b - cols.start].T
        else:
            whole, cells = plate.heights[self.lo : self.hi], plate.cells[a - rows.start : b - rows.start]
        return _Lines(whole, cells, slice(a - self.lo, b - self.lo), first)


def _run(hf: Heightfield, segments: Sequence[_Segment]) -> _Run:
    """The grid lines of chained segments, each line's nozzle centre, and
    the band of their below-surface cells on hf."""
    cs = hf.cell_size
    dom, step = segments[0].dom, segments[0].step
    # each line's segment, in ascending line order
    seg_of = np.repeat(np.arange(len(segments)), [seg.count for seg in segments])[::step]
    m = len(seg_of)
    lo = min(segments[0].first, segments[-1].last)
    p0 = np.array([seg.start for seg in segments])[seg_of]
    p1 = np.array([seg.end for seg in segments])[seg_of]
    # distinct ends differ in the dominant axis, so the divisor is never zero;
    # on a segment a few ulps long t overflows, and the clip takes it to an end
    with np.errstate(over="ignore"):
        t = (hf.origin[dom] + np.arange(lo, lo + m) * cs - p0[:, dom]) / (p1[:, dom] - p0[:, dom])
    t = np.where(t > 1.0, 1.0, np.where(t < 0.0, 0.0, t))
    centre_perp = p0[:, 1 - dom] + t * (p1[:, 1 - dom] - p0[:, 1 - dom])
    n = hf.ny if dom == 0 else hf.nx
    j_c = np.clip(np.rint((centre_perp - hf.origin[1 - dom]) / cs), 0, n - 1).astype(int)
    run = _Run(tuple(segments), lo, seg_of, centre_perp, j_c, None)
    return replace(run, wet=_wet_band(run.lines(hf), 0, n, hf.nominal_surface))


def _lay(filled: Heightfield, run: _Run, speeds: Sequence[float], params: DepositionParams) -> list[DepositResult]:
    """Lay a run at speeds, one per segment, on filled's cells, whose box
    holds every cell the run can change; see deposit_path.

    Every line carries its own segment's nozzle centre and station area and
    gets the same arithmetic as a line handled on its own; the flood and
    the caps group lines of one size across the whole run. Every cap is
    the nozzle's width, centred on the flooded trough or the nozzle. Cells
    are counted along the plate's whole lines throughout, and the box's
    corner is taken off only to read or write the box. A run without
    troughs has them surveyed here, on the box's cells as the fill stands.
    The line sums run over whole lines composed of the base and the box,
    and every other stage works in tiles of about TILE_CELLS cells, so the
    scratch stays a few tiles' worth.
    """
    cs = filled.cell_size
    nominal = filled.nominal_surface
    nozzle = params.nozzle_diameter_mm
    lines = run.lines(filled)
    view, first = lines.cells, lines.first
    m, n = lines.whole.shape
    o_perp = filled.origin[1 - run.dom]
    troughs = run.troughs
    if troughs is None:
        troughs = _troughs(lines, run.j_c, _wet_band(lines, first, first + view.shape[1], nominal), nominal)
    areas = [params.flow_rate_mm3_s / speed for speed in speeds]
    station_area = np.array([area * seg.length / (seg.count * cs) for area, seg in zip(areas, run.segments)])[run.seg_of]

    # flood the trough run nearest the nozzle centre
    wet, j_lo, j_hi = troughs.nearest(run.j_c, _reach(nozzle, cs, n))
    remaining = _flood(view, first, wet, j_lo, j_hi, station_area, nominal, cs)

    # cap whatever the trough could not hold, as wide as the nozzle and centred on the trough if any
    cap_centre = run.centre_perp.copy()
    cap_centre[wet] = o_perp + (j_lo + j_hi) / 2.0 * cs
    capped = np.flatnonzero(remaining > 1e-12)
    peak = np.full(m, -math.inf)
    peak[capped] = _pile_caps(view, first, n, capped, cap_centre[capped], np.full(capped.size, nozzle), remaining[capped], run.j_c[capped], o_perp, cs)

    # each segment's lines back in travel order: the volume sums them in
    # that order, and the first segment over the bound raises
    change = ((_line_sums(lines) - troughs.before) * cs * cs)[:: run.step]
    peak = peak[:: run.step]
    results = []
    stop = 0
    for area, speed, seg in zip(areas, speeds, run.segments):
        start, stop = stop, stop + seg.count
        if peak[start:stop].max() > nominal + MAX_OVERFILL_MM:
            raise Overfill(f"deposition at {speed:g} mm/s piled a bead more than {MAX_OVERFILL_MM:g} mm above the surface")
        deposited = np.cumsum(np.concatenate(([0.0], change[start:stop])))[-1]
        results.append(DepositResult(seg.length / speed, area * seg.length, deposited))
    return results


def _flood(view, first: int, wet, j_lo, j_hi, station_area, ceiling: float, cs: float) -> np.ndarray:
    """Water-fill each wet row's run j_lo..j_hi with its station area, rows
    grouped by run length; returns every row's area left over for its cap.
    view holds its lines' cells from cell first on."""
    remaining = station_area.copy()
    for size, of_size in _groups(j_hi - j_lo + 1):
        # each row's run as a window of the plate; the rows are distinct, so no cell is written twice
        rows, cells, at = wet[of_size], sliding_window_view(view, size, axis=1, writeable=True), j_lo[of_size] - first
        cells[rows, at], remaining[rows] = _water_fill(cells[rows, at], station_area[rows], ceiling, cs)
    return remaining


def _pile_caps(view, first: int, n: int, rows, centre, width, area, j_c, o_perp: float, cs: float) -> np.ndarray:
    """Pile a cap of each width and area on the cells of each row within
    half its width of its centre (the nozzle centre's cell j_c when that
    holds no cell) on lines of n cells, of which view holds those from
    cell first on; returns each row's highest capped cell. Every row's
    cap is shaped in one batch, then piled in groups of rows of one size."""
    j_first = np.maximum(0, np.ceil((centre - width / 2.0 - o_perp) / cs)).astype(int)
    j_last = np.minimum(n - 1, np.floor((centre + width / 2.0 - o_perp) / cs)).astype(int)
    collapsed = j_last < j_first
    j_first[collapsed] = j_last[collapsed] = j_c[collapsed]
    peak = np.empty(len(rows))
    columns = (rows, j_first, centre, width, area, _cap_shapes(width, area))
    for size, of_size in _groups(j_last - j_first + 1):
        peak[of_size] = _caps(view, first, size, *(a[..., of_size] for a in columns), o_perp, cs)
    return peak


def _groups(sizes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(size, positions) for each distinct size, the positions of that size
    split into tiles of about TILE_CELLS cells."""
    for size in np.unique(sizes):
        of_size = np.flatnonzero(sizes == size)
        for tile in row_tiles(of_size.size, int(size)):
            yield int(size), of_size[tile]


@dataclass(frozen=True)
class PathLayout:
    """A path laid out on the plate it fills: what laying it owes to the
    plate and the path, not to the speeds or the extruder (see lay_out).

    points is the path. plate is held as given, not copied, and deposit_path fills copies of a box of it (see
    box); a plate changed after lay_out is no longer the one its layout
    describes (a survey's specimen is read-only). runs hold the path's
    segments, checked and split into runs.
    """

    points: tuple[tuple[float, float], ...]
    plate: Heightfield
    runs: tuple[_Run, ...]

    def box(self, nozzle_diameter_mm: float) -> tuple[slice, slice]:
        """The (rows, columns) of plate holding every cell that a fill with
        this nozzle can change.

        A run changes only its own lines, and on each line only the
        trough run its flood reaches (within the nozzle's reach of the
        nozzle centre cell) and a cap within the reach of that trough's
        centre, or of the centre cell where there is none. So a run's box
        is its lines by its span (see _Run.span) widened by the reach and
        one cell more and clipped to the grid, and the box is the smallest
        one holding every run's; it is empty for a path without runs.
        """
        sizes = (self.plate.nx, self.plate.ny)
        lo, hi = list(sizes), [0, 0]  # per axis: x (columns), then y (rows)
        for run in self.runs:
            cross = 1 - run.dom
            reach = _reach(nozzle_diameter_mm, self.plate.cell_size, sizes[cross]) + 1
            span_lo, span_hi = run.span
            for axis, a, b in ((run.dom, run.lo, run.hi), (cross, max(span_lo - reach, 0), min(span_hi + reach + 1, sizes[cross]))):
                lo[axis], hi[axis] = min(lo[axis], a), max(hi[axis], b)
        return slice(lo[1], hi[1]), slice(lo[0], hi[0])


def lay_out(plate: Heightfield, points: Sequence[tuple[float, float]]) -> PathLayout:
    """Lay out the polyline through points on plate for deposit_path.

    Checks every segment, raising SegmentOutsideGrid or ZeroLengthSegment
    for the first one that leaves the grid or has no length, and finds its
    grid lines, each interior segment leaving its far line to the next so
    chained segments touch each cross-section once. The segments are split
    into runs: a segment joins the run before it when it has the same
    dominant axis and direction and its first grid line follows the run's
    last. Each line's nozzle centre is found, and each run's band of
    below-surface cells, which with the nozzle bounds the box a fill can
    change (see PathLayout.box). The first run has its lines' sums and
    troughs surveyed on plate; every later run is surveyed as the fill
    reaches it, on the plate as the runs before it left it. Nothing here
    depends on the speeds or the extruder, so one layout serves every fill
    of plate along points.

    Each line is read from the plate's patch where the patch holds it,
    and composed of the base and the patch a row tile at a time where it
    does not.
    """
    n_segments = len(points) - 1
    segments = [_segment(plate, points[k], points[k + 1], k == n_segments - 1) for k in range(n_segments)]
    chains: list[list[_Segment]] = []
    for seg in segments:
        prev = chains[-1][-1] if chains else None
        if prev is not None and (seg.dom, seg.step, seg.first) == (prev.dom, prev.step, prev.last + seg.step):
            chains[-1].append(seg)
        else:
            chains.append([seg])
    runs = [_run(plate, chain) for chain in chains]
    if runs:
        runs[0] = replace(runs[0], troughs=_troughs(runs[0].lines(plate), runs[0].j_c, runs[0].wet, plate.nominal_surface))
    return PathLayout(tuple((float(x), float(y)) for x, y in points), plate, tuple(runs))


def deposit(
    hf: Heightfield,
    start: tuple[float, float],
    end: tuple[float, float],
    speed_mm_s: float,
    params: DepositionParams,
) -> DepositResult:
    """Extrude along the segment from start to end at constant speed, as a
    path of one segment (see deposit_path), and write the box it filled
    back into hf; returns the segment's DepositResult.

    hf must be writable (a flat plate's copy(), not the plate) and hold no
    patch (a patched plate's heightfield(), not the plate), or ValueError
    is raised before anything is laid: the fill is written into the base,
    where a patch would hide it. A refused segment (SegmentOutsideGrid,
    ZeroLengthSegment, ZeroSpeed or Overfill) writes nothing, so hf keeps
    its heights.
    """
    if not hf.heights.flags.writeable:
        raise ValueError("deposit writes its fill back into the plate and needs a writable plate")
    if hf.cells.size:
        raise ValueError("deposit writes its fill into the plate's base and needs a plate with no patch")
    filled, (result,) = deposit_path(lay_out(hf, [start, end]), [speed_mm_s], params)
    hf.heights[filled.box] = filled.cells
    return result


def deposit_path(layout: PathLayout, speeds: Sequence[float], params: DepositionParams) -> tuple[Heightfield, list[DepositResult]]:
    """Extrude along layout's path, segment k at speeds[k], and return the
    filled plate with one DepositResult per segment.

    Per unit length a segment lays A = Q / speed, split evenly over its
    grid lines across its dominant axis. On each line the material floods
    the trough run nearest the nozzle bottom-up; excess forms a bead cap
    as wide as the nozzle, centred on that trough, or on the nozzle where
    the line has none in reach. A segment's volume sums its lines' changes
    in travel order.

    The fill is laid on a fresh copy of the box of the layout's plate that
    a fill with params' nozzle can change (see PathLayout.box), grown to
    hold the plate's patch, which the copy takes over the base. The plate
    returned holds that copy as its patch over the layout's base, which is
    read and never written, so it is again a base plus one patch. A speed
    count other than one per segment raises ValueError, and a speed that
    is not positive, or whose area per unit length (flow rate / speed) is
    not finite, ZeroSpeed, before anything is laid. The filled plate and
    the results are those of laying each segment on its own in turn on a
    copy of the whole plate, every interior one leaving its far grid line
    to the next. Each run of the layout is laid as one block: the first on
    the troughs lay_out surveyed, every later one surveyed on the fill as
    the runs before it left it.

    Overfill is raised, once its run is laid, for the first segment in
    travel order with a cap cell (stacked on an earlier bead or not) more
    than MAX_OVERFILL_MM above the nominal surface. Only capped cells are
    checked: carving only lowers cells and the flood never rises above
    the surface, so a plate handed in above the bound elsewhere is not
    refused. Nothing a layout refers to is written.
    """
    n_segments = max(len(layout.points) - 1, 0)
    if len(speeds) != n_segments:
        raise ValueError(f"{len(layout.points)} points need {n_segments} speeds, got {len(speeds)}")
    for speed in speeds:
        if not speed > 0:
            raise ZeroSpeed(f"deposition speed must be positive, got {speed}")
        # Python floats: a numpy scalar would warn on the overflow
        if not math.isfinite(float(params.flow_rate_mm3_s) / float(speed)):
            raise ZeroSpeed(f"deposition speed {speed} mm/s is too slow to lay a finite area per mm")
    plate = layout.plate
    box = _union(layout.box(params.nozzle_diameter_mm), plate.box)
    filled = plate._replace(box=box, cells=plate.copy_box(box))
    results: list[DepositResult] = []
    for run in layout.runs:
        results += _lay(filled, run, speeds[len(results) : len(results) + len(run.segments)], params)
    return filled, results


def _union(a: tuple[slice, slice], b: tuple[slice, slice]) -> tuple[slice, slice]:
    """The smallest box holding the (rows, columns) boxes a and b; an empty
    one holds no cell, and two empty boxes give a."""
    boxes = [box for box in (a, b) if all(s.start < s.stop for s in box)]
    if not boxes:
        return a
    return tuple(slice(min(box[k].start for box in boxes), max(box[k].stop for box in boxes)) for k in range(2))
