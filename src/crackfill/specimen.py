"""Synthetic specimen plates: heightfields, carved cracks, and deposition.

A specimen is a regular grid of surface heights over the robot-frame
xy plane. Cracks are carved as troughs below the nominal surface;
repair material is added by the deposition model, which fills the
local trough bottom-up and piles any excess into a bead cap above the
surface. All lengths are millimetres, areas mm^2, volumes mm^3.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import Overfill, PathOutsideGrid, SegmentOutsideGrid, StationOutsideGrid, ZeroLengthSegment, ZeroSpeed

logger = logging.getLogger(__name__)

# Hard sanity bound on how far a bead cap may rise above the nominal
# surface before deposition is considered outside the model's regime.
MAX_OVERFILL_MM = 80.0

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


@dataclass
class Heightfield:
    """Surface heights h[iy, ix] on a grid with square cells.

    Cell (ix, iy) is centred at (origin[0] + ix*cell_size,
    origin[1] + iy*cell_size). heights hold absolute z; the undamaged
    plate sits at z = nominal_surface.
    """

    origin: tuple[float, float]
    cell_size: float
    nx: int
    ny: int
    heights: np.ndarray
    nominal_surface: float = 0.0

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        self.heights = np.asarray(self.heights, dtype=float)
        if self.heights.shape != (self.ny, self.nx):
            raise ValueError(f"heights shape {self.heights.shape} != (ny={self.ny}, nx={self.nx})")
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("heights must be finite")

    @staticmethod
    def flat(origin: tuple[float, float], cell_size: float, nx: int, ny: int, nominal_surface: float = 0.0) -> "Heightfield":
        heights = np.full((ny, nx), float(nominal_surface))
        return Heightfield(origin, cell_size, nx, ny, heights, nominal_surface)

    def copy(self) -> "Heightfield":
        """An independent copy; its heights passed the finiteness check with self's."""
        out = copy.copy(self)
        out.heights = self.heights.copy()
        return out

    def x_of(self, ix) -> np.ndarray | float:
        return self.origin[0] + np.asarray(ix) * self.cell_size

    def y_of(self, iy) -> np.ndarray | float:
        return self.origin[1] + np.asarray(iy) * self.cell_size

    def ix_of(self, x) -> np.ndarray:
        return np.rint((np.asarray(x) - self.origin[0]) / self.cell_size).astype(int)

    def iy_of(self, y) -> np.ndarray:
        return np.rint((np.asarray(y) - self.origin[1]) / self.cell_size).astype(int)

    def contains(self, x, y) -> np.ndarray:
        ix = self.ix_of(x)
        iy = self.iy_of(y)
        return (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)

    def height_at(self, x, y) -> np.ndarray:
        """Nearest-cell height lookup; caller guarantees points in bounds."""
        ix = np.clip(self.ix_of(x), 0, self.nx - 1)
        iy = np.clip(self.iy_of(y), 0, self.ny - 1)
        return self.heights[iy, ix]

    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of cell centres."""
        return (
            self.origin[0],
            self.origin[0] + (self.nx - 1) * self.cell_size,
            self.origin[1],
            self.origin[1] + (self.ny - 1) * self.cell_size,
        )

    def volume_below_nominal(self) -> float:
        """Total trough volume (mm^3) below the nominal surface."""
        deficit = np.maximum(0.0, self.nominal_surface - self.heights)
        return float(deficit.sum() * self.cell_size**2)


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
    nozzle_diameter_mm: float = 4.0
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
    """Carve the crack into a fresh flat plate.

    Only the block of cells within the maximum half width of the path's
    bounding box is visited; every cell outside it lies farther than
    that from the path and keeps the nominal height. The block is carved
    in row tiles (see row_tiles), each cell with the same arithmetic.

    Raises PathOutsideGrid when the trough (path swept by its half
    width) would not fit inside the grid.
    """
    hf = Heightfield.flat(origin, cell_size, nx, ny, nominal_surface)
    pts = np.asarray(spec.path, dtype=float)
    half_w = spec.max_width() / 2.0
    x_min, x_max, y_min, y_max = hf.bounds()
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
    ix0, iy0 = np.maximum(lo, 0)
    ix1, iy1 = np.minimum(hi, (nx, ny))
    block = hf.heights[iy0:iy1, ix0:ix1]
    xs, ys = hf.x_of(np.arange(ix0, ix1)), hf.y_of(np.arange(iy0, iy1))
    for tile in row_tiles(*block.shape):
        dist, s = _path_distance_field(xs, ys[tile], pts)
        near = dist <= half_w
        widths = profile_values(spec.width, s[near])
        depths = profile_values(spec.depth, s[near])
        carved = dist[near] <= widths / 2.0
        rows, cols = np.nonzero(near)
        block[tile][rows[carved], cols[carved]] = nominal_surface - depths[carved]
    return hf


def true_cross_section(hf: Heightfield, point: tuple[float, float], normal: tuple[float, float]) -> float:
    """Ground-truth trough area along the line through point with direction normal.

    Samples the heightfield at cell_size steps along the line and sums
    the deficit below the nominal surface. Exact up to grid resolution.
    """
    p = np.asarray(point, dtype=float)
    n = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("normal must be non-zero")
    n = n / norm
    x_min, x_max, y_min, y_max = hf.bounds()
    if not (x_min <= p[0] <= x_max and y_min <= p[1] <= y_max):
        raise StationOutsideGrid(f"station {tuple(p.tolist())} outside grid bounds")

    t_lo, t_hi = -np.inf, np.inf
    for axis, (lo, hi) in enumerate([(x_min, x_max), (y_min, y_max)]):
        if abs(n[axis]) > 1e-12:
            a = (lo - p[axis]) / n[axis]
            b = (hi - p[axis]) / n[axis]
            t_lo = max(t_lo, min(a, b))
            t_hi = min(t_hi, max(a, b))
    ts = np.arange(math.ceil(t_lo / hf.cell_size), math.floor(t_hi / hf.cell_size) + 1) * hf.cell_size
    xs = p[0] + ts * n[0]
    ys = p[1] + ts * n[1]
    h = hf.height_at(xs, ys)
    deficit = np.maximum(0.0, hf.nominal_surface - h)
    return float(deficit.sum() * hf.cell_size)


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent, 1973): a step-for-step port of
    SciPy's Zeros/brentq.c with xtol 1e-12, rtol 4 eps and 100 iterations, which
    tests/test_specimen.py checks against SciPy's brentq bit for bit."""
    xtol, rtol = 1e-12, 4 * np.finfo(float).eps
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def _cap_shape(chord: float, area: float) -> tuple[float, float, float]:
    """(radius**2, base, riser) of a bead cap with the given chord and area.

    Up to a semicircle the bead cross-section is a circular segment of
    the given chord, whose circle centre lies base below the surface;
    beyond that the extra material is modelled as a rectangular riser of
    the same width under a semicircular cap.
    """
    semi_area = math.pi * chord**2 / 8.0
    if area <= semi_area:
        f = lambda th: chord**2 * (th - math.sin(th) * math.cos(th)) / (4.0 * math.sin(th) ** 2) - area
        theta = _brentq(f, 1e-9, math.pi / 2.0)
        radius = chord / (2.0 * math.sin(theta))
        return radius**2, radius * math.cos(theta), 0.0
    return (chord / 2.0) ** 2, 0.0, (area - semi_area) / chord


def _caps(offsets: np.ndarray, chords: np.ndarray, areas: np.ndarray, cell_size: float) -> np.ndarray:
    """Bead heights of one cap per row, at lateral offsets from its centre.

    Row r is the cap of chord chords[r], scaled so its cells hold
    areas[r] (mm^2); a cap that covers no cell spreads its area evenly.
    Rows with the same chord and area share one shape.
    """
    keys = list(zip(chords.tolist(), areas.tolist()))
    shapes = {key: _cap_shape(*key) for key in set(keys)}
    radius_sq, base, riser = np.array([shapes[key] for key in keys]).T[:, :, None]
    z = riser + np.sqrt(np.maximum(radius_sq - offsets**2, 0.0)) - base
    z = np.where(np.abs(offsets) <= chords[:, None] / 2.0, z, 0.0)
    total = z.sum(axis=1) * cell_size
    spread = total <= 0
    z[spread] = (areas[spread] / (offsets.shape[1] * cell_size))[:, None]
    z[~spread] *= (areas[~spread] / total[~spread])[:, None]
    return z


def _water_fill(runs: np.ndarray, budget_area: float, ceiling: float, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Raise the lowest cells of each row toward the ceiling, spending budget_area (mm^2) per row.

    Returns the filled rows and each row's unspent remainder of the
    budget (positive when the row fills completely).
    """
    capacity = np.maximum(0.0, ceiling - runs).sum(axis=1) * cell_size
    level = np.full(len(runs), float(ceiling))
    part = np.flatnonzero(budget_area < capacity)
    if part.size:
        h_sorted = np.sort(runs[part], axis=1)
        prefix = np.cumsum(h_sorted, axis=1)
        k = np.arange(1, runs.shape[1] + 1)
        # cost[:, k - 1]: levelling the k lowest cells up to the next height
        cost = (np.append(h_sorted[:, 1:], np.full((part.size, 1), np.inf), axis=1) * k - prefix) * cell_size
        i = np.argmax(cost >= budget_area, axis=1)
        fill = budget_area / (cell_size * (i + 1)) + prefix[np.arange(part.size), i] / (i + 1)
        level[part] = np.where(ceiling < fill, ceiling, fill)
    remaining = budget_area - capacity
    remaining[part] = 0.0
    return np.maximum(runs, level[:, None]), remaining


def deposit(
    hf: Heightfield,
    start: tuple[float, float],
    end: tuple[float, float],
    speed_mm_s: float,
    params: DepositionParams,
    include_end: bool = True,
) -> DepositResult:
    """Extrude along the segment from start to end at constant speed.

    Per unit length the nozzle lays a cross-section of A = Q / speed,
    split evenly over the grid lines across the segment's dominant axis.
    On each line the material floods the trough run nearest the nozzle
    bottom-up; excess forms a bead cap above the surface of width
    min(local trough width, nozzle diameter). With include_end false the
    grid line at the segment's far end is left to the following segment,
    so chained segments touch each cross-section exactly once.

    The segment's lines are distinct and each only changes itself, so
    they are handled together as one (lines x cells) block, each line a
    contiguous row; every row gets the same arithmetic as a line handled
    on its own, and the volume sums each line in travel order.

    Mutates hf in place and returns elapsed time plus the volume
    bookkeeping for the segment. Raises Overfill, after the segment is
    laid, when a cap cell of this segment ends more than MAX_OVERFILL_MM
    above the nominal surface; a cap stacked on an earlier bead counts.
    Only the cells this segment caps are checked. Carving only lowers
    cells and the trough flood never rises above the surface, so on a
    plate whose earlier segments each passed this check no other cell
    can be above the bound; a plate handed in with such a cell elsewhere
    is not refused.
    """
    if speed_mm_s <= 0:
        raise ZeroSpeed(f"deposition speed must be positive, got {speed_mm_s}")
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    if not (hf.contains(p0[0], p0[1]) and hf.contains(p1[0], p1[1])):
        raise SegmentOutsideGrid(f"segment {tuple(p0.tolist())} -> {tuple(p1.tolist())} leaves the grid")
    # Compare the ends, not the length: the norm of a distinct but tiny
    # offset (say 1e-200 mm) squares to zero and would read as no segment.
    if np.array_equal(p0, p1):
        raise ZeroLengthSegment(f"deposition segment starts and ends at {tuple(p0.tolist())}")
    length = float(np.linalg.norm(p1 - p0))

    area = params.flow_rate_mm3_s / speed_mm_s
    cs = hf.cell_size
    nominal = hf.nominal_surface
    nozzle = params.nozzle_diameter_mm
    dom = 0 if abs(p1[0] - p0[0]) >= abs(p1[1] - p0[1]) else 1
    if dom == 0:
        i_from, i_to = int(hf.ix_of(p0[0])), int(hf.ix_of(p1[0]))
    else:
        i_from, i_to = int(hf.iy_of(p0[1])), int(hf.iy_of(p1[1]))
    step = 1 if i_to >= i_from else -1
    if not include_end and i_to != i_from:
        i_to -= step
    lo, hi = min(i_from, i_to), max(i_from, i_to) + 1
    lines = np.arange(lo, hi)
    station_area = area * length / (len(lines) * cs)

    # one row per grid line, in ascending index order; contiguous rows,
    # so a row sum rounds like the sum of its own line
    view = hf.heights[:, lo:hi].T if dom == 0 else hf.heights[lo:hi]
    block = np.ascontiguousarray(view)
    before = block.sum(axis=1)
    m, n = block.shape
    o_perp = hf.origin[1 - dom]

    # the nozzle centre's cell on each line
    # distinct ends differ in the dominant axis, so the divisor is never zero;
    # on a segment a few ulps long t overflows, and the clip takes it to an end
    with np.errstate(over="ignore"):
        t = (hf.origin[dom] + lines * cs - p0[dom]) / (p1[dom] - p0[dom])
    t = np.where(t > 1.0, 1.0, np.where(t < 0.0, 0.0, t))
    centre_perp = p0[1 - dom] + t * (p1[1 - dom] - p0[1 - dom])
    j_c = np.clip(np.rint((centre_perp - o_perp) / cs), 0, n - 1).astype(int)

    # the below-surface cell under the nozzle nearest its centre, searched
    # in the order 0, -1, +1, -2, +2, ... so the lower cell wins a tie
    below = block < nominal - 1e-12
    # no cell lies more than n - 1 away, however wide the nozzle
    reach = np.arange(1, min(max(1, math.ceil(nozzle / 2.0 / cs)), n - 1) + 1)
    candidates = j_c[:, None] + np.concatenate(([0], np.column_stack((-reach, reach)).ravel()))
    hit = (candidates >= 0) & (candidates < n) & below[np.arange(m)[:, None], np.clip(candidates, 0, n - 1)]
    wet = np.flatnonzero(hit.any(axis=1))
    j0 = candidates[wet, hit[wet].argmax(axis=1)]

    # flood the contiguous trough run around that cell, rows grouped by run
    # length; only the band of columns holding these rows' below-surface
    # cells, plus one dry column each side, can bound a run
    wet_cols = np.flatnonzero(below[wet].any(axis=0))
    c0, c1 = (max(wet_cols[0] - 1, 0), min(wet_cols[-1] + 2, n)) if wet.size else (0, 0)
    cells = np.arange(c0, c1)
    dry = ~below[wet, c0:c1]
    j_lo = np.where(dry & (cells < j0[:, None]), cells, c0 - 1).max(axis=1, initial=c0 - 1) + 1
    j_hi = np.where(dry & (cells > j0[:, None]), cells, c1).min(axis=1, initial=c1) - 1
    run = j_hi - j_lo + 1
    remaining = np.full(m, station_area)
    for size in np.unique(run):
        of_size = run == size
        at = (wet[of_size][:, None], j_lo[of_size][:, None] + np.arange(size))
        block[at], remaining[wet[of_size]] = _water_fill(block[at], station_area, nominal, cs)

    # cap whatever the trough could not hold, rows grouped by cap size
    cap_centre = centre_perp.copy()
    cap_width = np.full(m, nozzle)
    cap_centre[wet] = o_perp + (j_lo + j_hi) / 2.0 * cs
    trough_width = run * cs
    cap_width[wet] = np.where(nozzle < trough_width, nozzle, trough_width)
    capped = np.flatnonzero(remaining > 1e-12)
    centre, width = cap_centre[capped], cap_width[capped]
    j_first = np.maximum(0, np.ceil((centre - width / 2.0 - o_perp) / cs)).astype(int)
    j_last = np.minimum(n - 1, np.floor((centre + width / 2.0 - o_perp) / cs)).astype(int)
    collapsed = j_last < j_first
    j_first[collapsed] = j_last[collapsed] = j_c[capped[collapsed]]
    span = j_last - j_first + 1
    peak = -math.inf
    for size in np.unique(span):
        of_size = span == size
        at = (capped[of_size][:, None], j_first[of_size][:, None] + np.arange(size))
        offsets = o_perp + at[1] * cs - centre[of_size][:, None]
        cap = block[at] + _caps(offsets, width[of_size], remaining[capped[of_size]], cs)
        block[at] = cap
        peak = max(peak, float(cap.max()))

    if block is not view:  # rows already contiguous in hf were filled in place
        view[...] = block
    # each line's change, summed in travel order
    change = (block.sum(axis=1) - before) * cs * cs
    deposited = np.cumsum(np.concatenate(([0.0], change[::step])))[-1]

    if peak > nominal + MAX_OVERFILL_MM:
        raise Overfill(
            f"deposition at {speed_mm_s:g} mm/s piled a bead more than {MAX_OVERFILL_MM:g} mm above the surface"
        )
    return DepositResult(elapsed_s=length / speed_mm_s, volume_target_mm3=area * length, volume_deposited_mm3=deposited)
