"""Synthetic specimen plates: heightfields, carved cracks, and deposition.

A specimen is a regular grid of surface heights over the robot-frame
xy plane. Cracks are carved as troughs below the nominal surface;
repair material is added by the deposition model, which fills the
local trough bottom-up and piles any excess into a bead cap above the
surface. All lengths are millimetres, areas mm^2, volumes mm^3.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import Overfill, PathOutsideGrid, SegmentOutsideGrid, StationOutsideGrid, ZeroLengthSegment, ZeroSpeed
from .geometry import Orientation

logger = logging.getLogger(__name__)

# Hard sanity bound on how far a bead cap may rise above the nominal
# surface before deposition is considered outside the model's regime.
MAX_OVERFILL_MM = 80.0

Profile = float | Sequence[tuple[float, float]]


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
        return Heightfield(self.origin, self.cell_size, self.nx, self.ny, self.heights.copy(), self.nominal_surface)

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
    orientation: Orientation = Orientation.HORIZONTAL

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
        if seg_len == 0:
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
    that from the path and keeps the nominal height.

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
    dist, s = _path_distance_field(hf.x_of(np.arange(ix0, ix1)), hf.y_of(np.arange(iy0, iy1)), pts)
    near = dist <= half_w
    widths = profile_values(spec.width, s[near])
    depths = profile_values(spec.depth, s[near])
    carved = dist[near] <= widths / 2.0
    rows, cols = np.nonzero(near)
    block[rows[carved], cols[carved]] = nominal_surface - depths[carved]
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
        raise StationOutsideGrid(f"station {tuple(p)} outside grid bounds")

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


def _cap_profile(offsets: np.ndarray, chord: float, area: float) -> np.ndarray:
    """Bead heights above the surface at lateral offsets from the cap centre.

    Up to a semicircle the bead cross-section is a circular segment of
    the given chord; beyond that the extra material is modelled as a
    rectangular riser of the same width under a semicircular cap.
    """
    half = chord / 2.0
    semi_area = math.pi * chord**2 / 8.0
    if area <= semi_area:
        f = lambda th: chord**2 * (th - math.sin(th) * math.cos(th)) / (4.0 * math.sin(th) ** 2) - area
        theta = _brentq(f, 1e-9, math.pi / 2.0)
        radius = chord / (2.0 * math.sin(theta))
        base = radius * math.cos(theta)
        riser = 0.0
    else:
        radius = half
        base = 0.0
        riser = (area - semi_area) / chord
    inside = np.abs(offsets) <= half
    z = np.zeros_like(offsets)
    z[inside] = riser + np.sqrt(np.maximum(radius**2 - offsets[inside] ** 2, 0.0)) - base
    return z


def _water_fill(heights: np.ndarray, budget_area: float, ceiling: float, cell_size: float) -> float:
    """Raise the lowest cells toward the ceiling, spending budget_area (mm^2).

    Mutates heights in place; returns the unspent remainder of the
    budget (positive when the trough fills completely).
    """
    capacity = float(np.maximum(0.0, ceiling - heights).sum() * cell_size)
    if budget_area >= capacity:
        np.maximum(heights, ceiling, out=heights)
        return budget_area - capacity
    h_sorted = np.sort(heights)
    prefix = np.cumsum(h_sorted)
    k = np.arange(1, len(h_sorted) + 1)
    # cost[k - 1]: levelling the k lowest cells up to the next height
    cost = (np.append(h_sorted[1:], np.inf) * k - prefix) * cell_size
    i = int(np.flatnonzero(cost >= budget_area)[0])
    level = budget_area / (cell_size * (i + 1)) + prefix[i] / (i + 1)
    np.maximum(heights, min(level, ceiling), out=heights)
    return 0.0


def deposit(
    hf: Heightfield,
    start: tuple[float, float],
    end: tuple[float, float],
    speed_mm_s: float,
    params: DepositionParams,
    include_end: bool = True,
) -> DepositResult:
    """Extrude along the segment from start to end at constant speed.

    Per unit length the nozzle lays a cross-section of A = Q / speed.
    The material floods the local trough bottom-up; excess forms a bead
    cap above the surface of width min(local trough width, nozzle
    diameter). With include_end false the grid line at the segment's
    far end is left to the following segment, so chained segments touch
    each cross-section exactly once.

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
        raise SegmentOutsideGrid(f"segment {tuple(p0)} -> {tuple(p1)} leaves the grid")
    # Compare the ends, not the length: the norm of a distinct but tiny
    # offset (say 1e-200 mm) squares to zero and would read as no segment.
    if np.array_equal(p0, p1):
        raise ZeroLengthSegment(f"deposition segment starts and ends at {tuple(p0)}")
    length = float(np.linalg.norm(p1 - p0))

    area = params.flow_rate_mm3_s / speed_mm_s
    cs = hf.cell_size
    dom = 0 if abs(p1[0] - p0[0]) >= abs(p1[1] - p0[1]) else 1
    if dom == 0:
        i_from, i_to = int(hf.ix_of(p0[0])), int(hf.ix_of(p1[0]))
    else:
        i_from, i_to = int(hf.iy_of(p0[1])), int(hf.iy_of(p1[1]))
    step = 1 if i_to >= i_from else -1
    stations = list(range(i_from, i_to + step, step))
    if not include_end and len(stations) > 1:
        stations = stations[:-1]

    station_area = area * length / (len(stations) * cs)
    nozzle_half_cells = max(1, math.ceil(params.nozzle_diameter_mm / 2.0 / cs))
    denom = p1[dom] - p0[dom]
    o_line, o_perp = hf.origin[dom], hf.origin[1 - dom]
    n = hf.ny if dom == 0 else hf.nx
    deposited = 0.0
    peak = -math.inf
    for idx in stations:
        t = (o_line + idx * cs - p0[dom]) / denom if denom != 0 else 0.0
        centre_perp = p0[1 - dom] + min(max(t, 0.0), 1.0) * (p1[1 - dom] - p0[1 - dom])
        line = hf.heights[:, idx] if dom == 0 else hf.heights[idx, :]
        j_c = min(max(round((centre_perp - o_perp) / cs), 0), n - 1)
        before = line.sum()

        # locate the contiguous trough run reachable from the nozzle
        below = line < hf.nominal_surface - 1e-12
        lo = max(0, j_c - nozzle_half_cells)
        window = np.flatnonzero(below[lo : j_c + nozzle_half_cells + 1])
        remaining = station_area
        if window.size:
            j0 = lo + int(window[np.argmin(np.abs(window + lo - j_c))])
            dry_lo = np.flatnonzero(~below[:j0])
            dry_hi = np.flatnonzero(~below[j0:])
            j_lo = int(dry_lo[-1]) + 1 if dry_lo.size else 0
            j_hi = j0 + int(dry_hi[0]) - 1 if dry_hi.size else n - 1
            trough_width = (j_hi - j_lo + 1) * cs
            remaining = _water_fill(line[j_lo : j_hi + 1], station_area, hf.nominal_surface, cs)
            cap_centre = o_perp + (j_lo + j_hi) / 2.0 * cs
            cap_width = min(trough_width, params.nozzle_diameter_mm)
        else:
            cap_centre = centre_perp
            cap_width = params.nozzle_diameter_mm

        if remaining > 1e-12:
            j_first = max(0, int(math.ceil((cap_centre - cap_width / 2.0 - o_perp) / cs)))
            j_last = min(n - 1, int(math.floor((cap_centre + cap_width / 2.0 - o_perp) / cs)))
            if j_last < j_first:
                j_first = j_last = j_c
            cells = np.arange(j_first, j_last + 1)
            offsets = o_perp + cells * cs - cap_centre
            z = _cap_profile(offsets, cap_width, remaining)
            total = z.sum() * cs
            if total <= 0:
                z = np.full(cells.shape, remaining / (len(cells) * cs))
            else:
                z *= remaining / total
            cap = line[j_first : j_last + 1]
            cap += z
            peak = max(peak, float(cap.max()))
        deposited += (line.sum() - before) * cs * cs

    if peak > hf.nominal_surface + MAX_OVERFILL_MM:
        raise Overfill(
            f"deposition at {speed_mm_s:g} mm/s piled a bead more than {MAX_OVERFILL_MM:g} mm above the surface"
        )
    return DepositResult(elapsed_s=length / speed_mm_s, volume_target_mm3=area * length, volume_deposited_mm3=deposited)
