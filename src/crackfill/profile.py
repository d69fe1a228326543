"""Laser profile analysis: edge detection, area measurement, calibration.

A crack (or a printed strip) shows up in a laser line as a region
whose first difference carries two large opposite-signed excursions,
one per wall. Edges are located there, the cross-section area is the
unsigned deviation from a robust baseline integrated between them, and
the crack centre is read at the midpoint sample. Edge detection and
measurement take a batch of lines and answer per line, None for a
line without edges.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, NoEdges, NonMonotonicCalibration
from .sensors import LaserProfile

logger = logging.getLogger(__name__)

# Flat-profile rejection must survive sensor noise: first differences of
# iid Gaussian samples have sigma*sqrt(2), and the expected maximum over
# ~1000 samples stays below 6 sigma.
EDGE_THRESHOLD_SIGMA_FACTOR = 6.0
# Fewest samples between the two walls of a crack.
MIN_SEPARATION = 5
# Samples beside the edge window that the baseline leaves out.
BASELINE_MARGIN = 10

# A ramp (sloped wall) spreads one edge over many samples of nearly
# equal first difference; treat everything within this fraction of the
# local extremum as the same wall when locating its outer end.
_PLATEAU_FRACTION = 0.5


@dataclass(frozen=True)
class ProfileFeatures:
    """Measured crack features in one laser profile.

    Indices bound the deviation window (left_index < right_index);
    centre_offset_mm is the lateral position of the crack centre in
    scanner coordinates and centre_height_mm its height relative to
    the baseline (negative inside a trough, positive on a bead).
    """

    left_index: int
    right_index: int
    left_x_mm: float
    right_x_mm: float
    baseline_mm: float
    area_mm2: float
    centre_offset_mm: float
    centre_height_mm: float

    def __post_init__(self) -> None:
        if self.left_index >= self.right_index:
            raise ValueError("left edge must precede right edge")
        if self.area_mm2 < 0:
            raise ValueError("area must be non-negative")


@dataclass(frozen=True)
class CalibrationSample:
    speed_mm_s: float
    area_mm2: float
    std_mm2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed_mm_s) and self.speed_mm_s > 0):
            raise ValueError(f"sample speed must be finite and positive, got {self.speed_mm_s}")
        if not (math.isfinite(self.area_mm2) and math.isfinite(self.std_mm2)):
            raise ValueError(f"sample at {self.speed_mm_s} mm/s has a non-finite area or std")


@dataclass(frozen=True)
class CalibrationModel:
    """Inverse-speed deposition model A(v) = Q / v fitted to strip prints."""

    samples: tuple[CalibrationSample, ...]
    flow_rate_mm3_s: float
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.flow_rate_mm3_s) and self.flow_rate_mm3_s > 0):
            raise ValueError(f"fitted flow rate must be finite and positive, got {self.flow_rate_mm3_s}")
        if not (math.isfinite(self.v_max) and 0 < self.v_min <= self.v_max):
            raise ValueError(f"speed clamp range [{self.v_min}, {self.v_max}] is invalid")

    def to_dict(self) -> dict:
        return {
            "samples": [
                {"speed": s.speed_mm_s, "area": s.area_mm2, "std": s.std_mm2} for s in self.samples
            ],
            "Q": self.flow_rate_mm3_s,
            "v_min": self.v_min,
            "v_max": self.v_max,
        }

    @staticmethod
    def from_dict(d: dict) -> "CalibrationModel":
        samples = tuple(
            CalibrationSample(float(s["speed"]), float(s["area"]), float(s["std"])) for s in d["samples"]
        )
        return CalibrationModel(samples, float(d["Q"]), float(d["v_min"]), float(d["v_max"]))


def row_medians(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """np.median of each row's kept values, bit for bit; NaN for a row that keeps none.

    Each row is sorted with its other entries set to +inf, so its k kept
    values come first. The middle is then averaged the way np.median
    averages it: 0.0 + a for odd k, (0.0 + a + b) / 2 for even k; the
    leading 0.0 turns a -0.0 into 0.0, as np.median does. Values must be
    finite.
    """
    k = keep.sum(axis=1)
    ordered = np.sort(np.where(keep, values, np.inf), axis=1)
    rows = np.arange(len(ordered))
    a, b = ordered[rows, (k - 1) // 2], ordered[rows, k // 2]
    return np.where(k % 2 == 1, 0.0 + b, np.where(k > 0, (0.0 + a + b) / 2, np.nan))


def _plateau_ends(sign: np.ndarray, mag: np.ndarray, start: np.ndarray, direction: int) -> np.ndarray:
    """Walk each line from its first-difference extremum at start to the
    outer end of its wall, one step at a time in direction while the next
    difference (sign and magnitude given) keeps the extremum's sign and at
    least _PLATEAU_FRACTION of its magnitude. The walk stops before the
    first sample that breaks the run, found by argmax over a mask of the
    breaks on that side."""
    rows = np.arange(len(sign))
    on_wall = (sign == sign[rows, start][:, None]) & (mag >= (_PLATEAU_FRACTION * mag[rows, start])[:, None])
    idx = np.arange(sign.shape[1])
    if direction < 0:
        breaks = (~on_wall & (idx < start[:, None]))[:, ::-1]
        return np.where(breaks.any(axis=1), sign.shape[1] - np.argmax(breaks, axis=1), 0)
    breaks = ~on_wall & (idx > start[:, None])
    return np.where(breaks.any(axis=1), np.argmax(breaks, axis=1) - 1, sign.shape[1] - 1)


def _edges(profile: LaserProfile, edge_threshold_mm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lines that show both walls, as opposite-signed first-difference
    extrema above the threshold at least MIN_SEPARATION samples apart, and
    each one's left and right index. Each index is pushed to the outer end
    of its wall's near-equal run, so a ramp resolves to its foot. Every
    step runs on all lines at once."""
    d = np.diff(profile.z, axis=1)
    sign, mag = np.sign(d), np.abs(d)
    pair_valid = profile.valid[:, 1:] & profile.valid[:, :-1]
    rows = np.arange(len(d))
    valid_mag = np.where(pair_valid, mag, -np.inf)
    first = np.argmax(valid_mag, axis=1)
    mag_first = valid_mag[rows, first]
    idx = np.arange(d.shape[1])
    opposite = (
        pair_valid
        & (sign == -sign[rows, first][:, None])
        & (np.abs(idx - first[:, None]) >= MIN_SEPARATION)
    )
    second = np.argmax(np.where(opposite, mag, -np.inf), axis=1)
    found = np.isfinite(mag_first) & (mag_first > edge_threshold_mm) & opposite[rows, second]
    found &= mag[rows, second] > edge_threshold_mm
    lines = np.flatnonzero(found)
    first, second, sign, mag = first[lines], second[lines], sign[lines], mag[lines]
    return (
        lines,
        _plateau_ends(sign, mag, np.minimum(first, second), -1),
        _plateau_ends(sign, mag, np.maximum(first, second), +1),
    )


def window_areas(
    profile: LaserProfile, lines: Sequence[int], lefts: Sequence[int], rights: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Baseline and unsigned deviation area of each window [lefts[i], rights[i]] of line lines[i].

    The baseline is the median valid height outside the window padded by
    BASELINE_MARGIN samples, or of every valid sample when none lies
    outside. The windows of one width are summed as the rows of one
    contiguous block, so each area rounds exactly as its window summed
    on its own.
    """
    lines, lefts, rights = (np.asarray(a, dtype=np.intp) for a in (lines, lefts, rights))
    z, valid = profile.z[lines], profile.valid[lines]
    idx = np.arange(profile.n_points)
    keep = ((idx < lefts[:, None] - BASELINE_MARGIN) | (idx > rights[:, None] + BASELINE_MARGIN)) & valid
    spans = ~keep.any(axis=1)
    for line in lines[spans].tolist():
        logger.warning("line %d: edge window spans the whole profile; baseline falls back to global median", line)
    keep[spans] = valid[spans]
    baselines = row_medians(z, keep)
    areas = np.empty(len(lines))
    widths = rights - lefts + 1
    for width in np.unique(widths).tolist():
        group = np.flatnonzero(widths == width)
        window = z[group[:, None], lefts[group, None] + np.arange(width)]
        areas[group] = np.abs(window - baselines[group, None]).sum(axis=1)
    return baselines, areas * profile.pitch


def measure(profile: LaserProfile, edge_threshold_mm: float) -> list[ProfileFeatures | None]:
    """Measure the crack cross-section of every line, bounded by its detected edges.

    The baseline is the median height outside the edge window padded by
    BASELINE_MARGIN samples; the area integrates unsigned deviation
    from it, so troughs and beads (and mixtures) measure alike (see
    window_areas). Gives one entry per station, None where that line
    shows no edges. Edges, baselines, areas and centres are found for
    all lines at once.
    """
    lines, lefts, rights = _edges(profile, edge_threshold_mm)
    baselines, areas = window_areas(profile, lines, lefts, rights)
    centres = (lefts + rights) // 2
    x = profile.x
    heights = profile.z[lines, centres] - baselines
    features: list[ProfileFeatures | None] = [None] * profile.n_lines
    for line, left, right, baseline, area, centre_x, height in zip(
        *(a.tolist() for a in (lines, lefts, rights, baselines, areas, x[centres], heights))
    ):
        features[line] = ProfileFeatures(
            left_index=left,
            right_index=right,
            left_x_mm=float(x[left]),
            right_x_mm=float(x[right]),
            baseline_mm=baseline,
            area_mm2=area,
            centre_offset_mm=centre_x,
            centre_height_mm=height,
        )
    return features


def calibrate(strip_scans: Sequence[tuple[float, LaserProfile]], edge_threshold_mm: float) -> CalibrationModel:
    """Fit the extrusion model A(v) = Q / v from strip-print scans.

    Each entry pairs a print speed with that strip's batch of lines,
    measured in one call; a speed may appear only once. Per speed the
    area is averaged over the batch's lines; the flow rate is the
    closed-form least squares solution Q = sum(A_i / v_i) / sum(1 / v_i^2)
    over the per-speed means. Needs at least two speeds with two lines
    each, and every line must show edges.
    """
    scans = sorted(((float(speed), profiles) for speed, profiles in strip_scans), key=lambda scan: scan[0])
    if len({speed for speed, _ in scans}) < len(scans):
        raise ValueError(f"calibration takes one strip batch per speed, got {[speed for speed, _ in scans]}")
    if len(scans) < 2:
        raise InsufficientSamples(f"calibration needs >= 2 distinct speeds, got {len(scans)}")
    samples = []
    for speed, profiles in scans:
        if profiles.n_lines < 2:
            raise InsufficientSamples(f"speed {speed} mm/s has {profiles.n_lines} profiles, needs >= 2")
        features = measure(profiles, edge_threshold_mm)
        if None in features:
            raise NoEdges(f"a strip profile at {speed} mm/s shows no edges")
        areas = np.array([f.area_mm2 for f in features])
        samples.append(CalibrationSample(speed, float(areas.mean()), float(areas.std(ddof=1))))
    means = np.array([s.area_mm2 for s in samples])
    if np.any(np.diff(means) >= 0):
        warnings.warn("mean strip areas do not strictly decrease with speed", NonMonotonicCalibration)
    speeds = np.array([s.speed_mm_s for s in samples])
    flow = float(np.sum(means / speeds) / np.sum(1.0 / speeds**2))
    return CalibrationModel(tuple(samples), flow, float(speeds.min()), float(speeds.max()))


def speed_for_area(model: CalibrationModel, area_mm2: float, interpolate: bool = False) -> float:
    """Travel speed that deposits the given cross-section, clamped to the
    calibrated range. Zero area asks for no material: fastest speed.

    By default the fitted constant-flow model v = Q / A is inverted.
    With interpolate=True the per-speed sample means are interpolated
    piecewise-linearly in inverse speed instead, which tracks pumps
    whose flow rate drifts with speed; that needs at least two samples,
    or InsufficientSamples is raised.
    """
    if area_mm2 < 0:
        raise ValueError(f"area must be non-negative, got {area_mm2}")
    if interpolate and len(model.samples) < 2:
        raise InsufficientSamples(f"interpolated speeds need >= 2 calibration samples, got {len(model.samples)}")
    if area_mm2 == 0:
        return model.v_max
    if interpolate:
        order = np.argsort([s.area_mm2 for s in model.samples])
        areas = np.array([model.samples[i].area_mm2 for i in order])
        inv_v = np.array([1.0 / model.samples[i].speed_mm_s for i in order])
        inv = float(np.interp(area_mm2, areas, inv_v))
        return float(np.clip(1.0 / inv, model.v_min, model.v_max))
    return float(np.clip(model.flow_rate_mm3_s / area_mm2, model.v_min, model.v_max))
