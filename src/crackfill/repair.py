"""Repair pipeline: laser refinement, fill planning, execution, validation.

This module wires the perception, profiling, and deposition layers into
the full repair loop. A survey finds RGB-D waypoints and corrects them by
laser line scans; a repair fills a copy of the surveyed specimen (a fill
plan assigns per-segment speeds, adaptive or fixed, the extruder executes
it) and a post-fill rescan at the same stations scores the fill error per
station. The two experiment drivers at the bottom reproduce the
localization-accuracy and adaptive-versus-fixed comparisons end to end.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import AllPointsDropped, EmptyWaypoints, ProviderUnavailable
from .geometry import (
    CameraIntrinsics,
    Frame,
    Point3,
    RigidTransform,
    compose,
    transform_point,
)
from .perception import (
    DEFAULT_MIN_SPACING_PX,
    Skeleton,
    Waypoint,
    extract_pixels,
    order_path,
    pixels_to_robot,
    runs_along_x,
    skeletonize,
    space_pixels,
)
from .profile import (
    CalibrationModel,
    EDGE_THRESHOLD_SIGMA_FACTOR,
    ProfileFeatures,
    measure,
    speed_for_area,
    window_area,
)
from .sensors import (
    DEFAULT_MASK_THRESHOLD_MM,
    NOISE_STREAMS,
    SCANNER_STANDOFF_MM,
    DepthImage,
    MaskImage,
    SensorNoise,
    add_depth_noise,
    render_view,
    scan_profile,
)
from .specimen import CrackSpec, DepositionParams, DepositResult, Heightfield, deposit, generate_specimen

logger = logging.getLogger(__name__)

DEFAULT_AREA_FLOOR_MM2 = 1.0
DEFAULT_SCAN_SPAN_MM = 40.0

# An exact quarter turn about z, which lays the scan line along the mount's
# y axis; rotation_about_z(pi / 2) would leave 6e-17 in its zero terms.
_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def edge_threshold_for(noise: SensorNoise) -> float:
    """Edge rejection threshold adapted to the configured laser noise."""
    if noise.laser_sigma_mm <= 0:
        return 1e-9
    return EDGE_THRESHOLD_SIGMA_FACTOR * noise.laser_sigma_mm


def fill_error(area_pre_mm2: float, area_post_mm2: float) -> float:
    """Absolute normalized residual |A_post / A_pre| of one station."""
    return abs(area_post_mm2 / area_pre_mm2)


@dataclass(frozen=True)
class RefinementResult:
    """Survivors of the laser refinement pass, in perception's travel order.

    waypoints[i] was measured as features[i] by the scan at stations[i],
    the scanner pose whose line runs along its x axis; a station's number
    is its position here. Every station was scanned with one span_mm and
    standoff_mm, so validate can rescan them all as they were taken.
    """

    waypoints: tuple[Waypoint, ...]
    features: tuple[ProfileFeatures, ...]
    stations: tuple[RigidTransform, ...]
    span_mm: float
    standoff_mm: float
    dropped: int


@dataclass(frozen=True)
class FillMode:
    """Speed policy for a fill: calibrated-adaptive or constant.

    An adaptive mode with interpolate set reads speeds off the calibration
    samples instead of the fitted flow (see speed_for_area).
    """

    kind: str
    fixed_speed_mm_s: float | None = None
    interpolate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("adaptive", "fixed"):
            raise ValueError(f"unknown fill mode {self.kind!r}")
        if self.kind == "fixed" and (self.fixed_speed_mm_s is None or self.fixed_speed_mm_s <= 0):
            raise ValueError("fixed mode needs a positive speed")
        if self.kind == "fixed" and self.interpolate:
            raise ValueError("only adaptive mode interpolates")

    @staticmethod
    def adaptive(interpolate: bool = False) -> "FillMode":
        return FillMode(kind="adaptive", interpolate=interpolate)

    @staticmethod
    def fixed(speed_mm_s: float) -> "FillMode":
        return FillMode(kind="fixed", fixed_speed_mm_s=speed_mm_s)

    def label(self) -> str:
        if self.kind == "adaptive":
            return "adaptive"
        return f"{self.fixed_speed_mm_s:g}"


@dataclass(frozen=True)
class FillPlan:
    """Ordered waypoints with per-segment speeds already assigned."""

    waypoints: tuple[Waypoint, ...]
    mode: FillMode


@dataclass(frozen=True)
class ExecutionResult:
    elapsed_s: float
    segments: tuple[DepositResult, ...]


@dataclass(frozen=True)
class StationRecord:
    station: int
    area_pre_mm2: float
    area_post_mm2: float
    fill_error: float | None
    speed_mm_s: float
    included: bool


@dataclass(frozen=True)
class FillReport:
    """Per-station fill errors and their summary statistics."""

    records: tuple[StationRecord, ...]
    mean_fill_error: float
    std_fill_error: float
    median_fill_error: float
    elapsed_s: float
    mode: FillMode

    def included_errors(self) -> list[float]:
        return [r.fill_error for r in self.records if r.included]

    def to_csv(self, path) -> None:
        from . import io as _io

        with open(path, "w", newline="\n") as f:
            f.write("station,area_pre_mm2,area_post_mm2,fill_error,speed_mm_s\n")
            for r in self.records:
                f.write(
                    f"{r.station},{_io.fmt(r.area_pre_mm2)},{_io.fmt(r.area_post_mm2)},"
                    f"{_io.fmt_cell(r.fill_error)},{_io.fmt(r.speed_mm_s)}\n"
                )

    def summary_dict(self) -> dict:
        return {
            "mean": self.mean_fill_error,
            "std": self.std_fill_error,
            "median": self.median_fill_error,
            "time_s": self.elapsed_s,
            "mode": self.mode.label(),
        }

    def to_json(self, path) -> None:
        from . import io as _io

        _io.write_json(path, self.summary_dict())


@dataclass(frozen=True)
class AxisStats:
    mean_abs_mm: float
    std_mm: float


@dataclass(frozen=True)
class LocalizationReport:
    """Aggregate gap between RGB-D-only and laser-refined coordinates."""

    x: AxisStats
    y: AxisStats
    z: AxisStats
    mean_distance_mm: float
    n_pairs: int
    refined_lateral_mean_mm: float
    refined_lateral_max_mm: float

    def to_dict(self) -> dict:
        return {
            "X": {"average_difference_mm": self.x.mean_abs_mm, "std_dev_mm": self.x.std_mm},
            "Y": {"average_difference_mm": self.y.mean_abs_mm, "std_dev_mm": self.y.std_mm},
            "Z": {"average_difference_mm": self.z.mean_abs_mm, "std_dev_mm": self.z.std_mm},
            "Distance": {"average_difference_mm": self.mean_distance_mm},
            "n_pairs": self.n_pairs,
            "diagnostics": {
                "refined_lateral_mean_mm": self.refined_lateral_mean_mm,
                "refined_lateral_max_mm": self.refined_lateral_max_mm,
            },
        }

    def to_json(self, path) -> None:
        from . import io as _io

        _io.write_json(path, self.to_dict())


@dataclass(frozen=True)
class RepairScene:
    """Everything needed to rebuild the specimen and run the sensors.

    crack may be None for an undamaged specimen; the pipeline then
    fails with EmptyPath at perception, which is the expected outcome.
    The scene holds no scan axis: refinement scans across the axis the
    perceived waypoints run along.
    """

    crack: CrackSpec | None
    grid_origin: tuple[float, float]
    cell_size_mm: float
    nx: int
    ny: int
    intrinsics: CameraIntrinsics
    camera_pose: RigidTransform
    laser_mount: RigidTransform
    nominal_surface_mm: float = 0.0
    scan_span_mm: float = DEFAULT_SCAN_SPAN_MM
    scan_standoff_mm: float = SCANNER_STANDOFF_MM
    min_spacing_px: float = DEFAULT_MIN_SPACING_PX
    mask_threshold_mm: float = DEFAULT_MASK_THRESHOLD_MM
    area_floor_mm2: float = DEFAULT_AREA_FLOOR_MM2

    def build_specimen(self) -> Heightfield:
        if self.crack is None:
            return Heightfield.flat(
                self.grid_origin, self.cell_size_mm, self.nx, self.ny, self.nominal_surface_mm
            )
        return generate_specimen(
            self.crack,
            origin=self.grid_origin,
            cell_size=self.cell_size_mm,
            nx=self.nx,
            ny=self.ny,
            nominal_surface=self.nominal_surface_mm,
        )


@dataclass(frozen=True)
class SpecimenView:
    """The noise-free camera view of one specimen, imaged once.

    Holds one raycast's clean depth, the crack mask, its skeleton and
    the skeleton pixels kept at the scene's minimum spacing. Every scan
    of the specimen reuses them: only the depth jitter and the camera
    mount used for back-projection differ between scans. specimen and
    every array here are read-only.
    """

    specimen: Heightfield
    depth: DepthImage
    mask: MaskImage
    skeleton: Skeleton
    pixels: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PerceptionResult:
    """One scan's noisy depth and its waypoints; mask and skeleton are the view's."""

    depth: DepthImage
    waypoints: tuple[Waypoint, ...]


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def image_specimen(scene: RepairScene, specimen: Heightfield, mask: MaskImage | None = None) -> SpecimenView:
    """Image the specimen once through the true camera mount.

    One raycast gives the clean depth and the ground-truth mask, which
    an external segmentation mask replaces when given. That mask must
    match the camera image size.
    """
    specimen = replace(specimen, heights=_read_only(specimen.heights))
    depth, truth = render_view(specimen, scene.intrinsics, scene.camera_pose, scene.mask_threshold_mm)
    if mask is None:
        mask = truth
    elif mask.flags.shape != depth.depth_mm.shape:
        (h, w), (image_h, image_w) = mask.flags.shape, depth.depth_mm.shape
        raise ProviderUnavailable(f"mask is {w}x{h} pixels but the camera image is {image_w}x{image_h}")
    skeleton = skeletonize(mask)
    return SpecimenView(
        specimen=specimen,
        depth=DepthImage(_read_only(depth.depth_mm), _read_only(depth.valid)),
        mask=MaskImage(_read_only(mask.flags)),
        skeleton=Skeleton(_read_only(skeleton.flags)),
        pixels=space_pixels(skeleton, scene.min_spacing_px),
    )


def perceive_view(scene: RepairScene, view: SpecimenView, noise: SensorNoise) -> PerceptionResult:
    """One RGB-D localization scan of an imaged specimen.

    The scan reads the view's depth with fresh noise, attaches it to the
    view's spaced skeleton pixels, and back-projects them through the
    camera mount perturbed by the noise model's extrinsic bias, exactly
    like a miscalibrated hand-eye transform would.
    """
    depth = add_depth_noise(view.depth, noise)
    pixels = extract_pixels(view.pixels, depth)
    pose_used = scene.camera_pose
    if noise.extrinsic_bias is not None:
        pose_used = compose(noise.extrinsic_bias, scene.camera_pose)
    waypoints = pixels_to_robot(pixels, scene.intrinsics, pose_used)
    return PerceptionResult(depth=depth, waypoints=tuple(order_path(waypoints)))


def perceive(scene: RepairScene, hf: Heightfield, noise: SensorNoise, mask: MaskImage | None = None) -> PerceptionResult:
    """Run the RGB-D localization chain once on the current surface."""
    return perceive_view(scene, image_specimen(scene, hf, mask), noise)


def refine_waypoints(
    waypoints: list[Waypoint],
    hf: Heightfield,
    *,
    laser_mount: RigidTransform,
    span_mm: float = DEFAULT_SCAN_SPAN_MM,
    standoff_mm: float = SCANNER_STANDOFF_MM,
    noise: SensorNoise,
) -> RefinementResult:
    """Correct each waypoint with a laser line scan across the crack.

    The crack runs along the waypoints' larger x/y extent, the axis
    order_path sorts them by (see runs_along_x). The scanner parks
    above each RGB-D-derived point and profiles the crack across that
    axis: along the laser mount's x axis for a crack along robot y, and
    along the mount turned a quarter about z, its y axis, for a crack
    along x. A lone waypoint has no extent and counts as running along
    x, so it is scanned along the mount's y axis. The measured centre
    offsets (lateral and height) are mapped through the turned mount
    into a robot-frame correction added to a new copy of the waypoint.
    Waypoints whose scan shows no crack are dropped with a warning; if
    none survive AllPointsDropped is raised. Survivors keep the input's
    travel order.
    """
    threshold = edge_threshold_for(noise)
    points = [wp.robot_pt for wp in waypoints]
    turn = _QUARTER_TURN if points and runs_along_x(points) else np.eye(3)
    mount = RigidTransform(laser_mount.rotation @ turn, laser_mount.translation, Frame.LASER, Frame.ROBOT)
    m = mount.translation
    stations = [mount.at([p.x + m[0], p.y + m[1], p.z + m[2] + standoff_mm]) for p in points]
    profiles = scan_profile(
        hf,
        stations,
        span_mm,
        [noise.derive(NOISE_STREAMS["refine"], i) for i in range(len(stations))],
        standoff_mm=standoff_mm,
    )
    survivors: list[tuple[Waypoint, ProfileFeatures, RigidTransform]] = []
    for i, (wp, feats, station) in enumerate(zip(waypoints, measure(profiles, threshold), stations)):
        if feats is None:
            logger.warning("waypoint %d: no crack under the laser, dropping", i)
            continue
        # The height correction is the crack centre's position relative to
        # the scanner's reference plane (centre height is reported relative
        # to the local baseline, so the baseline is added back). Parked on
        # a perfectly localized waypoint the scanner reads zero and the
        # correction vanishes; any RGB-D depth error shows up here and is
        # cancelled.
        height = feats.centre_height_mm + feats.baseline_mm
        corr_robot = transform_point(Point3(feats.centre_offset_mm, 0.0, height, Frame.LASER), mount, Frame.ROBOT)
        refined = Point3(
            wp.robot_pt.x + corr_robot.x,
            wp.robot_pt.y + corr_robot.y,
            wp.robot_pt.z + corr_robot.z,
            Frame.ROBOT,
        )
        survivors.append((replace(wp, refined_robot_pt=refined, area_mm2=feats.area_mm2), feats, station))
    if not survivors:
        raise AllPointsDropped("laser refinement dropped every waypoint")
    refined_wps, features, stations = zip(*survivors)
    return RefinementResult(
        waypoints=refined_wps,
        features=features,
        stations=stations,
        span_mm=span_mm,
        standoff_mm=standoff_mm,
        dropped=len(waypoints) - len(survivors),
    )


def plan_fill(waypoints: list[Waypoint], mode: FillMode, model: CalibrationModel | None = None) -> FillPlan:
    """Assign a travel speed to each segment, keeping the waypoints' order.

    Adaptive mode converts each waypoint's measured area to a speed via
    the calibration model; fixed mode applies one speed throughout. Input
    from refine_waypoints is in travel order, so plan order equals
    station order.
    """
    if not waypoints:
        raise EmptyWaypoints("cannot plan a fill without waypoints")
    planned = []
    for wp in waypoints:
        if mode.kind == "adaptive":
            if model is None:
                raise ValueError("adaptive fill planning requires a calibration model")
            if wp.area_mm2 is None:
                raise ValueError("adaptive fill planning requires laser-measured areas; run refine_waypoints first")
            speed = speed_for_area(model, wp.area_mm2, mode.interpolate)
        else:
            speed = float(mode.fixed_speed_mm_s)
        planned.append(replace(wp, speed_mm_s=speed))
    return FillPlan(waypoints=tuple(planned), mode=mode)


def execute_fill(hf: Heightfield, plan: FillPlan, params: DepositionParams) -> ExecutionResult:
    """Run the extruder along the planned path, segment by segment.

    Each segment between consecutive waypoints is deposited at the
    starting waypoint's speed; interior segment ends are left to the
    following segment so no cross-section is deposited twice. Elapsed
    time is purge time plus the sum of segment length over speed.
    """
    elapsed = params.purge_time_s
    segments: list[DepositResult] = []
    pts = plan.waypoints
    for i in range(len(pts) - 1):
        a = pts[i].position()
        b = pts[i + 1].position()
        result = deposit(
            hf,
            (a.x, a.y),
            (b.x, b.y),
            pts[i].speed_mm_s,
            params,
            include_end=(i == len(pts) - 2),
        )
        segments.append(result)
        elapsed += result.elapsed_s
    return ExecutionResult(elapsed_s=elapsed, segments=tuple(segments))


def validate(
    refinement: RefinementResult,
    hf_filled: Heightfield,
    *,
    speeds: Sequence[float],
    noise: SensorNoise,
    elapsed_s: float,
    mode: FillMode,
    area_floor_mm2: float = DEFAULT_AREA_FLOOR_MM2,
) -> FillReport:
    """Rescan every pre-fill station of a refinement and score the fill.

    The refinement's stations are rescanned as one batch with its span
    and standoff, and station i is scored against features[i].
    speeds[i] is the planned travel speed at station i; the report
    records it with the station, numbered i. The fill error at a station is
    |post area / pre area| using unsigned deviation areas, so over- and
    under-fill cannot cancel. If the post-fill profile no longer shows
    edges (the fill levelled the surface) the post area integrates the
    residual deviation over the pre-fill window instead. Stations whose pre-fill area is below
    area_floor_mm2 are excluded from the statistics.
    """
    stations, pre_features = refinement.stations, refinement.features
    if not len(stations) == len(pre_features) == len(speeds):
        raise ValueError(
            f"validate needs one pre-fill feature and one speed per station, got {len(stations)} stations, "
            f"{len(pre_features)} features and {len(speeds)} speeds"
        )
    threshold = edge_threshold_for(noise)
    records: list[StationRecord] = []
    errors: list[float] = []
    profiles = scan_profile(
        hf_filled,
        stations,
        refinement.span_mm,
        [noise.derive(NOISE_STREAMS["validate"], number) for number in range(len(stations))],
        standoff_mm=refinement.standoff_mm,
    )
    posts = measure(profiles, threshold)
    for number, (pre, post, speed) in enumerate(zip(pre_features, posts, speeds)):
        if post is not None:
            area_post = post.area_mm2
        else:
            _, area_post = window_area(profiles, number, pre.left_index, pre.right_index)
        included = pre.area_mm2 >= area_floor_mm2
        err = fill_error(pre.area_mm2, area_post) if included else None
        if not included:
            logger.info("station %d excluded from fill statistics: pre area %.3f below floor", number, pre.area_mm2)
        else:
            errors.append(err)
        records.append(
            StationRecord(
                station=number,
                area_pre_mm2=pre.area_mm2,
                area_post_mm2=area_post,
                fill_error=err,
                speed_mm_s=speed,
                included=included,
            )
        )
    if errors:
        mean = float(np.mean(errors))
        std = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
        median = float(np.median(errors))
    else:
        logger.warning("no station qualified for fill statistics")
        mean = std = median = float("nan")
    return FillReport(
        records=tuple(records),
        mean_fill_error=mean,
        std_fill_error=std,
        median_fill_error=median,
        elapsed_s=elapsed_s,
        mode=mode,
    )


@dataclass(frozen=True)
class Survey:
    """One imaged specimen, scanned and laser-refined once.

    Each repair fills a copy of the view's read-only specimen.
    """

    scene: RepairScene
    noise: SensorNoise
    view: SpecimenView
    perception: PerceptionResult
    refinement: RefinementResult

    @property
    def specimen(self) -> Heightfield:
        return self.view.specimen


def survey(scene: RepairScene, view: SpecimenView, noise: SensorNoise) -> Survey:
    """Localize the crack in one scan of the imaged specimen and refine it with the laser."""
    perception = perceive_view(scene, view, noise)
    refinement = refine_waypoints(
        perception.waypoints,
        view.specimen,
        laser_mount=scene.laser_mount,
        span_mm=scene.scan_span_mm,
        standoff_mm=scene.scan_standoff_mm,
        noise=noise,
    )
    return Survey(scene=scene, noise=noise, view=view, perception=perception, refinement=refinement)


@dataclass(frozen=True)
class FillRunArtifacts:
    """Everything one repair produces, for export and inspection."""

    survey: Survey
    plan: FillPlan
    execution: ExecutionResult
    surface_after: Heightfield
    report: FillReport

    @property
    def surface_before(self) -> Heightfield:
        return self.survey.specimen


def repair(
    survey: Survey,
    mode: FillMode,
    params: DepositionParams,
    model: CalibrationModel | None = None,
) -> FillRunArtifacts:
    """Fill a copy of the surveyed specimen under one speed policy and rescan it."""
    hf = survey.specimen.copy()
    plan = plan_fill(survey.refinement.waypoints, mode, model)
    execution = execute_fill(hf, plan, params)
    report = validate(
        survey.refinement,
        hf,
        speeds=[wp.speed_mm_s for wp in plan.waypoints],
        noise=survey.noise,
        elapsed_s=execution.elapsed_s,
        mode=mode,
        area_floor_mm2=survey.scene.area_floor_mm2,
    )
    return FillRunArtifacts(survey=survey, plan=plan, execution=execution, surface_after=hf, report=report)


def run_fill(
    scene: RepairScene,
    mode: FillMode,
    params: DepositionParams,
    noise: SensorNoise,
    model: CalibrationModel | None = None,
    mask: MaskImage | None = None,
) -> FillRunArtifacts:
    """Run the complete repair pipeline once on a fresh specimen."""
    view = image_specimen(scene, scene.build_specimen(), mask)
    return repair(survey(scene, view, noise), mode, params, model)


def experiment_modes(fixed_speeds: Sequence[float], interpolate: bool = False) -> list[FillMode]:
    """The experiment's fill modes: each fixed speed in turn, then adaptive."""
    return [FillMode.fixed(v) for v in fixed_speeds] + [FillMode.adaptive(interpolate)]


def run_experiment(
    scene: RepairScene,
    modes: Sequence[FillMode],
    params: DepositionParams,
    noise: SensorNoise,
    model: CalibrationModel,
    mask: MaskImage | None = None,
) -> list[FillReport]:
    """Survey one fresh specimen, then repair a copy of it under each mode.

    An external segmentation mask, when given, replaces the camera's
    ground-truth mask exactly as in run_fill.
    """
    surveyed = survey(scene, image_specimen(scene, scene.build_specimen(), mask), noise)
    reports = []
    for mode in modes:
        report = repair(surveyed, mode, params, model).report
        reports.append(report)
        logger.info("fill mode %s: mean error %.3f, elapsed %.1f s", mode.label(), report.mean_fill_error, report.elapsed_s)
    return reports


def _distance_to_centreline(path, x: float, y: float) -> float:
    """Lateral distance from (x, y) to the crack centreline.

    The first and last segments are extended past the path endpoints
    because the carved crack reaches half a width beyond them (the end
    caps); a waypoint on a cap is laterally on the centreline even
    though it lies past the path's own extent.
    """
    pts = np.asarray(path, dtype=float)
    n_seg = len(pts) - 1
    best = math.inf
    for i, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        d = b - a
        seg2 = float(d @ d)
        if seg2 == 0:
            continue
        t = ((x - a[0]) * d[0] + (y - a[1]) * d[1]) / seg2
        lo = -math.inf if i == 0 else 0.0
        hi = math.inf if i == n_seg - 1 else 1.0
        t = min(max(t, lo), hi)
        px, py = a + t * d
        best = min(best, math.hypot(x - px, y - py))
    return best


def build_localization_report(
    pairs: list[tuple[Point3, Point3]],
    lateral_errors: list[float],
) -> LocalizationReport:
    """Summarize (RGB-D point, refined point) pairs like a localization table."""
    if not pairs:
        raise EmptyWaypoints("no coordinate pairs to report")
    diffs = np.array([[a.x - b.x, a.y - b.y, a.z - b.z] for a, b in pairs])
    absd = np.abs(diffs)
    std = absd.std(axis=0, ddof=1) if len(pairs) > 1 else np.zeros(3)
    dist = np.linalg.norm(diffs, axis=1)
    lat = np.asarray(lateral_errors, dtype=float)
    return LocalizationReport(
        x=AxisStats(float(absd[:, 0].mean()), float(std[0])),
        y=AxisStats(float(absd[:, 1].mean()), float(std[1])),
        z=AxisStats(float(absd[:, 2].mean()), float(std[2])),
        mean_distance_mm=float(dist.mean()),
        n_pairs=len(pairs),
        refined_lateral_mean_mm=float(lat.mean()) if lat.size else 0.0,
        refined_lateral_max_mm=float(lat.max()) if lat.size else 0.0,
    )


def localization_experiment(scene: RepairScene, noise: SensorNoise, n_scans: int) -> LocalizationReport:
    """Repeatedly localize the same crack and compare RGB-D against laser.

    The specimen is imaged once; each scan reads that view with fresh
    depth noise, extracts and back-projects waypoints (through the
    biased mount when the noise model carries one), refines them with
    the laser, and accumulates per-axis absolute differences. The
    refined points' distance to the true crack centreline is tracked as
    a diagnostic.
    """
    view = image_specimen(scene, scene.build_specimen())
    pairs: list[tuple[Point3, Point3]] = []
    lateral: list[float] = []
    for s in range(n_scans):
        for wp in survey(scene, view, noise.derive(NOISE_STREAMS["localize_scans"], s)).refinement.waypoints:
            pairs.append((wp.robot_pt, wp.refined_robot_pt))
            lateral.append(_distance_to_centreline(scene.crack.path, wp.refined_robot_pt.x, wp.refined_robot_pt.y))
    return build_localization_report(pairs, lateral)
