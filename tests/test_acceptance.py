"""Acceptance suite covering the pipeline end to end.

Eight checks: profile measurement against analytic cross-sections, strip
calibration self-consistency, the adaptive-versus-fixed-speed experiment,
localization under an injected camera bias, geometry round-trips,
perception invariants, deposition volume conservation, and byte-level
determinism of the experiment artifacts.  Each check prints one
[PASS]/[FAIL] line; run with ``pytest -s`` to see the lines for passing
checks too.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from crackfill import (
    CameraIntrinsics,
    CrackSpec,
    DepthImage,
    Frame,
    LaserProfile,
    PixelCoord,
    Point3,
    RigidTransform,
    ScenarioConfig,
    SensorNoise,
    Waypoint,
    axis_angle_rotation,
    compose,
    experiment_modes,
    extract_pixels,
    generate_specimen,
    invert,
    localization_experiment,
    measure,
    order_path,
    pixel_to_camera,
    refine_waypoints,
    rotation_about_x,
    run_experiment,
    skeletonize,
    space_pixels,
)
import crackfill
from crackfill import cli, repair
from crackfill.sensors import SCANNER_POINTS
from conftest import make_waypoint

FITTED_FLOW_MM3_S = 946.0635673187572
REFERENCE_STRIP_AREAS = {
    6.0: 165.764,
    8.0: 111.977,
    10.0: 91.448,
    15.0: 63.561,
    20.0: 41.713,
}


def reported(number: int, label: str):
    """Print one [PASS]/[FAIL] line per check, then defer to pytest."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {number}. {label}", flush=True)
                raise
            print(f"[PASS] {number}. {label}", flush=True)
            return result

        return wrapper

    return decorate


def default_experiment(cfg, model):
    """The configured fixed-speed sweep plus the adaptive run, on one survey."""
    modes = experiment_modes(cfg.raw["experiment"]["fixed_speeds_mm_s"])
    return run_experiment(cfg.build_scene(), modes, cfg.build_deposition(), cfg.build_noise(), model)


@pytest.fixture(scope="module")
def default_scene_model():
    """Default scenario plus the calibration model its strips produce."""
    cfg = ScenarioConfig.default()
    return cfg, cfg.build_calibration()


@reported(1, "profile measurement matches analytic cross-sections")
def test_profile_measurement_oracle():
    n, span = 1024, 40.0
    x = np.linspace(-span / 2, span / 2, n)
    pitch = span / (n - 1)
    valid = np.ones(n, dtype=bool)
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    for _ in range(200):
        w = rng.uniform(2.0, 20.0)
        d = rng.uniform(0.5, 5.0)
        # whole-sample shifts keep the trough symmetric about the sample
        # grid, so the even-length edge window centres within one pitch
        c = float(rng.integers(-100, 101)) * pitch
        a = np.abs(x - c)
        kind = rng.integers(3)
        if kind == 0:
            z = np.where(a < w / 2, -d, 0.0)
            analytic = w * d
        elif kind == 1:
            z = np.where(a < w / 2, -d * (1.0 - a / (w / 2)), 0.0)
            analytic = w * d / 2
        else:
            wb = w * rng.uniform(0.2, 0.8)
            z = np.zeros(n)
            z[a <= wb / 2] = -d
            ramp = (a > wb / 2) & (a < w / 2)
            z[ramp] = -d * (w / 2 - a[ramp]) / ((w - wb) / 2)
            analytic = (w + wb) / 2 * d
        [feats] = measure(LaserProfile(x.copy(), z[None], valid[None].copy()), edge_threshold_mm=1e-9)
        assert feats.area_mm2 == pytest.approx(analytic, rel=0.02)
        assert abs(feats.centre_offset_mm - c) <= pitch + 1e-12
    assert time.perf_counter() - start < 5.0


@reported(2, "strip calibration recovers the configured flow")
def test_calibration_self_consistency():
    constant = ScenarioConfig.from_dict(
        {
            "deposition": {"flow_rate_mm3_s": 900.0},
            "calibration": {"flow_per_speed_mm3_s": None},
        }
    )
    model = constant.build_calibration()
    assert model.flow_rate_mm3_s == pytest.approx(900.0, rel=0.02)
    areas = [s.area_mm2 for s in model.samples]
    assert all(hi > lo for hi, lo in zip(areas, areas[1:]))

    model = ScenarioConfig.default().build_calibration()
    assert model.flow_rate_mm3_s == pytest.approx(FITTED_FLOW_MM3_S, rel=0.02)
    for sample in model.samples:
        assert sample.area_mm2 == pytest.approx(
            REFERENCE_STRIP_AREAS[sample.speed_mm_s], rel=0.05
        )


@reported(3, "adaptive fill beats every fixed speed on a varying crack")
def test_adaptive_fill_experiment(default_scene_model):
    cfg, model = default_scene_model
    start = time.perf_counter()
    reports = default_experiment(cfg, model)
    wall = time.perf_counter() - start
    fixed, adaptive = reports[:-1], reports[-1]
    assert len(fixed) == 5

    pre = [r.area_pre_mm2 for r in adaptive.records if r.included]
    assert max(pre) / min(pre) >= 3.0

    assert adaptive.mean_fill_error < min(r.mean_fill_error for r in fixed)
    times = [r.elapsed_s for r in fixed]
    assert all(slow > fast for slow, fast in zip(times, times[1:]))
    assert times[0] > adaptive.elapsed_s > times[-1]
    assert wall < 60.0


@reported(4, "laser refinement cancels an injected lateral camera bias")
def test_biased_localization():
    cfg = ScenarioConfig.default()
    n_scans = cfg.raw["localization"]["n_scans"]
    assert n_scans >= 10
    report = localization_experiment(
        cfg.build_scene(localization=True), cfg.build_noise(localization=True), n_scans
    )
    assert report.n_pairs >= 200
    assert report.x.mean_abs_mm >= 8.0
    assert report.y.mean_abs_mm <= 0.5
    pitch = cfg.raw["localization"]["span_mm"] / (SCANNER_POINTS - 1)
    assert report.refined_lateral_max_mm <= 3.0 * pitch


def _random_transform(rng: np.random.Generator) -> RigidTransform:
    rotation = axis_angle_rotation(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
    return RigidTransform(rotation, rng.uniform(-200.0, 200.0, 3))


@reported(5, "geometry round-trips and correction structure hold")
def test_geometry_invariants():
    rng = np.random.default_rng(5)
    intr = CameraIntrinsics(fx=615.0, fy=605.0, px=321.5, py=239.0, image_width=640, image_height=480)
    for _ in range(1000):
        u = rng.uniform(0.0, 639.0)
        v = rng.uniform(0.0, 479.0)
        p = pixel_to_camera(PixelCoord(u, v, rng.uniform(50.0, 2000.0)), intr)
        assert abs(intr.fx * p.x / p.z + intr.px - u) <= 1e-9
        assert abs(intr.fy * p.y / p.z + intr.py - v) <= 1e-9

    for _ in range(200):
        outer = _random_transform(rng)
        inner = _random_transform(rng)
        x = rng.uniform(-500.0, 500.0, 3)
        chained = compose(outer, inner)
        assert np.allclose(chained.apply(x), outer.apply(inner.apply(x)), atol=1e-9)
        assert np.allclose(invert(outer).apply(outer.apply(x)), x, atol=1e-9)
        ident = compose(invert(outer), outer)
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(ident.translation, 0.0, atol=1e-9)

    # Refinement scans across the axis the waypoints spread along and
    # corrects only across it and in height: through the identity mount a
    # crack along y keeps each waypoint's y, one along x its x.
    mount = RigidTransform.identity(Frame.LASER, Frame.ROBOT)
    along_y = generate_specimen(
        CrackSpec(path=[(0.0, 10.0), (0.0, 90.0)], width=8.0, depth=5.0), origin=(-30.0, 0.0), cell_size=0.1, nx=600, ny=1000
    )
    along_x = generate_specimen(
        CrackSpec(path=[(10.0, 0.0), (90.0, 0.0)], width=8.0, depth=5.0), origin=(0.0, -30.0), cell_size=0.1, nx=1000, ny=600
    )
    for hf, swap in ((along_y, False), (along_x, True)):
        across = rng.uniform(-3.0, 3.0, 200)
        along = rng.uniform(20.0, 80.0, 200)
        heights = rng.uniform(-6.0, -4.0, 200)
        waypoints = [make_waypoint(b, a, z) if swap else make_waypoint(a, b, z) for a, b, z in zip(across, along, heights)]
        result = refine_waypoints(waypoints, hf, laser_mount=mount, noise=SensorNoise.noiseless())
        assert result.dropped == 0
        for wp, feats in zip(result.waypoints, result.features, strict=True):
            robot, refined = wp.robot_pt, wp.refined_robot_pt
            c_x, c_y = feats.centre_offset_mm, feats.centre_height_mm + feats.baseline_mm
            assert refined.frame is Frame.ROBOT
            if swap:
                assert refined.x == robot.x
                assert (refined.y, refined.z) == (robot.y + c_x, robot.z + c_y)
            else:
                assert refined.y == robot.y
                assert (refined.x, refined.z) == (robot.x + c_x, robot.z + c_y)


def _blob_mask(rng: np.random.Generator, size: int = 64) -> np.ndarray:
    """Union of one to three random rotated ellipses, clear of the border."""
    yy, xx = np.indices((size, size), dtype=float)
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(16.0, size - 16.0, 2)
        sa, sb = rng.uniform(3.0, 12.0, 2)
        theta = rng.uniform(0.0, np.pi)
        u = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
        v = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
        mask |= (u / sa) ** 2 + (v / sb) ** 2 <= 1.0
    return mask


@reported(6, "skeletons stay thin, spacing holds, ordering is monotone")
def test_perception_invariants():
    rng = np.random.default_rng(6)
    size = 64
    spacing = 6.0
    depth = DepthImage(np.full((size, size), 500.0), np.ones((size, size), dtype=bool))
    for _ in range(50):
        mask = _blob_mask(rng, size)
        skel = skeletonize(mask)
        flags = skel.flags
        assert not flags[~mask].any()
        blocks = flags[:-1, :-1] & flags[1:, :-1] & flags[:-1, 1:] & flags[1:, 1:]
        assert not blocks.any()
        assert np.array_equal(skeletonize(flags).flags, flags)

        pts = extract_pixels(space_pixels(skel, min_spacing_px=spacing), depth)
        assert pts
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                assert (p.u - q.u) ** 2 + (p.v - q.v) ** 2 >= spacing**2

    waypoints = []
    for _ in range(20):
        pt = Point3(float(rng.uniform(-5, 5)), float(rng.uniform(0, 200)), 0.0, Frame.ROBOT)
        waypoints.append(Waypoint(pixel=PixelCoord(0.0, 0.0, 500.0), camera_pt=pt, robot_pt=pt))
    ordered = order_path(waypoints)
    ys = [wp.position().y for wp in ordered]
    assert ys == sorted(ys)
    assert sorted(map(id, ordered)) == sorted(map(id, waypoints))


@reported(7, "every deposition conserves its commanded volume")
def test_deposit_volume_conservation(default_scene_model, monkeypatch):
    cfg, model = default_scene_model
    real_execute_fill = repair.execute_fill
    calls: list[tuple[float, float]] = []

    def recording(*args, **kwargs):
        result = real_execute_fill(*args, **kwargs)
        calls.extend((seg.volume_target_mm3, seg.volume_deposited_mm3) for seg in result.segments)
        return result

    monkeypatch.setattr(repair, "execute_fill", recording)
    default_experiment(cfg, model)
    assert len(calls) >= 100
    for target, deposited in calls:
        assert deposited == pytest.approx(target, rel=0.005)


EXPERIMENT_CONFIG = {
    "camera": {"position_mm": [0.0, 60.0, 500.0]},
    "grid": {"ny": 1200},
    "crack": {
        "path_mm": [[0.0, 10.0], [0.0, 110.0]],
        "width_mm": [[0.0, 10.0], [100.0, 16.0]],
        "depth_mm": [[0.0, 5.0], [100.0, 9.5]],
    },
    "calibration": {
        "speeds_mm_s": [6.0, 10.0, 20.0],
        "strip_length_mm": 80.0,
        "scan_length_mm": 40.0,
    },
    "experiment": {"fixed_speeds_mm_s": [6.0, 10.0, 20.0]},
    # the default localization crack is longer than this grid
    "localization": {
        "crack": {
            "path_mm": [[0.0, 10.0], [0.0, 110.0]],
            "width_mm": 8.0,
            "depth_mm": 5.0,
        },
    },
}


@reported(8, "repeated experiment runs are byte-identical")
def test_experiment_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(EXPERIMENT_CONFIG))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", str(cfg_path), "--out", str(out_a), "experiment"]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(out_b), "experiment"]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# An adaptive fill of a crack along robot x: deposition walks strided columns
# of the heightfield instead of rows, and the laser scans along robot y
# because the perceived waypoints spread along x.
CRACK_ALONG_X_CONFIG = {
    "camera": {"position_mm": [0.0, 60.0, 500.0]},
    "grid": {"origin_mm": [-70.0, 30.0], "nx": 1400, "ny": 600},
    "crack": {
        "path_mm": [[-55.0, 60.0], [55.0, 60.0]],
        "width_mm": [[0.0, 10.0], [110.0, 16.0]],
        "depth_mm": [[0.0, 5.0], [110.0, 9.5]],
    },
    "calibration": EXPERIMENT_CONFIG["calibration"],
}

# A 45 degree crack on a small grid: its fill path's runs alternate axes, so
# every run after the first is laid on the plate as the runs before it left it.
DIAGONAL_CONFIG = {
    "seed": 3,
    "camera": {"position_mm": [0.0, 75.0, 500.0]},
    "grid": {"origin_mm": [-40.0, 35.0], "nx": 800, "ny": 800},
    "crack": {"path_mm": [[-15.0, 60.0], [15.0, 90.0]], "width_mm": 8.0, "depth_mm": 5.0},
    "calibration": EXPERIMENT_CONFIG["calibration"],
    "experiment": EXPERIMENT_CONFIG["experiment"],
}

# The camera of EXPERIMENT_CONFIG turned 20 degrees about robot x, so it looks
# obliquely toward +y: rays cross the trough's walls and keep moving after
# their first fixed-point step, and the image's far rows miss the grid.
TILTED_CONFIG = {
    **EXPERIMENT_CONFIG,
    "camera": {
        **EXPERIMENT_CONFIG["camera"],
        "rotation": (rotation_about_x(np.radians(20.0)) @ np.diag([1.0, -1.0, -1.0])).ravel().tolist(),
    },
}


def test_the_diagonal_crack_fills_in_several_runs():
    """Its pinned experiment covers runs laid after the first, which are
    surveyed on the plate as the fill reaches them."""
    cfg = ScenarioConfig.from_dict(DIAGONAL_CONFIG)
    scene = cfg.build_scene()
    surveyed = repair.survey(scene, repair.image_specimen(scene, scene.build_specimen()), cfg.build_noise())
    assert [run.dom for run in surveyed.layout.runs] == [0, 1, 0, 1, 0]


def test_refinement_keeps_perception_order(monkeypatch):
    """Perception fixes the travel order and no later stage sorts again, so
    the pinned bytes hold only while refined points stay in the order that
    order_path would give them: on the default scene, a crack along x and
    every scan of the default localization study."""
    surveys = []
    real_survey = repair.survey

    def recording(*args, **kwargs):
        surveys.append(real_survey(*args, **kwargs))
        return surveys[-1]

    monkeypatch.setattr(repair, "survey", recording)
    for cfg in (ScenarioConfig.default(), ScenarioConfig.from_dict(CRACK_ALONG_X_CONFIG)):
        scene = cfg.build_scene()
        repair.survey(scene, repair.image_specimen(scene, scene.build_specimen()), cfg.build_noise())
    cfg = ScenarioConfig.default()
    n_scans = cfg.raw["localization"]["n_scans"]
    localization_experiment(cfg.build_scene(localization=True), cfg.build_noise(localization=True), n_scans)
    assert len(surveys) == 2 + n_scans
    for surveyed in surveys:
        refined = list(surveyed.refinement.waypoints)
        assert order_path(refined) == refined


# The scenario files a pinned run can name with --config; the others read
# scenario.json. In no_station_qualifies.json every station's pre-fill area
# is below the floor, so the fill statistics are empty cells and nulls.
SCENARIO_FILES = {
    "scenario.json": EXPERIMENT_CONFIG,
    "crack_along_x.json": CRACK_ALONG_X_CONFIG,
    "no_station_qualifies.json": {**EXPERIMENT_CONFIG, "fill": {"area_floor_mm2": 1000}},
    "diagonal.json": DIAGONAL_CONFIG,
    "tilted.json": TILTED_CONFIG,
}

# sha256 of every artifact each subcommand writes for EXPERIMENT_CONFIG at the
# default seed. Recorded before perception was split from repair (one survey
# shared by every fill mode); any change to these bytes must be deliberate.
ARTIFACT_DIGESTS = {
    ("calibrate",): {
        "calibration.json": "d934ea59e158254005b72baa0dc253f435336a0e2aab68c5fbca9e2b7de6299f",
        "calibration_areas.csv": "5f7e9386ac78958bee5c9e1ec25352985dbb8278f1c09538d70431dbd0c26c99",
    },
    ("scan",): {
        "depth.pgm": "6820aee80834add3ec14923d0ff7ca7a400b93e57c98cf3857d638d909962a34",
        "mask.pgm": "31d1f0c27c1263c9f64e21e8ba9f269c5773ddd5e6a852a73d80cd8846ffd3af",
        "skeleton.pgm": "567e793a1cb4673f0b78fc6a74b334d3430efffb01e128c72e7a1ca5ee6be6a9",
        "waypoints.csv": "5c7cd9f8f3274c1ed399d33b8f182ddb58e3940b3f336bd84ad247ddc4fd52b9",
    },
    ("fill",): {
        "fill_report.csv": "9cd3d95d1cfbe8dd392ece83c6aaf23363b9998414ef615c546fe93af0c22c3d",
        "fill_summary.json": "357c5fb75ad9655b8c7aebf040150f608683c4ca805af86ff0260949c30c9730",
        "surface_post.pgm": "61456477abc85288a6f64d754a408edee58885961395e02a01156e95c5a5900a",
        "surface_pre.pgm": "e40d0a311e7ac6f669cc0fda1d54b8a7ceaa5d6daf6c00125abed4d13a116a8d",
        "waypoints.csv": "42c6449fe970320a2e03f095d017f5215156c4cc6850dfa6d87d6fed6fe77164",
    },
    ("experiment",): {
        "experiment.csv": "612b60718c90e70d92dc8b5bde24d6a9b22e709ed148fba5b5572fb522b6038b",
    },
    ("--parallel", "2", "experiment"): {
        "experiment.csv": "612b60718c90e70d92dc8b5bde24d6a9b22e709ed148fba5b5572fb522b6038b",
    },
    # recorded before the specimen was imaged once for all localization scans
    ("localize",): {
        "localization.json": "3380b66958dc67cfc99b1c9cefd0718068846e394e9aded07c378953c282bd7e",
    },
    # recorded while deposit still ran Python over each grid line
    ("--config", "crack_along_x.json", "fill"): {
        "fill_report.csv": "b82f1c1655a05278bd5b80691b7feab5fbf2499a5cbbbd566ea10c2713e7b643",
        "fill_summary.json": "fbe65e6694e44461a7c08616d85232bc0b7754bbcb9a37d9fad7b81644624a11",
        "surface_post.pgm": "699178122f43e554985c962887c19e2d54ad46e1184e955b14168e07d7efb515",
        "surface_pre.pgm": "567fb0513c71d0a65863607416d4e8a5e44cabd8903072a0df28f07c8124a33d",
        "waypoints.csv": "2d8469fc168a499ba92236f0650065bbbd61ee85ad460802d95752e21a0ee60e",
    },
    # recorded while each report wrote its own CSV and JSON
    ("--config", "no_station_qualifies.json", "fill"): {
        "fill_report.csv": "911048815cdc175bd81435e342239213791da73002e2df72885a9f21dc68b359",
        "fill_summary.json": "aaf443497e1f3642910761acc4c294d83eed644fedf50478f1da364a6b4d4de7",
        "surface_post.pgm": "61456477abc85288a6f64d754a408edee58885961395e02a01156e95c5a5900a",
        "surface_pre.pgm": "e40d0a311e7ac6f669cc0fda1d54b8a7ceaa5d6daf6c00125abed4d13a116a8d",
        "waypoints.csv": "42c6449fe970320a2e03f095d017f5215156c4cc6850dfa6d87d6fed6fe77164",
    },
    ("--config", "no_station_qualifies.json", "experiment"): {
        "experiment.csv": "8a314f10c425d7108adb1c1370b7df885e8070176943c058224c41046f2b9ecf",
    },
    # recorded while a layout still surveyed every run no earlier run could write on
    ("--config", "diagonal.json", "experiment"): {
        "experiment.csv": "534834269cbc624d8dd3b8723521de5d58bc463cfea7faf9fe6aac74a100d64f",
    },
    # recorded while every fill still laid its path on a copy of the whole plate;
    # surface_post.pgm spans a five-run path's box on both axes
    ("--config", "diagonal.json", "fill"): {
        "fill_report.csv": "a254ee9f352d1c65e2dd15b362d9b6fa0b1a90378488de0e77fe47cb92ab2411",
        "fill_summary.json": "5408847fcf47d6718505b1ee706783acd4079e0f6598ca7a1a01ab1a8ed3d6aa",
        "surface_post.pgm": "3c32932944060ecedb4bf8bffdc8908e7e22a833ca341fb8206b306a0b40b045",
        "surface_pre.pgm": "2d3e3bde3c3fae6b01836e6272ae0f351cd6e6b847361b07cf06e5cca432d4de",
        "waypoints.csv": "4bf4157e0eae31874c686dc2b93107f78efc7f37dd23af44cca520aa76db6256",
    },
    # recorded while the raycast still took a second pass over every ray for
    # its validity and mask, and the surface PGMs quantized every cell
    ("--config", "tilted.json", "scan"): {
        "depth.pgm": "dc07b724a9b11f0e921fb5d21209e6983f71032e6eb436fda5ef99406addce70",
        "mask.pgm": "4a15202bc80fca83cbd1e539f14c397b8ac1006ac2504a076879642fd31851ee",
        "skeleton.pgm": "c67ef36ef0b813dafc1d61f34a3103dc36a1cb528b3e1efab7de819bd1289543",
        "waypoints.csv": "064f7a1706d5dc7318ce178a16871fa6f46fa0d5e12bcf000b5b44b7b1f0c2b3",
    },
    ("--config", "tilted.json", "fill"): {
        "fill_report.csv": "ab422ebb17e87e860462488a44b8a0367d965f5f04c24d417c6826ef559502e9",
        "fill_summary.json": "e3b37e3c7549318963ae7873a0259148b06322a475e1de5984d38fc3ea96d574",
        "surface_post.pgm": "60898857d942c1cc7f72deb0f3654d2b6b132d46a5cc68e96d65f4b6a331c7b4",
        "surface_pre.pgm": "e40d0a311e7ac6f669cc0fda1d54b8a7ceaa5d6daf6c00125abed4d13a116a8d",
        "waypoints.csv": "1f0a27e95758fa760fe1b750664b6c5ea317a1a8615b24678795fe13b5217238",
    },
}


@pytest.mark.parametrize("argv", list(ARTIFACT_DIGESTS), ids=" ".join)
def test_artifact_digests_are_pinned(tmp_path, monkeypatch, argv):
    for name, data in SCENARIO_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    config = [] if "--config" in argv else ["--config", "scenario.json"]
    out = tmp_path / "out"
    assert cli.main([*config, "--out", str(out), *argv]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == ARTIFACT_DIGESTS[argv]


@pytest.mark.parametrize(
    "scenario, orientation, argv",
    [(EXPERIMENT_CONFIG, "vertical", ("fill",)), (CRACK_ALONG_X_CONFIG, "horizontal", ("--config", "crack_along_x.json", "fill"))],
    ids=["along y", "along x"],
)
def test_crack_orientation_key_is_ignored(tmp_path, scenario, orientation, argv):
    """crack.orientation is accepted and read by nothing: the laser scans
    across the axis perception finds, so each crack keyed with the other
    axis's value fills to the bytes pinned for it without the key."""
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({**scenario, "crack": {**scenario["crack"], "orientation": orientation}}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "fill"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == ARTIFACT_DIGESTS[argv]


def test_fill_runs_on_numpy_alone(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter in which
    scipy cannot be imported runs `fill` and writes the pinned artifacts."""
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(EXPERIMENT_CONFIG))
    out = tmp_path / "out"
    src = str(Path(crackfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys; sys.modules['scipy'] = None; from crackfill import cli; sys.exit(cli.main(sys.argv[1:]))"
    argv = ["--config", str(cfg_path), "--out", str(out), "fill"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == ARTIFACT_DIGESTS[("fill",)]
