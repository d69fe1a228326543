"""Repair pipeline tests: refinement pulls offset waypoints back onto the
crack centreline, planning and execution arithmetic is exact, validation
scores and excludes stations correctly, and the localization experiment
is error-free when the sensors are."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from crackfill import (
    AllPointsDropped,
    CalibrationModel,
    CalibrationSample,
    CrackSpec,
    DepositionParams,
    EmptyWaypoints,
    FillMode,
    Frame,
    Heightfield,
    PixelCoord,
    Point3,
    ProfileFeatures,
    RefinementResult,
    RepairScene,
    RigidTransform,
    ScenarioConfig,
    SensorNoise,
    Waypoint,
    build_localization_report,
    edge_threshold_for,
    execute_fill,
    experiment_modes,
    fill_error,
    localization_experiment,
    perceive,
    plan_fill,
    refine_waypoints,
    run_experiment,
    run_fill,
    validate,
)
from crackfill import repair
from crackfill.geometry import CameraIntrinsics, rotation_about_z
from crackfill.repair import _distance_to_centreline
from conftest import camera_pose, counted, down_scan_pose, make_flat, make_rect_crack, make_waypoint

PITCH_40MM = 40.0 / 1023.0


def make_model(flow: float = 946.0635673187572) -> CalibrationModel:
    samples = (
        CalibrationSample(6.0, flow / 6.0, 0.0),
        CalibrationSample(10.0, flow / 10.0, 0.0),
        CalibrationSample(20.0, flow / 20.0, 0.0),
    )
    return CalibrationModel(samples, flow, 6.0, 20.0)


def make_scene(crack: CrackSpec | None, camera_y: float = 75.0, ny: int = 1500) -> RepairScene:
    """Scene wide enough that scans from waypoints offset 10 mm stay on the grid."""
    return RepairScene(
        crack=crack,
        grid_origin=(-45.0, 0.0),
        cell_size_mm=0.1,
        nx=900,
        ny=ny,
        intrinsics=CameraIntrinsics(fx=600.0, fy=600.0, px=320.0, py=240.0, image_width=640, image_height=480),
        camera_pose=camera_pose(height_mm=500.0, y=camera_y),
        laser_mount=RigidTransform.identity(Frame.LASER, Frame.ROBOT),
    )


def level_refinement(features, *origins: tuple[float, float, float]) -> RefinementResult:
    """A refinement whose station i scanned along robot x from origins[i],
    40 mm wide at a 310 mm standoff, and measured features[i]."""
    return RefinementResult(
        waypoints=tuple(make_waypoint(x, y, z - 310.0) for x, y, z in origins),
        features=tuple(features),
        stations=tuple(down_scan_pose(x, y, z) for x, y, z in origins),
        span_mm=40.0,
        standoff_mm=310.0,
        dropped=0,
    )


def straight_crack() -> CrackSpec:
    return CrackSpec(path=[(0.0, 10.0), (0.0, 140.0)], width=8.0, depth=5.0)


class TestSmallHelpers:
    def test_edge_threshold_tracks_laser_sigma(self):
        assert edge_threshold_for(SensorNoise.noiseless()) == 1e-9
        assert edge_threshold_for(SensorNoise(laser_sigma_mm=0.02)) == pytest.approx(0.12)

    def test_fill_error_arithmetic(self):
        assert fill_error(100.0, 30.5) == pytest.approx(0.305)
        assert fill_error(100.0, 0.0) == 0.0
        assert fill_error(100.0, -30.5) == pytest.approx(0.305)

    def test_fill_mode_validation_and_labels(self):
        assert FillMode.adaptive().label() == "adaptive"
        assert FillMode.fixed(10.0).label() == "10"
        assert FillMode.fixed(7.5).label() == "7.5"
        with pytest.raises(ValueError):
            FillMode(kind="banana")
        with pytest.raises(ValueError):
            FillMode(kind="fixed")
        with pytest.raises(ValueError):
            FillMode.fixed(0.0)
        assert FillMode.adaptive(interpolate=True).interpolate
        assert FillMode.adaptive(interpolate=True).label() == "adaptive"
        assert not FillMode.adaptive().interpolate
        with pytest.raises(ValueError):
            FillMode(kind="fixed", fixed_speed_mm_s=10.0, interpolate=True)

    def test_scan_station_pose(self):
        """Each station records the pose it scanned from: the waypoint
        shifted by the mount offset and raised by the standoff, its line
        along the mount's x axis across a crack along robot y and its y
        axis across one along x, the axis the waypoints spread along."""
        along_y = make_scene(straight_crack()).build_specimen()
        along_x = make_scene(CrackSpec(path=[(-20.0, 75.0), (20.0, 75.0)], width=8.0, depth=5.0)).build_specimen()
        for angle in (0.0, 0.2):
            mount = RigidTransform(rotation_about_z(angle), [1.0, 2.0, 3.0], Frame.LASER, Frame.ROBOT)
            for hf, spread, turn in ((along_y, (0.0, 10.0), 0.0), (along_x, (10.0, 0.0), np.pi / 2.0)):
                waypoints = [make_waypoint(0.0, 75.0, -5.0), make_waypoint(spread[0], 75.0 + spread[1], -5.0)]
                result = refine_waypoints(waypoints, hf, laser_mount=mount, noise=SensorNoise.noiseless())
                assert result.dropped == 0
                for wp, pose in zip(waypoints, result.stations, strict=True):
                    np.testing.assert_allclose(pose.rotation, rotation_about_z(angle + turn), atol=1e-12)
                    np.testing.assert_array_equal(pose.translation, [wp.robot_pt.x + 1.0, wp.robot_pt.y + 2.0, 308.0])
                    assert pose.source_frame == Frame.LASER and pose.target_frame == Frame.ROBOT

    def test_distance_to_centreline(self):
        path = [(0.0, 10.0), (0.0, 140.0)]
        assert _distance_to_centreline(path, 0.0, 75.0) == pytest.approx(0.0)
        assert _distance_to_centreline(path, 3.0, 75.0) == pytest.approx(3.0)
        # beyond the endpoints the terminal segments extend: still lateral
        assert _distance_to_centreline(path, 0.0, 145.0) == pytest.approx(0.0)
        assert _distance_to_centreline(path, -2.0, 5.0) == pytest.approx(2.0)


class TestPerceive:
    def test_noiseless_waypoints_sit_on_centreline(self):
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        result = perceive(scene, hf, SensorNoise.noiseless())
        assert len(result.waypoints) >= 10
        ys = [wp.robot_pt.y for wp in result.waypoints]
        assert ys == sorted(ys)
        for wp in result.waypoints:
            assert abs(wp.robot_pt.x) <= 0.5
            assert wp.robot_pt.z == pytest.approx(-5.0, abs=1e-9)

    def test_uncracked_specimen_gives_no_waypoints(self):
        from crackfill import EmptyPath

        scene = make_scene(None)
        hf = scene.build_specimen()
        with pytest.raises(EmptyPath):
            perceive(scene, hf, SensorNoise.noiseless())


class TestRefineWaypoints:
    def test_offset_waypoints_pulled_back_to_centreline(self):
        """RGB-D points shifted 5 mm off the crack come back within one
        laser sample pitch of the true centreline."""
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        waypoints = [make_waypoint(5.0, y, -5.0) for y in np.linspace(20.0, 130.0, 8)]
        result = refine_waypoints(
            waypoints,
            hf,
            laser_mount=scene.laser_mount,
            noise=SensorNoise.noiseless(),
        )
        assert result.dropped == 0
        for wp in result.waypoints:
            assert abs(wp.refined_robot_pt.x) <= 2.0 * PITCH_40MM
            assert wp.refined_robot_pt.y == wp.robot_pt.y
            assert wp.area_mm2 == pytest.approx(40.0, rel=0.03)

    def test_zero_offset_gives_near_zero_correction(self):
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        waypoints = [make_waypoint(0.0, y, -5.0) for y in (40.0, 75.0, 110.0)]
        result = refine_waypoints(
            waypoints, hf, laser_mount=scene.laser_mount, noise=SensorNoise.noiseless()
        )
        for wp in result.waypoints:
            assert abs(wp.refined_robot_pt.x - wp.robot_pt.x) <= 2.0 * PITCH_40MM
            assert wp.refined_robot_pt.z == pytest.approx(wp.robot_pt.z, abs=1e-9)

    def test_laser_mount_translation_cancels(self):
        """A scanner bolted 5 mm to the side still corrects to the same
        place: the station shift and the mount transform cancel."""
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        mount = RigidTransform(np.eye(3), [5.0, 0.0, 2.0], Frame.LASER, Frame.ROBOT)
        waypoints = [make_waypoint(0.0, y, -5.0) for y in (40.0, 75.0, 110.0)]
        result = refine_waypoints(
            waypoints, hf, laser_mount=mount, noise=SensorNoise.noiseless()
        )
        for wp in result.waypoints:
            assert abs(wp.refined_robot_pt.x) <= 2.5 * PITCH_40MM
            assert wp.refined_robot_pt.z == pytest.approx(-5.0, abs=0.01)

    def test_waypoints_off_the_crack_are_dropped(self, caplog):
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        waypoints = [make_waypoint(0.0, 75.0, -5.0), make_waypoint(0.0, 145.0, 0.0)]
        with caplog.at_level("WARNING", logger="crackfill.repair"):
            result = refine_waypoints(
                waypoints, hf, laser_mount=scene.laser_mount, noise=SensorNoise.noiseless()
            )
        assert result.dropped == 1
        assert len(result.waypoints) == 1
        assert "dropping" in caplog.text

    def test_survivors_come_back_in_travel_order(self):
        """Refinement keeps the order it is handed: reversed input stays
        reversed, and a dropped waypoint (y = 145, past the crack's end)
        leaves the others in order, each with the station it was scanned
        from."""
        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        on_crack = [make_waypoint(1.0, y, -5.0) for y in (110.0, 75.0, 40.0)]
        off_crack = make_waypoint(1.0, 145.0, 0.0)
        for waypoints in (on_crack, [on_crack[0], off_crack, *on_crack[1:]]):
            result = refine_waypoints(
                waypoints, hf, laser_mount=scene.laser_mount, noise=SensorNoise.noiseless()
            )
            assert result.dropped == len(waypoints) - 3
            assert [wp.robot_pt.y for wp in result.waypoints] == [110.0, 75.0, 40.0]
            for wp, st in zip(result.waypoints, result.stations, strict=True):
                assert tuple(st.translation[:2]) == (wp.robot_pt.x, wp.robot_pt.y)

    def test_one_batch_and_one_rotation_check_per_pass(self, monkeypatch):
        """Refinement scans and measures all its stations in one call each,
        and every station pose shares the one checked scanner rotation;
        rescanning a repair is one more call."""
        from crackfill import geometry

        calls = {"scan": 0, "measure": 0, "rotation": 0}

        scene = make_scene(straight_crack())
        hf = scene.build_specimen()
        waypoints = [make_waypoint(0.5, y, -5.0) for y in np.linspace(20.0, 130.0, 12)]
        noise = SensorNoise(laser_sigma_mm=0.02, seed=4)
        monkeypatch.setattr(repair, "scan_profile", counted(calls, "scan", repair.scan_profile))
        monkeypatch.setattr(repair, "measure", counted(calls, "measure", repair.measure))
        monkeypatch.setattr(geometry, "_check_rotation", counted(calls, "rotation", geometry._check_rotation))
        result = refine_waypoints(
            waypoints, hf, laser_mount=scene.laser_mount, noise=noise
        )
        assert calls == {"scan": 1, "measure": 1, "rotation": 1}
        assert len({id(st.rotation) for st in result.stations}) == 1
        validate(result, hf, speeds=[10.0] * 12, noise=noise, elapsed_s=0.0, mode=FillMode.fixed(10.0))
        assert calls == {"scan": 2, "measure": 2, "rotation": 1}

    def test_all_points_dropped_raises(self):
        """A waypoint on a plate with no crack is dropped, and so is the
        whole of an empty list."""
        hf = make_flat(nx=500, ny=500, cell=0.1, origin=(-25.0, -25.0))
        for waypoints in ([make_waypoint(0.0, 0.0, 0.0)], []):
            with pytest.raises(AllPointsDropped):
                refine_waypoints(
                    waypoints,
                    hf,
                    laser_mount=RigidTransform.identity(Frame.LASER, Frame.ROBOT),
                    noise=SensorNoise.noiseless(),
                )


class TestPlanFill:
    def test_area_to_speed_with_clamping(self):
        """Areas 20 and 40 mm^2 both demand more than the top calibrated
        speed, so both clamp to it."""
        model = make_model()
        wps = [
            replace(make_waypoint(0.0, 0.0, 0.0), area_mm2=20.0),
            replace(make_waypoint(0.0, 10.0, 0.0), area_mm2=40.0),
        ]
        plan = plan_fill(wps, FillMode.adaptive(), model)
        assert [wp.speed_mm_s for wp in plan.waypoints] == [20.0, 20.0]

    def test_adaptive_speed_inside_range(self):
        model = make_model()
        wps = [
            replace(make_waypoint(0.0, 0.0, 0.0), area_mm2=model.flow_rate_mm3_s / 10.0),
            replace(make_waypoint(0.0, 10.0, 0.0), area_mm2=model.flow_rate_mm3_s / 8.0),
        ]
        plan = plan_fill(wps, FillMode.adaptive(), model)
        assert plan.waypoints[0].speed_mm_s == pytest.approx(10.0, rel=1e-12)
        assert plan.waypoints[1].speed_mm_s == pytest.approx(8.0, rel=1e-12)

    def test_interpolating_mode_reads_the_samples(self):
        """An interpolating adaptive mode plans from the samples, not the fitted flow."""
        model = CalibrationModel((CalibrationSample(6.0, 200.0, 0.0), CalibrationSample(20.0, 40.0, 0.0)), 946.0, 6.0, 20.0)
        wps = [replace(make_waypoint(0.0, 0.0, 0.0), area_mm2=120.0)]
        speed = plan_fill(wps, FillMode.adaptive(interpolate=True), model).waypoints[0].speed_mm_s
        assert speed == pytest.approx(1.0 / (0.5 / 6.0 + 0.5 / 20.0), rel=1e-12)
        assert plan_fill(wps, FillMode.adaptive(), model).waypoints[0].speed_mm_s == pytest.approx(946.0 / 120.0)

    def test_fixed_mode_applies_one_speed(self):
        wps = [make_waypoint(0.0, float(y), 0.0) for y in (30, 10, 20)]
        plan = plan_fill(wps, FillMode.fixed(10.0))
        assert all(wp.speed_mm_s == 10.0 for wp in plan.waypoints)
        assert [wp.robot_pt.y for wp in plan.waypoints] == [30.0, 10.0, 20.0]

    def test_empty_waypoints_raises(self):
        with pytest.raises(EmptyWaypoints):
            plan_fill([], FillMode.fixed(10.0))

    def test_adaptive_needs_model_and_areas(self):
        wps = [replace(make_waypoint(0.0, 0.0, 0.0), area_mm2=40.0)]
        with pytest.raises(ValueError):
            plan_fill(wps, FillMode.adaptive(), model=None)
        wps = [replace(wps[0], area_mm2=None)]
        with pytest.raises(ValueError):
            plan_fill(wps, FillMode.adaptive(), make_model())


class TestExecuteFill:
    def test_elapsed_time_is_length_over_speed(self):
        hf = make_flat(nx=200, ny=400, cell=0.5, origin=(-50.0, -50.0))
        wps = [make_waypoint(0.0, 0.0, 0.0), make_waypoint(0.0, 10.0, 0.0)]
        plan = plan_fill(wps, FillMode.fixed(10.0))
        result = execute_fill(hf, plan, DepositionParams(flow_rate_mm3_s=500.0, purge_time_s=0.0))
        assert result.elapsed_s == pytest.approx(1.0)
        assert len(result.segments) == 1

    def test_purge_time_added_once(self):
        hf = make_flat(nx=200, ny=400, cell=0.5, origin=(-50.0, -50.0))
        wps = [make_waypoint(0.0, float(y), 0.0) for y in (0, 10, 30)]
        plan = plan_fill(wps, FillMode.fixed(10.0))
        result = execute_fill(hf, plan, DepositionParams(flow_rate_mm3_s=500.0, purge_time_s=1.5))
        assert result.elapsed_s == pytest.approx(1.5 + 3.0)
        assert len(result.segments) == 2


class TestValidate:
    def scan_setup(self, area_pre: float):
        return ProfileFeatures(
            left_index=400,
            right_index=600,
            left_x_mm=-4.0,
            right_x_mm=4.0,
            baseline_mm=0.0,
            area_mm2=area_pre,
            centre_offset_mm=0.0,
            centre_height_mm=-5.0,
        )

    def test_levelled_surface_scores_zero_error(self):
        hf = make_flat(nx=500, ny=500, cell=0.1, origin=(-25.0, -25.0))
        report = validate(
            level_refinement([self.scan_setup(100.0)], (0.0, 0.0, 310.0)),
            hf,
            speeds=[10.0],
            noise=SensorNoise.noiseless(),
            elapsed_s=12.5,
            mode=FillMode.fixed(10.0),
        )
        assert report.records[0].fill_error == pytest.approx(0.0, abs=1e-12)
        assert report.records[0].included
        assert report.mean_fill_error == pytest.approx(0.0, abs=1e-12)
        assert report.elapsed_s == 12.5

    def test_small_pre_area_excluded_from_statistics(self, caplog):
        hf = make_flat(nx=500, ny=500, cell=0.1, origin=(-25.0, -25.0))
        refinement = level_refinement(
            [self.scan_setup(100.0), self.scan_setup(0.5)], (0.0, -5.0, 310.0), (0.0, 5.0, 310.0)
        )
        with caplog.at_level("INFO", logger="crackfill.repair"):
            report = validate(
                refinement, hf, speeds=[8.0, 8.0], noise=SensorNoise.noiseless(), elapsed_s=1.0, mode=FillMode.adaptive(), area_floor_mm2=1.0
            )
        assert [r.station for r in report.records] == [0, 1]
        assert report.records[0].included
        assert not report.records[1].included
        assert report.records[1].fill_error is None
        assert "station 1 excluded" in caplog.text
        assert len(report.included_errors()) == 1

    def test_residual_trough_measured_against_pre_area(self):
        """A half-filled trough must score |post/pre| using the unsigned
        post-fill deviation."""
        hf = make_rect_crack(width=8.0, depth=5.0)
        refinement = level_refinement([self.scan_setup(80.0)], (0.0, 75.0, 305.0))
        report = validate(refinement, hf, speeds=[6.0], noise=SensorNoise.noiseless(), elapsed_s=0.0, mode=FillMode.fixed(6.0))
        # the unfilled trough still measures about 40 mm^2 against pre=80
        assert report.records[0].fill_error == pytest.approx(0.5, rel=0.05)

    def test_no_stations_give_an_empty_report(self):
        hf = make_flat(nx=50, ny=50, cell=0.5, origin=(-12.5, -12.5))
        report = validate(level_refinement([]), hf, speeds=[], noise=SensorNoise.noiseless(), elapsed_s=0.0, mode=FillMode.fixed(8.0))
        assert report.records == () and np.isnan(report.mean_fill_error)

    def test_summary_dict_shape(self):
        hf = make_flat(nx=500, ny=500, cell=0.1, origin=(-25.0, -25.0))
        report = validate(
            level_refinement([self.scan_setup(50.0)], (0.0, 0.0, 310.0)), hf, speeds=[8.0], noise=SensorNoise.noiseless(), elapsed_s=3.0, mode=FillMode.fixed(8.0)
        )
        summary = report.summary_dict()
        assert set(summary) == {"mean", "std", "median", "time_s", "mode"}
        assert summary["mode"] == "8"
        assert summary["time_s"] == 3.0


class TestRunFill:
    def tapered_crack(self) -> CrackSpec:
        return CrackSpec(
            path=[(0.0, 10.0), (0.0, 110.0)],
            width=[(0.0, 10.0), (100.0, 16.0)],
            depth=[(0.0, 5.0), (100.0, 9.5)],
        )

    def test_noiseless_adaptive_fill_is_nearly_perfect(self):
        scene = make_scene(self.tapered_crack(), camera_y=60.0, ny=1200)
        params = DepositionParams(flow_rate_mm3_s=946.0635673187572, nozzle_diameter_mm=4.0, purge_time_s=1.5)
        artifacts = run_fill(scene, FillMode.adaptive(), params, SensorNoise.noiseless(), make_model())
        assert artifacts.report.mean_fill_error <= 0.35
        assert artifacts.report.elapsed_s > 1.5
        assert all(r.included for r in artifacts.report.records)
        assert all(r.speed_mm_s >= 6.0 for r in artifacts.report.records)
        # the trough must be mostly levelled along the travelled path; the
        # speed holds constant per segment, so on a tapering crack the rows
        # between stations under-fill by up to the taper growth per spacing
        from crackfill import true_cross_section

        for y in (40.0, 60.0, 80.0):
            before = true_cross_section(artifacts.surface_before, (0.0, y), (1.0, 0.0))
            after = true_cross_section(artifacts.surface_after, (0.0, y), (1.0, 0.0))
            assert after <= 0.1 * before

    def test_adaptive_time_sits_between_fixed_extremes(self):
        scene = make_scene(self.tapered_crack(), camera_y=60.0, ny=1200)
        params = DepositionParams(flow_rate_mm3_s=946.0635673187572, purge_time_s=1.5)
        model = make_model()
        reports = run_experiment(scene, experiment_modes((6.0, 20.0)), params, SensorNoise.noiseless(), model)
        by_label = {r.mode.label(): r for r in reports}
        assert set(by_label) == {"6", "20", "adaptive"}
        assert by_label["6"].elapsed_s > by_label["adaptive"].elapsed_s > by_label["20"].elapsed_s
        assert by_label["adaptive"].mean_fill_error < by_label["6"].mean_fill_error
        assert by_label["adaptive"].mean_fill_error < by_label["20"].mean_fill_error

    def test_experiment_leaves_the_survey_untouched(self, monkeypatch):
        """Every mode repairs a copy: the shared survey keeps its surface
        bytes and its waypoints."""
        real_survey = repair.survey
        seen = []

        def recording(*args, **kwargs):
            s = real_survey(*args, **kwargs)
            seen.append((s, s.specimen.heights.tobytes(), copy.deepcopy(s.refinement.waypoints)))
            return s

        monkeypatch.setattr(repair, "survey", recording)
        scene = make_scene(self.tapered_crack(), camera_y=60.0, ny=1200)
        params = DepositionParams(flow_rate_mm3_s=946.0635673187572, purge_time_s=1.5)
        reports = run_experiment(scene, experiment_modes((6.0, 20.0)), params, SensorNoise.noiseless(), make_model())
        assert len(reports) == 3 and len(seen) == 1
        surveyed, surface, waypoints = seen[0]
        assert surveyed.specimen.heights.tobytes() == surface
        assert surveyed.refinement.waypoints == waypoints
        assert all(wp.speed_mm_s is None for wp in surveyed.refinement.waypoints)

    def test_survey_records_the_scene_scanner(self):
        """The survey's refinement keeps the span and standoff its stations
        were scanned with, the ones validate rescans them with."""
        scene = replace(make_scene(straight_crack()), scan_span_mm=30.0, scan_standoff_mm=300.0)
        view = repair.image_specimen(scene, scene.build_specimen())
        refinement = repair.survey(scene, view, SensorNoise.noiseless()).refinement
        assert (refinement.span_mm, refinement.standoff_mm) == (scene.scan_span_mm, scene.scan_standoff_mm)
        assert refinement.dropped == 0 and len(refinement.stations) == len(refinement.features) > 0

    def test_rotated_laser_mount_calibrates_at_the_crack_scan_angle(self):
        """With the laser mounted 30 degrees about z the calibration strips
        are cut at the crack scans' angle, so the fitted flow and the
        measured areas grow alike and the planned speeds still fill the
        crack. Strips cut square plan speeds cos 30 degrees too low and
        overfill by about 15 % (median fill error 0.14)."""
        rotation = rotation_about_z(np.radians(30.0)).reshape(-1).tolist()
        cfg = ScenarioConfig.from_dict({"laser": {"mount_rotation": rotation}})
        scene, mode, params, noise = cfg.build_scene(), cfg.build_mode(), cfg.build_deposition(), cfg.build_noise()
        artifacts = run_fill(scene, mode, params, noise, cfg.build_calibration())
        assert artifacts.report.median_fill_error <= 0.03

    def test_same_noise_reproduces_waypoints_across_modes(self):
        scene = make_scene(straight_crack())
        params = DepositionParams(flow_rate_mm3_s=946.0635673187572, purge_time_s=1.5)
        noise = SensorNoise(depth_sigma_fraction=0.02, laser_sigma_mm=0.02, seed=11)
        a = run_fill(scene, FillMode.fixed(10.0), params, noise, make_model())
        b = run_fill(scene, FillMode.fixed(15.0), params, noise, make_model())
        xa = [wp.refined_robot_pt.x for wp in a.plan.waypoints]
        xb = [wp.refined_robot_pt.x for wp in b.plan.waypoints]
        assert xa == xb


class TestLocalization:
    def test_zero_noise_pairs_agree_within_one_cell(self):
        """With perfect sensors and exact extrinsics the laser must not
        move any waypoint by more than one grid cell."""
        scene = make_scene(straight_crack())
        report = localization_experiment(scene, SensorNoise.noiseless(), n_scans=2)
        assert report.x.mean_abs_mm < scene.cell_size_mm
        assert report.y.mean_abs_mm < scene.cell_size_mm
        assert report.z.mean_abs_mm < scene.cell_size_mm
        assert report.refined_lateral_max_mm < scene.cell_size_mm

    def test_lateral_bias_is_corrected_and_reported(self):
        """A 10 mm hand-eye bias in x shows up as a large X difference,
        near-zero Y difference, and refined points still on the crack."""
        scene = make_scene(straight_crack())
        bias = RigidTransform(np.eye(3), [10.0, 0.0, 0.0])
        noise = SensorNoise(depth_sigma_fraction=0.02, laser_sigma_mm=0.02, extrinsic_bias=bias, seed=0)
        report = localization_experiment(scene, noise, n_scans=3)
        assert report.x.mean_abs_mm >= 8.0
        assert report.y.mean_abs_mm <= 0.5
        assert report.refined_lateral_max_mm <= 3.0 * PITCH_40MM
        assert report.n_pairs >= 30

    def test_rotated_laser_mount_scans_along_its_line(self):
        """The default localization study with the laser mounted 10 degrees
        about z keeps refined points within one laser sample pitch of the
        crack: the scan line turns with the mount, like the correction."""
        rotation = rotation_about_z(np.radians(10.0)).reshape(-1).tolist()
        cfg = ScenarioConfig.from_dict({"laser": {"mount_rotation": rotation}})
        scene, noise = cfg.build_scene(localization=True), cfg.build_noise(localization=True)
        report = localization_experiment(scene, noise, cfg.raw["localization"]["n_scans"])
        assert report.refined_lateral_mean_mm <= cfg.raw["localization"]["span_mm"] / 1023.0

    def test_specimen_is_imaged_once_for_all_scans(self, monkeypatch):
        """Scans differ only in noise, so one raycast, one thinning and one
        spacing pass serve them all."""
        calls = {"render_view": 0, "skeletonize": 0, "space_pixels": 0}
        for name in calls:
            real = getattr(repair, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(repair, name, counting)
        scene = make_scene(straight_crack())
        noise = SensorNoise(depth_sigma_fraction=0.02, laser_sigma_mm=0.02, seed=0)
        localization_experiment(scene, noise, n_scans=3)
        assert calls == {"render_view": 1, "skeletonize": 1, "space_pixels": 1}

    def test_report_from_identical_pairs_is_all_zero(self):
        p = Point3(1.0, 2.0, 3.0, Frame.ROBOT)
        report = build_localization_report([(p, p)] * 5, [0.0] * 5)
        assert report.x.mean_abs_mm == 0.0
        assert report.y.std_mm == 0.0
        assert report.mean_distance_mm == 0.0
        assert report.n_pairs == 5

    def test_report_dict_layout(self):
        a = Point3(1.0, 0.0, 0.0, Frame.ROBOT)
        b = Point3(0.0, 0.0, 0.0, Frame.ROBOT)
        d = build_localization_report([(a, b)], [0.1]).to_dict()
        assert set(d) == {"X", "Y", "Z", "Distance", "n_pairs", "diagnostics"}
        assert d["X"]["average_difference_mm"] == pytest.approx(1.0)
        assert d["Distance"]["average_difference_mm"] == pytest.approx(1.0)

    def test_empty_pairs_raise(self):
        with pytest.raises(EmptyWaypoints):
            build_localization_report([], [])
