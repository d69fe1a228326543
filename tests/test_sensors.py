"""Sensor tests with closed-form oracles: a straight-down camera over a
flat plate must read the mount height at every pixel, a scanner parked
at its standoff must read zero, and noise statistics must match the
configured sigmas."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crackfill import (
    CameraIntrinsics,
    DepthImage,
    ScenarioConfig,
    Frame,
    LaserProfile,
    MaskImage,
    NoIntersection,
    RigidTransform,
    SensorNoise,
    StationOutsideGrid,
    axis_angle_rotation,
    render_depth,
    render_truth_mask,
    scan_profile,
)
from crackfill.sensors import (
    NOISE_STREAMS,
    SCANNER_POINTS,
    SCANNER_RANGE_MM,
    add_depth_noise,
    render_view,
)
from conftest import CAMERA_DOWN, TILES, base_and_patch_plates, camera_pose, down_scan_pose, make_flat, make_rect_crack, tilted


class TestRenderDepth:
    def test_flat_plate_reads_mount_height_everywhere(self, intrinsics):
        """Straight-down camera, flat plate at z=0: depth is exactly 500."""
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        img = render_depth(hf, intrinsics, camera_pose(height_mm=500.0))
        assert img.valid.any()
        assert np.all(img.depth_mm[img.valid] == pytest.approx(500.0, abs=1e-9))

    def test_trough_pixels_read_deeper(self, intrinsics):
        hf = make_rect_crack(width=8.0, depth=2.0, cell=0.1)
        img = render_depth(hf, intrinsics, camera_pose(height_mm=500.0, y=75.0))
        vals = img.depth_mm[img.valid]
        assert vals.max() == pytest.approx(502.0, abs=1e-9)
        assert vals.min() == pytest.approx(500.0, abs=1e-9)

    def test_depth_noise_statistics(self, intrinsics):
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        noise = SensorNoise(depth_sigma_fraction=0.02, laser_sigma_mm=0.0, seed=3)
        img = render_depth(hf, intrinsics, camera_pose(height_mm=500.0), noise)
        vals = img.depth_mm[img.valid]
        assert vals.mean() == pytest.approx(500.0, rel=1e-3)
        assert vals.std() == pytest.approx(10.0, rel=0.02)

    def test_noiseless_flag_and_zero_sigma_match(self, intrinsics):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        a = render_depth(hf, intrinsics, camera_pose(), SensorNoise.noiseless())
        b = render_depth(hf, intrinsics, camera_pose(), SensorNoise(depth_sigma_fraction=0.0, seed=9))
        np.testing.assert_array_equal(a.depth_mm, b.depth_mm)

    def test_same_seed_same_image(self, intrinsics):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        a = render_depth(hf, intrinsics, camera_pose(), SensorNoise(seed=42))
        b = render_depth(hf, intrinsics, camera_pose(), SensorNoise(seed=42))
        c = render_depth(hf, intrinsics, camera_pose(), SensorNoise(seed=43))
        np.testing.assert_array_equal(a.depth_mm, b.depth_mm)
        assert not np.array_equal(a.depth_mm, c.depth_mm)

    def test_camera_facing_away_raises(self, intrinsics):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        up = RigidTransform(np.eye(3), [0.0, 0.0, 500.0], Frame.CAMERA, Frame.ROBOT)
        with pytest.raises(NoIntersection):
            render_depth(hf, intrinsics, up)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DepthImage(depth_mm=np.zeros((4, 4)), valid=np.ones((3, 3), dtype=bool))


class TestRenderTruthMask:
    def test_flat_plate_has_empty_mask(self, intrinsics):
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        mask = render_truth_mask(hf, intrinsics, camera_pose())
        assert not mask.flags.any()

    def test_band_width_matches_projected_width(self, intrinsics):
        """An 8 mm crack at 500 mm with fx=600 covers 9.6 px; the mask rows
        crossing the crack must flag 9 to 11 columns each."""
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
        mask = render_truth_mask(hf, intrinsics, camera_pose(height_mm=500.0, y=75.0))
        counts = mask.flags.sum(axis=1)
        rows = counts[counts > 0]
        assert rows.size > 50
        # rows at the crack tips only graze the trough; check the interior
        interior = rows[2:-2]
        assert interior.min() >= 9
        assert interior.max() <= 11

    def test_threshold_excludes_shallow_damage(self, intrinsics):
        hf = make_rect_crack(width=8.0, depth=0.15, cell=0.1)
        mask = render_truth_mask(hf, intrinsics, camera_pose(y=75.0), threshold_mm=0.2)
        assert not mask.flags.any()
        deep = render_truth_mask(hf, intrinsics, camera_pose(y=75.0), threshold_mm=0.1)
        assert deep.flags.any()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MaskImage(flags=np.zeros(16, dtype=bool))


def full_image_raycast(hf, k, camera_pose):
    """Reference raycast: every ray takes every fixed-point step."""
    uu, vv = np.meshgrid(np.arange(k.image_width, dtype=float), np.arange(k.image_height, dtype=float))
    dirs_c = np.stack([(uu - k.px) / k.fx, (vv - k.py) / k.fy, np.ones_like(uu)], axis=-1)
    dirs_0 = dirs_c @ camera_pose.rotation.T
    ox, oy, oz = camera_pose.translation
    dz = dirs_0[..., 2]
    live = np.abs(dz) > 1e-12
    t = np.where(live, (hf.nominal_surface - oz) / np.where(live, dz, 1.0), 0.0)
    for _ in range(16):
        h = hf.lookup(ox + t * dirs_0[..., 0], oy + t * dirs_0[..., 1])[0]
        t_new = np.where(live, (h - oz) / np.where(live, dz, 1.0), 0.0)
        converged = np.allclose(t_new, t, atol=1e-9, rtol=0.0)
        t = t_new
        if converged:
            break
    x = ox + t * dirs_0[..., 0]
    y = oy + t * dirs_0[..., 1]
    return t, x, y, live & (t > 0) & hf.lookup(x, y)[1]


@st.composite
def cameras(draw):
    """Small pinhole cameras over base_and_patch_plates' plates, at most
    24 mm from the origin to an edge, tilted from straight down to past
    the horizon (pi/2 turns the optical axis parallel to the plate); some
    stand off the grid, so some or all rays miss it."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    f = draw(st.floats(2.0, 20.0))
    k = CameraIntrinsics(f, f * draw(st.sampled_from([1.0, 0.7])), draw(st.floats(0.0, width - 0.5)), draw(st.floats(0.0, height - 0.5)), width, height)
    heading = draw(st.floats(0.0, 2 * np.pi))
    tilt = draw(st.sampled_from([0.0, np.pi / 2]) | st.floats(0.0, 1.8))
    rotation = axis_angle_rotation(np.array([np.cos(heading), np.sin(heading), 0.0]), tilt) @ CAMERA_DOWN
    position = [draw(st.floats(-30.0, 30.0)) for _ in range(2)] + [draw(st.floats(4.0, 60.0))]
    return k, RigidTransform(rotation, position, Frame.CAMERA, Frame.ROBOT)


class TestRaycast:
    @pytest.mark.parametrize(
        "localization, tilt",
        [(False, 0.0), (True, 0.0), (False, 0.05)],
        ids=["default", "localization", "tilted"],
    )
    def test_matches_full_image_iteration_bitwise(self, localization, tilt, caplog):
        scene = ScenarioConfig.default().build_scene(localization=localization)
        hf = scene.build_specimen()
        pose = tilted(scene.camera_pose, tilt)
        with caplog.at_level("DEBUG", logger="crackfill.sensors"):
            depth, mask = render_view(hf, scene.intrinsics, pose, scene.mask_threshold_mm)
        t, x, y, valid = full_image_raycast(hf, scene.intrinsics, pose)
        assert depth.valid.tobytes() == valid.tobytes()
        assert depth.depth_mm.tobytes() == np.where(valid, t, 0.0).tobytes()
        want_mask = valid & (hf.nominal_surface - hf.lookup(x, y)[0] > scene.mask_threshold_mm)
        assert mask.flags.tobytes() == want_mask.tobytes()
        if not localization and not tilt:
            # a 2-cycle of a few rays keeps the default scene from converging
            assert "still moving" in caplog.text

    @pytest.mark.parametrize("tile", [*TILES, 64, 1], indirect=True)
    @given(plate=base_and_patch_plates(), camera=cameras(), threshold_mm=st.sampled_from([0.2, 1.0]))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_plates_and_cameras_match_full_image_iteration(self, tile, plate, camera, threshold_mm):
        """render_view on a base plus patch reads as the full-image iteration
        on its heightfield(): depth, valid and mask, bit for bit, or
        NoIntersection where no ray hits."""
        k, pose = camera
        hf = plate.heightfield()
        t, x, y, valid = full_image_raycast(hf, k, pose)
        if not valid.any():
            with pytest.raises(NoIntersection):
                render_view(plate, k, pose, threshold_mm)
            return
        depth, mask = render_view(plate, k, pose, threshold_mm)
        assert depth.valid.tobytes() == valid.tobytes()
        assert depth.depth_mm.tobytes() == np.where(valid, t, 0.0).tobytes()
        want_mask = valid & (hf.nominal_surface - hf.lookup(x, y)[0] > threshold_mm)
        assert mask.flags.tobytes() == want_mask.tobytes()

    def test_view_is_one_raycast_of_both_renderers(self, intrinsics):
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
        pose = camera_pose(y=75.0)
        depth, mask = render_view(hf, intrinsics, pose, threshold_mm=0.2)
        clean = render_depth(hf, intrinsics, pose)
        np.testing.assert_array_equal(depth.depth_mm, clean.depth_mm)
        np.testing.assert_array_equal(depth.valid, clean.valid)
        np.testing.assert_array_equal(mask.flags, render_truth_mask(hf, intrinsics, pose, 0.2).flags)
        noise = SensorNoise(seed=7)
        noisy = render_depth(hf, intrinsics, pose, noise)
        assert add_depth_noise(depth, noise).depth_mm.tobytes() == noisy.depth_mm.tobytes()
        assert add_depth_noise(depth, SensorNoise.noiseless()) is depth


NOISELESS = SensorNoise.noiseless()


class TestScanProfile:
    def test_flat_surface_reads_zero_at_standoff(self):
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        prof = scan_profile(hf, [down_scan_pose(z=310.0)], 40.0, [NOISELESS])
        assert prof.n_points == SCANNER_POINTS and prof.z.shape == (1, SCANNER_POINTS)
        assert np.all(prof.valid)
        np.testing.assert_allclose(prof.z, 0.0, atol=1e-12)
        np.testing.assert_allclose(prof.x[[0, -1]], [-20.0, 20.0], atol=1e-12)

    def test_rect_trough_reads_negative_depth(self):
        hf = make_rect_crack(width=8.0, depth=2.0, cell=0.1)
        prof = scan_profile(hf, [down_scan_pose(y=75.0, z=310.0)], 40.0, [NOISELESS])
        [z] = prof.z
        interior = np.abs(prof.x) < 3.0
        outside = np.abs(prof.x) > 5.0
        np.testing.assert_allclose(z[interior], -2.0, atol=1e-12)
        np.testing.assert_allclose(z[outside], 0.0, atol=1e-12)
        crossing = np.nonzero(np.abs(np.diff(z)) > 1.0)[0]
        assert crossing.size == 2
        # walls land within a sample pitch plus a grid cell of x = +/-4
        np.testing.assert_allclose(np.abs(prof.x[crossing]), 4.0, atol=2.0 * prof.pitch + hf.cell_size)

    def test_laser_noise_statistics(self):
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        noise = SensorNoise(depth_sigma_fraction=0.0, laser_sigma_mm=0.05, seed=9)
        prof = scan_profile(hf, [down_scan_pose(z=310.0)] * 40, 40.0, [noise.derive(i) for i in range(40)])
        assert prof.z.shape == (40, SCANNER_POINTS)
        assert prof.z.mean() == pytest.approx(0.0, abs=5e-4)
        assert prof.z.std() == pytest.approx(0.05, rel=0.02)

    def test_derived_streams_differ(self):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        noise = SensorNoise(laser_sigma_mm=0.05, seed=1)
        a, b, a2 = scan_profile(hf, [down_scan_pose()] * 3, 40.0, [noise.derive(0), noise.derive(1), noise.derive(0)]).z
        np.testing.assert_array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_range_gate_flags_out_of_window_samples(self):
        hf = make_flat(nx=400, ny=400, cell=0.5, origin=(-100.0, -100.0))
        heights = [SCANNER_RANGE_MM[1] + 1.0, SCANNER_RANGE_MM[0] - 1.0, 300.0]
        too_high, too_low, in_window = scan_profile(hf, [down_scan_pose(z=z) for z in heights], 40.0, [NOISELESS] * 3).valid
        assert not too_high.any()
        assert not too_low.any()
        assert in_window.all()

    def test_scan_line_outside_grid_raises(self):
        hf = make_flat(nx=100, ny=100, cell=0.5, origin=(-25.0, -25.0))
        with pytest.raises(StationOutsideGrid):
            scan_profile(hf, [down_scan_pose(x=24.0)], 40.0, [NOISELESS])

    def test_rejects_tilted_line_and_bad_args(self):
        hf = make_flat(nx=100, ny=100, cell=0.5, origin=(-25.0, -25.0))
        from crackfill import rotation_about_y

        tilted = RigidTransform(rotation_about_y(0.3), [0.0, 0.0, 310.0], Frame.LASER, Frame.ROBOT)
        with pytest.raises(ValueError):
            scan_profile(hf, [tilted], 20.0, [NOISELESS])
        with pytest.raises(ValueError):
            scan_profile(hf, [down_scan_pose()], 0.0, [NOISELESS])

    def test_profile_shape_validation(self):
        with pytest.raises(ValueError):
            LaserProfile(x=np.array([0.0, 1.0]), z=np.zeros((1, 3)), valid=np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError):
            LaserProfile(x=np.array([1.0, 0.0]), z=np.zeros((1, 2)), valid=np.ones((1, 2), dtype=bool))

    def test_one_dimensional_z_rejected(self):
        """A profile is always a batch: a lone line is a (1, n) row, never (n,)."""
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="one row per station"):
            LaserProfile(x=x, z=np.zeros(5))
        with pytest.raises(ValueError, match="one row per station"):
            LaserProfile(x=x, z=np.zeros(5), valid=np.ones(5, dtype=bool))
        assert LaserProfile(x=x, z=np.zeros((1, 5))).n_lines == 1

    def test_non_uniform_pitch_rejected(self):
        """A profile built by a caller is checked for uniform pitch, with one
        row or many."""
        x = np.array([0.0, 1.0, 2.0, 3.5])
        with pytest.raises(ValueError, match="uniform pitch"):
            LaserProfile(x=x, z=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="uniform pitch"):
            LaserProfile(x=x, z=np.zeros((3, 4)))

    def test_batch_shape_validation(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            LaserProfile(x=x, z=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            LaserProfile(x=x, z=np.zeros((2, 5)), valid=np.ones((3, 5), dtype=bool))
        with pytest.raises(ValueError):
            LaserProfile(x=x, z=np.zeros((2, 2, 5)))
        batch = LaserProfile(x=x, z=np.arange(10.0).reshape(2, 5))
        assert batch.n_lines == 2 and batch.valid.shape == (2, 5)
        assert LaserProfile(x=x, z=np.zeros((0, 5))).n_lines == 0

    def test_batch_checks_the_pitch_once(self, monkeypatch):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        poses = [down_scan_pose(y=float(y)) for y in range(6)]
        calls = []
        real = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(1) or real(*a, **k))
        batch = scan_profile(hf, poses, 40.0, [NOISELESS] * 6)
        assert batch.z.shape == (6, SCANNER_POINTS) and len(calls) == 1

    def test_batch_takes_one_noise_model_per_station(self):
        hf = make_flat(nx=200, ny=200, cell=0.5, origin=(-50.0, -50.0))
        poses = [down_scan_pose(y=-1.0), down_scan_pose(y=1.0)]
        noise = SensorNoise(laser_sigma_mm=0.05, seed=3)
        with pytest.raises(ValueError):
            scan_profile(hf, poses, 40.0, [noise.derive(0)])
        with pytest.raises(ValueError):
            scan_profile(hf, poses, 40.0, [NOISELESS])
        batch = scan_profile(hf, poses, 40.0, [noise.derive(0), noise.derive(1)])
        for row, (pose, k) in enumerate(zip(poses, (0, 1))):
            assert batch.z[row].tobytes() == scan_profile(hf, [pose], 40.0, [noise.derive(k)]).z[0].tobytes()
        assert not np.array_equal(batch.z[0], batch.z[1])
        assert scan_profile(hf, [], 40.0, []).z.shape == (0, SCANNER_POINTS)


class TestSensorNoise:
    def test_derive_is_deterministic_and_keyed(self):
        base = SensorNoise(seed=5)
        assert base.derive(2, 7).seed == SensorNoise(seed=5).derive(2, 7).seed
        assert base.derive(2, 7).seed != base.derive(2, 8).seed
        assert base.derive(2).seed != base.derive(3).seed

    def test_pipeline_noise_streams_are_distinct(self):
        assert len(set(NOISE_STREAMS.values())) == len(NOISE_STREAMS)

    def test_derive_keeps_noise_parameters(self):
        tf = RigidTransform(np.eye(3), [1.0, 0.0, 0.0])
        base = SensorNoise(depth_sigma_fraction=0.01, laser_sigma_mm=0.07, extrinsic_bias=tf, seed=5)
        child = base.derive(4)
        assert child.depth_sigma_fraction == 0.01
        assert child.laser_sigma_mm == 0.07
        assert child.extrinsic_bias is tf

    @pytest.mark.parametrize("key", [(0,), (4,), (2, 7), (10, 3), (3, 0, 2**31)])
    @pytest.mark.parametrize(
        "base",
        [SensorNoise(), SensorNoise(seed=9173), SensorNoise(0.01, 0.07, RigidTransform(np.eye(3), [1.0, 0.0, 0.0]), 5)],
        ids=["default", "seed", "bias"],
    )
    def test_derive_equals_the_replaced_model(self, base, key):
        """derive builds its model directly: the model replace gives, under the same child seed."""
        child = int(np.random.SeedSequence((base.seed,) + key).generate_state(1)[0])
        assert base.derive(*key) == dataclasses.replace(base, seed=child)
        assert base.derive(*key).extrinsic_bias is base.extrinsic_bias

    def test_generator_streams_are_independent(self):
        noise = SensorNoise(seed=0)
        a = noise.generator(0).normal(size=8)
        b = noise.generator(1).normal(size=8)
        a2 = noise.generator(0).normal(size=8)
        np.testing.assert_array_equal(a, a2)
        assert not np.array_equal(a, b)
