"""Geometry tests: back-projection against an explicit matrix oracle,
transform algebra round-trips, and the scan-correction structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crackfill import (
    CameraIntrinsics,
    Frame,
    FrameMismatch,
    NonPositiveDepth,
    PixelCoord,
    Point3,
    ProfileFeatures,
    RigidTransform,
    SensorNoise,
    axis_angle_rotation,
    compose,
    invert,
    pixel_to_camera,
    refine_waypoints,
    rotation_about_x,
    rotation_about_y,
    rotation_about_z,
    transform_point,
)
from crackfill import repair
from conftest import make_flat, make_waypoint, random_rotation


@pytest.fixture
def k() -> CameraIntrinsics:
    return CameraIntrinsics(fx=615.0, fy=605.0, px=321.5, py=239.0, image_width=640, image_height=480)


class TestPixelToCamera:
    def test_matches_inverse_matrix_oracle(self, k):
        """x_c must equal z * K^-1 [u, v, 1] computed with a literal inverse."""
        k_inv = np.linalg.inv(k.matrix())
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.uniform(0, k.image_width)
            v = rng.uniform(0, k.image_height)
            z = rng.uniform(50.0, 2000.0)
            expected = z * (k_inv @ np.array([u, v, 1.0]))
            got = pixel_to_camera(PixelCoord(u, v, z), k)
            assert got.frame == Frame.CAMERA
            np.testing.assert_allclose(got.as_array(), expected, atol=1e-9)

    def test_principal_point_backprojects_to_axis(self, k):
        p = pixel_to_camera(PixelCoord(k.px, k.py, 777.0), k)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)
        assert p.z == 777.0

    @given(
        u=st.floats(0.0, 639.0),
        v=st.floats(0.0, 479.0),
        z=st.floats(1.0, 5000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_within_1e9_px(self, u, v, z):
        """Back-project then re-project with the pinhole equations."""
        k = CameraIntrinsics(fx=600.0, fy=600.0, px=320.0, py=240.0, image_width=640, image_height=480)
        p = pixel_to_camera(PixelCoord(u, v, z), k)
        u_back = k.fx * p.x / p.z + k.px
        v_back = k.fy * p.y / p.z + k.py
        assert abs(u_back - u) < 1e-9
        assert abs(v_back - v) < 1e-9

    def test_rejects_nonpositive_depth(self, k):
        with pytest.raises(NonPositiveDepth):
            pixel_to_camera(PixelCoord(10, 10, 0.0), k)
        with pytest.raises(NonPositiveDepth):
            pixel_to_camera(PixelCoord(10, 10, -3.0), k)


class TestRigidTransform:
    def test_apply_matches_manual_multiply(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = random_rotation(rng)
            t = rng.uniform(-100, 100, 3)
            x = rng.uniform(-100, 100, 3)
            tf = RigidTransform(r, t)
            np.testing.assert_allclose(tf.apply(x), r @ x + t, atol=1e-9)

    def test_invert_then_apply_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            tf = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
            x = rng.uniform(-50, 50, 3)
            np.testing.assert_allclose(invert(tf).apply(tf.apply(x)), x, atol=1e-9)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
            b = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
            x = rng.uniform(-50, 50, 3)
            np.testing.assert_allclose(compose(a, b).apply(x), a.apply(b.apply(x)), atol=1e-9)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(14)
        tf = RigidTransform(random_rotation(rng), rng.uniform(-50, 50, 3))
        ident = compose(invert(tf), tf)
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3) * 1.001
        with pytest.raises(ValueError):
            RigidTransform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        reflect = np.diag([1.0, 1.0, -1.0]) @ rotation_about_z(0.3)
        assert np.linalg.det(reflect) < 0
        with pytest.raises(ValueError):
            RigidTransform(reflect, np.zeros(3))

    def test_at_moves_the_checked_rotation_without_checking_it_again(self, monkeypatch):
        from crackfill import geometry

        mount = RigidTransform(rotation_about_z(0.4), [1.0, 2.0, 3.0], Frame.LASER, Frame.ROBOT)
        checks = []
        monkeypatch.setattr(geometry, "_check_rotation", lambda r: checks.append(r) or r)
        moved = mount.at([4.0, 5.0, 6.0])
        assert checks == []
        assert moved.rotation is mount.rotation
        np.testing.assert_array_equal(moved.translation, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(mount.translation, [1.0, 2.0, 3.0])
        assert (moved.source_frame, moved.target_frame) == (Frame.LASER, Frame.ROBOT)
        with pytest.raises(ValueError):
            mount.at([1.0, 2.0])

    def test_untrusted_matrix_is_still_rejected(self):
        """Reusing a checked rotation leaves the constructor's check in
        place for every matrix that enters from outside."""
        nearly = rotation_about_z(0.4) + 1e-7
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(nearly, np.zeros(3), Frame.LASER, Frame.ROBOT)
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3)[:2], np.zeros(3))


class TestAxisRotations:
    def test_quarter_turns_map_unit_vectors(self):
        half_pi = np.pi / 2
        np.testing.assert_allclose(rotation_about_z(half_pi) @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(rotation_about_x(half_pi) @ [0, 1, 0], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(rotation_about_y(half_pi) @ [0, 0, 1], [1, 0, 0], atol=1e-12)

    def test_axis_angle_agrees_with_named_axes(self):
        for angle in (-1.2, 0.0, 0.7, 2.9):
            np.testing.assert_allclose(axis_angle_rotation([0, 0, 1], angle), rotation_about_z(angle), atol=1e-12)
            np.testing.assert_allclose(axis_angle_rotation([1, 0, 0], angle), rotation_about_x(angle), atol=1e-12)

    def test_axis_angle_is_a_rotation(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestTransformPoint:
    def test_applies_rotation_and_translation(self):
        tf = RigidTransform(rotation_about_z(np.pi / 2), [10.0, 0.0, 5.0], Frame.CAMERA, Frame.ROBOT)
        p = Point3(1.0, 0.0, 0.0, Frame.CAMERA)
        q = transform_point(p, tf)
        assert q.frame == Frame.ROBOT
        np.testing.assert_allclose(q.as_array(), [10.0, 1.0, 5.0], atol=1e-12)

    def test_frame_mismatch_rejected(self):
        tf = RigidTransform(np.eye(3), np.zeros(3), Frame.CAMERA, Frame.ROBOT)
        p = Point3(0.0, 0.0, 0.0, Frame.LASER)
        with pytest.raises(FrameMismatch):
            transform_point(p, tf)

    def test_untagged_transform_needs_explicit_target(self):
        tf = RigidTransform(np.eye(3), np.zeros(3))
        p = Point3(1.0, 2.0, 3.0, Frame.LASER)
        with pytest.raises(ValueError):
            transform_point(p, tf)
        q = transform_point(p, tf, Frame.ROBOT)
        assert q.frame == Frame.ROBOT

    def test_compose_frame_chaining_enforced(self):
        cam_to_robot = RigidTransform(np.eye(3), np.zeros(3), Frame.CAMERA, Frame.ROBOT)
        laser_to_robot = RigidTransform(np.eye(3), np.zeros(3), Frame.LASER, Frame.ROBOT)
        with pytest.raises(FrameMismatch):
            compose(cam_to_robot, laser_to_robot)


def refine_as_measured(monkeypatch, waypoints, offsets, mount):
    """refine_waypoints on a flat plate, the scan at waypoints[i] measured
    with its centre offset and height (c_x, c_y) = offsets[i]."""

    def measured(profiles, threshold):
        return [ProfileFeatures(0, 1, 0.0, 0.0, 0.0, 0.0, c_x, c_y) for c_x, c_y in offsets]

    monkeypatch.setattr(repair, "measure", measured)
    plate = make_flat(nx=300, ny=300, cell=1.0, origin=(-150.0, -150.0))
    return refine_waypoints(waypoints, plate, laser_mount=mount, noise=SensorNoise.noiseless()).waypoints


class TestLaserCorrection:
    def test_structural_zeros_hold_for_random_inputs(self, monkeypatch):
        """Across a crack along robot y the correction has no y part; across
        one along x it has no x part. The height offset c_y lands on z."""
        rng = np.random.default_rng(16)
        offsets = [(rng.uniform(-30, 30), rng.uniform(-10, 10)) for _ in range(1000)]
        along = np.linspace(-100.0, 100.0, 1000)
        mount = RigidTransform.identity(Frame.LASER, Frame.ROBOT)
        along_y = refine_as_measured(monkeypatch, [make_waypoint(0.5, t, -1.0) for t in along], offsets, mount)
        along_x = refine_as_measured(monkeypatch, [make_waypoint(t, 0.5, -1.0) for t in along], offsets, mount)
        for t, (c_x, c_y), h, v in zip(along, offsets, along_y, along_x, strict=True):
            assert h.refined_robot_pt.frame == Frame.ROBOT and v.refined_robot_pt.frame == Frame.ROBOT
            assert (h.refined_robot_pt.x, h.refined_robot_pt.y, h.refined_robot_pt.z) == (0.5 + c_x, t, -1.0 + c_y)
            assert (v.refined_robot_pt.x, v.refined_robot_pt.y, v.refined_robot_pt.z) == (t, 0.5 + c_x, -1.0 + c_y)

    def test_zero_measurement_gives_zero_correction(self, monkeypatch):
        mount = RigidTransform(rotation_about_z(0.3), np.zeros(3), Frame.LASER, Frame.ROBOT)
        for waypoints in (
            [make_waypoint(1.0, y, -2.0) for y in (-20.0, 0.0, 20.0)],
            [make_waypoint(x, 1.0, -2.0) for x in (-20.0, 0.0, 20.0)],
        ):
            for wp in refine_as_measured(monkeypatch, waypoints, [(0.0, 0.0)] * 3, mount):
                assert wp.refined_robot_pt == wp.robot_pt


class TestPoint3:
    def test_array_round_trip(self):
        p = Point3(1.5, -2.5, 3.25, Frame.ROBOT)
        q = Point3.from_array(p.as_array(), Frame.ROBOT)
        assert q == p

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=600.0, px=320.0, py=240.0, image_width=640, image_height=480)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=600.0, fy=600.0, px=900.0, py=240.0, image_width=640, image_height=480)
