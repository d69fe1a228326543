"""Profile analysis tests.

The calibration check uses synthetic profiles whose areas are exact by
construction (a rectangular trough of m samples at height A/(m*pitch)
integrates to A), so the fitted flow rate can be pinned to a frozen
constant computed independently from the closed-form least squares
expression Q = sum(A_i/v_i) / sum(1/v_i^2).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crackfill import (
    CalibrationModel,
    CalibrationSample,
    FillMode,
    Frame,
    Heightfield,
    InsufficientSamples,
    LaserProfile,
    NoEdges,
    NonMonotonicCalibration,
    Point3,
    ProfileFeatures,
    RefinementResult,
    RigidTransform,
    ScenarioConfig,
    SensorNoise,
    StationOutsideGrid,
    StationRecord,
    calibrate,
    detect_edges,
    edge_threshold_for,
    measure,
    refine_waypoints,
    rotation_about_z,
    scan_profile,
    speed_for_area,
    transform_point,
    validate,
)
from crackfill.profile import window_area
from crackfill.sensors import SCANNER_POINTS, SCANNER_RANGE_MM, SCANNER_STANDOFF_MM
from conftest import counted, make_waypoint, rect_profile

# Per-speed mean strip areas (mm^2) and the flow rate their inverse-speed
# fit must produce. Frozen from an independent evaluation of
# sum(A/v) / sum(1/v^2) before the implementation existed.
STRIP_AREAS = {6.0: 165.764, 8.0: 111.977, 10.0: 91.448, 15.0: 63.561, 20.0: 41.713}
FROZEN_FLOW_MM3_S = 946.0635673187572


def exact_area_profile(*areas: float, n: int = 1024, span: float = 40.0, m: int = 400, a: int = 300) -> LaserProfile:
    """One rectangular trough per line, each measuring its area in `areas` by construction."""
    x = np.linspace(-span / 2.0, span / 2.0, n)
    pitch = float(x[1] - x[0])
    z = np.zeros((len(areas), n))
    z[:, a + 1 : a + 1 + m] = -np.array(areas)[:, None] / (m * pitch)
    return LaserProfile(x=x, z=z, valid=np.ones(z.shape, dtype=bool))


def trough(width: float, depth: float, centre: float = 0.0, n: int = 1024, span: float = 40.0) -> LaserProfile:
    """One-line batch crossing a rectangular trough."""
    x = np.linspace(-span / 2.0, span / 2.0, n)
    z = np.where(np.abs(x - centre) < width / 2.0, -depth, 0.0)
    return LaserProfile(x=x, z=z[None], valid=np.ones((1, n), dtype=bool))


class TestDetectEdges:
    def test_exact_indices_on_synthetic_trough(self):
        prof, left, right = rect_profile()
        assert detect_edges(prof, edge_threshold_mm=1e-6) == [(left, right)]

    def test_walls_of_10mm_trough_land_within_two_pitches(self):
        """Trough walls at x = 10 and x = 20 on a 40 mm, 1024-point line."""
        x = np.linspace(-20.0, 20.0, 1024)
        z = np.where((x > 10.0) & (x < 20.0), -2.0, 0.0)
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, x.size), dtype=bool))
        [(left, right)] = detect_edges(prof, edge_threshold_mm=1e-6)
        assert abs(prof.x[left] - 10.0) <= 2.0 * prof.pitch
        assert abs(prof.x[right] - 20.0) <= 2.0 * prof.pitch

    def test_ramp_walls_resolve_to_feet(self):
        """A triangular notch has constant-slope walls; the plateau walk
        must push each edge to the foot of its ramp."""
        x = np.linspace(-20.0, 20.0, 1024)
        z = -2.0 * np.maximum(0.0, 1.0 - np.abs(x) / 5.0)
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, x.size), dtype=bool))
        [(left, right)] = detect_edges(prof, edge_threshold_mm=1e-6)
        assert abs(prof.x[left] + 5.0) <= 2.0 * prof.pitch
        assert abs(prof.x[right] - 5.0) <= 2.0 * prof.pitch

    def test_flat_profile_raises(self):
        x = np.linspace(-20.0, 20.0, 256)
        prof = LaserProfile(x=x, z=np.zeros((1, 256)), valid=np.ones((1, 256), dtype=bool))
        assert detect_edges(prof, edge_threshold_for(SensorNoise())) == [None]

    def test_subthreshold_trough_raises(self):
        prof = trough(width=10.0, depth=0.05)
        assert detect_edges(prof, edge_threshold_mm=0.12) == [None]

    def test_single_step_has_no_opposite_wall(self):
        x = np.linspace(-20.0, 20.0, 256)
        z = np.where(x >= 0.0, -2.0, 0.0)
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, 256), dtype=bool))
        assert detect_edges(prof, edge_threshold_mm=1e-6) == [None]

    def test_all_invalid_raises(self):
        prof, _, _ = rect_profile()
        dead = LaserProfile(x=prof.x, z=prof.z, valid=np.zeros((1, prof.n_points), dtype=bool))
        assert detect_edges(dead, edge_threshold_mm=1e-6) == [None]

    def test_min_separation_excludes_adjacent_spike(self):
        """A one-sample spike has its two walls one sample apart, closer
        than MIN_SEPARATION, so it must not count as a crack."""
        x = np.linspace(-20.0, 20.0, 256)
        z = np.zeros(256)
        z[100] = -2.0
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, 256), dtype=bool))
        assert detect_edges(prof, edge_threshold_mm=1e-6) == [None]


class TestMeasure:
    def test_rect_trough_area_and_centre(self):
        """10 mm wide, 2 mm deep: area 20 mm^2, centre height -2 mm."""
        prof = trough(width=10.0, depth=2.0)
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(20.0, rel=0.02)
        assert feats.centre_height_mm == pytest.approx(-2.0, abs=1e-9)
        assert feats.centre_offset_mm == pytest.approx(0.0, abs=prof.pitch)
        assert feats.baseline_mm == pytest.approx(0.0, abs=1e-12)

    def test_triangular_notch_area(self):
        x = np.linspace(-20.0, 20.0, 1024)
        z = -2.0 * np.maximum(0.0, 1.0 - np.abs(x) / 5.0)
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, x.size), dtype=bool))
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(10.0, rel=0.03)

    def test_sample_symmetric_trough_centres_within_one_pitch(self):
        """n = 1025 puts a sample exactly at x = 15 and the trough walls
        symmetric around it, so only the midpoint floor can move c_x."""
        prof = trough(width=6.0, depth=2.0, centre=15.0, n=1025)
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert abs(feats.centre_offset_mm - 15.0) <= prof.pitch + 1e-12

    def test_offset_trough_centre_position(self):
        """Unaligned walls add up to half a pitch of quantisation each."""
        prof = trough(width=6.0, depth=2.0, centre=15.0)
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert feats.centre_offset_mm == pytest.approx(15.0, abs=1.5 * prof.pitch)

    def test_bead_measures_like_trough(self):
        """Unsigned deviation: a bead above the surface measures the same
        area as the mirror-image trough."""
        prof = trough(width=8.0, depth=3.0)
        bead = LaserProfile(x=prof.x, z=-prof.z, valid=prof.valid)
        [a] = measure(prof, edge_threshold_mm=1e-6)
        [b] = measure(bead, edge_threshold_mm=1e-6)
        assert b.area_mm2 == pytest.approx(a.area_mm2, rel=1e-12)
        assert b.centre_height_mm == pytest.approx(-a.centre_height_mm, abs=1e-12)

    @given(
        width=st.floats(2.0, 18.0),
        depth=st.floats(0.5, 5.0),
        centre=st.floats(-8.0, 8.0),
        shift=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_invariance(self, width, depth, centre, shift):
        """Raising the whole surface must not change any measurement."""
        base = trough(width=width, depth=depth, centre=centre)
        moved = LaserProfile(x=base.x, z=base.z + shift, valid=base.valid)
        [a] = measure(base, edge_threshold_mm=1e-6)
        [b] = measure(moved, edge_threshold_mm=1e-6)
        assert (a.left_index, a.right_index) == (b.left_index, b.right_index)
        assert b.area_mm2 == pytest.approx(a.area_mm2, abs=1e-9)
        assert b.centre_offset_mm == pytest.approx(a.centre_offset_mm, abs=1e-9)
        assert b.centre_height_mm == pytest.approx(a.centre_height_mm, abs=1e-9)
        assert b.baseline_mm == pytest.approx(a.baseline_mm + shift, abs=1e-9)

    @given(width=st.floats(2.0, 18.0), depth=st.floats(0.5, 5.0), centre=st.floats(-8.0, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_area_tracks_geometry(self, width, depth, centre):
        """Measured area agrees with w*d up to one sample column per wall."""
        prof = trough(width=width, depth=depth, centre=centre)
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(width * depth, abs=0.02 * width * depth + 2.0 * prof.pitch * depth)

    def test_baseline_fallback_logs_warning(self, caplog):
        x = np.linspace(-10.0, 10.0, 64)
        z = np.zeros(64)
        z[3:61] = -3.0
        prof = LaserProfile(x=x, z=z[None], valid=np.ones((1, 64), dtype=bool))
        with caplog.at_level("WARNING", logger="crackfill.profile"):
            [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert "baseline" in caplog.text
        assert np.isfinite(feats.area_mm2)

    def test_window_area_matches_measure(self):
        prof = trough(width=10.0, depth=2.0)
        [feats] = measure(prof, edge_threshold_mm=1e-6)
        assert window_area(prof, 0, feats.left_index, feats.right_index) == (feats.baseline_mm, feats.area_mm2)

    def test_window_area_fallback_baseline_ignores_invalid_samples(self):
        """With nothing outside the padded window, the baseline is the
        median of the valid samples only."""
        x = np.linspace(-1.0, 1.0, 11)
        z = np.array([-50.0, -50.0, -50.0, -50.0, 1.0, 1.0, 1.0, 1.0, 1.0, -50.0, -50.0])
        valid = z > 0
        baseline, area = window_area(LaserProfile(x, z[None], valid[None]), 0, 4, 8)
        assert baseline == 1.0 and area == 0.0

    def test_window_area_reads_the_given_row(self):
        """Each row of a batch gets its own baseline and area."""
        batch = exact_area_profile(90.0, 40.0)
        [first, second] = measure(batch, edge_threshold_mm=1e-6)
        assert window_area(batch, 1, first.left_index, first.right_index) == (second.baseline_mm, second.area_mm2)
        assert second.area_mm2 == pytest.approx(40.0, rel=1e-12)

    def test_empty_batch_measures_nothing(self):
        hf = Heightfield.flat((-30.0, -10.0), 0.5, 120, 40)
        empty = scan_profile(hf, [], 40.0, [])
        assert empty.z.shape == (0, SCANNER_POINTS)
        assert detect_edges(empty, 1e-6) == [] and measure(empty, 1e-6) == []

    def test_features_validation(self):
        with pytest.raises(ValueError):
            ProfileFeatures(5, 5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ProfileFeatures(2, 5, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0)


class TestCalibrate:
    def make_scans(self, areas: dict[float, float]) -> list[tuple[float, LaserProfile]]:
        return [(speed, exact_area_profile(area, area)) for speed, area in areas.items()]

    def test_fitted_flow_matches_frozen_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # fastest strip first: the samples still come out sorted by speed
            model = calibrate(self.make_scans(STRIP_AREAS)[::-1], edge_threshold_mm=1e-6)
        assert model.flow_rate_mm3_s == pytest.approx(FROZEN_FLOW_MM3_S, rel=1e-12)
        assert model.v_min == 6.0
        assert model.v_max == 20.0
        assert [s.speed_mm_s for s in model.samples] == sorted(STRIP_AREAS)
        for sample in model.samples:
            assert sample.area_mm2 == pytest.approx(STRIP_AREAS[sample.speed_mm_s], rel=1e-12)
            assert sample.std_mm2 == pytest.approx(0.0, abs=1e-9)

    def test_spread_profiles_report_sample_std(self):
        scans = [
            (10.0, exact_area_profile(90.0, 94.0)),
            (20.0, exact_area_profile(40.0, 44.0)),
        ]
        model = calibrate(scans, edge_threshold_mm=1e-6)
        for sample in model.samples:
            # std of {A-2, A+2} with ddof=1 is 2*sqrt(2)
            assert sample.std_mm2 == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-9)

    def test_non_monotonic_areas_warn(self):
        scans = self.make_scans({6.0: 100.0, 10.0: 120.0, 20.0: 50.0})
        with pytest.warns(NonMonotonicCalibration):
            calibrate(scans, edge_threshold_mm=1e-6)

    def test_single_speed_rejected(self):
        with pytest.raises(InsufficientSamples):
            calibrate(self.make_scans({10.0: 90.0}), edge_threshold_mm=1e-6)

    def test_single_profile_per_speed_rejected(self):
        scans = [
            (10.0, exact_area_profile(90.0)),
            (20.0, exact_area_profile(40.0, 40.0)),
        ]
        with pytest.raises(InsufficientSamples):
            calibrate(scans, edge_threshold_mm=1e-6)

    def test_repeated_speed_rejected(self):
        """Each speed's strip is one batch; a second batch at the same speed
        (also when written as an int) is refused, not pooled."""
        for repeat in (10.0, 10):
            scans = [
                (10.0, exact_area_profile(90.0, 90.0)),
                (repeat, exact_area_profile(90.0, 90.0)),
                (20.0, exact_area_profile(40.0, 40.0)),
            ]
            with pytest.raises(ValueError, match="one strip batch per speed"):
                calibrate(scans, edge_threshold_mm=1e-6)

    def test_dict_round_trip_uses_flow_key(self):
        model = calibrate(self.make_scans(STRIP_AREAS), edge_threshold_mm=1e-6)
        d = model.to_dict()
        assert set(d) == {"samples", "Q", "v_min", "v_max"}
        back = CalibrationModel.from_dict(d)
        assert back.flow_rate_mm3_s == model.flow_rate_mm3_s
        assert back.v_min == model.v_min and back.v_max == model.v_max
        assert back.samples == model.samples

    def test_model_validation(self):
        sample = CalibrationSample(10.0, 90.0, 1.0)
        with pytest.raises(ValueError):
            CalibrationModel((sample,), -5.0, 6.0, 20.0)
        with pytest.raises(ValueError):
            CalibrationModel((sample,), 900.0, 20.0, 6.0)
        with pytest.raises(ValueError):
            CalibrationModel((sample,), float("nan"), 6.0, 20.0)
        with pytest.raises(ValueError):
            CalibrationModel((sample,), 900.0, 6.0, float("inf"))


class TestSpeedForArea:
    @pytest.fixture
    def model(self) -> CalibrationModel:
        samples = tuple(
            CalibrationSample(v, STRIP_AREAS[v], 0.0) for v in sorted(STRIP_AREAS)
        )
        return CalibrationModel(samples, FROZEN_FLOW_MM3_S, 6.0, 20.0)

    def test_inverts_flow_model_exactly(self, model):
        assert speed_for_area(model, FROZEN_FLOW_MM3_S / 10.0) == pytest.approx(10.0, rel=1e-12)
        assert speed_for_area(model, FROZEN_FLOW_MM3_S / 7.5) == pytest.approx(7.5, rel=1e-12)

    def test_zero_area_runs_at_top_speed(self, model):
        assert speed_for_area(model, 0.0) == 20.0

    def test_large_area_clamps_to_slowest(self, model):
        assert speed_for_area(model, 1000.0) == 6.0

    def test_small_areas_clamp_to_fastest(self, model):
        assert speed_for_area(model, 20.0) == 20.0
        assert speed_for_area(model, 40.0) == 20.0

    def test_negative_area_rejected(self, model):
        with pytest.raises(ValueError):
            speed_for_area(model, -1.0)

    def test_monotone_non_increasing(self, model):
        areas = np.linspace(0.5, 400.0, 200)
        speeds = [speed_for_area(model, a) for a in areas]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(speeds, speeds[1:]))

    def test_interpolation_hits_sample_speeds_exactly(self, model):
        for speed, area in STRIP_AREAS.items():
            assert speed_for_area(model, area, interpolate=True) == pytest.approx(speed, rel=1e-12)

    def test_interpolation_needs_two_samples(self, model):
        q_only = CalibrationModel((), model.flow_rate_mm3_s, model.v_min, model.v_max)
        with pytest.raises(InsufficientSamples):
            speed_for_area(q_only, 50.0, interpolate=True)
        assert speed_for_area(q_only, 50.0) == pytest.approx(model.flow_rate_mm3_s / 50.0)

    def test_interpolation_clamps_and_stays_monotone(self, model):
        assert speed_for_area(model, 1000.0, interpolate=True) == 6.0
        assert speed_for_area(model, 1.0, interpolate=True) == 20.0
        areas = np.linspace(1.0, 400.0, 300)
        speeds = [speed_for_area(model, a, interpolate=True) for a in areas]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(speeds, speeds[1:]))


# -- batch scans against the per-station reference --------------------------------------
#
# reference_scan and reference_measure are the per-station scan_profile and
# measure as they stood before stations were scanned in batches. Every row of
# a batch must reproduce them byte for byte.


def reference_scan(hf, pose, span, noise, standoff=SCANNER_STANDOFF_MM):
    lateral = np.linspace(-span / 2.0, span / 2.0, SCANNER_POINTS)
    direction = pose.rotation[:, 0]
    ox, oy, oz = pose.translation
    xs = ox + lateral * direction[0]
    ys = oy + lateral * direction[1]
    if not np.all(hf.contains(xs, ys)):
        raise StationOutsideGrid("scan line leaves the heightfield")
    h = hf.height_at(xs, ys)
    distance = oz - h
    valid = (distance >= SCANNER_RANGE_MM[0]) & (distance <= SCANNER_RANGE_MM[1])
    z = h - (oz - standoff)
    if noise.laser_sigma_mm > 0:
        z = z + noise.generator(1).normal(0.0, noise.laser_sigma_mm, size=z.shape)
    return lateral, z, valid


def _reference_plateau_end(d, index, direction):
    floor = 0.5 * abs(d[index])
    sign = np.sign(d[index])
    j = index
    while 0 <= j + direction < len(d) and np.sign(d[j + direction]) == sign and abs(d[j + direction]) >= floor:
        j += direction
    return j


def reference_edges(z, valid, threshold):
    d = np.diff(z)
    pair_valid = valid[1:] & valid[:-1]
    mag = np.where(pair_valid, np.abs(d), -np.inf)
    first = int(np.argmax(mag))
    if not np.isfinite(mag[first]) or mag[first] <= threshold:
        raise NoEdges("no first-difference excursion above threshold")
    idx = np.arange(len(d))
    opposite = pair_valid & (np.sign(d) == -np.sign(d[first])) & (np.abs(idx - first) >= 5)
    if not opposite.any():
        raise NoEdges("no opposite-signed wall at sufficient separation")
    mag2 = np.where(opposite, np.abs(d), -np.inf)
    second = int(np.argmax(mag2))
    if mag2[second] <= threshold:
        raise NoEdges("opposite wall does not exceed threshold")
    if first < second:
        return _reference_plateau_end(d, first, -1), _reference_plateau_end(d, second, +1)
    return _reference_plateau_end(d, second, -1), _reference_plateau_end(d, first, +1)


def reference_window_area(x, z, valid, left, right):
    idx = np.arange(len(x))
    outside = ((idx < left - 10) | (idx > right + 10)) & valid
    baseline = float(np.median(z[outside] if outside.any() else z[valid]))
    return baseline, float(np.sum(np.abs(z[left : right + 1] - baseline)) * float(x[1] - x[0]))


def reference_measure(x, z, valid, threshold):
    left, right = reference_edges(z, valid, threshold)
    baseline, area = reference_window_area(x, z, valid, left, right)
    centre = (left + right) // 2
    return ProfileFeatures(
        left_index=left,
        right_index=right,
        left_x_mm=float(x[left]),
        right_x_mm=float(x[right]),
        baseline_mm=baseline,
        area_mm2=area,
        centre_offset_mm=float(x[centre]),
        centre_height_mm=float(z[centre] - baseline),
    )


def reference_or_none(x, z, valid, threshold):
    try:
        return reference_measure(x, z, valid, threshold)
    except NoEdges:
        return None


def banded_plate() -> Heightfield:
    """A plate whose bands along y give every kind of laser line.

    y < 0: rectangular trough |x| < 4, 5 mm deep. 0 <= y < 8: trough with
    ramp walls, 4 mm deep for |x| < 2 and rising to the surface at |x| = 6.
    8 <= y < 14: flat, no edges. 14 <= y < 22: the rectangular trough
    beside a pit at 8 <= x <= 12 too deep for the scanner's range, so part
    of the line is invalid. y >= 22: one step down at x = 2, no second wall.
    """
    hf = Heightfield.flat((-30.0, -10.0), 0.1, 600, 400)
    x = hf.x_of(np.arange(hf.nx))[None, :]
    y = hf.y_of(np.arange(hf.ny))[:, None]
    h = np.zeros((hf.ny, hf.nx))
    rect = np.where(np.abs(x) < 4.0, -5.0, 0.0)
    ramp = -4.0 * np.clip((6.0 - np.abs(x)) / 4.0, 0.0, 1.0)
    pit = np.where((x >= 8.0) & (x <= 12.0), -200.0, rect)
    step = np.where(x > 2.0, -3.0, 0.0)
    h = np.where(y < 0.0, rect, h)
    h = np.where((y >= 0.0) & (y < 8.0), ramp, h)
    h = np.where((y >= 14.0) & (y < 22.0), pit, h)
    h = np.where(y >= 22.0, step, h)
    hf.heights[:] = h
    return hf


PLATE = banded_plate()
NOISY = SensorNoise(laser_sigma_mm=0.02, seed=5)


def station_pose(x: float, y: float, angle: float = 0.0, z: float = SCANNER_STANDOFF_MM) -> RigidTransform:
    return RigidTransform(rotation_about_z(angle), [x, y, z], Frame.LASER, Frame.ROBOT)


def assert_batch_matches_reference(hf, poses, noises, threshold, span=40.0):
    """Scan poses as one batch and check every row against the reference."""
    batch = scan_profile(hf, poses, span, noises)
    found = measure(batch, threshold)
    assert batch.n_lines == len(found) == len(poses)
    for i, (pose, noise) in enumerate(zip(poses, noises, strict=True)):
        x, z, valid = reference_scan(hf, pose, span, noise)
        assert np.array_equal(batch.x, x) and batch.x.tobytes() == x.tobytes()
        assert np.array_equal(batch.z[i], z) and batch.z[i].tobytes() == z.tobytes()
        assert np.array_equal(batch.valid[i], valid)
        assert found[i] == reference_or_none(x, z, valid, threshold)
    return batch, found


class TestBatchMatchesPerStation:
    def test_mixed_rows_match_the_reference_field_by_field(self):
        """Troughs, ramp walls, a flat band, invalid samples and a lone step
        in one batch: each row scans and measures like its own station."""
        ys = [-5.0, 3.0, 5.5, 10.0, 12.0, 17.0, 20.0, 25.0, -2.0]
        poses = [station_pose(0.3 * (k % 3) - 0.3, y) for k, y in enumerate(ys)]
        noises = [NOISY.derive(2, k) for k in range(len(poses))]
        batch, found = assert_batch_matches_reference(PLATE, poses, noises, edge_threshold_for(NOISY))
        assert [f is None for f in found] == [False, False, False, True, True, False, False, True, False]
        assert not batch.valid[5].all() and batch.valid[0].all()

    def test_ramp_walls_resolve_like_the_reference(self):
        shifts = [-0.5, 0.0, 0.7] * 3
        poses = [station_pose(dx, y) for dx, y in zip(shifts, [1.0, 4.0, 7.5] * 3)]
        _, found = assert_batch_matches_reference(PLATE, poses, [SensorNoise.noiseless()] * len(poses), 1e-9)
        # the left ramp is resolved to its foot at robot x = -6
        assert all(f is not None and abs(f.left_x_mm + dx + 6.0) < 0.1 for f, dx in zip(found, shifts))

    def test_noiseless_batch_matches(self):
        poses = [station_pose(0.0, y) for y in np.linspace(-9.0, 29.0, 12)]
        assert_batch_matches_reference(PLATE, poses, [SensorNoise.noiseless()] * len(poses), edge_threshold_for(SensorNoise.noiseless()))

    def test_single_station_is_a_batch_of_one(self):
        pose = station_pose(0.2, -4.0)
        noise = NOISY.derive(2, 0)
        batch = scan_profile(PLATE, [pose], 40.0, [noise])
        assert batch.z.shape == (1, SCANNER_POINTS) and batch.n_lines == 1
        x, z, valid = reference_scan(PLATE, pose, 40.0, noise)
        assert batch.z[0].tobytes() == z.tobytes()
        assert measure(batch, 0.12) == [reference_measure(x, z, valid, 0.12)]
        assert measure(scan_profile(PLATE, [station_pose(0.0, 11.0)], 40.0, [SensorNoise.noiseless()]), 0.12) == [None]

    def test_one_station_off_the_grid_fails_the_batch(self):
        poses = [station_pose(0.0, -5.0), station_pose(12.0, 3.0), station_pose(0.0, 20.0)]
        with pytest.raises(StationOutsideGrid):
            reference_scan(PLATE, poses[1], 40.0, SensorNoise.noiseless())
        with pytest.raises(StationOutsideGrid):
            scan_profile(PLATE, poses, 40.0, [NOISY.derive(2, k) for k in range(3)])

    @given(
        layout=st.lists(
            st.tuples(st.floats(-4.0, 4.0), st.floats(-5.5, 25.5), st.floats(-0.2, 0.2)), min_size=1, max_size=6
        ),
        sigma=st.sampled_from([0.0, 0.02, 0.3]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_station_layouts(self, layout, sigma, seed):
        noise = SensorNoise(laser_sigma_mm=sigma, seed=seed)
        poses = [station_pose(x, y, angle) for x, y, angle in layout]
        assert_batch_matches_reference(PLATE, poses, [noise.derive(2, k) for k in range(len(poses))], edge_threshold_for(noise))

    def test_refinement_matches_a_per_station_loop(self):
        """refine_waypoints against the loop that scanned and measured one
        waypoint at a time: same survivors, features, stations and drops."""
        mount = RigidTransform(rotation_about_z(0.05), [0.5, -0.25, 1.0], Frame.LASER, Frame.ROBOT)
        waypoints = [make_waypoint(0.4 * math.sin(k), y, -0.3) for k, y in enumerate(np.arange(-8.0, 24.0, 1.5))]
        threshold = edge_threshold_for(NOISY)
        result = refine_waypoints(waypoints, PLATE, laser_mount=mount, noise=NOISY)
        kept, features, poses = [], [], []
        for i, wp in enumerate(waypoints):
            p = wp.robot_pt
            pose = RigidTransform(mount.rotation @ np.eye(3), [p.x + 0.5, p.y - 0.25, p.z + 1.0 + 310.0], Frame.LASER, Frame.ROBOT)
            try:
                feats = reference_measure(*reference_scan(PLATE, pose, 40.0, NOISY.derive(2, i)), threshold)
            except NoEdges:
                continue
            corr = transform_point(
                Point3(feats.centre_offset_mm, 0.0, feats.centre_height_mm + feats.baseline_mm, Frame.LASER),
                mount,
                Frame.ROBOT,
            )
            refined = Point3(p.x + corr.x, p.y + corr.y, p.z + corr.z, Frame.ROBOT)
            kept.append(replace(wp, refined_robot_pt=refined, area_mm2=feats.area_mm2))
            features.append(feats)
            poses.append(pose)
        assert 0 < result.dropped == len(waypoints) - len(kept)
        assert result.waypoints == tuple(kept)
        assert result.features == tuple(features)
        for station, pose in zip(result.stations, poses, strict=True):
            assert station.rotation.tobytes() == pose.rotation.tobytes()
            assert station.translation.tobytes() == pose.translation.tobytes()
            assert (station.source_frame, station.target_frame) == (Frame.LASER, Frame.ROBOT)
        assert (result.span_mm, result.standoff_mm) == (40.0, 310.0)

    def test_validation_matches_a_per_station_loop(self):
        """validate against the loop that rescanned one station at a time,
        with the pre-fill window as the fallback where the fill left no edges."""
        mount = RigidTransform.identity(Frame.LASER, Frame.ROBOT)
        waypoints = [make_waypoint(0.1 * k, y, 0.0) for k, y in enumerate([-8.0, -4.0, 2.0, 5.0, 16.0, 19.0])]
        refined = refine_waypoints(waypoints, PLATE, laser_mount=mount, noise=NOISY)
        filled = PLATE.copy()
        filled.heights[: filled.iy_of(-3.0)] = 0.0  # stations 0 and 1 levelled: no edges after the fill
        speeds = [6.0, 8.0, 10.0, 12.0, 15.0, 20.0]
        report = validate(refined, filled, speeds=speeds, noise=NOISY, elapsed_s=4.0, mode=FillMode.adaptive())
        threshold = edge_threshold_for(NOISY)
        records, fallbacks = [], 0
        for number, (station, pre, speed) in enumerate(zip(refined.stations, refined.features, speeds, strict=True)):
            x, z, valid = reference_scan(filled, station, 40.0, NOISY.derive(3, number))
            try:
                area_post = reference_measure(x, z, valid, threshold).area_mm2
            except NoEdges:
                fallbacks += 1
                _, area_post = reference_window_area(x, z, valid, pre.left_index, pre.right_index)
            records.append(StationRecord(number, pre.area_mm2, area_post, abs(area_post / pre.area_mm2), speed, True))
        assert fallbacks == 2
        assert report.records == tuple(records)
        errors = [r.fill_error for r in records]
        assert report.mean_fill_error == float(np.mean(errors))
        assert report.std_fill_error == float(np.std(errors, ddof=1))
        assert report.median_fill_error == float(np.median(errors))

    def test_validation_rejects_mismatched_lengths(self):
        station = station_pose(0.0, -5.0)
        [feats] = measure(scan_profile(PLATE, [station], 40.0, [SensorNoise.noiseless()]), 1e-9)
        one = RefinementResult((make_waypoint(0.0, -5.0, 0.0),), (feats,), (station,), 40.0, 310.0, 0)
        with pytest.raises(ValueError):
            validate(replace(one, stations=(station, station)), PLATE, speeds=[6.0, 6.0], noise=NOISY, elapsed_s=0.0, mode=FillMode.fixed(6.0))
        with pytest.raises(ValueError):
            validate(one, PLATE, speeds=[6.0, 6.0], noise=NOISY, elapsed_s=0.0, mode=FillMode.fixed(6.0))


class TestStripCalibration:
    def test_each_strip_is_scanned_and_measured_in_one_call(self, monkeypatch):
        from crackfill import config, profile

        calls = {"scan": 0, "measure": 0}

        monkeypatch.setattr(config, "scan_profile", counted(calls, "scan", config.scan_profile))
        monkeypatch.setattr(profile, "measure", counted(calls, "measure", profile.measure))
        cfg = ScenarioConfig.default()
        scans = cfg.strip_scans()
        model = calibrate(scans, edge_threshold_for(cfg.build_noise()))
        n_strips = len(cfg.raw["calibration"]["speeds_mm_s"])
        assert calls == {"scan": n_strips, "measure": n_strips}
        assert len(model.samples) == n_strips
        assert all(lines.n_lines > 1 for _, lines in scans)

    def test_a_strip_line_without_edges_fails_calibration(self):
        flat = LaserProfile(np.linspace(-20.0, 20.0, 1024), np.zeros((2, 1024)))
        with pytest.raises(NoEdges):
            calibrate([(10.0, flat), (20.0, exact_area_profile(40.0, 40.0))], edge_threshold_mm=1e-6)
