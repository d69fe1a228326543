"""Profile analysis tests.

The calibration check uses synthetic profiles whose areas are exact by
construction (a rectangular trough of m samples at height A/(m*pitch)
integrates to A), so the fitted flow rate can be pinned to a frozen
constant computed independently from the closed-form least squares
expression Q = sum(A_i/v_i) / sum(1/v_i^2).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crackfill import (
    CalibrationModel,
    CalibrationSample,
    InsufficientSamples,
    LaserProfile,
    NoEdges,
    NonMonotonicCalibration,
    ProfileFeatures,
    SensorNoise,
    calibrate,
    detect_edges,
    edge_threshold_for,
    measure,
    speed_for_area,
)
from crackfill.profile import window_area
from conftest import rect_profile

# Per-speed mean strip areas (mm^2) and the flow rate their inverse-speed
# fit must produce. Frozen from an independent evaluation of
# sum(A/v) / sum(1/v^2) before the implementation existed.
STRIP_AREAS = {6.0: 165.764, 8.0: 111.977, 10.0: 91.448, 15.0: 63.561, 20.0: 41.713}
FROZEN_FLOW_MM3_S = 946.0635673187572


def exact_area_profile(area: float, n: int = 1024, span: float = 40.0, m: int = 400, a: int = 300) -> LaserProfile:
    """Rectangular trough whose measured area equals `area` by construction."""
    x = np.linspace(-span / 2.0, span / 2.0, n)
    pitch = float(x[1] - x[0])
    z = np.zeros(n)
    z[a + 1 : a + 1 + m] = -area / (m * pitch)
    return LaserProfile(x=x, z=z, valid=np.ones(n, dtype=bool))


def trough(width: float, depth: float, centre: float = 0.0, n: int = 1024, span: float = 40.0) -> LaserProfile:
    x = np.linspace(-span / 2.0, span / 2.0, n)
    z = np.where(np.abs(x - centre) < width / 2.0, -depth, 0.0)
    return LaserProfile(x=x, z=z, valid=np.ones(n, dtype=bool))


class TestDetectEdges:
    def test_exact_indices_on_synthetic_trough(self):
        prof, left, right = rect_profile()
        assert detect_edges(prof, edge_threshold_mm=1e-6) == (left, right)

    def test_walls_of_10mm_trough_land_within_two_pitches(self):
        """Trough walls at x = 10 and x = 20 on a 40 mm, 1024-point line."""
        x = np.linspace(-20.0, 20.0, 1024)
        z = np.where((x > 10.0) & (x < 20.0), -2.0, 0.0)
        prof = LaserProfile(x=x, z=z, valid=np.ones(x.size, dtype=bool))
        left, right = detect_edges(prof, edge_threshold_mm=1e-6)
        assert abs(prof.x[left] - 10.0) <= 2.0 * prof.pitch
        assert abs(prof.x[right] - 20.0) <= 2.0 * prof.pitch

    def test_ramp_walls_resolve_to_feet(self):
        """A triangular notch has constant-slope walls; the plateau walk
        must push each edge to the foot of its ramp."""
        x = np.linspace(-20.0, 20.0, 1024)
        z = -2.0 * np.maximum(0.0, 1.0 - np.abs(x) / 5.0)
        prof = LaserProfile(x=x, z=z, valid=np.ones(x.size, dtype=bool))
        left, right = detect_edges(prof, edge_threshold_mm=1e-6)
        assert abs(prof.x[left] + 5.0) <= 2.0 * prof.pitch
        assert abs(prof.x[right] - 5.0) <= 2.0 * prof.pitch

    def test_flat_profile_raises(self):
        x = np.linspace(-20.0, 20.0, 256)
        prof = LaserProfile(x=x, z=np.zeros(256), valid=np.ones(256, dtype=bool))
        with pytest.raises(NoEdges):
            detect_edges(prof, edge_threshold_for(SensorNoise()))

    def test_subthreshold_trough_raises(self):
        prof = trough(width=10.0, depth=0.05)
        with pytest.raises(NoEdges):
            detect_edges(prof, edge_threshold_mm=0.12)

    def test_single_step_has_no_opposite_wall(self):
        x = np.linspace(-20.0, 20.0, 256)
        z = np.where(x >= 0.0, -2.0, 0.0)
        prof = LaserProfile(x=x, z=z, valid=np.ones(256, dtype=bool))
        with pytest.raises(NoEdges):
            detect_edges(prof, edge_threshold_mm=1e-6)

    def test_all_invalid_raises(self):
        prof, _, _ = rect_profile()
        dead = LaserProfile(x=prof.x, z=prof.z, valid=np.zeros(prof.n_points, dtype=bool))
        with pytest.raises(NoEdges):
            detect_edges(dead, edge_threshold_mm=1e-6)

    def test_min_separation_excludes_adjacent_spike(self):
        """A one-sample spike has its two walls one sample apart, closer
        than MIN_SEPARATION, so it must not count as a crack."""
        x = np.linspace(-20.0, 20.0, 256)
        z = np.zeros(256)
        z[100] = -2.0
        prof = LaserProfile(x=x, z=z, valid=np.ones(256, dtype=bool))
        with pytest.raises(NoEdges):
            detect_edges(prof, edge_threshold_mm=1e-6)


class TestMeasure:
    def test_rect_trough_area_and_centre(self):
        """10 mm wide, 2 mm deep: area 20 mm^2, centre height -2 mm."""
        prof = trough(width=10.0, depth=2.0)
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(20.0, rel=0.02)
        assert feats.centre_height_mm == pytest.approx(-2.0, abs=1e-9)
        assert feats.centre_offset_mm == pytest.approx(0.0, abs=prof.pitch)
        assert feats.baseline_mm == pytest.approx(0.0, abs=1e-12)

    def test_triangular_notch_area(self):
        x = np.linspace(-20.0, 20.0, 1024)
        z = -2.0 * np.maximum(0.0, 1.0 - np.abs(x) / 5.0)
        prof = LaserProfile(x=x, z=z, valid=np.ones(x.size, dtype=bool))
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(10.0, rel=0.03)

    def test_sample_symmetric_trough_centres_within_one_pitch(self):
        """n = 1025 puts a sample exactly at x = 15 and the trough walls
        symmetric around it, so only the midpoint floor can move c_x."""
        prof = trough(width=6.0, depth=2.0, centre=15.0, n=1025)
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert abs(feats.centre_offset_mm - 15.0) <= prof.pitch + 1e-12

    def test_offset_trough_centre_position(self):
        """Unaligned walls add up to half a pitch of quantisation each."""
        prof = trough(width=6.0, depth=2.0, centre=15.0)
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert feats.centre_offset_mm == pytest.approx(15.0, abs=1.5 * prof.pitch)

    def test_bead_measures_like_trough(self):
        """Unsigned deviation: a bead above the surface measures the same
        area as the mirror-image trough."""
        prof = trough(width=8.0, depth=3.0)
        bead = LaserProfile(x=prof.x, z=-prof.z, valid=prof.valid)
        a = measure(prof, edge_threshold_mm=1e-6)
        b = measure(bead, edge_threshold_mm=1e-6)
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
        a = measure(base, edge_threshold_mm=1e-6)
        b = measure(moved, edge_threshold_mm=1e-6)
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
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert feats.area_mm2 == pytest.approx(width * depth, abs=0.02 * width * depth + 2.0 * prof.pitch * depth)

    def test_baseline_fallback_logs_warning(self, caplog):
        x = np.linspace(-10.0, 10.0, 64)
        z = np.zeros(64)
        z[3:61] = -3.0
        prof = LaserProfile(x=x, z=z, valid=np.ones(64, dtype=bool))
        with caplog.at_level("WARNING", logger="crackfill.profile"):
            feats = measure(prof, edge_threshold_mm=1e-6)
        assert "baseline" in caplog.text
        assert np.isfinite(feats.area_mm2)

    def test_window_area_matches_measure(self):
        prof = trough(width=10.0, depth=2.0)
        feats = measure(prof, edge_threshold_mm=1e-6)
        assert window_area(prof, feats.left_index, feats.right_index) == (feats.baseline_mm, feats.area_mm2)

    def test_window_area_fallback_baseline_ignores_invalid_samples(self):
        """With nothing outside the padded window, the baseline is the
        median of the valid samples only."""
        x = np.linspace(-1.0, 1.0, 11)
        z = np.array([-50.0, -50.0, -50.0, -50.0, 1.0, 1.0, 1.0, 1.0, 1.0, -50.0, -50.0])
        valid = z > 0
        baseline, area = window_area(LaserProfile(x, z, valid), 4, 8)
        assert baseline == 1.0 and area == 0.0

    def test_features_validation(self):
        with pytest.raises(ValueError):
            ProfileFeatures(5, 5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ProfileFeatures(2, 5, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0)


class TestCalibrate:
    def make_scans(self, areas: dict[float, float]) -> list[tuple[float, list[LaserProfile]]]:
        return [(speed, [exact_area_profile(area), exact_area_profile(area)]) for speed, area in areas.items()]

    def test_fitted_flow_matches_frozen_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = calibrate(self.make_scans(STRIP_AREAS), edge_threshold_mm=1e-6)
        assert model.flow_rate_mm3_s == pytest.approx(FROZEN_FLOW_MM3_S, rel=1e-12)
        assert model.v_min == 6.0
        assert model.v_max == 20.0
        assert [s.speed_mm_s for s in model.samples] == sorted(STRIP_AREAS)
        for sample in model.samples:
            assert sample.area_mm2 == pytest.approx(STRIP_AREAS[sample.speed_mm_s], rel=1e-12)
            assert sample.std_mm2 == pytest.approx(0.0, abs=1e-9)

    def test_spread_profiles_report_sample_std(self):
        scans = [
            (10.0, [exact_area_profile(90.0), exact_area_profile(94.0)]),
            (20.0, [exact_area_profile(40.0), exact_area_profile(44.0)]),
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
            (10.0, [exact_area_profile(90.0)]),
            (20.0, [exact_area_profile(40.0), exact_area_profile(40.0)]),
        ]
        with pytest.raises(InsufficientSamples):
            calibrate(scans, edge_threshold_mm=1e-6)

    def test_duplicate_speed_entries_pool_profiles(self):
        scans = [
            (10.0, [exact_area_profile(90.0)]),
            (10.0, [exact_area_profile(90.0)]),
            (20.0, [exact_area_profile(40.0), exact_area_profile(40.0)]),
        ]
        model = calibrate(scans, edge_threshold_mm=1e-6)
        assert len(model.samples) == 2

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
