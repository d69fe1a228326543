"""Specimen tests: carved trough geometry against brute-force cell sums,
deposition volume conservation, and the guard rails on bad inputs."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from crackfill import (
    CrackSpec,
    DepositionParams,
    Heightfield,
    PathOutsideGrid,
    ScenarioConfig,
    SegmentOutsideGrid,
    StationOutsideGrid,
    ZeroSpeed,
    deposit,
    generate_specimen,
    true_cross_section,
)
from crackfill import specimen
from crackfill.specimen import profile_values
from conftest import make_flat, make_rect_crack


def brute_force_cross_section(hf: Heightfield, x: float) -> float:
    """Deficit area along the grid column nearest x, summed cell by cell."""
    ix = int(hf.ix_of(x))
    column = hf.heights[:, ix]
    return float(np.maximum(0.0, hf.nominal_surface - column).sum() * hf.cell_size)


class TestProfiles:
    def test_constant_profile(self):
        s = np.linspace(0, 10, 7)
        np.testing.assert_array_equal(profile_values(3.5, s), np.full(7, 3.5))

    def test_table_profile_matches_interp(self):
        table = [(0.0, 10.0), (100.0, 16.0), (230.0, 16.0)]
        s = np.linspace(-5.0, 250.0, 40)
        expected = np.interp(s, [r[0] for r in table], [r[1] for r in table])
        np.testing.assert_allclose(profile_values(table, s), expected, atol=1e-12)


class TestCrackSpecValidation:
    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            CrackSpec(path=[(0.0, 0.0)], width=4.0, depth=5.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            CrackSpec(path=[(0.0, 0.0), (0.0, 100.0)], width=0.0, depth=5.0)
        with pytest.raises(ValueError):
            CrackSpec(path=[(0.0, 0.0), (0.0, 100.0)], width=[(0.0, 4.0), (100.0, -1.0)], depth=5.0)

    def test_negative_breakpoint_between_samples_rejected(self):
        """A dip to -5 mm at s = 1 mm is checked at its breakpoint, not
        missed between evenly spaced samples of the 230 mm path."""
        with pytest.raises(ValueError):
            CrackSpec(path=[(0.0, 10.0), (0.0, 240.0)], width=[(0.0, 4.0), (1.0, -5.0), (2.0, 4.0)], depth=5.0)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            CrackSpec(path=[(0.0, 0.0), (0.0, 100.0)], width=4.0, depth=-2.0)

    def test_arclength_of_polyline(self):
        spec = CrackSpec(path=[(0.0, 0.0), (3.0, 4.0), (3.0, 14.0)], width=2.0, depth=1.0)
        assert spec.arclength() == pytest.approx(15.0)


class TestGenerateSpecimen:
    def test_rect_trough_cross_section_near_width_times_depth(self):
        """A 4 mm x 5 mm rectangular trough should carve close to 20 mm^2."""
        hf = make_rect_crack(width=4.0, depth=5.0, cell=0.1)
        area = true_cross_section(hf, (0.0, 75.0), (1.0, 0.0))
        # discretisation can gain or lose at most about one cell column
        assert area == pytest.approx(20.0, abs=hf.cell_size * 5.0 + 1e-9)

    def test_true_cross_section_matches_brute_force_column_sum(self):
        hf = make_rect_crack(width=8.0, depth=3.0, cell=0.1)
        for y in (30.0, 75.0, 120.0):
            oracle = float(
                np.maximum(0.0, hf.nominal_surface - hf.heights[int(hf.iy_of(y)), :]).sum() * hf.cell_size
            )
            got = true_cross_section(hf, (0.0, y), (1.0, 0.0))
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_station_on_cell_centre_sees_exact_grid_heights(self):
        hf = make_rect_crack(width=6.0, depth=2.0, cell=0.1)
        y = hf.y_of(700)
        got = true_cross_section(hf, (0.0, float(y)), (1.0, 0.0))
        oracle = float(np.maximum(0.0, -hf.heights[700, :]).sum() * hf.cell_size)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_varying_width_profile_applied(self):
        spec = CrackSpec(
            path=[(0.0, 10.0), (0.0, 140.0)],
            width=[(0.0, 4.0), (130.0, 12.0)],
            depth=3.0,
        )
        hf = generate_specimen(spec, origin=(-25.0, 0.0), cell_size=0.1, nx=500, ny=1500)
        near_start = true_cross_section(hf, (0.0, 15.0), (1.0, 0.0))
        near_end = true_cross_section(hf, (0.0, 135.0), (1.0, 0.0))
        assert near_end > near_start * 2.0

    def test_narrow_width_peak_is_carved(self):
        """crack.width_mm [[0, 4], [1, 20], [2, 4]] carves its full 20 mm at
        s = 1 mm: the carving reach is the profile's peak at its breakpoint."""
        cfg = ScenarioConfig.from_dict({"crack": {"width_mm": [[0.0, 4.0], [1.0, 20.0], [2.0, 4.0]]}})
        scene = cfg.build_scene()
        assert scene.crack.max_width() == 20.0
        hf = scene.build_specimen()
        carved = np.count_nonzero(hf.heights[int(hf.iy_of(11.0)), :] < hf.nominal_surface) * hf.cell_size
        assert carved == pytest.approx(20.0, abs=2 * hf.cell_size)

    def test_path_outside_grid_rejected(self):
        spec = CrackSpec(path=[(0.0, 10.0), (0.0, 300.0)], width=4.0, depth=5.0)
        with pytest.raises(PathOutsideGrid):
            generate_specimen(spec, origin=(-25.0, 0.0), cell_size=0.1, nx=500, ny=1500)

    def test_untouched_cells_stay_at_nominal(self):
        hf = make_rect_crack(width=4.0, depth=5.0)
        assert hf.heights[0, 0] == hf.nominal_surface
        assert hf.heights.min() == pytest.approx(hf.nominal_surface - 5.0)


class TestHeightfield:
    def test_flat_constructor_and_coordinates(self):
        hf = make_flat(nx=10, ny=20, cell=0.5, origin=(-2.0, 3.0), nominal=1.0)
        assert hf.heights.shape == (20, 10)
        assert hf.x_of(0) == -2.0
        assert hf.y_of(0) == 3.0
        assert hf.x_of(9) == pytest.approx(-2.0 + 9 * 0.5)
        assert int(hf.ix_of(-2.0)) == 0
        assert int(hf.iy_of(3.0 + 19 * 0.5)) == 19
        assert np.all(hf.heights == 1.0)

    def test_volume_below_nominal(self):
        hf = make_flat(nx=10, ny=10, cell=1.0, nominal=0.0)
        hf.heights[2:4, 2:4] = -2.0
        assert hf.volume_below_nominal() == pytest.approx(8.0)

    def test_height_at_clips_to_grid(self):
        hf = make_flat(nx=10, ny=10, cell=1.0, origin=(0.0, 0.0))
        hf.heights[9, 9] = 7.0
        assert float(hf.height_at(1e6, 1e6)) == 7.0
        assert not hf.contains(1e6, 1e6)

    def test_copy_is_independent(self):
        hf = make_flat(nx=4, ny=4, cell=1.0)
        clone = hf.copy()
        clone.heights[0, 0] = 9.0
        assert hf.heights[0, 0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Heightfield.flat((0.0, 0.0), 0.0, 10, 10)
        with pytest.raises(ValueError):
            Heightfield((0.0, 0.0), 0.1, 10, 10, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Heightfield((0.0, 0.0), 0.1, 2, 2, np.full((2, 2), np.nan))


class TestDeposit:
    def test_volume_conserved_against_heights_delta(self):
        """Deposited volume must equal the change in stored material."""
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
        before = hf.heights.sum() * hf.cell_size**2
        params = DepositionParams(flow_rate_mm3_s=946.0, nozzle_diameter_mm=4.0)
        result = deposit(hf, (0.0, 20.0), (0.0, 130.0), 10.0, params)
        after = hf.heights.sum() * hf.cell_size**2
        assert result.volume_deposited_mm3 == pytest.approx(after - before, rel=1e-9)
        assert result.volume_deposited_mm3 == pytest.approx(result.volume_target_mm3, rel=5e-3)
        assert result.elapsed_s == pytest.approx(11.0)

    def test_determinism(self):
        params = DepositionParams(flow_rate_mm3_s=500.0)
        runs = []
        for _ in range(2):
            hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
            deposit(hf, (0.0, 20.0), (0.0, 130.0), 12.0, params)
            runs.append(hf.heights.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_strip_bead_area_matches_flow_over_speed(self):
        """On a flat plate the bead cross-section should come out at Q / v."""
        hf = make_flat(nx=300, ny=1400, cell=0.1, origin=(-15.0, -5.0))
        params = DepositionParams(flow_rate_mm3_s=946.0, nozzle_diameter_mm=4.0)
        for speed in (6.0, 10.0, 20.0):
            plate = hf.copy()
            deposit(plate, (0.0, 0.0), (0.0, 120.0), speed, params)
            row = plate.heights[int(plate.iy_of(60.0)), :]
            measured = float(np.maximum(0.0, row).sum() * plate.cell_size)
            assert measured == pytest.approx(946.0 / speed, rel=0.02)

    def test_fills_trough_before_capping(self):
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
        params = DepositionParams(flow_rate_mm3_s=946.0)
        deposit(hf, (0.0, 20.0), (0.0, 130.0), 20.0, params)
        mid = hf.heights[int(hf.iy_of(75.0)), :]
        # 946/20 = 47.3 mm^2 per mm beats the 40 mm^2 trough: bottom full
        assert mid.min() >= -1e-9

    def test_underfill_leaves_material_below_surface(self):
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1)
        params = DepositionParams(flow_rate_mm3_s=400.0)
        deposit(hf, (0.0, 20.0), (0.0, 130.0), 20.0, params)
        mid = hf.heights[int(hf.iy_of(75.0)), :]
        assert mid.min() < -1e-3
        assert mid.min() > -5.0

    def test_include_end_false_skips_final_line(self):
        params = DepositionParams(flow_rate_mm3_s=500.0)
        full = make_flat(nx=100, ny=200, cell=0.5, origin=(-25.0, -25.0))
        part = full.copy()
        deposit(full, (0.0, 0.0), (0.0, 40.0), 10.0, params, include_end=True)
        deposit(part, (0.0, 0.0), (0.0, 40.0), 10.0, params, include_end=False)
        iy_end = int(full.iy_of(40.0))
        assert full.heights[iy_end, :].max() > 0.0
        assert part.heights[iy_end, :].max() == 0.0

    def test_guards(self):
        hf = make_flat(nx=50, ny=50, cell=1.0, origin=(-25.0, -25.0))
        params = DepositionParams(flow_rate_mm3_s=500.0)
        with pytest.raises(ZeroSpeed):
            deposit(hf, (0.0, 0.0), (0.0, 10.0), 0.0, params)
        with pytest.raises(SegmentOutsideGrid):
            deposit(hf, (0.0, 0.0), (0.0, 1000.0), 10.0, params)
        with pytest.raises(ValueError):
            deposit(hf, (0.0, 0.0), (0.0, 0.0), 10.0, params)

    def test_station_outside_grid(self):
        hf = make_flat(nx=50, ny=50, cell=1.0, origin=(-25.0, -25.0))
        with pytest.raises(StationOutsideGrid):
            true_cross_section(hf, (100.0, 0.0), (1.0, 0.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=0.0)
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=10.0, nozzle_diameter_mm=-1.0)
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=10.0, purge_time_s=-0.5)


class TestBrentRoot:
    def test_matches_scipy_bit_for_bit(self, monkeypatch):
        """Every bead-cap angle the in-package Brent root finds is the root
        scipy.optimize.brentq finds, bit for bit: 10,000 seeded (chord, area)
        pairs, the full semicircle, and areas down to 1e-12 mm^2."""
        port = specimen._brentq
        roots = []

        def both(f, xa, xb):
            got = port(f, xa, xb)
            want = brentq(f, xa, xb, xtol=1e-12, rtol=4 * np.finfo(float).eps, maxiter=100)
            assert got.hex() == want.hex()
            roots.append(got)
            return got

        monkeypatch.setattr(specimen, "_brentq", both)
        rng = np.random.default_rng(1973)
        chords = rng.uniform(0.05, 10.0, 10_000)
        semi = math.pi * chords**2 / 8.0
        fractions = np.concatenate([rng.uniform(0.0, 1.0, 5_000), 10.0 ** rng.uniform(-12.0, 0.0, 5_000)])
        pairs = [
            *zip(chords, np.maximum(semi * fractions, 1e-12)),
            *zip(chords[:200], semi[:200]),
            *zip(chords[:200], np.geomspace(1e-12, 1e-10, 200)),
        ]
        for chord, area in pairs:
            specimen._cap_profile(np.zeros(1), float(chord), float(area))
        assert len(roots) == len(pairs)
