"""Specimen tests: carved trough geometry against brute-force cell sums,
deposition volume conservation, and the guard rails on bad inputs."""

import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from crackfill import (
    CrackFillError,
    CrackSpec,
    DepositionParams,
    FillPlan,
    Frame,
    Heightfield,
    Overfill,
    PathOutsideGrid,
    PixelCoord,
    Point3,
    ScenarioConfig,
    SegmentOutsideGrid,
    Waypoint,
    ZeroLengthSegment,
    ZeroSpeed,
    deposit,
    deposit_path,
    execute_fill,
    generate_specimen,
    lay_out,
)
from crackfill import specimen
from crackfill.specimen import profile_values
from conftest import make_flat, make_rect_crack, row_deficit


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
        area = row_deficit(hf, 75.0)
        # discretisation can gain or lose at most about one cell column
        assert area == pytest.approx(20.0, abs=hf.cell_size * 5.0 + 1e-9)

    def test_varying_width_profile_applied(self):
        spec = CrackSpec(
            path=[(0.0, 10.0), (0.0, 140.0)],
            width=[(0.0, 4.0), (130.0, 12.0)],
            depth=3.0,
        )
        hf = generate_specimen(spec, origin=(-25.0, 0.0), cell_size=0.1, nx=500, ny=1500)
        near_start = row_deficit(hf, 15.0)
        near_end = row_deficit(hf, 135.0)
        assert near_end > near_start * 2.0

    def test_narrow_width_peak_is_carved(self):
        """crack.width_mm [[0, 4], [1, 20], [2, 4]] carves its full 20 mm at
        s = 1 mm: the carving reach is the profile's peak at its breakpoint."""
        cfg = ScenarioConfig.from_dict({"crack": {"width_mm": [[0.0, 4.0], [1.0, 20.0], [2.0, 4.0]]}})
        scene = cfg.build_scene()
        assert scene.crack.max_width() == 20.0
        hf = scene.build_specimen()
        row = int(hf.iy_of(11.0))
        carved = np.count_nonzero(hf.heightfield().heights[row] < hf.nominal_surface) * hf.cell_size
        assert carved == pytest.approx(20.0, abs=2 * hf.cell_size)

    def test_path_outside_grid_rejected(self):
        spec = CrackSpec(path=[(0.0, 10.0), (0.0, 300.0)], width=4.0, depth=5.0)
        with pytest.raises(PathOutsideGrid):
            generate_specimen(spec, origin=(-25.0, 0.0), cell_size=0.1, nx=500, ny=1500)

    def test_untouched_cells_stay_at_nominal(self):
        hf = make_rect_crack(width=4.0, depth=5.0).heightfield()
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

    def test_lookup_clips_to_grid(self):
        hf = make_flat(nx=10, ny=10, cell=1.0, origin=(0.0, 0.0))
        hf.heights[9, 9] = 7.0
        assert float(hf.lookup(1e6, 1e6)[0]) == 7.0
        assert not hf.lookup(1e6, 1e6)[1]

    def test_plates_compare_and_hash_by_identity(self):
        """A plate equals only itself: comparing held arrays field by field
        raised ValueError, and the arrays made the plate unhashable."""
        plate = Heightfield.flat((0.0, 0.0), 1.0, 3, 3)
        assert plate == plate and plate != plate.copy()
        assert len({plate, plate, plate.copy()}) == 2

    def test_copy_is_independent(self):
        hf = make_flat(nx=4, ny=4, cell=1.0)
        clone = hf.copy()
        clone.heights[0, 0] = 9.0
        assert hf.heights[0, 0] == 0.0

    def test_copy_of_a_read_only_view_skips_the_finiteness_scan(self, monkeypatch):
        """A copy owns writable heights equal to its source's and does not
        check again what the source passed when it was built."""
        hf = make_rect_crack(cell=0.5, nx=100, ny=300).heightfield()
        view = hf.heights.view()
        view.flags.writeable = False
        source = Heightfield(hf.origin, hf.cell_size, hf.nx, hf.ny, view, hf.nominal_surface)

        def refuse(self):
            raise AssertionError("copy re-ran __post_init__")

        monkeypatch.setattr(Heightfield, "__post_init__", refuse)
        clone = source.copy()
        assert (clone.origin, clone.cell_size, clone.nx, clone.ny, clone.nominal_surface) == (
            source.origin, source.cell_size, source.nx, source.ny, source.nominal_surface
        )
        assert clone.heights.tobytes() == source.heights.tobytes()
        assert not np.shares_memory(clone.heights, source.heights)
        clone.heights[:] = 1.0
        assert source.heights.tobytes() == hf.heights.tobytes()

    def test_flat_plate_checks_one_cell_for_finiteness(self, monkeypatch):
        """A flat plate scans only its one nominal value, not its grid of
        copies of it, and a non-finite nominal is still refused."""
        scanned = []
        check = Heightfield.__post_init__

        def recording(self):
            scanned.append(np.size(self.heights))
            check(self)

        monkeypatch.setattr(Heightfield, "__post_init__", recording)
        hf = Heightfield.flat((-2.0, 3.0), 0.5, 300, 200, 1.5)
        assert scanned == [1]
        assert (hf.origin, hf.cell_size, hf.nx, hf.ny, hf.nominal_surface) == ((-2.0, 3.0), 0.5, 300, 200, 1.5)
        assert hf.heights.shape == (200, 300) and np.all(hf.heights == 1.5)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                Heightfield.flat((0.0, 0.0), 0.5, 300, 200, bad)

    def test_non_finite_heights_still_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            heights = np.zeros((3, 4))
            heights[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                Heightfield((0.0, 0.0), 0.1, 4, 3, heights)

    def test_a_patch_must_fit_its_box_and_be_finite(self):
        base = Heightfield.flat((0.0, 0.0), 0.1, 4, 3)
        with pytest.raises(ValueError, match="box"):
            replace(base, box=(slice(0, 2), slice(1, 4)), cells=np.zeros((2, 2)))
        cells = np.zeros((2, 3))
        cells[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            replace(base, box=(slice(0, 2), slice(1, 4)), cells=cells)
        plate = replace(base, box=(slice(0, 2), slice(1, 4)), cells=[[1, 2, 3], [4, 5, 6]])
        assert plate.cells.dtype == float and plate.heightfield().heights.tolist() == [[0, 1, 2, 3], [0, 4, 5, 6], [0, 0, 0, 0]]

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
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1).heightfield()
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
            hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1).heightfield()
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
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1).heightfield()
        params = DepositionParams(flow_rate_mm3_s=946.0)
        deposit(hf, (0.0, 20.0), (0.0, 130.0), 20.0, params)
        mid = hf.heights[int(hf.iy_of(75.0)), :]
        # 946/20 = 47.3 mm^2 per mm beats the 40 mm^2 trough: bottom full
        assert mid.min() >= -1e-9

    def test_a_cap_over_a_one_cell_trough_is_the_nozzle_wide(self):
        """A trough one cell wide holds 0.1 mm^2 of a 10 mm^2 bead; the rest
        lands as a cap the nozzle's width, centred on the trough."""
        hf = trough_plate(100, 200, 0.1, (-5.0, 0.0), troughs=[(50, 51, 0, 200, 1.0)])
        nozzle = 4.0
        params = DepositionParams(flow_rate_mm3_s=100.0, nozzle_diameter_mm=nozzle)
        filled, _ = deposit_path(lay_out(hf, [(0.0, 2.0), (0.0, 18.0)]), [10.0], params)
        heights = filled.heightfield().heights
        x = hf.x_of(np.arange(hf.nx))
        for row in range(int(hf.iy_of(2.0)), int(hf.iy_of(18.0)) + 1):
            raised = x[heights[row] > hf.nominal_surface]
            assert -nozzle / 2 <= raised.min() < -nozzle / 2 + hf.cell_size
            assert nozzle / 2 - hf.cell_size < raised.max() <= nozzle / 2

    def test_underfill_leaves_material_below_surface(self):
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1).heightfield()
        params = DepositionParams(flow_rate_mm3_s=400.0)
        deposit(hf, (0.0, 20.0), (0.0, 130.0), 20.0, params)
        mid = hf.heights[int(hf.iy_of(75.0)), :]
        assert mid.min() < -1e-3
        assert mid.min() > -5.0

    def test_guards(self):
        hf = make_flat(nx=50, ny=50, cell=1.0, origin=(-25.0, -25.0))
        params = DepositionParams(flow_rate_mm3_s=500.0)
        for speed in (0.0, float("nan")):
            with pytest.raises(ZeroSpeed):
                deposit(hf, (0.0, 0.0), (0.0, 10.0), speed, params)
        with pytest.raises(SegmentOutsideGrid):
            deposit(hf, (0.0, 0.0), (0.0, 1000.0), 10.0, params)
        with pytest.raises(ZeroLengthSegment):
            deposit(hf, (0.0, 0.0), (0.0, 0.0), 10.0, params)
        assert issubclass(ZeroLengthSegment, CrackFillError)

    def test_a_speed_whose_area_overflows_is_refused_unlaid(self):
        """946 / 1e-320 overflows: a speed whose area per mm is not finite
        is refused with ZeroSpeed, and the plate keeps every byte."""
        hf = make_rect_crack(width=8.0, depth=5.0, cell=0.1).heightfield()
        before = hf.heights.tobytes()
        with pytest.raises(ZeroSpeed, match="too slow"):
            deposit(hf, (0.0, 20.0), (0.0, 130.0), 1e-320, DepositionParams(flow_rate_mm3_s=946.0))
        assert hf.heights.tobytes() == before

    def test_a_read_only_plate_is_refused(self):
        """deposit writes its fill back into the plate: a flat plate, whose
        heights are one read-only value, is refused before anything is
        laid, and its copy is filled."""
        hf = Heightfield.flat((-25.0, -25.0), 1.0, 50, 50)
        params = DepositionParams(flow_rate_mm3_s=500.0)
        with pytest.raises(ValueError, match="writable"):
            deposit(hf, (0.0, 0.0), (0.0, 10.0), 10.0, params)
        plate = hf.copy()
        deposit(plate, (0.0, 0.0), (0.0, 10.0), 10.0, params)
        assert plate.heights.any() and not hf.heights.any()

    def test_a_patched_plate_is_refused(self):
        """deposit writes its fill into the plate's base, where a patch would
        hide it: a filled plate, a writable base plus a patch, is refused
        before anything is laid, its base and its patch byte-identical, and
        its heightfield() is filled."""
        hf, params = make_flat(50, 50, 1.0, (-25.0, -25.0)), DepositionParams(flow_rate_mm3_s=500.0)
        filled, _ = deposit_path(lay_out(hf, [(0.0, -10.0), (0.0, 5.0)]), [10.0], params)
        before = (hf.heights.tobytes(), filled.cells.tobytes())
        with pytest.raises(ValueError, match="no patch"):
            deposit(filled, (0.0, 0.0), (0.0, 10.0), 10.0, params)
        assert filled.heights is hf.heights and filled.cells.any()
        assert (hf.heights.tobytes(), filled.cells.tobytes()) == before
        plate = filled.heightfield()
        deposit(plate, (0.0, 0.0), (0.0, 10.0), 10.0, params)
        assert plate.heights.sum() > filled.cells.sum() > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=0.0)
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=10.0, nozzle_diameter_mm=-1.0)
        with pytest.raises(ValueError):
            DepositionParams(flow_rate_mm3_s=10.0, purge_time_s=-0.5)


def scipy_cap_angle(chord: float, area: float) -> float:
    """The half angle of a circular-segment bead cap of this chord and area,
    found by scipy.optimize.brentq with the deposit kernel's tolerances."""
    f = lambda th: chord**2 * (th - math.sin(th) * math.cos(th)) / (4.0 * math.sin(th) ** 2) - area
    return brentq(f, 1e-9, math.pi / 2.0, xtol=1e-12, rtol=4 * np.finfo(float).eps, maxiter=100)


class TestBrentRoot:
    def test_matches_scipy_bit_for_bit(self, monkeypatch):
        """Every bead-cap angle the batched Brent root finder finds is the
        root scipy.optimize.brentq finds, bit for bit, and so is the cap's
        shape: 10,000 seeded (chord, area) pairs, the full semicircle, and
        areas down to 1e-12 mm^2, solved as one batch and once more
        shuffled into batches of mixed sizes, among them single-element
        batches of each of the three families."""
        rng = np.random.default_rng(1973)
        chords = rng.uniform(0.05, 10.0, 10_000)
        semi = math.pi * chords**2 / 8.0
        fractions = np.concatenate([rng.uniform(0.0, 1.0, 5_000), 10.0 ** rng.uniform(-12.0, 0.0, 5_000)])
        chords, areas = np.array([
            *zip(chords, np.maximum(semi * fractions, 1e-12)),
            *zip(chords[:200], semi[:200]),
            *zip(chords[:200], np.geomspace(1e-12, 1e-10, 200)),
        ]).T
        singles = np.concatenate([rng.choice(np.arange(lo, hi), 10, replace=False) for lo, hi in ((0, 10_000), (10_000, 10_200), (10_200, 10_400))])
        rest = rng.permutation(np.setdiff1d(np.arange(len(chords)), singles))
        cuts = np.cumsum(rng.integers(2, 1_500, 20))
        batches = [*np.split(singles, len(singles)), *np.split(rest, cuts[cuts < rest.size])]
        batches = [batches[k] for k in rng.permutation(len(batches))]
        solved = []

        def recording(f, xa, xb, n, real=specimen._brent_roots):
            solved.append(real(f, xa, xb, n))
            return solved[-1]

        monkeypatch.setattr(specimen, "_brent_roots", recording)
        batch = specimen._cap_shapes(chords, areas)
        shuffled, roots = np.empty_like(batch), np.empty_like(areas)
        for at in batches:
            shuffled[:, at] = specimen._cap_shapes(chords[at], areas[at])
            roots[at] = solved[-1]
        assert len(solved) == 1 + len(batches) and solved[0].shape == chords.shape
        assert sorted(np.concatenate(batches).tolist()) == list(range(len(chords)))
        assert min(map(len, batches)) == 1 and max(map(len, batches)) > 500
        for i, (chord, area) in enumerate(zip(chords.tolist(), areas.tolist())):
            theta = scipy_cap_angle(chord, area)
            radius = chord / (2.0 * math.sin(theta))
            want = (theta.hex(), (radius**2).hex(), (radius * math.cos(theta)).hex(), (0.0).hex())
            assert (solved[0][i].hex(), *(float(v).hex() for v in batch[:, i])) == want
            assert (roots[i].hex(), *(float(v).hex() for v in shuffled[:, i])) == want


class TestOverfill:
    PARAMS = DepositionParams(flow_rate_mm3_s=200.0, nozzle_diameter_mm=4.0)

    def test_one_segment_over_the_bound_raises(self):
        """946/0.5 mm^2 per mm on a 4 mm nozzle piles a riser of about 470 mm."""
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        with pytest.raises(Overfill):
            deposit(hf, (0.0, 0.0), (0.0, 20.0), 0.5, DepositionParams(flow_rate_mm3_s=946.0))

    def test_bead_stacked_on_a_capped_line_raises(self):
        """200 mm^2 per mm piles a bead about 50 mm high: one pass stays under
        the 80 mm bound, and the second pass over the same lines crosses it."""
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        deposit(hf, (0.0, 0.0), (0.0, 20.0), 1.0, self.PARAMS)
        peak = hf.heights.max() - hf.nominal_surface
        assert 40.0 < peak <= specimen.MAX_OVERFILL_MM
        deposit(hf, (0.0, 25.0), (0.0, 30.0), 1.0, self.PARAMS)  # other lines: no stacking
        before = hf.heights.tobytes()
        with pytest.raises(Overfill):
            deposit(hf, (0.0, 20.0), (0.0, 10.0), 1.0, self.PARAMS)
        assert hf.heights.tobytes() == before  # the refused segment wrote nothing

    def test_check_reads_only_the_cells_the_segment_caps(self):
        """A plate handed in already above the bound, away from this
        segment's caps, is outside the check's scope."""
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        hf.heights[-1, -1] = specimen.MAX_OVERFILL_MM + 1.0
        deposit(hf, (0.0, 0.0), (0.0, 20.0), 1.0, self.PARAMS)


# The deposit kernel and carving as they were when each grid line ran its
# own Python loop: the reference the vectorized kernel must match bit for bit.


def loop_water_fill(heights: np.ndarray, budget_area: float, ceiling: float, cell_size: float) -> float:
    capacity = float(np.maximum(0.0, ceiling - heights).sum() * cell_size)
    if budget_area >= capacity:
        np.maximum(heights, ceiling, out=heights)
        return budget_area - capacity
    order = np.argsort(heights)
    h_sorted = heights[order]
    prefix = np.concatenate([[0.0], np.cumsum(h_sorted)])
    level = h_sorted[-1]
    for k in range(1, len(h_sorted) + 1):
        next_h = h_sorted[k] if k < len(h_sorted) else np.inf
        cost_next = (next_h * k - prefix[k]) * cell_size
        if cost_next >= budget_area:
            level = budget_area / (cell_size * k) + prefix[k] / k
            break
    np.maximum(heights, min(level, ceiling), out=heights)
    return 0.0


def loop_cap_profile(offsets: np.ndarray, chord: float, area: float) -> np.ndarray:
    half = chord / 2.0
    semi_area = math.pi * chord**2 / 8.0
    if area <= semi_area:
        theta = scipy_cap_angle(chord, area)
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


def line_by_line_deposit(hf, start, end, speed_mm_s, params, include_end=True):
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
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
    cap_width = params.nozzle_diameter_mm  # every line's cap, wet or dry
    denom = p1[dom] - p0[dom]
    deposited = 0.0
    for idx in stations:
        coord = hf.x_of(idx) if dom == 0 else hf.y_of(idx)
        with np.errstate(over="ignore"):  # a segment a few ulps long; the clip takes t to an end
            t = (coord - p0[dom]) / denom if denom != 0 else 0.0
        centre_perp = p0[1 - dom] + np.clip(t, 0.0, 1.0) * (p1[1 - dom] - p0[1 - dom])
        line = hf.heights[:, idx] if dom == 0 else hf.heights[idx, :]
        j_c = int(np.clip(round((centre_perp - hf.origin[1 - dom]) / cs), 0, len(line) - 1))
        before = line.sum()
        lo = max(0, j_c - nozzle_half_cells)
        hi = min(len(line) - 1, j_c + nozzle_half_cells)
        window = np.nonzero(line[lo : hi + 1] < hf.nominal_surface - 1e-12)[0]
        remaining = station_area
        if window.size:
            j0 = lo + window[np.argmin(np.abs(window + lo - j_c))]
            j_lo = j0
            while j_lo > 0 and line[j_lo - 1] < hf.nominal_surface - 1e-12:
                j_lo -= 1
            j_hi = j0
            while j_hi < len(line) - 1 and line[j_hi + 1] < hf.nominal_surface - 1e-12:
                j_hi += 1
            remaining = loop_water_fill(line[j_lo : j_hi + 1], station_area, hf.nominal_surface, cs)
            cap_centre = hf.origin[1 - dom] + (j_lo + j_hi) / 2.0 * cs
        else:
            cap_centre = centre_perp
        if remaining > 1e-12:
            j_first = max(0, int(math.ceil((cap_centre - cap_width / 2.0 - hf.origin[1 - dom]) / cs)))
            j_last = min(len(line) - 1, int(math.floor((cap_centre + cap_width / 2.0 - hf.origin[1 - dom]) / cs)))
            if j_last < j_first:
                j_first = j_last = j_c
            cells = np.arange(j_first, j_last + 1)
            offsets = hf.origin[1 - dom] + cells * cs - cap_centre
            z = loop_cap_profile(offsets, cap_width, remaining)
            total = z.sum() * cs
            if total <= 0:
                z = np.full(cells.shape, remaining / (len(cells) * cs))
            else:
                z *= remaining / total
            line[cells] += z
        deposited += (line.sum() - before) * cs * cs
    if float(hf.heights.max()) > hf.nominal_surface + specimen.MAX_OVERFILL_MM:
        raise Overfill("overfill")
    return specimen.DepositResult(length / speed_mm_s, area * length, deposited)


def full_grid_specimen(spec, *, origin, cell_size, nx, ny):
    hf = Heightfield.flat(origin, cell_size, nx, ny).copy()
    pts = np.asarray(spec.path, dtype=float)
    half_w = spec.max_width() / 2.0
    gx, gy = np.meshgrid(hf.x_of(np.arange(nx)), hf.y_of(np.arange(ny)))
    best_d2 = np.full(gx.shape, np.inf)
    best_s = np.zeros(gx.shape)
    s0 = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        seg_len = float(np.hypot(*d))
        if seg_len**2 == 0:
            continue
        t = np.clip(((gx - a[0]) * d[0] + (gy - a[1]) * d[1]) / seg_len**2, 0.0, 1.0)
        d2 = (gx - (a[0] + t * d[0])) ** 2 + (gy - (a[1] + t * d[1])) ** 2
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        best_s[closer] = s0 + t[closer] * seg_len
        s0 += seg_len
    dist, s = np.sqrt(best_d2), best_s
    near = dist <= half_w
    widths = profile_values(spec.width, s[near])
    depths = profile_values(spec.depth, s[near])
    carved = dist[near] <= widths / 2.0
    rows, cols = np.nonzero(near)
    hf.heights[rows[carved], cols[carved]] = hf.nominal_surface - depths[carved]
    return hf


def interior_deposit(hf, start, end, speed_mm_s, params):
    """The deposit kernel on one segment laid as an interior segment of a
    path, which leaves its far grid line to the next segment, on a copy of
    hf that is written back unless the segment is refused, as deposit does."""
    run = specimen._run(hf, [specimen._segment(hf, start, end, include_end=False)])
    filled = replace(hf, box=(slice(0, hf.ny), slice(0, hf.nx)), cells=hf.heights.copy())
    result = specimen._lay(filled, run, [speed_mm_s], params)[0]
    hf.heights[...] = filled.cells
    return result


def assert_deposit_matches_reference(hf, start, end, speed, params, last=True):
    """The kernel against the line-by-line reference on one segment that
    ends its path (last), keeping its far grid line, or on an interior one.
    The reference lays an overfilled segment before it raises; the kernel
    leaves the plate untouched."""
    got_hf, want_hf = hf.copy(), hf.copy()
    outcomes = []
    for run, plate in ((deposit if last else interior_deposit, got_hf), (partial(line_by_line_deposit, include_end=last), want_hf)):
        try:
            outcomes.append(run(plate, start, end, speed, params))
        except Overfill:
            outcomes.append(Overfill)
    got, want = outcomes
    assert got == want  # the same exception, or == on every DepositResult field
    assert np.array_equal(got_hf.heights, hf.heights if got is Overfill else want_hf.heights)


def assert_deposit_is_a_one_segment_path(hf, start, end, speed, params):
    """deposit on a copy of hf against deposit_path on the one-segment
    layout of hf: the same heights, bit for bit, as the filled plate's
    heightfield() and == results, or the same error and message with the
    copy's heights byte-identical. Returns deposit's outcome."""
    got_hf = hf.copy()
    got = outcome(lambda: deposit(got_hf, start, end, speed, params))
    want = outcome(lambda: deposit_path(lay_out(hf, [start, end]), [speed], params))
    if isinstance(want, tuple) and isinstance(want[0], Heightfield):
        filled, (result,) = want
        assert got == result
        assert got_hf.heights.tobytes() == filled.heightfield().heights.tobytes()
    else:
        assert got == want
        assert got_hf.heights.tobytes() == hf.heights.tobytes()
    return got


def trough_plate(nx, ny, cell, origin, troughs=(), beads=()):
    """Flat plate with rectangular troughs and raised beads: (ix0, ix1, iy0, iy1, dz)."""
    hf = Heightfield.flat(origin, cell, nx, ny).copy()
    for ix0, ix1, iy0, iy1, dz in troughs:
        hf.heights[iy0:iy1, ix0:ix1] -= dz
    for ix0, ix1, iy0, iy1, dz in beads:
        hf.heights[iy0:iy1, ix0:ix1] += dz
    return hf


def random_blocks(nx, ny, max_dz):
    """Up to 4 random rectangular blocks for trough_plate."""
    return st.lists(
        st.tuples(st.integers(0, nx - 1), st.integers(1, nx), st.integers(0, ny - 1), st.integers(1, ny), st.floats(0.01, max_dz)),
        max_size=4,
    )


def draw_stops(data, hf, n_stops):
    """n_stops (x, y) stops over hf: each one carries on in the last
    segment's direction (so segments chain into runs), jumps anywhere
    (reversals, switches of dominant axis) or hops less than a cell."""
    x_min, x_max, y_min, y_max = hf.bounds()
    cell = hf.cell_size
    stops = [data.draw(st.tuples(st.floats(x_min, x_max), st.floats(y_min, y_max)))]
    for _ in range(n_stops - 1):
        (x, y), (px, py) = stops[-1], stops[max(len(stops) - 2, 0)]
        onward = st.tuples(
            st.floats(x, x_max) if x >= px else st.floats(x_min, x),
            st.floats(y, y_max) if y >= py else st.floats(y_min, y),
        )
        anywhere = st.tuples(st.floats(x_min, x_max), st.floats(y_min, y_max))
        hop = st.tuples(st.floats(max(x - cell, x_min), min(x + cell, x_max)), st.floats(max(y - cell, y_min), min(y + cell, y_max)))
        stops.append(data.draw(st.one_of(onward, onward, anywhere, hop)))
    return stops


def plan_through(stops):
    """A fill plan through (x, y, speed) stops."""
    return FillPlan(
        tuple(
            Waypoint(PixelCoord(0.0, 0.0, 500.0), Point3(0.0, 0.0, 500.0, Frame.CAMERA), Point3(x, y, 0.0, Frame.ROBOT), speed_mm_s=v)
            for x, y, v in stops
        )
    )


def layout_through(hf, stops):
    """The layout on hf of the path through (x, y, speed) stops."""
    return lay_out(hf, [(x, y) for x, y, _ in stops])


def fill_through(hf, stops, params):
    """execute_fill along (x, y, speed) stops, laid out on hf."""
    return execute_fill(layout_through(hf, stops), plan_through(stops), params)


def outcome(fill):
    """fill(), or the (type, message) of the CrackFillError it raises."""
    try:
        return fill()
    except CrackFillError as exc:
        return type(exc), str(exc)


def segment_loop_fill(hf, stops, params):
    """The fill as a loop over its segments, laid by the line-by-line
    reference, interior segments leaving their far line. Before laying
    anything it checks every segment's ends and then every speed; it raises
    deposit's errors with deposit's messages."""
    segments = [((float(a[0]), float(a[1])), (float(b[0]), float(b[1])), a[2]) for a, b in zip(stops, stops[1:])]
    for start, end, _ in segments:
        if not (hf.lookup(*start)[1] and hf.lookup(*end)[1]):
            raise SegmentOutsideGrid(f"segment {start} -> {end} leaves the grid")
        if start == end:
            raise ZeroLengthSegment(f"deposition segment starts and ends at {start}")
    for _, _, speed in segments:
        if not speed > 0:
            raise ZeroSpeed(f"deposition speed must be positive, got {speed}")
    results = []
    for i, (start, end, speed) in enumerate(segments):
        try:
            results.append(line_by_line_deposit(hf, start, end, speed, params, include_end=(i == len(segments) - 1)))
        except Overfill:
            raise Overfill(
                f"deposition at {speed:g} mm/s piled a bead more than {specimen.MAX_OVERFILL_MM:g} mm above the surface"
            ) from None
    return results


def assert_fill_matches_segment_loop(hf, stops, params, layout=None, probes=()):
    """execute_fill along layout, made on hf (by default the stops laid out
    on hf), against the segment loop on a copy of hf: the same heights and
    == on every DepositResult field, or the same exception and message,
    with hf untouched either way. A filled plate's box holds every cell
    the loop changed, and the plate reads at every cell centre and at the
    (x, y) probes as its full copy does. Returns execute_fill's segment
    results, or its (exception type, message)."""
    pristine, want_hf = hf.heights.copy(), hf.copy()
    result = outcome(lambda: execute_fill(layout or layout_through(hf, stops), plan_through(stops), params))
    want = outcome(lambda: segment_loop_fill(want_hf, stops, params))
    got = result if isinstance(result, tuple) else list(result.segments)
    assert got == want
    if isinstance(want, list):
        filled, full = result.surface, result.surface.heightfield()
        assert np.array_equal(full.heights, want_hf.heights)
        changed = want_hf.heights != pristine
        changed[filled.box] = False
        assert not changed.any()  # every cell the loop changed lies in the box
        gx, gy = np.meshgrid(hf.x_of(np.arange(hf.nx)), hf.y_of(np.arange(hf.ny)))
        xs, ys = np.append(gx, [x for x, _ in probes]), np.append(gy, [y for _, y in probes])
        assert np.array_equal(filled.lookup(xs, ys)[0], full.lookup(xs, ys)[0])
    assert np.array_equal(hf.heights, pristine)  # no fill writes on its layout's plate
    return got


CRACK = make_rect_crack(width=8.0, depth=5.0, cell=0.1, ny=400, y0=5.0, y1=35.0).heightfield()
PARAMS = DepositionParams(flow_rate_mm3_s=946.0)


class TestDepositMatchesLineByLine:
    @pytest.mark.parametrize(
        "start, end",
        [
            ((0.0, 8.0), (0.0, 32.0)),  # column-dominant, along the crack
            ((0.0, 32.0), (0.3, 8.0)),  # reversed
            ((-12.0, 20.0), (12.0, 20.0)),  # row-dominant, across the crack
            ((12.0, 25.0), (-12.0, 21.0)),  # row-dominant, reversed and oblique
            ((-3.0, 10.0), (4.0, 30.0)),  # oblique
            ((-5.0, 12.0), (5.0, 22.0)),  # 45 degrees: the x run wins the tie
        ],
    )
    @pytest.mark.parametrize("speed", [3.0, 20.0, 60.0])  # overfilled to underfilled
    @pytest.mark.parametrize("last", [True, False])  # the path's last segment, or an interior one
    def test_on_a_carved_crack(self, start, end, speed, last):
        assert_deposit_matches_reference(CRACK, start, end, speed, PARAMS, last)

    @pytest.mark.parametrize("last", [True, False])
    def test_a_segment_a_few_ulps_long(self, last):
        """Its nozzle position along the line overflows to an end without a warning."""
        hf = trough_plate(4, 5, 0.25, (-1.0 / 3, -0.625), troughs=[(0, 4, 0, 5, 1.0)])
        assert_deposit_matches_reference(hf, (0.0, 0.0), (0.0, 5e-324), 1.0, DepositionParams(5.0, 1.0), last)

    @pytest.mark.parametrize("start, end", [((0.0, 0.0), (0.0, 20.0)), ((-8.0, 3.0), (9.0, 1.0))])
    def test_on_a_flat_plate(self, start, end):
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        assert_deposit_matches_reference(hf, start, end, 10.0, PARAMS)

    def test_troughs_reaching_both_grid_edges(self):
        """Every row below the surface from index 0 to n - 1, and a deeper
        trough that starts at index 0 of each column."""
        hf = trough_plate(30, 40, 0.5, (-7.5, -10.0), troughs=[(0, 30, 0, 40, 0.5), (0, 30, 0, 6, 2.0)])
        for speed in (2.0, 40.0):
            assert_deposit_matches_reference(hf, (0.0, -8.0), (0.0, 8.0), speed, PARAMS)
            assert_deposit_matches_reference(hf, (-7.0, -9.0), (7.0, -8.0), speed, PARAMS)
            assert_deposit_matches_reference(hf, (7.0, 9.0), (-7.0, 9.0), speed, PARAMS)

    def test_a_second_pass_over_filled_lines(self):
        hf = CRACK.copy()
        deposit(hf, (0.0, 8.0), (0.0, 32.0), 40.0, PARAMS)
        assert_deposit_matches_reference(hf, (0.0, 30.0), (0.2, 10.0), 15.0, PARAMS)
        assert_deposit_matches_reference(hf, (-10.0, 20.0), (10.0, 20.0), 15.0, PARAMS)

    def test_a_segment_whose_norm_underflows(self):
        """Distinct ends whose squared offset is zero are a segment, not a refusal."""
        hf = make_flat(nx=4, ny=4, cell=0.25, origin=(-1 / 3, -0.5))
        params = DepositionParams(flow_rate_mm3_s=5.0, nozzle_diameter_mm=1.0)
        for last in (True, False):
            assert_deposit_matches_reference(hf, (0.0, 0.0), (3.9e-260, 0.0), 1.0, params, last)

    def test_a_tie_under_the_nozzle_floods_the_lower_troughs(self):
        """The nozzle centre sits on a dry cell between two troughs, each one
        cell away: the trough at the lower index takes the material."""
        params = DepositionParams(flow_rate_mm3_s=5.0, nozzle_diameter_mm=4.0)
        j = 14  # the cell under x = 0 and under y = 0
        across = trough_plate(30, 30, 0.5, (-7.0, -7.0), troughs=[(j - 3, j, 0, 30, 1.0), (j + 1, j + 4, 0, 30, 3.0)])
        along = trough_plate(30, 30, 0.5, (-7.0, -7.0), troughs=[(0, 30, j - 3, j, 1.0), (0, 30, j + 1, j + 4, 3.0)])
        for hf, start, end, deep in (
            (across, (0.0, -5.0), (0.0, 5.0), np.s_[:, j + 1 : j + 4]),
            (along, (-5.0, 0.0), (5.0, 0.0), np.s_[j + 1 : j + 4, :]),
        ):
            assert_deposit_matches_reference(hf, start, end, 10.0, params)
            filled = hf.copy()
            deposit(filled, start, end, 10.0, params)
            assert np.array_equal(filled.heights[deep], hf.heights[deep])
            assert not np.array_equal(filled.heights, hf.heights)

    def test_a_cap_narrower_than_a_cell(self):
        """A 0.2 mm nozzle between two cell centres covers no cell, so the
        cell under the nozzle takes its area."""
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        params = DepositionParams(flow_rate_mm3_s=5.0, nozzle_diameter_mm=0.2)
        for start, end, under in (((0.2, 0.0), (0.2, 20.0), np.s_[10:40, 30]), ((-8.0, 3.2), (9.0, 3.2), np.s_[16, 20:40])):
            assert_deposit_matches_reference(hf, start, end, 10.0, params)
            filled = hf.copy()
            deposit(filled, start, end, 10.0, params)
            assert (filled.heights[under] > 0).all()

    def test_a_nozzle_wider_than_the_plate(self):
        """The nozzle spans every cell of each line it crosses."""
        hf = trough_plate(30, 40, 0.5, (-7.5, -10.0), troughs=[(3, 8, 0, 40, 1.0), (20, 24, 0, 40, 2.0)])
        params = DepositionParams(flow_rate_mm3_s=50.0, nozzle_diameter_mm=1e4)
        for start, end in (((0.0, -8.0), (0.0, 8.0)), ((-7.0, 2.0), (7.0, 3.0))):
            assert_deposit_matches_reference(hf, start, end, 10.0, params)

    def test_a_calibration_strip(self):
        """The default strip plate: every line of the segment caps a flat
        line with the same chord and area."""
        cfg = ScenarioConfig.default()
        span, cell = cfg.raw["laser"]["span_mm"], cfg.raw["grid"]["cell_size_mm"]
        strip_len = cfg.raw["calibration"]["strip_length_mm"]
        nx, ny = (math.ceil(side / cell) + 1 for side in (span + 10, strip_len + 10))
        hf = make_flat(nx=nx, ny=ny, cell=cell, origin=(-span / 2 - 5, -5.0))
        for speed in (6.0, 20.0):
            params = replace(cfg.build_deposition(), flow_rate_mm3_s=cfg.calibration_flow(speed))
            assert_deposit_matches_reference(hf, (0.0, 0.0), (0.0, strip_len), speed, params)

    def test_a_fill_chained_along_x(self):
        """execute_fill along a crack on robot x deposits column by column,
        each interior segment leaving its far line to the next."""
        spec = CrackSpec(path=[(-20.0, 10.0), (20.0, 10.0)], width=6.0, depth=4.0)
        hf = generate_specimen(spec, origin=(-25.0, 0.0), cell_size=0.1, nx=500, ny=200).heightfield()
        stops = [(-18.0, 10.2, 7.0), (-9.5, 9.8, 12.0), (-1.03, 10.05, 50.0), (8.0, 10.4, 4.0), (18.0, 10.0, 20.0)]
        assert len(assert_fill_matches_segment_loop(hf, stops, PARAMS)) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        nx=st.integers(4, 40),
        ny=st.integers(4, 40),
        cell=st.sampled_from([0.25, 0.5, 1.0]),
        n_stops=st.integers(2, 8),
        flow=st.floats(5.0, 1000.0),
        nozzle=st.floats(0.2, 8.0),
        tile=st.sampled_from([specimen.TILE_CELLS, 64, 1]),
        faults=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["zero speed", "overfill", "repeat", "off grid"])), max_size=2),
        at_edge=st.booleans(),
    )
    def test_random_fills(self, data, nx, ny, cell, n_stops, flow, nozzle, tile, faults, at_edge):
        """Polylines of 2 to 8 stops over a carved plate: stops that carry on
        in the last segment's direction (so segments chain into runs), jump
        anywhere (reversals, switches of dominant axis) or hop less than a
        cell, at random speeds; plus up to two faults at random stops. At an
        edge, the stops alternate within one nozzle radius of the grid's low
        x and high y edges, so the path's box is clipped to the grid there.
        The filled plate is read at random points too."""
        origin = (-nx * cell / 3, -ny * cell / 2)
        hf = trough_plate(nx, ny, cell, origin, data.draw(random_blocks(nx, ny, 6.0)), data.draw(random_blocks(nx, ny, 3.0)))
        x_min, x_max, y_min, y_max = hf.bounds()
        stops = draw_stops(data, hf, n_stops)
        if at_edge:
            radius = nozzle / 2
            stops = [(min(x, x_min + radius), y) if k % 2 else (x, max(y, y_max - radius)) for k, (x, y) in enumerate(stops)]
        probes = data.draw(st.lists(st.tuples(st.floats(x_min, x_max), st.floats(y_min, y_max)), max_size=8))
        speeds = [data.draw(st.floats(1.0, 60.0)) for _ in stops]
        for at, fault in faults:
            at = min(at, n_stops - 2)  # the stop that starts a segment
            if fault == "zero speed":
                speeds[at] = 0.0
            elif fault == "overfill":
                speeds[at] = 0.02
            elif fault == "repeat":
                stops[at + 1] = stops[at]
            else:
                stops[at + 1] = (x_max + 2 * cell, stops[at + 1][1])
        params = DepositionParams(flow_rate_mm3_s=flow, nozzle_diameter_mm=nozzle)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specimen, "TILE_CELLS", tile)
            assert_fill_matches_segment_loop(hf, [(x, y, v) for (x, y), v in zip(stops, speeds)], params, probes=probes)

    def test_a_hop_inside_one_cell_shares_its_line(self):
        """A segment that starts and ends on one grid line keeps that line,
        so the next segment, which starts on it too, begins a new run."""
        hf = trough_plate(40, 60, 0.5, (-10.0, -5.0), troughs=[(14, 26, 0, 60, 2.0)])
        for stops in (
            [(0.0, 0.0, 10.0), (0.1, 0.2, 15.0), (0.3, 20.0, 10.0)],  # rows 10 | 10..50
            [(0.0, 20.0, 10.0), (0.3, 10.0, 15.0), (0.25, 9.9, 12.0), (-0.1, 0.0, 10.0)],  # 50..31 | 30 | 30..10
        ):
            assert len(assert_fill_matches_segment_loop(hf, stops, PARAMS)) == len(stops) - 1

    @pytest.mark.parametrize(
        "fault, error",
        [("zero speed", ZeroSpeed), ("repeat", ZeroLengthSegment), ("off grid", SegmentOutsideGrid)],
        ids=["zero speed", "repeat", "off grid"],
    )
    def test_a_later_fault_is_refused_first(self, fault, error):
        """Segment 1 would overfill and segment 3 has a zero speed, a repeated
        stop or a stop off the grid: the path raises the fault's own error
        and lays nothing. Without the fault it raises the Overfill."""
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        stops = [(0.0, 0.0, 20.0), (0.0, 5.0, 0.02), (0.0, 10.0, 20.0), (2.0, 12.0, 20.0), (2.0, 20.0, 20.0)]
        params = DepositionParams(flow_rate_mm3_s=946.0)
        with pytest.raises(Overfill, match="deposition at 0.02 mm/s"):
            fill_through(hf, stops, params)
        faulty = {
            "zero speed": [*stops[:3], (2.0, 12.0, 0.0), stops[4]],
            "repeat": [*stops[:4], (2.0, 12.0, 20.0)],
            "off grid": [*stops[:4], (50.0, 20.0, 20.0)],
        }[fault]
        with pytest.raises(error):
            fill_through(hf, faulty, params)
        assert not hf.heights.any()  # the flat plate it was laid out on
        assert_fill_matches_segment_loop(hf, faulty, params)

    def test_a_path_needs_one_speed_per_segment(self):
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        with pytest.raises(ValueError, match="3 points need 2 speeds, got 3"):
            deposit_path(lay_out(hf, [(0.0, 0.0), (0.0, 5.0), (0.0, 10.0)]), [10.0, 10.0, 10.0], PARAMS)
        for points in ([(0.0, 0.0)], []):
            filled, results = deposit_path(lay_out(hf, points), [], PARAMS)
            assert results == [] and filled.cells.size == 0
            assert np.array_equal(filled.heightfield().heights, hf.heights)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        nx=st.integers(4, 40),
        ny=st.integers(4, 40),
        cell=st.sampled_from([0.25, 0.5, 1.0]),
        speed=st.floats(1.0, 60.0),
        flow=st.floats(5.0, 1000.0),
        nozzle=st.floats(0.2, 8.0),
        last=st.booleans(),
        fault=st.one_of(st.none(), st.sampled_from(["overfill", "zero speed", "off grid"])),
    )
    def test_random_plates(self, data, nx, ny, cell, speed, flow, nozzle, last, fault):
        """One segment at a random speed, or with a fault: the kernel matches
        the line-by-line reference, and deposit is the one-segment
        deposit_path written back. A refused segment leaves the plate
        byte-identical."""
        origin = (-nx * cell / 3, -ny * cell / 2)
        hf = trough_plate(nx, ny, cell, origin, data.draw(random_blocks(nx, ny, 6.0)), data.draw(random_blocks(nx, ny, 3.0)))
        x_min, x_max, y_min, y_max = hf.bounds()
        ends = [(data.draw(st.floats(x_min, x_max)), data.draw(st.floats(y_min, y_max))) for _ in range(2)]
        if ends[0] == ends[1]:
            return
        if fault == "overfill":
            assume(math.dist(*ends) >= cell)
            # at least 10^4 mm^2 a line: more than any trough here holds, capped at most 8 mm wide
            speed = flow * math.dist(*ends) / (1e4 * cell * max(nx, ny))
        elif fault == "zero speed":
            speed = 0.0
        elif fault == "off grid":
            ends[1] = (x_max + 2 * cell, ends[1][1])
        params = DepositionParams(flow_rate_mm3_s=flow, nozzle_diameter_mm=nozzle)
        if fault in (None, "overfill"):
            assert_deposit_matches_reference(hf, ends[0], ends[1], speed, params, last)
        got = assert_deposit_is_a_one_segment_path(hf, ends[0], ends[1], speed, params)
        if fault is not None:
            assert got[0] is {"overfill": Overfill, "zero speed": ZeroSpeed, "off grid": SegmentOutsideGrid}[fault]


class TestPathLayout:
    """One layout of a path serves every fill of a copy of its plate."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        nx=st.integers(4, 30),
        ny=st.integers(4, 30),
        cell=st.sampled_from([0.25, 0.5, 1.0]),
        n_stops=st.integers(3, 8),
        copies=st.integers(2, 4),
        fault=st.sampled_from([None, "zero speed", "repeat", "off grid"]),
        one_column=st.booleans(),
        tile=st.sampled_from([specimen.TILE_CELLS, 64, 1]),
    )
    def test_copies_at_their_own_speeds(self, data, nx, ny, cell, n_stops, copies, fault, one_column, tile):
        """Each copy of the plate, filled along the one layout with its own
        speeds, flow and nozzle, ends as the segment loop leaves it, or
        raises what the loop raises: a zero speed in mid-path on some
        copies refuses their fill, and a repeated or off-grid stop refuses
        the layout, as the loop refuses every copy. Stops sorted up one
        column chain into one run, so a zero speed falls inside it."""
        origin = (-nx * cell / 3, -ny * cell / 2)
        hf = trough_plate(nx, ny, cell, origin, data.draw(random_blocks(nx, ny, 6.0)), data.draw(random_blocks(nx, ny, 3.0)))
        stops = draw_stops(data, hf, n_stops)
        if one_column:
            stops = [(stops[0][0], y) for y in sorted(y for _, y in stops)]
        at = data.draw(st.integers(1, n_stops - 2))  # a segment in mid-path
        if fault == "repeat":
            stops[at + 1] = stops[at]
        elif fault == "off grid":
            stops[at + 1] = (hf.bounds()[1] + 2 * cell, stops[at + 1][1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specimen, "TILE_CELLS", tile)
            layout = outcome(lambda: lay_out(hf, stops))
            for _ in range(copies):
                speeds = [data.draw(st.floats(1.0, 60.0)) for _ in stops]
                if fault == "zero speed" and data.draw(st.booleans()):
                    speeds[at] = 0.0
                params = DepositionParams(flow_rate_mm3_s=data.draw(st.floats(5.0, 1000.0)), nozzle_diameter_mm=data.draw(st.floats(0.2, 8.0)))
                path = [(x, y, v) for (x, y), v in zip(stops, speeds)]
                if isinstance(layout, tuple):
                    assert layout == outcome(lambda: segment_loop_fill(hf.copy(), path, params))
                else:
                    assert_fill_matches_segment_loop(hf, path, params, layout)

    def test_only_the_first_run_keeps_its_troughs(self):
        """Runs 50..31 | 30 | 30..10 down one column: lay_out surveys the
        first run on the plate, and each later run, even the second on
        lines the first never reaches, is surveyed as the fill reaches it."""
        hf = trough_plate(40, 60, 0.5, (-10.0, -5.0), troughs=[(14, 26, 0, 60, 2.0)])
        stops = [(0.0, 20.0, 10.0), (0.3, 10.0, 15.0), (0.25, 9.9, 12.0), (-0.1, 0.0, 10.0)]
        layout = layout_through(hf, stops)
        assert [(run.dom, run.lo, len(run.seg_of)) for run in layout.runs] == [(1, 31, 20), (1, 30, 1), (1, 10, 21)]
        assert [run.troughs is not None for run in layout.runs] == [True, False, False]
        for speeds in ((10.0, 15.0, 12.0), (3.0, 1.0, 3.0), (40.0, 2.0, 0.0)):
            assert_fill_matches_segment_loop(hf, [(x, y, v) for (x, y, _), v in zip(stops, (*speeds, 0.0))], PARAMS, layout)

    def test_a_zero_speed_inside_a_run(self):
        """Four chained segments make one run; a zero speed anywhere in it
        refuses the path before any of it is laid, even after a segment
        that would overfill."""
        hf = trough_plate(40, 60, 0.5, (-10.0, -5.0), troughs=[(14, 26, 0, 60, 2.0)])
        points = [(0.0, 0.0), (0.2, 5.0), (-0.1, 10.0), (0.1, 15.0), (0.0, 20.0)]
        layout = lay_out(hf, points)
        assert [len(run.segments) for run in layout.runs] == [4]
        for speeds in ((10.0, 4.0, 0.0, 10.0), (0.0, 10.0, 10.0, 10.0), (10.0, 10.0, 10.0, 0.0), (10.0, 0.5, 0.0, 10.0)):
            got = assert_fill_matches_segment_loop(hf, [(x, y, v) for (x, y), v in zip(points, (*speeds, 0.0))], PARAMS, layout)
            assert got[0] is ZeroSpeed

    def test_a_zigzag_along_a_diagonal_crack(self):
        """Segments of alternating dominant axis along a 45 degree crack: each
        run after the first crosses the lines of the one before, so every
        later run is surveyed on the plate as the earlier ones left it."""
        spec = CrackSpec(path=[(-6.0, 0.0), (6.0, 12.0)], width=3.0, depth=2.0)
        hf = generate_specimen(spec, origin=(-10.0, -4.0), cell_size=0.25, nx=81, ny=81).heightfield()
        points = [(-5.0, 1.0), (-3.0, 2.0), (-2.0, 4.0), (0.0, 5.0), (1.0, 7.0), (3.0, 8.0)]
        layout = lay_out(hf, points)
        assert [run.dom for run in layout.runs] == [0, 1, 0, 1, 0]
        assert [run.troughs is not None for run in layout.runs] == [True, False, False, False, False]
        for speeds in ((10.0,) * 5, (4.0, 30.0, 6.0, 50.0, 3.0), (8.0, 8.0, 0.0, 8.0, 8.0)):
            assert_fill_matches_segment_loop(hf, [(x, y, v) for (x, y), v in zip(points, (*speeds, 0.0))], PARAMS, layout)

    # two runs: up the trough along y, then along x out of it
    POINTS = [(0.0, 0.0), (0.0, 10.0), (3.0, 12.0)]

    def test_each_fill_lays_its_own_copy(self):
        """Two fills along one layout return equal plates, each reading the
        layout's plate, which stays as it was, through its own copy of the
        box it filled, which shares no memory with the other's or with the
        plate; every segment of both deposits its target volume."""
        hf = trough_plate(40, 60, 0.5, (-10.0, -5.0), troughs=[(14, 26, 0, 60, 2.0)])
        pristine = hf.heights.copy()
        layout = lay_out(hf, self.POINTS)
        (first, first_results), (second, second_results) = (deposit_path(layout, [10.0, 10.0], PARAMS) for _ in range(2))
        assert np.array_equal(first.heightfield().heights, second.heightfield().heights)
        assert first_results == second_results
        assert first.heights is second.heights is hf.heights
        for a, b in ((first.cells, second.cells), (first.cells, hf.heights), (second.cells, hf.heights)):
            assert not np.shares_memory(a, b)
        assert np.array_equal(hf.heights, pristine)
        assert not np.array_equal(first.heightfield().heights, pristine)
        for result in first_results:
            assert result.volume_deposited_mm3 == pytest.approx(result.volume_target_mm3, rel=1e-9)

    @pytest.mark.parametrize("speeds, error", [([10.0, 0.0], ZeroSpeed), ([0.02, 10.0], Overfill)], ids=["zero speed", "overfill"])
    def test_a_refused_fill_leaves_its_layout_as_it_was(self, speeds, error):
        """A refused or overfilled fill writes nothing its layout holds: the
        plate keeps its heights and the next fill along the layout equals
        one along a fresh layout."""
        hf = trough_plate(40, 60, 0.5, (-10.0, -5.0), troughs=[(14, 26, 0, 60, 2.0)])
        pristine = hf.heights.copy()
        layout = lay_out(hf, self.POINTS)
        with pytest.raises(error):
            deposit_path(layout, speeds, PARAMS)
        assert np.array_equal(hf.heights, pristine)
        filled, results = deposit_path(layout, [10.0, 10.0], PARAMS)
        fresh, fresh_results = deposit_path(lay_out(hf.copy(), self.POINTS), [10.0, 10.0], PARAMS)
        assert np.array_equal(filled.heightfield().heights, fresh.heightfield().heights)
        assert results == fresh_results

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        nx=st.integers(4, 30),
        ny=st.integers(4, 30),
        cell=st.sampled_from([0.25, 0.5, 1.0]),
        n_stops=st.integers(2, 6),
        tile=st.sampled_from([specimen.TILE_CELLS, 64, 1]),
    )
    def test_a_base_and_patch_fill_as_their_heightfield(self, data, nx, ny, cell, n_stops, tile):
        """A plate held as a carved base plus a patch of other heights over a
        random box (empty, the whole grid or anything between) is laid out
        and filled as its heightfield() is: the same results and heights,
        or the same error. The filled plate is the same base plus one patch
        over a box holding the plate's, and neither base nor patch is
        written. At random points, some off the grid, lookup reads each
        plate, its base and its heightfield() as the nearest cell does."""
        origin = (-nx * cell / 3, -ny * cell / 2)
        base = trough_plate(nx, ny, cell, origin, data.draw(random_blocks(nx, ny, 6.0)), data.draw(random_blocks(nx, ny, 3.0)))
        other = trough_plate(nx, ny, cell, origin, data.draw(random_blocks(nx, ny, 6.0)), data.draw(random_blocks(nx, ny, 3.0)))
        r0, c0 = data.draw(st.integers(0, ny)), data.draw(st.integers(0, nx))
        box = (slice(r0, data.draw(st.integers(r0, ny))), slice(c0, data.draw(st.integers(c0, nx))))
        plate = replace(base, box=box, cells=other.heights[box].copy())
        pristine = (base.heights.copy(), plate.cells.copy())
        stops = draw_stops(data, base, n_stops)
        speeds = [data.draw(st.floats(1.0, 60.0)) for _ in stops[1:]]
        params = DepositionParams(flow_rate_mm3_s=data.draw(st.floats(5.0, 1000.0)), nozzle_diameter_mm=data.draw(st.floats(0.2, 8.0)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specimen, "TILE_CELLS", tile)
            got = outcome(lambda: deposit_path(lay_out(plate, stops), speeds, params))
            want = outcome(lambda: deposit_path(lay_out(plate.heightfield(), stops), speeds, params))
        plates = [plate, base]
        if isinstance(want[0], Heightfield):
            (filled, results), (want_filled, want_results) = got, want
            assert results == want_results
            assert np.array_equal(filled.heightfield().heights, want_filled.heightfield().heights)
            assert filled.heights is base.heights
            if plate.cells.size:
                assert all(f.start <= p.start and p.stop <= f.stop for f, p in zip(filled.box, box))
            plates.append(filled)
        else:
            assert got == want
        assert np.array_equal(base.heights, pristine[0]) and np.array_equal(plate.cells, pristine[1])
        x_min, x_max, y_min, y_max = base.bounds()
        near = lambda lo, hi: st.one_of(st.floats(lo - 3 * cell, hi + 3 * cell), st.floats(-1e300, 1e300))
        xs, ys = np.array(data.draw(st.lists(st.tuples(near(x_min, x_max), near(y_min, y_max)), min_size=1, max_size=16))).T
        ix, iy = np.rint((xs - origin[0]) / cell), np.rint((ys - origin[1]) / cell)
        on_grid = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        nearest = (np.clip(iy, 0, ny - 1).astype(int), np.clip(ix, 0, nx - 1).astype(int))
        for p in plates:
            full = p.heightfield()
            h, inside = p.lookup(xs, ys)
            assert np.array_equal(h, full.heights[nearest]) and np.array_equal(inside, on_grid)
            assert all(np.array_equal(a, b) for a, b in zip(full.lookup(xs, ys), (h, inside)))

    def test_a_plan_off_the_layout_is_refused(self):
        hf = make_flat(nx=60, ny=80, cell=0.5, origin=(-15.0, -5.0))
        stops = [(0.0, 0.0, 10.0), (0.0, 10.0, 10.0), (2.0, 20.0, 10.0)]
        layout = layout_through(hf, stops)
        for other in ([*stops[:2], (2.0, 20.5, 10.0)], stops[:2], [*stops, (2.0, 25.0, 10.0)]):
            with pytest.raises(ValueError, match="not the points its layout was made for"):
                execute_fill(layout, plan_through(other), PARAMS)
        assert len(execute_fill(layout, plan_through(stops), PARAMS).segments) == 2


class TestWaterFillMatchesLoop:
    @staticmethod
    def check(runs, budget, ceiling=0.0, cell=0.1):
        """Each row of the row-wise fill against the loop on that row alone."""
        runs = np.atleast_2d(runs)
        filled, remaining = specimen._water_fill(runs.copy(), budget, ceiling, cell)
        for row, got_row, got_left in zip(runs, filled, remaining):
            want = row.copy()
            assert got_left == loop_water_fill(want, budget, ceiling, cell)
            assert np.array_equal(got_row, want)

    def test_tied_heights_and_budgets_near_capacity(self):
        """Rows of one block share the budget, so some of them fill completely
        and others stop part way."""
        rng = np.random.default_rng(8)
        for _ in range(300):
            runs = -rng.choice([0.5, 1.0, 2.5, 4.0], size=(3, rng.integers(1, 40)))
            capacity = float(np.maximum(0.0, -runs[0]).sum() * 0.1)
            for budget in (
                capacity,
                np.nextafter(capacity, 0.0),
                capacity * (1 - 1e-12),
                capacity * rng.uniform(0.9, 1.0),
                capacity * rng.uniform(0.0, 1.0),
                1e-15,
            ):
                self.check(runs, float(budget))

    def test_budget_exactly_levelling_the_lowest_cells(self):
        """A budget equal to the cost of levelling the k lowest cells up to
        the next height stops at k, not k + 1."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            heights = -rng.uniform(0.01, 9.0, size=rng.integers(2, 30))
            h_sorted = np.sort(heights)
            prefix = np.cumsum(h_sorted)
            for k in range(1, len(heights)):
                self.check(heights, float((h_sorted[k] * k - prefix[k - 1]) * 0.1))

    @settings(max_examples=300, deadline=None)
    @given(
        heights=st.lists(st.floats(-10.0, -1e-9), min_size=1, max_size=60),
        fraction=st.floats(0.0, 1.0),
        cell=st.sampled_from([0.05, 0.1, 0.5]),
    )
    @example(heights=[-1.0] * 7, fraction=1.0, cell=0.1)
    @example(heights=[-2.0, -1.0, -2.0, -1.0], fraction=0.5, cell=0.1)
    def test_random_troughs(self, heights, fraction, cell):
        heights = np.asarray(heights)
        capacity = float(np.maximum(0.0, -heights).sum() * cell)
        # the reversed row holds the same capacity, the halved row half of it
        self.check(np.stack([heights, heights[::-1], heights / 2]), capacity * fraction, cell=cell)


class TestCarveMatchesFullGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_pts=st.integers(2, 5),
        cell=st.sampled_from([0.1, 0.25, 0.5]),
        tabled=st.booleans(),
        touch_edge=st.booleans(),
    )
    def test_random_polylines(self, data, n_pts, cell, tabled, touch_edge):
        coord = st.floats(-20.0, 20.0)
        pts = [(data.draw(coord), data.draw(coord)) for _ in range(n_pts)]
        if tabled:
            knots = sorted(data.draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4, unique=True)))
            width = [(s, data.draw(st.floats(0.3, 9.0))) for s in knots]
            depth = [(s, data.draw(st.floats(0.3, 9.0))) for s in knots]
        else:
            width, depth = data.draw(st.floats(0.3, 9.0)), data.draw(st.floats(0.3, 9.0))
        spec = CrackSpec(path=pts, width=width, depth=depth)
        half_w = spec.max_width() / 2.0
        arr = np.asarray(pts)
        margin = 0.0 if touch_edge else data.draw(st.floats(0.0, 10.0))
        origin = tuple(arr.min(axis=0) - half_w - margin)
        # the low edges touch the trough; one spare cell keeps the high edges clear of rounding
        nx, ny = (np.ceil((np.ptp(arr, axis=0) + 2 * (half_w + margin)) / cell).astype(int) + 2).tolist()
        got = generate_specimen(spec, origin=origin, cell_size=cell, nx=nx, ny=ny).heightfield()
        want = full_grid_specimen(spec, origin=origin, cell_size=cell, nx=nx, ny=ny)
        assert np.array_equal(got.heights, want.heights)

    def test_a_segment_whose_square_underflows(self):
        """A 1e-200 mm segment squares to 0; it is skipped like a zero-length
        one, without a divide warning, and carves like the path without it."""
        grid = dict(origin=(-10.0, 0.0), cell_size=0.5, nx=40, ny=110)
        spec = CrackSpec(path=[(0.0, 10.0), (1e-200, 10.0), (0.0, 40.0)], width=4.0, depth=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = generate_specimen(spec, **grid).heightfield()
            want = full_grid_specimen(spec, **grid)
        plain = generate_specimen(CrackSpec(path=[(0.0, 10.0), (0.0, 40.0)], width=4.0, depth=2.0), **grid).heightfield()
        assert np.array_equal(got.heights, plain.heights)
        assert np.array_equal(want.heights, plain.heights)

    def test_default_scene(self):
        scene = ScenarioConfig.default().build_scene()
        hf = scene.build_specimen().heightfield()
        want = full_grid_specimen(scene.crack, origin=hf.origin, cell_size=hf.cell_size, nx=hf.nx, ny=hf.ny)
        assert np.array_equal(hf.heights, want.heights)
