"""Row tiles against the full-size code they replaced.

The carve, the raycast with its view, and the heightfield PGM must be
byte-identical to the full-size references below at several tile sizes,
and each must hold only a tile's worth of scratch on top of its output;
so must a fill's deposition, which lays its whole path in tiles, and a
scan's depth noise, drawn in tiles and kept only where it is read.
"""

import functools
import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from crackfill import CrackSpec, FillMode, Heightfield, NoIntersection, ScenarioConfig, deposit_path, execute_fill, generate_specimen, image_specimen, lay_out, plan_fill, specimen, survey
from crackfill import io as cfio
from crackfill.geometry import CameraIntrinsics, RigidTransform
from crackfill.repair import fill_points, perceive_view, repair
from crackfill.sensors import render_view
from crackfill.specimen import profile_values, row_tiles
from conftest import TILES, base_and_patch_plates, tilted

# A crack along robot x on a 2600 x 900 grid, shaped like the benchmark's fill_x scene.
ALONG_X = {
    "grid": {"origin_mm": [-130.0, 60.0], "nx": 2600, "ny": 900},
    "crack": {"path_mm": [[-115.0, 105.0], [115.0, 105.0]]},
}
SCENES = {"default": ({}, False), "localization": ({}, True), "along_x": (ALONG_X, False)}

# Small cases also take a single row per tile.
WITH_ONE_ROW = pytest.mark.parametrize("tile", TILES + [1], indirect=True)

MULTI_SEGMENT = CrackSpec(
    path=[(-10.0, 5.0), (0.0, 40.0), (15.0, 60.0), (15.0, 90.0)],
    width=[(0.0, 3.0), (50.0, 8.0), (100.0, 5.0)],
    depth=[(0.0, 2.0), (80.0, 6.0)],
)
MULTI_SEGMENT_GRID = {"origin": (-25.0, 0.0), "cell_size": 0.1, "nx": 500, "ny": 1000}


def reference_distance_field(xs, ys, pts):
    """Distance from every cell centre to the polyline, and the closest point's arclength."""
    gx, gy = np.meshgrid(xs, ys)
    best_d2 = np.full(gx.shape, np.inf)
    best_s = np.zeros(gx.shape)
    s0 = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        d = b - a
        seg_len = float(np.hypot(*d))
        if seg_len**2 == 0:
            continue
        t = ((gx - a[0]) * d[0] + (gy - a[1]) * d[1]) / seg_len**2
        t = np.clip(t, 0.0, 1.0)
        px = a[0] + t * d[0]
        py = a[1] + t * d[1]
        d2 = (gx - px) ** 2 + (gy - py) ** 2
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        best_s[closer] = s0 + t[closer] * seg_len
        s0 += seg_len
    return np.sqrt(best_d2), best_s


def reference_carve(spec, *, origin, cell_size, nx, ny, nominal_surface=0.0):
    """The carve as one full-size block."""
    hf = Heightfield.flat(origin, cell_size, nx, ny, nominal_surface).copy()
    pts = np.asarray(spec.path, dtype=float)
    half_w = spec.max_width() / 2.0
    lo = np.floor((pts.min(axis=0) - half_w - origin) / cell_size).astype(int) - 1
    hi = np.ceil((pts.max(axis=0) + half_w - origin) / cell_size).astype(int) + 2
    ix0, iy0 = np.maximum(lo, 0)
    ix1, iy1 = np.minimum(hi, (nx, ny))
    block = hf.heights[iy0:iy1, ix0:ix1]
    dist, s = reference_distance_field(hf.x_of(np.arange(ix0, ix1)), hf.y_of(np.arange(iy0, iy1)), pts)
    near = dist <= half_w
    widths = profile_values(spec.width, s[near])
    depths = profile_values(spec.depth, s[near])
    carved = dist[near] <= widths / 2.0
    rows, cols = np.nonzero(near)
    block[rows[carved], cols[carved]] = nominal_surface - depths[carved]
    return hf


def reference_view(hf, k, camera_pose, threshold_mm):
    """The full-image raycast and view: (depth, valid, mask, rays still moving at the step cap)."""
    uu, vv = np.meshgrid(np.arange(k.image_width, dtype=float), np.arange(k.image_height, dtype=float))
    dirs_c = np.stack([(uu - k.px) / k.fx, (vv - k.py) / k.fy, np.ones_like(uu)], axis=-1)
    dirs_0 = dirs_c @ camera_pose.rotation.T
    ox, oy, oz = camera_pose.translation
    dz = dirs_0[..., 2]
    live = np.abs(dz) > 1e-12
    t = np.where(live, (hf.nominal_surface - oz) / np.where(live, dz, 1.0), 0.0)
    flat_t = t.reshape(-1)
    flat_dirs = dirs_0.reshape(-1, 3)
    moving = np.flatnonzero(live)
    still_moving = 0
    for _ in range(16):
        t_old = flat_t[moving]
        d = flat_dirs[moving]
        h = hf.lookup(ox + t_old * d[:, 0], oy + t_old * d[:, 1])[0]
        t_new = (h - oz) / d[:, 2]
        flat_t[moving] = t_new
        if np.allclose(t_new, t_old, atol=1e-9, rtol=0.0):
            break
        moving = moving[t_new != t_old]
    else:
        still_moving = moving.size
    x = ox + t * dirs_0[..., 0]
    y = oy + t * dirs_0[..., 1]
    valid = live & (t > 0) & hf.lookup(x, y)[1]
    if not valid.any():
        raise NoIntersection("no camera ray intersects the heightfield")
    mask = valid & (hf.nominal_surface - hf.lookup(x, y)[0] > threshold_mm)
    return np.where(valid, t, 0.0), valid, mask, still_moving


def reference_heightfield_pgm(hf) -> bytes:
    """The whole heightfield PGM file, quantized in one full-size pass."""
    lo, hi = float(hf.heights.min()), float(hf.heights.max())
    span = hi - lo
    if span <= 0:
        q = np.zeros(hf.heights.shape, dtype=np.uint32)
    else:
        q = np.clip(np.rint((hf.heights - lo) / span * 65535), 0, 65535).astype(np.uint32)
    header = [
        "P5",
        f"# origin_mm {cfio.fmt(hf.origin[0])} {cfio.fmt(hf.origin[1])}",
        f"# cell_size_mm {cfio.fmt(hf.cell_size)}",
        f"# nominal_surface_mm {cfio.fmt(hf.nominal_surface)}",
        f"# z_range_mm {cfio.fmt(lo)} {cfio.fmt(hi)}",
        f"{hf.nx} {hf.ny}",
        "65535",
    ]
    return ("\n".join(header) + "\n").encode("ascii") + q.astype(">u2").tobytes()


@functools.cache
def scene_and_specimen(name):
    raw, localization = SCENES[name]
    scene = ScenarioConfig.from_dict(raw).build_scene(localization=localization)
    hf = reference_carve(
        scene.crack, origin=scene.grid_origin, cell_size=scene.cell_size_mm, nx=scene.nx, ny=scene.ny
    )
    return scene, hf


@functools.cache
def surveyed(name, patched=False):
    """The scene's survey and deposition parameters: on the full-size
    reference carve, or, patched, on the specimen as build_specimen holds
    it, a flat plate plus its carved block."""
    scene, hf = scene_and_specimen(name)
    if patched:
        hf = scene.build_specimen()
    cfg = ScenarioConfig.from_dict(SCENES[name][0])
    return survey(scene, image_specimen(scene, hf), cfg.build_noise()), cfg.build_deposition()


@functools.cache
def cached_reference_view(name, tilt):
    scene, hf = scene_and_specimen(name)
    return reference_view(hf, scene.intrinsics, tilted(scene.camera_pose, tilt), scene.mask_threshold_mm)


def traced_peak(fn):
    """fn's result and the most memory (bytes) it held at once beyond what was held before it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestRowTiles:
    @WITH_ONE_ROW
    @pytest.mark.parametrize("n_rows, row_cells", [(480, 640), (1, 1), (2600, 900), (7, 10**6)])
    def test_cover_every_row_once_in_order(self, tile, n_rows, row_cells):
        tiles = list(row_tiles(n_rows, row_cells))
        assert np.array_equal(np.concatenate([np.arange(n_rows)[s] for s in tiles]), np.arange(n_rows))
        assert all(s.stop - s.start == max(1, tile // row_cells) for s in tiles[:-1])

    def test_no_rows_no_tiles(self):
        assert list(row_tiles(0, 640)) == []


class TestCarve:
    @pytest.mark.parametrize("name", SCENES)
    def test_scenes_match_the_full_block(self, tile, name):
        scene, want = scene_and_specimen(name)
        assert scene.build_specimen().heightfield().heights.tobytes() == want.heights.tobytes()

    @WITH_ONE_ROW
    def test_multi_segment_tabled_crack_matches_the_full_block(self, tile):
        got = generate_specimen(MULTI_SEGMENT, **MULTI_SEGMENT_GRID).heightfield()
        want = reference_carve(MULTI_SEGMENT, **MULTI_SEGMENT_GRID)
        assert got.heights.tobytes() == want.heights.tobytes()
        assert (want.heights < 0).any()

    @pytest.mark.parametrize("name", [*SCENES, "multi_segment"])
    def test_a_specimen_holds_only_its_carved_block(self, name):
        """build_specimen (generate_specimen for the multi-segment crack) holds
        a flat plate of one value plus the block the carve visits: it reads
        as the full-size reference carve bit for bit, and every cell of the
        reference outside the block is nominal."""
        if name == "multi_segment":
            got, want = generate_specimen(MULTI_SEGMENT, **MULTI_SEGMENT_GRID), reference_carve(MULTI_SEGMENT, **MULTI_SEGMENT_GRID)
        else:
            scene, want = scene_and_specimen(name)
            got = scene.build_specimen()
        assert got.heights.strides == (0, 0)
        assert got.heightfield().heights.tobytes() == want.heights.tobytes()
        outside = np.ones(want.heights.shape, dtype=bool)
        outside[got.box] = False
        assert (want.heights[outside] == want.nominal_surface).all()
        assert (got.cells < got.nominal_surface).any()


class TestView:
    @pytest.mark.parametrize(
        "name, tilt", [("default", 0.0), ("localization", 0.0), ("along_x", 0.0), ("default", 0.05)],
        ids=["default", "localization", "along_x", "tilted"],
    )
    def test_scenes_match_the_full_image(self, tile, name, tilt, caplog):
        scene, hf = scene_and_specimen(name)
        pose = tilted(scene.camera_pose, tilt)
        with caplog.at_level("DEBUG", logger="crackfill.sensors"):
            depth, mask = render_view(hf, scene.intrinsics, pose, scene.mask_threshold_mm)
        want_depth, want_valid, want_mask, still_moving = cached_reference_view(name, tilt)
        assert depth.depth_mm.tobytes() == want_depth.tobytes()
        assert depth.valid.tobytes() == want_valid.tobytes()
        assert mask.flags.tobytes() == want_mask.tobytes()
        if still_moving:
            assert f"stopped after 16 steps with {still_moving} rays still moving" in caplog.text
        else:
            assert "still moving" not in caplog.text
        if name == "localization":
            assert still_moving == 22  # rays still moving at the step cap are covered

    @WITH_ONE_ROW
    def test_one_pixel_image(self, tile):
        scene, hf = scene_and_specimen("default")
        k = CameraIntrinsics(fx=600.0, fy=600.0, px=0.0, py=0.0, image_width=1, image_height=1)
        depth, mask = render_view(hf, k, scene.camera_pose, scene.mask_threshold_mm)
        want_depth, want_valid, want_mask, _ = reference_view(hf, k, scene.camera_pose, scene.mask_threshold_mm)
        assert depth.depth_mm.tobytes() == want_depth.tobytes() and depth.depth_mm.shape == (1, 1)
        assert depth.valid.tobytes() == want_valid.tobytes()
        assert mask.flags.tobytes() == want_mask.tobytes()

    def test_camera_off_the_grid(self, tile):
        scene, hf = scene_and_specimen("default")
        pose = RigidTransform(scene.camera_pose.rotation, [5000.0, 125.0, 500.0], scene.camera_pose.source_frame, scene.camera_pose.target_frame)
        with pytest.raises(NoIntersection):
            reference_view(hf, scene.intrinsics, pose, scene.mask_threshold_mm)
        with pytest.raises(NoIntersection):
            render_view(hf, scene.intrinsics, pose, scene.mask_threshold_mm)


# Named plates for the PGM oracle: an empty patch; a patch over the whole
# grid with every cell below nominal, so nominal, which the plate shows
# nowhere, must stay out of the z range; one height everywhere (a zero z
# span); a patch on a dense base.
_FLAT = Heightfield.flat((-3.0, -2.0), 0.5, 12, 9, nominal_surface=1.0)
PGM_CASES = {
    "empty_patch": replace(_FLAT, box=(slice(0, 0), slice(0, 0)), cells=np.empty((0, 0))),
    "whole_grid_below_nominal": replace(_FLAT, box=(slice(0, 9), slice(0, 12)), cells=0.5 - np.arange(108.0).reshape(9, 12) / 50),
    "zero_span": replace(_FLAT, box=(slice(2, 5), slice(3, 7)), cells=np.full((3, 4), 1.0)),
    "dense_base": Heightfield(
        (-3.0, -2.0), 0.5, 12, 9, np.linspace(-2.0, 2.0, 108).reshape(9, 12), 1.0, (slice(4, 9), slice(0, 5)), np.full((5, 5), -4.0)
    ),
}


class TestHeightfieldPgm:
    @pytest.mark.parametrize("tile", [*TILES, 64, 1], indirect=True)
    @given(plate=base_and_patch_plates())
    @example(plate=PGM_CASES["empty_patch"])
    @example(plate=PGM_CASES["whole_grid_below_nominal"])
    @example(plate=PGM_CASES["zero_span"])
    @example(plate=PGM_CASES["dense_base"])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_plates_match_the_full_size_quantization(self, tile, plate, tmp_path):
        """A base plus patch writes the PGM of its heightfield(), byte for byte."""
        cfio.write_heightfield_pgm(tmp_path / "s.pgm", plate)
        want = plate.heightfield()
        assert (tmp_path / "s.pgm").read_bytes() == reference_heightfield_pgm(want)

    @pytest.mark.parametrize("name", ["default", "along_x"])
    def test_scenes_match_the_full_size_quantization(self, tile, name, tmp_path):
        hf = scene_and_specimen(name)[1]
        cfio.write_heightfield_pgm(tmp_path / "s.pgm", hf)
        assert (tmp_path / "s.pgm").read_bytes() == reference_heightfield_pgm(hf)

    @WITH_ONE_ROW
    @pytest.mark.parametrize("name", ["multi_segment", "flat"])
    def test_small_plates_match_the_full_size_quantization(self, tile, name, tmp_path):
        if name == "multi_segment":
            hf = reference_carve(MULTI_SEGMENT, **MULTI_SEGMENT_GRID)
        else:  # constant height: a zero z span quantizes to all zeros
            hf = Heightfield.flat((0.0, 0.0), 0.5, 30, 20, nominal_surface=3.0)
        cfio.write_heightfield_pgm(tmp_path / "s.pgm", hf)
        assert (tmp_path / "s.pgm").read_bytes() == reference_heightfield_pgm(hf)


class TestScratchBudgets:
    """Each stage's traced peak stays near its output, far below the full-size
    temporaries (the full-size code peaked at about 9.5x the PGM payload,
    45 MB for the view, and the heights plus 28 MB for the carve)."""

    def test_heightfield_pgm_within_twice_its_payload(self, tmp_path):
        hf = scene_and_specimen("along_x")[1]
        _, peak = traced_peak(lambda: cfio.write_heightfield_pgm(tmp_path / "s.pgm", hf))
        assert peak <= 2 * (2 * hf.nx * hf.ny)

    def test_default_view_within_its_outputs_plus_4_mb(self):
        """render_view holds its outputs, depth, valid and mask (10 B a
        pixel, 3.1 MB), plus one tile's scratch and the rays its first step
        moved: about 5.9 MB in all, against 6.5 MB while a second pass over
        every ray judged validity and the mask."""
        scene, hf = scene_and_specimen("default")
        _, peak = traced_peak(lambda: render_view(hf, scene.intrinsics, scene.camera_pose, scene.mask_threshold_mm))
        assert peak <= 10 * scene.intrinsics.image_width * scene.intrinsics.image_height + 4e6

    def test_surface_pgm_of_a_flat_base_quantizes_the_patch_and_a_cell_per_tile(self, tmp_path, monkeypatch):
        """A specimen's base is flat, so its PGM quantizes the patch's cells
        and one base cell per row tile, not each of the plate's 2.34 M."""
        plate = scene_and_specimen("along_x")[0].build_specimen()
        quantized = []
        quantize = cfio._quantize
        monkeypatch.setattr(cfio, "_quantize", lambda values, *args: quantized.append(values.size) or quantize(values, *args))
        cfio.write_heightfield_pgm(tmp_path / "s.pgm", plate)
        assert sum(quantized) <= plate.cells.size + len(list(row_tiles(plate.ny, plate.nx)))
        assert (tmp_path / "s.pgm").read_bytes() == reference_heightfield_pgm(plate.heightfield())

    def test_default_view_within_20_mb(self):
        scene, hf = scene_and_specimen("default")
        _, peak = traced_peak(lambda: render_view(hf, scene.intrinsics, scene.camera_pose, scene.mask_threshold_mm))
        assert peak <= 20e6

    def test_default_carve_within_its_block_plus_5_mb(self):
        """The default specimen holds its carved block, 3.2 MB, not a
        full-size plate, 18.7 MB; the carve's row-tile scratch peaks at about
        4.3 MB on top of it."""
        scene = ScenarioConfig.default().build_scene()
        hf, peak = traced_peak(scene.build_specimen)
        assert hf.cells.nbytes <= 4e6
        assert peak <= hf.cells.nbytes + 5e6

    def test_default_scan_within_1_mb(self):
        """A scan forms noisy depth only in the windows it reads, in row
        tiles: far below one float64 frame (2.46 MB). Reading a whole noisy
        frame peaked at 7.4 MB; this peaks at 0.54 MB."""
        surveyed_scene, _ = surveyed("default")
        scene, noise = surveyed_scene.scene, surveyed_scene.noise
        view = image_specimen(scene, surveyed_scene.specimen)
        perceive_view(scene, view, noise)  # the first scan imports what drawing noise needs
        waypoints, peak = traced_peak(lambda: perceive_view(scene, view, noise))
        assert len(waypoints) >= 30
        assert peak <= 1e6

    @pytest.mark.parametrize("speed", [6.0, 20.0], ids=["capped", "flooded"])
    @pytest.mark.parametrize("name", ["default", "along_x"])
    def test_fill_within_2_mb_of_its_plate(self, name, speed):
        """The whole path is laid out and laid in tiles, not as one block of
        its lines (2,300 lines of 900 cells, 16.6 MB on either scene). The
        fill's one large array is its copy of the box of the plate that it
        can change, which holds at most a quarter of the plate (about a
        fifth on either scene, 3.6 MB of the 18.7 MB plate)."""
        assert_fill_within_2_mb_of_its_plate(*surveyed(name), speed)

    @pytest.mark.parametrize("speed", [6.0, 20.0], ids=["capped", "flooded"])
    @pytest.mark.parametrize("name", ["default", "along_x"])
    def test_fill_on_the_carved_block_within_2_mb(self, name, speed):
        """The same on the specimen as build_specimen holds it: lay_out reads
        each line from the carved block, and composes a row tile at a time
        where a line leaves it; the fill's box holds the block too."""
        assert_fill_within_2_mb_of_its_plate(*surveyed(name, patched=True), speed)

    def test_nothing_a_fill_computes_outlives_it(self):
        """Once a survey's first repair has built its layout, five more
        repairs leave the traced memory within 64 KB of its level after the
        first: a fill keeps nothing on the layout, the survey or the module.
        One float64 kept per flooded cell would be 2.35 MB."""
        assert_nothing_a_fill_computes_outlives_it(*surveyed("default"))

    def test_nothing_a_fill_on_the_carved_block_outlives_it(self):
        """The same on the specimen as build_specimen holds it."""
        assert_nothing_a_fill_computes_outlives_it(*surveyed("default", patched=True))


def assert_nothing_a_fill_computes_outlives_it(surveyed_scene, params):
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        repair(surveyed_scene, FillMode.fixed(10.0), params)
        gc.collect()
        level = tracemalloc.get_traced_memory()[0]
        for speed in (6.0, 8.0, 10.0, 15.0, 20.0):
            repair(surveyed_scene, FillMode.fixed(speed), params)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - level <= 64 * 1024
    finally:
        if started:
            tracemalloc.stop()


def assert_fill_within_2_mb_of_its_plate(surveyed_scene, params, speed):
    plan = plan_fill(surveyed_scene.refinement.waypoints, FillMode.fixed(speed))
    layout, peak = traced_peak(lambda: lay_out(surveyed_scene.specimen, fill_points(plan.waypoints)))
    assert peak <= 2e6
    result, peak = traced_peak(lambda: execute_fill(layout, plan, params))
    assert len(result.segments) >= 30
    box = result.surface.cells
    assert box.size <= 0.25 * surveyed_scene.specimen.nx * surveyed_scene.specimen.ny
    assert peak <= box.nbytes + 2e6  # the fill's own copy of its box, and its scratch


# Second fills laid out on a first fill's filled plate: a pass along the
# crack's centreline at 20 mm/s, then one at 12 mm/s along the points given
# (x across the centreline, y). On the default crack; with the second pass
# run on to y = 255 mm, past the end cap at 248 mm onto the flat plate,
# veering off the cap's tip, whose one-cell trough would take a bead cap
# of one cell's width and overfill; and on a crack at x = -37 mm, whose
# carve touches the grid's low x edge, so its block starts at column 0.
# (config, the centreline's x, the second pass)
SECOND_FILLS = {
    "default": ({}, 0.0, [(-0.2, 15.0), (0.1, 100.0), (0.0, 238.0)]),
    "past_the_end_cap": ({}, 0.0, [(-0.2, 15.0), (0.1, 100.0), (0.0, 236.0), (6.0, 255.0)]),
    "at_the_grid_edge": ({"crack": {"path_mm": [[-37.0, 10.0], [-37.0, 240.0]]}}, -37.0, [(-0.2, 15.0), (0.1, 100.0), (0.0, 238.0)]),
}


class TestSecondFill:
    @pytest.mark.parametrize("case", SECOND_FILLS)
    def test_matches_two_fills_on_a_full_plate(self, case):
        """A fill laid out on the specimen, then a second one laid out on the
        filled plate the first returned, give == results and equal heights to
        the same two fills laid out on full heightfield() copies. The
        second fill copies only its box, which holds the first's: its
        traced peak, layout included, stays within that box plus 2 MB."""
        raw, x, second = SECOND_FILLS[case]
        cfg = ScenarioConfig.from_dict(raw)
        specimen_plate, params = cfg.build_scene().build_specimen(), cfg.build_deposition()
        first = [(x, 12.0), (x + 0.3, 70.0), (x - 0.2, 130.0), (x + 0.1, 190.0), (x, 238.0)]
        second = [(x + dx, y) for dx, y in second]
        filled, results = deposit_path(lay_out(specimen_plate, first), [20.0] * 4, params)
        (refilled, again), peak = traced_peak(lambda: deposit_path(lay_out(filled, second), [12.0] * (len(second) - 1), params))
        want_filled, want_results = deposit_path(lay_out(specimen_plate.heightfield(), first), [20.0] * 4, params)
        want_refilled, want_again = deposit_path(lay_out(want_filled.heightfield(), second), [12.0] * (len(second) - 1), params)
        assert (results, again) == (want_results, want_again)
        assert np.array_equal(refilled.heightfield().heights, want_refilled.heightfield().heights)
        assert refilled.heights is filled.heights is specimen_plate.heights
        assert peak <= refilled.cells.nbytes + 2e6
        if case == "past_the_end_cap":
            assert refilled.box[0].stop > filled.box[0].stop  # the second pass's lines leave the first's patch
        if case == "at_the_grid_edge":
            assert specimen_plate.box[1].start == 0
