"""Perception tests.

The thinning check is a contract test, not a reimplementation: on a
corpus of random blobs the skeleton must be a subset of the mask, be
one pixel wide (no fully set 2x2 block), preserve the 8-connected
component count, and be a fixpoint of the thinning itself.
"""

import functools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from crackfill import (
    CameraIntrinsics,
    DepthImage,
    EmptyPath,
    Frame,
    MaskImage,
    PixelCoord,
    ProviderUnavailable,
    ScenarioConfig,
    SensorNoise,
    Skeleton,
    Waypoint,
    binarize,
    extract_pixels,
    image_specimen,
    order_path,
    pixels_to_robot,
    skeletonize,
    space_pixels,
)
from crackfill import io as cfio
from crackfill import specimen
from crackfill.perception import _protect_components
from crackfill.repair import perceive_view
from crackfill.sensors import add_depth_noise, depth_noise_at
from conftest import camera_pose

EIGHT = np.ones((3, 3), dtype=int)


@functools.cache
def default_view():
    scene = ScenarioConfig.default().build_scene()
    return image_specimen(scene, scene.build_specimen())


def random_blob_mask(rng: np.random.Generator, size: int = 64) -> np.ndarray:
    """Union of a few random filled ellipses, clipped away from the border."""
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(rng.integers(1, 4)):
        cy, cx = rng.uniform(12, size - 12, 2)
        ry, rx = rng.uniform(3, 10, 2)
        theta = rng.uniform(0, np.pi)
        dy, dx = yy - cy, xx - cx
        u = dx * np.cos(theta) + dy * np.sin(theta)
        v = -dx * np.sin(theta) + dy * np.cos(theta)
        mask |= (u / rx) ** 2 + (v / ry) ** 2 <= 1.0
    return mask


def has_full_2x2_block(img: np.ndarray) -> bool:
    return bool((img[:-1, :-1] & img[:-1, 1:] & img[1:, :-1] & img[1:, 1:]).any())


def label_protect_components(img: np.ndarray, deletions: np.ndarray) -> np.ndarray:
    """Reference for _protect_components, on scipy's component labels: a
    component whose every pixel is a deletion keeps its first pixel."""
    if not deletions.any():
        return deletions
    labels, n = ndimage.label(img, structure=EIGHT)
    if n == 0:
        return deletions
    total = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, n + 1))
    doomed = ndimage.sum_labels(deletions.astype(float), labels, index=np.arange(1, n + 1))
    for comp in np.nonzero(doomed >= total)[0] + 1:
        rows, cols = np.nonzero((labels == comp) & deletions)
        deletions[rows[0], cols[0]] = False
    return deletions


@st.composite
def masks_and_deletions(draw):
    """A random mask and a random subset of it, as one thinning pass deletes."""
    shape = draw(st.tuples(st.integers(1, 16), st.integers(1, 16)))
    img = draw(arrays(bool, shape))
    return img, img & draw(arrays(bool, shape))


# 200 pixels, two wide, along the diagonal: reaching along it takes one growth step per row
DIAGONAL_CHAIN = np.zeros((100, 101), dtype=bool)
DIAGONAL_CHAIN[np.arange(100), np.arange(100)] = DIAGONAL_CHAIN[np.arange(100), np.arange(1, 101)] = True
CHAIN_BUT_ITS_END = DIAGONAL_CHAIN.copy()
CHAIN_BUT_ITS_END[99, 100] = False


class TestProtectComponents:
    @settings(max_examples=300, deadline=None)
    @given(case=masks_and_deletions())
    @example(case=(DIAGONAL_CHAIN, DIAGONAL_CHAIN))
    @example(case=(DIAGONAL_CHAIN, CHAIN_BUT_ITS_END))
    @example(case=(np.eye(6, dtype=bool) | np.eye(6, dtype=bool)[::-1], np.eye(6, dtype=bool)))
    def test_matches_component_labels(self, case):
        img, deletions = case
        got = _protect_components(img, deletions.copy())
        np.testing.assert_array_equal(got, label_protect_components(img, deletions.copy()))


class TestSkeletonize:
    def test_contract_on_random_blobs(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            mask = random_blob_mask(rng)
            if not mask.any():
                continue
            skel = skeletonize(mask).flags
            assert not (skel & ~mask).any(), f"trial {trial}: skeleton leaves the mask"
            assert not has_full_2x2_block(skel), f"trial {trial}: skeleton two pixels wide"
            _, n_mask = ndimage.label(mask, structure=EIGHT)
            _, n_skel = ndimage.label(skel, structure=EIGHT)
            assert n_skel == n_mask, f"trial {trial}: component count changed"
            again = skeletonize(skel).flags
            np.testing.assert_array_equal(again, skel, err_msg=f"trial {trial}: thinning not a fixpoint")

    def test_bar_collapses_to_centre_line(self):
        """A 3-px-tall, 20-px-wide bar thins to a single 1-px line within
        one pixel of the bar's vertical centre."""
        mask = np.zeros((11, 30), dtype=bool)
        mask[4:7, 5:25] = True
        skel = skeletonize(mask).flags
        rows, cols = np.nonzero(skel)
        assert rows.size >= 16
        assert np.all(np.abs(rows - 5) <= 1)
        # one pixel per column: a line, not a band
        assert np.unique(cols).size == cols.size
        _, n = ndimage.label(skel, structure=EIGHT)
        assert n == 1

    def test_single_pixel_survives(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        skel = skeletonize(mask).flags
        np.testing.assert_array_equal(skel, mask)

    def test_empty_mask_stays_empty(self):
        skel = skeletonize(np.zeros((8, 8), dtype=bool))
        assert not skel.flags.any()
        assert skel.pixels() == []

    def test_accepts_mask_image(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[3, 2:6] = True
        a = skeletonize(mask).flags
        b = skeletonize(MaskImage(flags=mask)).flags
        np.testing.assert_array_equal(a, b)

    def test_skeleton_validation(self):
        with pytest.raises(ValueError):
            Skeleton(flags=np.zeros(5, dtype=bool))

    @settings(max_examples=150, deadline=None)
    @given(
        mask=arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14))),
        offset=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    @example(mask=np.zeros((5, 7), dtype=bool), offset=(2, 1, 0, 3))
    @example(mask=np.ones((4, 6), dtype=bool), offset=(0, 0, 0, 0))
    @example(mask=np.eye(6, dtype=bool) | np.eye(6, dtype=bool)[::-1], offset=(1, 0, 2, 0))
    @example(mask=np.array([[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=bool), offset=(0, 2, 3, 0))
    def test_placement_does_not_change_the_skeleton(self, mask, offset):
        """Thinning a mask placed inside a larger clear image gives the
        mask's own skeleton at that place, whether or not the mask touches
        the image border."""
        top, bottom, left, right = offset
        placed = np.pad(mask, ((top, bottom), (left, right)))
        expected = np.pad(skeletonize(mask).flags, ((top, bottom), (left, right)))
        np.testing.assert_array_equal(skeletonize(placed).flags, expected)


class TestExtractPixels:
    def make_line_skeleton(self, length: int = 100, row: int = 10, width: int = 120):
        flags = np.zeros((21, width), dtype=bool)
        flags[row, 5 : 5 + length] = True
        return Skeleton(flags=flags)

    def full_depth(self, shape=(21, 120), value: float = 500.0) -> DepthImage:
        return DepthImage(depth_mm=np.full(shape, value), valid=np.ones(shape, dtype=bool))

    def test_min_spacing_subsamples_line(self):
        skel = self.make_line_skeleton(length=100)
        pts = extract_pixels(space_pixels(skel, min_spacing_px=10.0), self.full_depth())
        assert 10 <= len(pts) <= 11
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert (a.u - b.u) ** 2 + (a.v - b.v) ** 2 >= 100.0 - 1e-9

    def test_zero_spacing_keeps_every_pixel(self):
        skel = self.make_line_skeleton(length=40)
        pts = extract_pixels(space_pixels(skel, min_spacing_px=0.0), self.full_depth())
        assert len(pts) == 40

    def test_depth_is_median_of_valid_neighbourhood(self):
        flags = np.zeros((5, 5), dtype=bool)
        flags[2, 2] = True
        depth = np.arange(25, dtype=float).reshape(5, 5)
        valid = np.ones((5, 5), dtype=bool)
        valid[1, 1] = False
        img = DepthImage(depth_mm=depth, valid=valid)
        (pt,) = extract_pixels(space_pixels(Skeleton(flags=flags), min_spacing_px=0.0), img)
        window = depth[1:4, 1:4][valid[1:4, 1:4]]
        assert pt.depth == float(np.median(window))
        assert (pt.u, pt.v) == (2.0, 2.0)

    def test_pixel_without_depth_dropped_with_warning(self, caplog):
        flags = np.zeros((9, 9), dtype=bool)
        flags[1, 1] = True
        flags[7, 7] = True
        depth = np.full((9, 9), 500.0)
        valid = np.zeros((9, 9), dtype=bool)
        valid[6:9, 6:9] = True
        img = DepthImage(depth_mm=depth, valid=valid)
        with caplog.at_level("WARNING", logger="crackfill.perception"):
            pts = extract_pixels(space_pixels(Skeleton(flags=flags), min_spacing_px=0.0), img)
        assert len(pts) == 1
        assert (pts[0].u, pts[0].v) == (7.0, 7.0)
        assert "no valid depth" in caplog.text

    def test_empty_skeleton_returns_empty_list(self, caplog):
        skel = Skeleton(flags=np.zeros((5, 5), dtype=bool))
        with caplog.at_level("WARNING", logger="crackfill.perception"):
            assert extract_pixels(space_pixels(skel, 0.0), self.full_depth((5, 5))) == []
        assert "empty skeleton" in caplog.text


def reference_extract_pixels(pixels, depth):
    """extract_pixels as it read a whole noisy frame: np.median per window."""
    out = []
    h, w = depth.depth_mm.shape
    for r, c in pixels:
        window = depth.depth_mm[max(r - 1, 0) : min(r + 2, h), max(c - 1, 0) : min(c + 2, w)]
        ok = depth.valid[max(r - 1, 0) : min(r + 2, h), max(c - 1, 0) : min(c + 2, w)]
        if ok.any():
            out.append(PixelCoord(u=float(c), v=float(r), depth=float(np.median(window[ok]))))
    return out


class RecordingGenerator:
    """A noise generator that records the shape of each standard_normal draw."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, shape):
        self.draws.append(shape)
        return self.rng.standard_normal(shape)


@pytest.fixture
def draws(monkeypatch):
    """The shapes every SensorNoise generator is asked to draw, in order."""
    shapes = []
    generator = SensorNoise.generator
    monkeypatch.setattr(SensorNoise, "generator", lambda self, stream: RecordingGenerator(generator(self, stream), shapes))
    return shapes


@st.composite
def images_and_pixels(draw):
    """A small clean depth image with invalid pixels, and skeleton pixels
    that include its first and last rows and columns."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((h, w)) >= draw(st.sampled_from([0.0, 0.3, 0.9]))
    depth = DepthImage(np.where(valid, rng.uniform(400.0, 600.0, (h, w)), 0.0), valid)
    corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
    pixels = draw(st.lists(st.sampled_from(corners) | st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)), max_size=8))
    return depth, pixels


class TestWindowedNoise:
    """Noise is formed only at the 3x3 windows extract_pixels reads, and
    equals the whole noisy frame of add_depth_noise there, bit for bit."""

    @given(case=images_and_pixels(), sigma=st.sampled_from([0.0, 0.02, 0.5]), seed=st.integers(0, 2**31), tile=st.sampled_from([1, 64, specimen.TILE_CELLS]))
    @settings(max_examples=300, deadline=None)
    def test_windows_read_the_noisy_frame(self, case, sigma, seed, tile):
        clean, pixels = case
        noise = SensorNoise(depth_sigma_fraction=sigma, seed=seed)
        frame = add_depth_noise(clean, noise)
        h, w = clean.depth_mm.shape
        rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        with mock.patch.object(specimen, "TILE_CELLS", tile):
            got = extract_pixels(pixels, clean, noise)
            cells = depth_noise_at(clean, noise, rows, cols)
        assert repr(got) == repr(reference_extract_pixels(pixels, frame))
        assert cells.tobytes() == frame.depth_mm.tobytes()

    @pytest.mark.parametrize("tile", [1, 64, specimen.TILE_CELLS])
    def test_default_view(self, tile, draws, monkeypatch):
        """The default scan's windows, drawn up to the last row they touch."""
        monkeypatch.setattr(specimen, "TILE_CELLS", tile)
        view = default_view()
        noise = ScenarioConfig.default().build_noise()
        frame = add_depth_noise(view.depth, noise)
        del draws[:]
        assert repr(extract_pixels(view.pixels, view.depth, noise)) == repr(reference_extract_pixels(view.pixels, frame))
        rows_read = max(r for r, _ in view.pixels) + 2
        assert sum(shape[0] for shape in draws) == rows_read < view.depth.depth_mm.shape[0]
        assert {shape[1] for shape in draws} == {640} and len(draws) == -(-rows_read // max(1, tile // 640))

    def test_pixel_without_valid_neighbour_is_dropped(self, caplog):
        depth = np.full((9, 9), 500.0)
        valid = np.zeros((9, 9), dtype=bool)
        valid[6:9, 6:9] = True
        clean = DepthImage(np.where(valid, depth, 0.0), valid)
        noise = SensorNoise(seed=3)
        with caplog.at_level("WARNING", logger="crackfill.perception"):
            got = extract_pixels([(1, 1), (8, 8), (0, 8)], clean, noise)
        assert repr(got) == repr(reference_extract_pixels([(8, 8)], add_depth_noise(clean, noise)))
        assert caplog.text.count("no valid depth") == 2

    def test_no_depth_noise_draws_nothing(self, draws):
        clean = DepthImage(np.arange(20.0).reshape(4, 5) + 400.0, np.ones((4, 5), dtype=bool))
        got = extract_pixels([(0, 0), (3, 4)], clean, SensorNoise(depth_sigma_fraction=0.0))
        assert [px.depth for px in got] == [403.0, 416.0] and draws == []

    def test_no_pixels_draw_nothing(self, draws):
        clean = DepthImage(np.full((4, 5), 500.0), np.ones((4, 5), dtype=bool))
        assert extract_pixels([], clean, SensorNoise(seed=1)) == []
        empty = np.zeros((0, 9), dtype=int)
        assert depth_noise_at(clean, SensorNoise(seed=1), empty, empty).shape == (0, 9)
        assert draws == []

    def test_pristine_plate_finds_no_crack(self, draws):
        scene = ScenarioConfig.from_dict({"crack": None}).build_scene()
        view = image_specimen(scene, scene.build_specimen())
        with pytest.raises(EmptyPath):
            perceive_view(scene, view, SensorNoise(seed=1))
        assert draws == []


class TestPixelsToRobot:
    def test_matches_manual_chain(self, intrinsics):
        pose = camera_pose(height_mm=500.0, x=3.0, y=-7.0)
        k_inv = np.linalg.inv(intrinsics.matrix())
        pixels = [PixelCoord(100.0, 200.0, 495.0), PixelCoord(320.0, 240.0, 500.0), PixelCoord(5.5, 470.0, 505.0)]
        wps = pixels_to_robot(pixels, intrinsics, pose)
        assert len(wps) == 3
        for px, wp in zip(pixels, wps):
            cam = px.depth * (k_inv @ np.array([px.u, px.v, 1.0]))
            robot = pose.rotation @ cam + pose.translation
            np.testing.assert_allclose(wp.camera_pt.as_array(), cam, atol=1e-9)
            np.testing.assert_allclose(wp.robot_pt.as_array(), robot, atol=1e-9)
            assert wp.robot_pt.frame == Frame.ROBOT
            assert wp.refined_robot_pt is None
            assert wp.position() == wp.robot_pt


class TestOrderPath:
    def make_waypoints(self, coords):
        k = CameraIntrinsics(fx=600.0, fy=600.0, px=320.0, py=240.0, image_width=640, image_height=480)
        pose = camera_pose()
        pixels = [PixelCoord(0.0, 0.0, 500.0) for _ in coords]
        wps = pixels_to_robot(pixels, k, pose)
        from crackfill import Point3

        return [replace(wp, robot_pt=Point3(x, y, 0.0, Frame.ROBOT)) for wp, (x, y) in zip(wps, coords)]

    def test_orders_by_dominant_axis(self):
        rng = np.random.default_rng(5)
        ys = np.linspace(0.0, 130.0, 20)
        coords = [(float(rng.uniform(-1, 1)), float(y)) for y in ys]
        shuffled = list(coords)
        rng.shuffle(shuffled)
        ordered = order_path(self.make_waypoints(shuffled))
        got = [wp.position().y for wp in ordered]
        assert got == sorted(got)
        assert sorted((wp.position().x, wp.position().y) for wp in ordered) == sorted(coords)

    def test_x_dominant_path_sorts_by_x(self):
        coords = [(30.0, 1.0), (-10.0, 0.5), (5.0, -0.5), (18.0, 0.0)]
        ordered = order_path(self.make_waypoints(coords))
        xs = [wp.position().x for wp in ordered]
        assert xs == sorted(xs)

    def test_input_not_modified(self):
        wps = self.make_waypoints([(0.0, 30.0), (0.0, 10.0), (0.0, 20.0)])
        before = [wp.position().y for wp in wps]
        order_path(wps)
        assert [wp.position().y for wp in wps] == before

    def test_empty_raises(self):
        with pytest.raises(EmptyPath):
            order_path([])


class TestMaskSources:
    @staticmethod
    def mask_from(path) -> MaskImage | None:
        return ScenarioConfig.from_dict({"fill": {"mask_path": str(path)}}).build_mask()

    def test_file_source_round_trip(self, tmp_path):
        flags = np.zeros((12, 16), dtype=bool)
        flags[4:7, 2:14] = True
        path = tmp_path / "mask.pgm"
        cfio.write_mask_pgm(path, flags)
        np.testing.assert_array_equal(self.mask_from(path).flags, flags)
        assert ScenarioConfig.default().build_mask() is None

    def test_missing_file_raises_provider_unavailable(self, tmp_path):
        with pytest.raises(ProviderUnavailable):
            self.mask_from(tmp_path / "absent.pgm")

    def test_binarize_threshold(self):
        img = np.array([[0, 127, 128, 255]])
        np.testing.assert_array_equal(binarize(img, 128), [[False, False, True, True]])
        mask = MaskImage(flags=np.array([[True, False]]))
        np.testing.assert_array_equal(binarize(mask, 0.5), [[True, False]])
