"""Scenario configuration: one schema table, validation, and pipeline builders.

A scenario config is a plain JSON object of the blocks in ``SCHEMA``.
Every key has a default, unknown keys are rejected, and every value is
checked before anything runs. The README's configuration tables
document each key. The builder methods turn the checked config into
every input the pipeline consumes (scene, noise, deposition, fill mode,
mask, calibration model), so a run is a pure function of (config, seed).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import io
from .errors import ConfigError, ProviderUnavailable
from .geometry import ROTATION_TOL, CameraIntrinsics, Frame, RigidTransform
from .perception import DEFAULT_MIN_SPACING_PX, binarize
from .profile import CalibrationModel, calibrate
from .repair import DEFAULT_AREA_FLOOR_MM2, DEFAULT_SCAN_SPAN_MM, FillMode, RepairScene, edge_threshold_for
from .sensors import DEFAULT_DEPTH_SIGMA_FRACTION, DEFAULT_LASER_SIGMA_MM, DEFAULT_MASK_THRESHOLD_MM, NOISE_STREAMS, SCANNER_POINTS, SCANNER_STANDOFF_MM, LaserProfile, MaskImage, SensorNoise, scan_profile
from .specimen import DEFAULT_NOZZLE_DIAMETER_MM, CrackSpec, DepositionParams, Heightfield, deposit


def _is_number(v) -> bool:
    """A finite int or float; an int too large for a float is not finite."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _number(v, path: str) -> None:
    if not _is_number(v):
        raise ConfigError(f"{path} must be a finite number, got {v!r}")


def _positive(v, path: str) -> None:
    _number(v, path)
    if v <= 0:
        raise ConfigError(f"{path} must be positive, got {v}")


def _non_negative(v, path: str) -> None:
    _number(v, path)
    if v < 0:
        raise ConfigError(f"{path} must be non-negative, got {v}")


def _integer(least: int) -> Callable:
    word = "positive" if least > 0 else "non-negative"

    def check(v, path: str) -> None:
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            raise ConfigError(f"{path} must be a {word} integer, got {v!r}")

    return check


def _vector(length: int) -> Callable:
    def check(v, path: str) -> None:
        if not isinstance(v, (list, tuple)) or len(v) != length or not all(map(_is_number, v)):
            raise ConfigError(f"{path} must be a list of {length} finite numbers, got {v!r}")

    return check


def _rotation(v, path: str) -> None:
    _vector(9)(v, path)
    try:
        RigidTransform(np.array(v, dtype=float).reshape(3, 3), np.zeros(3))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _rotation_about_z(v, path: str) -> None:
    """A rotation that keeps the laser line level and the scanner looking straight down."""
    _rotation(v, path)
    if not np.allclose(v[6:], [0.0, 0.0, 1.0], atol=ROTATION_TOL, rtol=0.0):
        raise ConfigError(f"{path} must be a rotation about z, got {v!r}")


def _choice(*options: str) -> Callable:
    def check(v, path: str) -> None:
        if v not in options:
            raise ConfigError(f"{path} must be {' or '.join(map(repr, options))}, got {v!r}")

    return check


def _boolean(v, path: str) -> None:
    if not isinstance(v, bool):
        raise ConfigError(f"{path} must be a boolean, got {v!r}")


def _non_empty_string(v, path: str) -> None:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{path} must be a non-empty string, got {v!r}")


def _string_or_null(v, path: str) -> None:
    if v is not None and not isinstance(v, str):
        raise ConfigError(f"{path} must be a string or null, got {v!r}")


def _speeds(least: int, distinct: bool) -> Callable:
    def check(v, path: str) -> None:
        if not isinstance(v, list) or len(v) < least:
            raise ConfigError(f"{path} must be a list of at least {least} speeds, got {v!r}")
        for item in v:
            _positive(item, path)
        if distinct and len(set(map(float, v))) != len(v):
            raise ConfigError(f"{path} must not contain duplicates")

    return check


def _flow_map(v, path: str) -> None:
    """Pump delivery per calibration speed: {"<speed>": flow, ...} or null."""
    if v is None:
        return
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be an object or null, got {v!r}")
    keys: dict[float, str] = {}
    for key, flow in v.items():
        try:
            speed = float(key)
        except (TypeError, ValueError):
            speed = math.nan
        if not math.isfinite(speed):
            raise ConfigError(f"{path} keys must be finite numbers, got {key!r}")
        if speed in keys:
            raise ConfigError(f"{path} keys {keys[speed]!r} and {key!r} name the same speed {speed:g}")
        keys[speed] = key
        _positive(flow, f"{path}[{key!r}]")


def _points(v) -> bool:
    return isinstance(v, list) and all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in v)


def _polyline(v, path: str) -> None:
    if not _points(v) or len(v) < 2:
        raise ConfigError(f"{path} must be a list of at least two [x, y] points, got {v!r}")


def _profile(v, path: str) -> None:
    """Width/depth profile: a positive number or [[s, value], ...] table."""
    if _is_number(v):
        _positive(v, path)
        return
    if not _points(v) or not v:
        raise ConfigError(f"{path} must be a positive number or a list of [arclength_mm, value_mm] pairs, got {v!r}")
    if any(b[0] <= a[0] for a, b in zip(v, v[1:])):
        raise ConfigError(f"{path} breakpoints must have strictly increasing arclength")
    if any(p[1] <= 0 for p in v):
        raise ConfigError(f"{path} values must be positive")


@dataclass(frozen=True)
class Field:
    """One leaf key of the schema: its default and the check its value must pass."""

    default: Any
    check: Callable[[Any, str], None]


def _crack(width, depth) -> dict:
    return {
        "orientation": Field("horizontal", _choice("horizontal", "vertical")),
        "path_mm": Field([[0.0, 10.0], [0.0, 240.0]], _polyline),
        "width_mm": Field(width, _profile),
        "depth_mm": Field(depth, _profile),
    }


_SPEEDS_MM_S = [6.0, 8.0, 10.0, 15.0, 20.0]

# Size caps, checked before anything is allocated: a camera image holds at
# most MAX_IMAGE_PIXELS pixels, and a heightfield (the specimen grid or a
# calibration strip plate) and a calibration strip's batch of laser
# samples (stations x SCANNER_POINTS) at most MAX_GRID_CELLS values each.
MAX_IMAGE_PIXELS = 2048 * 2048
MAX_GRID_CELLS = 2**24
# A pixel ray may run at most this many mm sideways per mm of depth, far
# past any real lens. Corner rays much steeper (a tiny fx or fy) hit the
# plate at positions whose cell indices overflow.
MAX_RAY_SLOPE = 1e6
# A nozzle at most a metre wide, far past any real rig; the cap of a much
# wider one squares its chord past the largest float.
MAX_NOZZLE_MM = 1000.0

# The scenario schema. A dict is a block of keys; a Field is a leaf.
SCHEMA: dict = {
    "seed": Field(0, _integer(0)),
    "output_dir": Field("out", _non_empty_string),
    "camera": {
        "fx": Field(600.0, _positive),
        "fy": Field(600.0, _positive),
        "px": Field(320.0, _number),
        "py": Field(240.0, _number),
        "width": Field(640, _integer(1)),
        "height": Field(480, _integer(1)),
        "position_mm": Field([0.0, 125.0, 500.0], _vector(3)),
        "rotation": Field([1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0], _rotation),
    },
    "laser": {
        "span_mm": Field(DEFAULT_SCAN_SPAN_MM, _positive),
        "standoff_mm": Field(SCANNER_STANDOFF_MM, _positive),
        "mount_rotation": Field([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], _rotation_about_z),
        "mount_translation_mm": Field([0.0, 0.0, 0.0], _vector(3)),
    },
    "noise": {
        "depth_sigma_fraction": Field(DEFAULT_DEPTH_SIGMA_FRACTION, _non_negative),
        "laser_sigma_mm": Field(DEFAULT_LASER_SIGMA_MM, _non_negative),
        "camera_bias_mm": Field([0.0, 0.0, 0.0], _vector(3)),
    },
    "grid": {
        "origin_mm": Field([-45.0, 0.0], _vector(2)),
        "cell_size_mm": Field(0.1, _positive),
        "nx": Field(900, _integer(1)),
        "ny": Field(2600, _integer(1)),
        "nominal_surface_mm": Field(0.0, _number),
    },
    "crack": _crack([[0.0, 10.0], [230.0, 16.0]], [[0.0, 4.0], [230.0, 9.5]]),
    "deposition": {
        "flow_rate_mm3_s": Field(946.0635673187572, _positive),
        "nozzle_diameter_mm": Field(DEFAULT_NOZZLE_DIAMETER_MM, _positive),
        "purge_time_s": Field(1.5, _non_negative),
    },
    "calibration": {
        "source": Field("synthetic", _choice("synthetic", "file")),
        "path": Field(None, _string_or_null),
        "speeds_mm_s": Field(_SPEEDS_MM_S, _speeds(2, distinct=True)),
        "flow_per_speed_mm3_s": Field(
            {"6": 994.584, "8": 895.816, "10": 914.48, "15": 953.415, "20": 834.26}, _flow_map
        ),
        "strip_length_mm": Field(150.0, _positive),
        "scan_length_mm": Field(100.0, _positive),
        "scan_step_mm": Field(10.0, _positive),
        "interpolate": Field(False, _boolean),
    },
    "fill": {
        "mode": Field("adaptive", _choice("adaptive", "fixed")),
        "fixed_speed_mm_s": Field(10.0, _positive),
        "min_spacing_px": Field(DEFAULT_MIN_SPACING_PX, _non_negative),
        "mask_threshold_mm": Field(DEFAULT_MASK_THRESHOLD_MM, _positive),
        "area_floor_mm2": Field(DEFAULT_AREA_FLOOR_MM2, _non_negative),
        "mask_path": Field(None, _string_or_null),
    },
    "experiment": {
        "fixed_speeds_mm_s": Field(_SPEEDS_MM_S, _speeds(1, distinct=False)),
    },
    "localization": {
        "n_scans": Field(10, _integer(1)),
        "camera_bias_mm": Field([10.0, 0.0, 0.0], _vector(3)),
        "span_mm": Field(60.0, _positive),
        "crack": _crack(8.0, 5.0),
    },
}

# Blocks the user may set to null (an undamaged specimen).
_NULLABLE = frozenset({"crack", "localization.crack"})


def _resolve(schema: dict, value, path: str) -> dict:
    """Overlay a user block on the schema's defaults and check every key."""
    where = path or "config"
    if not isinstance(value, dict):
        kind = "an object or null" if path in _NULLABLE else "an object"
        raise ConfigError(f"{where} must be {kind}, got {type(value).__name__}")
    unknown = set(value) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, node in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(node, Field):
            out[key] = value.get(key, node.default)
            node.check(out[key], sub)
        elif key in value and value[key] is None and sub in _NULLABLE:
            out[key] = None
        else:
            out[key] = _resolve(node, value.get(key, {}), sub)
    return out


def _strip_stations(cal: dict) -> int:
    """Laser stations along each calibration strip's scanned section.

    A ratio too large to round counts as MAX_GRID_CELLS, which is over
    the strip batch cap all the same.
    """
    return int(round(min(cal["scan_length_mm"] / cal["scan_step_mm"], MAX_GRID_CELLS))) + 1


def _crack_spec(block: dict | None) -> CrackSpec | None:
    if block is None:
        return None

    def profile(v):
        return [[float(s), float(h)] for s, h in v] if isinstance(v, list) else float(v)

    return CrackSpec(
        path=[(float(x), float(y)) for x, y in block["path_mm"]],
        width=profile(block["width_mm"]),
        depth=profile(block["depth_mm"]),
    )


@dataclass
class ScenarioConfig:
    """Checked scenario configuration with builder methods."""

    raw: dict

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        raw = copy.deepcopy(_resolve(SCHEMA, data, ""))
        cam = raw["camera"]
        for key, size in (("px", "width"), ("py", "height")):
            if not 0 <= cam[key] < cam[size]:
                raise ConfigError(f"camera.{key} must lie in [0, camera.{size}) = [0, {cam[size]}), got {cam[key]}")
        if cam["width"] * cam["height"] > MAX_IMAGE_PIXELS:
            raise ConfigError(
                f"camera.width x camera.height must be at most {MAX_IMAGE_PIXELS} pixels, got {cam['width']} x {cam['height']}"
            )
        for key, centre, size in (("fx", "px", "width"), ("fy", "py", "height")):
            slope = max(cam[centre], cam[size] - 1 - cam[centre]) / cam[key]
            if not slope <= MAX_RAY_SLOPE:
                raise ConfigError(
                    f"camera.{key} {cam[key]} gives a corner pixel ray a slope of {slope:g}, more than {MAX_RAY_SLOPE:g}"
                )
        nozzle = raw["deposition"]["nozzle_diameter_mm"]
        if nozzle > MAX_NOZZLE_MM:
            raise ConfigError(f"deposition.nozzle_diameter_mm must be at most {MAX_NOZZLE_MM:g} mm, got {nozzle}")
        grid = raw["grid"]
        if grid["nx"] * grid["ny"] > MAX_GRID_CELLS:
            raise ConfigError(f"grid.nx x grid.ny must be at most {MAX_GRID_CELLS} cells, got {grid['nx']} x {grid['ny']}")
        cal = raw["calibration"]
        if cal["source"] == "file" and cal["path"] is None:
            raise ConfigError("calibration.source 'file' requires calibration.path")
        if cal["scan_length_mm"] > cal["strip_length_mm"]:
            raise ConfigError("calibration.scan_length_mm cannot exceed strip_length_mm")
        if _strip_stations(cal) * SCANNER_POINTS > MAX_GRID_CELLS:
            raise ConfigError(
                f"calibration.scan_step_mm {cal['scan_step_mm']} cuts calibration.scan_length_mm "
                f"{cal['scan_length_mm']} into more than {MAX_GRID_CELLS // SCANNER_POINTS} laser stations "
                f"of {SCANNER_POINTS} samples ({MAX_GRID_CELLS} in all)"
            )
        return ScenarioConfig(raw=raw)

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
        return ScenarioConfig.from_dict(data)

    @staticmethod
    def default() -> "ScenarioConfig":
        return ScenarioConfig.from_dict({})

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        data = copy.deepcopy(self.raw)
        data["seed"] = int(seed)
        return ScenarioConfig.from_dict(data)

    def build_intrinsics(self) -> CameraIntrinsics:
        cam = self.raw["camera"]
        return CameraIntrinsics(
            fx=cam["fx"],
            fy=cam["fy"],
            px=cam["px"],
            py=cam["py"],
            image_width=cam["width"],
            image_height=cam["height"],
        )

    def build_camera_pose(self) -> RigidTransform:
        cam = self.raw["camera"]
        rotation = np.array(cam["rotation"], dtype=float).reshape(3, 3)
        return RigidTransform(rotation, np.array(cam["position_mm"], dtype=float), Frame.CAMERA, Frame.ROBOT)

    def build_laser_mount(self) -> RigidTransform:
        las = self.raw["laser"]
        rotation = np.array(las["mount_rotation"], dtype=float).reshape(3, 3)
        return RigidTransform(rotation, np.array(las["mount_translation_mm"], dtype=float), Frame.LASER, Frame.ROBOT)

    def _bias_transform(self, bias_mm: list[float]) -> RigidTransform | None:
        if not any(bias_mm):
            return None
        return RigidTransform(np.eye(3), np.array(bias_mm, dtype=float), Frame.ROBOT, Frame.ROBOT)

    def build_noise(self, localization: bool = False) -> SensorNoise:
        noi = self.raw["noise"]
        bias = self.raw["localization"]["camera_bias_mm"] if localization else noi["camera_bias_mm"]
        return SensorNoise(
            depth_sigma_fraction=noi["depth_sigma_fraction"],
            laser_sigma_mm=noi["laser_sigma_mm"],
            extrinsic_bias=self._bias_transform(bias),
            seed=self.seed,
        )

    def build_deposition(self) -> DepositionParams:
        dep = self.raw["deposition"]
        return DepositionParams(
            flow_rate_mm3_s=dep["flow_rate_mm3_s"],
            nozzle_diameter_mm=dep["nozzle_diameter_mm"],
            purge_time_s=dep["purge_time_s"],
        )

    def calibration_flow(self, speed: float) -> float:
        """Pump delivery at a calibration speed, honoring the per-speed map."""
        fps = self.raw["calibration"]["flow_per_speed_mm3_s"]
        if fps is not None:
            for key, value in fps.items():
                if abs(float(key) - speed) < 1e-9:
                    return float(value)
        return float(self.raw["deposition"]["flow_rate_mm3_s"])

    def build_scene(self, localization: bool = False) -> RepairScene:
        grid = self.raw["grid"]
        fill = self.raw["fill"]
        crack = _crack_spec(self.raw["localization"]["crack"] if localization else self.raw["crack"])
        span = self.raw["localization"]["span_mm"] if localization else self.raw["laser"]["span_mm"]
        return RepairScene(
            crack=crack,
            grid_origin=(grid["origin_mm"][0], grid["origin_mm"][1]),
            cell_size_mm=grid["cell_size_mm"],
            nx=grid["nx"],
            ny=grid["ny"],
            intrinsics=self.build_intrinsics(),
            camera_pose=self.build_camera_pose(),
            laser_mount=self.build_laser_mount(),
            nominal_surface_mm=grid["nominal_surface_mm"],
            scan_span_mm=span,
            scan_standoff_mm=self.raw["laser"]["standoff_mm"],
            min_spacing_px=fill["min_spacing_px"],
            mask_threshold_mm=fill["mask_threshold_mm"],
            area_floor_mm2=fill["area_floor_mm2"],
        )

    def build_mode(self) -> FillMode:
        fill = self.raw["fill"]
        if fill["mode"] == "adaptive":
            return FillMode.adaptive(self.raw["calibration"]["interpolate"])
        return FillMode.fixed(fill["fixed_speed_mm_s"])

    def build_mask(self) -> MaskImage | None:
        """The segmentation PGM at fill.mask_path, or None for the camera's truth mask.

        Grey levels at or above mid-scale (128) are crack pixels.
        """
        path = self.raw["fill"]["mask_path"]
        if path is None:
            return None
        if not Path(path).is_file():
            raise ProviderUnavailable(f"mask file not found: {path}")
        try:
            img, _ = io.read_pgm(path)
        except ValueError as exc:
            raise ProviderUnavailable(f"unreadable mask file: {exc}") from exc
        return MaskImage(flags=binarize(img, 128))

    def strip_scans(self) -> list[tuple[float, LaserProfile]]:
        """Print one strip per calibration speed and scan its inner section.

        The strip runs along robot y and is scanned like a crack along y,
        along the laser mount's x axis, so its sections are cut at the
        same angle as such a crack's. Each strip's stations are scanned
        as one batch, a row per station; from_dict caps that batch at
        MAX_GRID_CELLS samples. A plate over MAX_GRID_CELLS cells is
        refused before it is built. Every strip is printed on one plate,
        levelled flat before each.
        """
        cal = self.raw["calibration"]
        speeds = sorted(float(v) for v in cal["speeds_mm_s"])
        span = self.raw["laser"]["span_mm"]
        standoff = self.raw["laser"]["standoff_mm"]
        cell = self.raw["grid"]["cell_size_mm"]
        strip_len = cal["strip_length_mm"]
        scan_len = cal["scan_length_mm"]
        step = cal["scan_step_mm"]
        noise = self.build_noise()
        mount = self.build_laser_mount()
        margin = 5.0
        # cell centres from the origin out to at least the far margin; a side
        # longer than MAX_GRID_CELLS cells is refused below whatever its length
        sides = (span + 2 * margin, strip_len + 2 * margin)
        nx, ny = (math.ceil(min(side / cell, MAX_GRID_CELLS)) + 1 for side in sides)
        if nx * ny > MAX_GRID_CELLS:
            raise ConfigError(
                f"grid.cell_size_mm {cell} cuts the calibration strip plate (laser.span_mm + {2 * margin:g} by "
                f"calibration.strip_length_mm + {2 * margin:g}) into more than {MAX_GRID_CELLS} cells"
            )
        origin = (-(span / 2 + margin), -margin)
        y0 = (strip_len - scan_len) / 2
        n_stations = _strip_stations(cal)
        poses = [mount.at([0.0, y0 + k * step, standoff]) for k in range(n_stations)]
        scans: list[tuple[float, LaserProfile]] = []
        hf = Heightfield.flat(origin, cell, nx, ny).copy()  # one writable plate, flat again before each strip
        params = self.build_deposition()
        for si, speed in enumerate(speeds):
            hf.heights.fill(hf.nominal_surface)
            deposit(hf, (0.0, 0.0), (0.0, strip_len), speed, replace(params, flow_rate_mm3_s=self.calibration_flow(speed)))
            noises = [noise.derive(NOISE_STREAMS["calibrate"], si, k) for k in range(n_stations)]
            scans.append((speed, scan_profile(hf, poses, span, noises, standoff_mm=standoff)))
        return scans

    def build_calibration(self) -> CalibrationModel:
        """Load the calibration file, or fit the model to the synthetic strip scans.

        A model that calibration.interpolate cannot interpolate is refused
        here, before any specimen is surveyed.
        """
        cal = self.raw["calibration"]
        if cal["source"] == "file":
            path = Path(cal["path"])
            if not path.is_file():
                raise ConfigError(f"calibration file not found: {path}")
            try:
                model = CalibrationModel.from_dict(io.read_json(path))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"calibration file {path}: {type(exc).__name__}: {exc}") from None
        else:
            model = calibrate(self.strip_scans(), edge_threshold_for(self.build_noise()))
        if cal["interpolate"] and len(model.samples) < 2:
            raise ConfigError(f"calibration.interpolate needs >= 2 calibration samples, got {len(model.samples)}")
        return model
