"""Scenario configuration: JSON schema, validation, and scene builders.

A scenario config is a plain JSON object with the blocks below; every
key has a default, unknown keys are rejected, and all values are
validated before anything runs. The builder methods turn the validated
config into the geometry, noise, and scene objects the pipeline
consumes, so a run is a pure function of (config, seed).

Schema (defaults shown):

    {
      "seed": 0,
      "output_dir": "out",
      "camera": {
        "fx": 600.0, "fy": 600.0, "px": 320.0, "py": 240.0,
        "width": 640, "height": 480,
        "position_mm": [0.0, 125.0, 500.0],
        "rotation": [1, 0, 0, 0, -1, 0, 0, 0, -1]
      },
      "laser": {
        "span_mm": 40.0, "standoff_mm": 310.0,
        "mount_rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "mount_translation_mm": [0.0, 0.0, 0.0]
      },
      "noise": {
        "depth_sigma_fraction": 0.02,
        "laser_sigma_mm": 0.02,
        "camera_bias_mm": [0.0, 0.0, 0.0]
      },
      "grid": {
        "origin_mm": [-45.0, 0.0], "cell_size_mm": 0.1,
        "nx": 900, "ny": 2600, "nominal_surface_mm": 0.0
      },
      "crack": {
        "orientation": "horizontal",
        "path_mm": [[0.0, 10.0], [0.0, 240.0]],
        "width_mm": [[0.0, 10.0], [230.0, 16.0]],
        "depth_mm": [[0.0, 4.0], [230.0, 9.5]]
      },
      "deposition": {
        "flow_rate_mm3_s": 946.0635673187572,
        "nozzle_diameter_mm": 4.0,
        "purge_time_s": 1.5
      },
      "calibration": {
        "source": "synthetic",
        "path": null,
        "speeds_mm_s": [6.0, 8.0, 10.0, 15.0, 20.0],
        "flow_per_speed_mm3_s": {
          "6": 994.584, "8": 895.816, "10": 914.48,
          "15": 953.415, "20": 834.26
        },
        "strip_length_mm": 150.0,
        "scan_length_mm": 100.0,
        "scan_step_mm": 10.0,
        "interpolate": false
      },
      "fill": {
        "mode": "adaptive", "fixed_speed_mm_s": 10.0,
        "min_spacing_px": 8.0, "mask_threshold_mm": 0.2,
        "area_floor_mm2": 1.0, "mask_path": null
      },
      "experiment": {"fixed_speeds_mm_s": [6.0, 8.0, 10.0, 15.0, 20.0]},
      "localization": {
        "n_scans": 10,
        "camera_bias_mm": [10.0, 0.0, 0.0],
        "span_mm": 60.0,
        "crack": {
          "orientation": "horizontal",
          "path_mm": [[0.0, 10.0], [0.0, 240.0]],
          "width_mm": 8.0,
          "depth_mm": 5.0
        }
      }
    }

"crack" may be null for an undamaged specimen. "width_mm" and
"depth_mm" accept a number (constant profile) or a list of
[arclength_mm, value_mm] breakpoints interpolated linearly. The
calibration "flow_per_speed_mm3_s" map emulates a pump whose delivery
drifts with speed; set it to null to pump at the constant
deposition flow_rate_mm3_s instead. With "source": "file", "path"
must point at a calibration JSON written by the calibrate command.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import CameraIntrinsics, Frame, Orientation, RigidTransform
from .repair import RepairScene
from .sensors import SensorNoise
from .specimen import CrackSpec, DepositionParams

DEFAULT_FLOW_RATE_MM3_S = 946.0635673187572

_DEFAULTS: dict = {
    "seed": 0,
    "output_dir": "out",
    "camera": {
        "fx": 600.0,
        "fy": 600.0,
        "px": 320.0,
        "py": 240.0,
        "width": 640,
        "height": 480,
        "position_mm": [0.0, 125.0, 500.0],
        "rotation": [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0],
    },
    "laser": {
        "span_mm": 40.0,
        "standoff_mm": 310.0,
        "mount_rotation": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        "mount_translation_mm": [0.0, 0.0, 0.0],
    },
    "noise": {
        "depth_sigma_fraction": 0.02,
        "laser_sigma_mm": 0.02,
        "camera_bias_mm": [0.0, 0.0, 0.0],
    },
    "grid": {
        "origin_mm": [-45.0, 0.0],
        "cell_size_mm": 0.1,
        "nx": 900,
        "ny": 2600,
        "nominal_surface_mm": 0.0,
    },
    "crack": {
        "orientation": "horizontal",
        "path_mm": [[0.0, 10.0], [0.0, 240.0]],
        "width_mm": [[0.0, 10.0], [230.0, 16.0]],
        "depth_mm": [[0.0, 4.0], [230.0, 9.5]],
    },
    "deposition": {
        "flow_rate_mm3_s": DEFAULT_FLOW_RATE_MM3_S,
        "nozzle_diameter_mm": 4.0,
        "purge_time_s": 1.5,
    },
    "calibration": {
        "source": "synthetic",
        "path": None,
        "speeds_mm_s": [6.0, 8.0, 10.0, 15.0, 20.0],
        "flow_per_speed_mm3_s": {
            "6": 994.584,
            "8": 895.816,
            "10": 914.48,
            "15": 953.415,
            "20": 834.26,
        },
        "strip_length_mm": 150.0,
        "scan_length_mm": 100.0,
        "scan_step_mm": 10.0,
        "interpolate": False,
    },
    "fill": {
        "mode": "adaptive",
        "fixed_speed_mm_s": 10.0,
        "min_spacing_px": 8.0,
        "mask_threshold_mm": 0.2,
        "area_floor_mm2": 1.0,
        "mask_path": None,
    },
    "experiment": {
        "fixed_speeds_mm_s": [6.0, 8.0, 10.0, 15.0, 20.0],
    },
    "localization": {
        "n_scans": 10,
        "camera_bias_mm": [10.0, 0.0, 0.0],
        "span_mm": 60.0,
        "crack": {
            "orientation": "horizontal",
            "path_mm": [[0.0, 10.0], [0.0, 240.0]],
            "width_mm": 8.0,
            "depth_mm": 5.0,
        },
    },
}


def default_config_dict() -> dict:
    """A deep copy of the full default configuration."""
    return copy.deepcopy(_DEFAULTS)


def _check_keys(block: dict, allowed, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {type(block).__name__}")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _number(block: dict, key: str, where: str, positive: bool = False, nonneg: bool = False) -> float:
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    v = float(v)
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {v}")
    if nonneg and v < 0:
        raise ConfigError(f"{where}.{key} must be non-negative, got {v}")
    return v


def _integer(block: dict, key: str, where: str, positive: bool = False) -> int:
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {v}")
    return v


def _vector(block: dict, key: str, where: str, length: int) -> list[float]:
    v = block[key]
    if not isinstance(v, (list, tuple)) or len(v) != length:
        raise ConfigError(f"{where}.{key} must be a list of {length} numbers")
    out = []
    for item in v:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}.{key} must contain only numbers, got {item!r}")
        out.append(float(item))
    return out


def _merge(defaults: dict, override: dict, where: str) -> dict:
    """Overlay a user block onto its defaults, rejecting unknown keys."""
    _check_keys(override, defaults.keys(), where)
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if isinstance(defaults.get(key), dict) and isinstance(value, dict) and key not in ("flow_per_speed_mm3_s",):
            merged[key] = _merge(defaults[key], value, f"{where}.{key}")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _parse_profile(value, where: str):
    """Width/depth profile: a positive number or [[s, value], ...] table."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number or breakpoint table")
    if isinstance(value, (int, float)):
        if value <= 0:
            raise ConfigError(f"{where} must be positive, got {value}")
        return float(value)
    if isinstance(value, list) and value and all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
        for p in value
    ):
        pts = [[float(p[0]), float(p[1])] for p in value]
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ConfigError(f"{where} breakpoints must have strictly increasing arclength")
        if any(p[1] <= 0 for p in pts):
            raise ConfigError(f"{where} values must be positive")
        return pts
    raise ConfigError(f"{where} must be a number or a list of [arclength_mm, value_mm] pairs")


def _parse_crack(block, where: str) -> CrackSpec | None:
    if block is None:
        return None
    _check_keys(block, ("orientation", "path_mm", "width_mm", "depth_mm"), where)
    merged = _merge(_DEFAULTS["crack"], block, where)
    try:
        orientation = Orientation(merged["orientation"])
    except ValueError:
        raise ConfigError(f"{where}.orientation must be 'horizontal' or 'vertical'") from None
    path = merged["path_mm"]
    if not isinstance(path, list) or len(path) < 2 or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in p)
        for p in path
    ):
        raise ConfigError(f"{where}.path_mm must be a list of at least two [x, y] points")
    width = _parse_profile(merged["width_mm"], f"{where}.width_mm")
    depth = _parse_profile(merged["depth_mm"], f"{where}.depth_mm")
    try:
        return CrackSpec(
            path=[(float(p[0]), float(p[1])) for p in path],
            width=width,
            depth=depth,
            orientation=orientation,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_rotation(values: list[float], where: str) -> np.ndarray:
    matrix = np.array(values, dtype=float).reshape(3, 3)
    try:
        RigidTransform(matrix, np.zeros(3))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return matrix


@dataclass
class ScenarioConfig:
    """Validated scenario configuration with builder methods."""

    raw: dict

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        _check_keys(data, _DEFAULTS.keys(), "config")
        merged = copy.deepcopy(_DEFAULTS)
        for key, value in data.items():
            if key in ("crack",) and value is None:
                merged[key] = None
            elif key == "localization":
                _check_keys(value, _DEFAULTS["localization"].keys(), "localization")
                for sub, subval in value.items():
                    if sub == "crack":
                        merged["localization"]["crack"] = subval
                    else:
                        merged["localization"][sub] = copy.deepcopy(subval)
            elif isinstance(_DEFAULTS.get(key), dict) and isinstance(value, dict):
                merged[key] = _merge(_DEFAULTS[key], value, key)
            else:
                merged[key] = copy.deepcopy(value)
        cfg = ScenarioConfig(raw=merged)
        cfg._validate()
        return cfg

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

    def _validate(self) -> None:
        raw = self.raw
        if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int) or raw["seed"] < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {raw['seed']!r}")
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("output_dir must be a non-empty string")

        cam = raw["camera"]
        for key in ("fx", "fy", "px", "py"):
            _number(cam, key, "camera", positive=key in ("fx", "fy"))
        _integer(cam, "width", "camera", positive=True)
        _integer(cam, "height", "camera", positive=True)
        _vector(cam, "position_mm", "camera", 3)
        _parse_rotation(_vector(cam, "rotation", "camera", 9), "camera.rotation")

        las = raw["laser"]
        _number(las, "span_mm", "laser", positive=True)
        _number(las, "standoff_mm", "laser", positive=True)
        _parse_rotation(_vector(las, "mount_rotation", "laser", 9), "laser.mount_rotation")
        _vector(las, "mount_translation_mm", "laser", 3)

        noi = raw["noise"]
        _number(noi, "depth_sigma_fraction", "noise", nonneg=True)
        _number(noi, "laser_sigma_mm", "noise", nonneg=True)
        _vector(noi, "camera_bias_mm", "noise", 3)

        grid = raw["grid"]
        _vector(grid, "origin_mm", "grid", 2)
        _number(grid, "cell_size_mm", "grid", positive=True)
        _integer(grid, "nx", "grid", positive=True)
        _integer(grid, "ny", "grid", positive=True)
        _number(grid, "nominal_surface_mm", "grid")

        self._crack = _parse_crack(raw["crack"], "crack")

        dep = raw["deposition"]
        _number(dep, "flow_rate_mm3_s", "deposition", positive=True)
        _number(dep, "nozzle_diameter_mm", "deposition", positive=True)
        _number(dep, "purge_time_s", "deposition", nonneg=True)

        cal = raw["calibration"]
        if cal["source"] not in ("synthetic", "file"):
            raise ConfigError(f"calibration.source must be 'synthetic' or 'file', got {cal['source']!r}")
        if cal["source"] == "file" and not isinstance(cal["path"], str):
            raise ConfigError("calibration.source 'file' requires calibration.path")
        speeds = cal["speeds_mm_s"]
        if not isinstance(speeds, list) or not speeds:
            raise ConfigError("calibration.speeds_mm_s must be a non-empty list")
        for v in speeds:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
                raise ConfigError(f"calibration speeds must be positive numbers, got {v!r}")
        if len(set(float(v) for v in speeds)) != len(speeds):
            raise ConfigError("calibration.speeds_mm_s must not contain duplicates")
        fps = cal["flow_per_speed_mm3_s"]
        if fps is not None:
            if not isinstance(fps, dict):
                raise ConfigError("calibration.flow_per_speed_mm3_s must be an object or null")
            for key, value in fps.items():
                try:
                    float(key)
                except ValueError:
                    raise ConfigError(f"flow_per_speed_mm3_s keys must be numeric, got {key!r}") from None
                if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                    raise ConfigError(f"flow_per_speed_mm3_s values must be positive, got {value!r}")
        _number(cal, "strip_length_mm", "calibration", positive=True)
        _number(cal, "scan_length_mm", "calibration", positive=True)
        _number(cal, "scan_step_mm", "calibration", positive=True)
        if cal["scan_length_mm"] > cal["strip_length_mm"]:
            raise ConfigError("calibration.scan_length_mm cannot exceed strip_length_mm")
        if not isinstance(cal["interpolate"], bool):
            raise ConfigError("calibration.interpolate must be a boolean")

        fill = raw["fill"]
        if fill["mode"] not in ("adaptive", "fixed"):
            raise ConfigError(f"fill.mode must be 'adaptive' or 'fixed', got {fill['mode']!r}")
        _number(fill, "fixed_speed_mm_s", "fill", positive=True)
        _number(fill, "min_spacing_px", "fill", nonneg=True)
        _number(fill, "mask_threshold_mm", "fill", positive=True)
        _number(fill, "area_floor_mm2", "fill", nonneg=True)
        if fill["mask_path"] is not None and not isinstance(fill["mask_path"], str):
            raise ConfigError("fill.mask_path must be a string or null")

        exp = raw["experiment"]
        fixed = exp["fixed_speeds_mm_s"]
        if not isinstance(fixed, list) or not fixed:
            raise ConfigError("experiment.fixed_speeds_mm_s must be a non-empty list")
        for v in fixed:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0:
                raise ConfigError(f"experiment speeds must be positive numbers, got {v!r}")

        loc = raw["localization"]
        _check_keys(loc, _DEFAULTS["localization"].keys(), "localization")
        n_scans = loc["n_scans"]
        if isinstance(n_scans, bool) or not isinstance(n_scans, int) or n_scans <= 0:
            raise ConfigError(f"localization.n_scans must be a positive integer, got {n_scans!r}")
        _vector(loc, "camera_bias_mm", "localization", 3)
        _number(loc, "span_mm", "localization", positive=True)
        self._loc_crack = _parse_crack(loc["crack"], "localization.crack")

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

    def build_deposition(self, flow_rate: float | None = None) -> DepositionParams:
        dep = self.raw["deposition"]
        return DepositionParams(
            flow_rate_mm3_s=dep["flow_rate_mm3_s"] if flow_rate is None else flow_rate,
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
        crack = self._loc_crack if localization else self._crack
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
