"""Scenario schema tests: every rejected value exits 2 with its key's dotted
path, defaults merge block by block, and the README's configuration tables
name exactly the keys of the schema."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from crackfill import ConfigError, DepositionParams, RepairScene, ScenarioConfig, SensorNoise, cli, rotation_about_y
from crackfill.config import MAX_GRID_CELLS, MAX_NOZZLE_MM, MAX_RAY_SLOPE, SCHEMA, Field, _strip_stations
from crackfill.sensors import SCANNER_POINTS

README = Path(__file__).resolve().parents[1] / "README.md"


def nested(path: str, value) -> dict:
    """{"a": {"b": value}} for the dotted path "a.b"."""
    *blocks, key = path.split(".")
    data = {key: value}
    for block in reversed(blocks):
        data = {block: data}
    return data


def run_scan(tmp_path, data) -> int:
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data))
    return cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])


REJECTED = [
    # (check kind, key path, rejected value)
    ("number", "camera.px", "320"),
    ("number", "grid.nominal_surface_mm", True),
    ("finite number", "noise.laser_sigma_mm", math.nan),
    ("finite number", "grid.cell_size_mm", math.inf),
    ("finite number", "camera.py", -math.inf),
    ("positive", "camera.fx", 0),
    ("positive", "deposition.flow_rate_mm3_s", -1.0),
    ("non-negative", "noise.depth_sigma_fraction", -0.01),
    ("non-negative", "fill.area_floor_mm2", -1),
    ("integer", "grid.nx", 2.5),
    ("integer", "seed", -1),
    ("integer", "localization.n_scans", 0),
    ("vector length", "camera.position_mm", [0.0, 1.0]),
    ("vector length", "localization.camera_bias_mm", [1.0, 0.0, math.nan]),
    ("rotation", "camera.rotation", [2, 0, 0, 0, 1, 0, 0, 0, 1]),
    ("rotation", "laser.mount_rotation", [1, 0, 0, 0, 1, 0, 0, 0, -1]),
    # 0.1 rad about y: the laser line would leave the surface plane
    ("rotation about z", "laser.mount_rotation", rotation_about_y(0.1).reshape(-1).tolist()),
    ("choice", "fill.mode", "slow"),
    ("choice", "calibration.source", "pump"),
    ("choice", "crack.orientation", "diagonal"),
    ("string or null", "fill.mask_path", 5),
    ("string or null", "calibration.path", ["a"]),
    ("non-empty string", "output_dir", ""),
    ("boolean", "calibration.interpolate", 1),
    ("speeds list", "calibration.speeds_mm_s", []),
    ("speeds list", "calibration.speeds_mm_s", [6.0]),
    ("speeds list", "calibration.speeds_mm_s", [6.0, -1.0]),
    ("speeds list", "calibration.speeds_mm_s", [6.0, 6]),
    ("speeds list", "experiment.fixed_speeds_mm_s", ["fast"]),
    ("flow map", "calibration.flow_per_speed_mm3_s", {"nan": 900.0}),
    ("flow map", "calibration.flow_per_speed_mm3_s", {"six": 900.0}),
    ("flow map", "calibration.flow_per_speed_mm3_s", {"6": 0.0}),
    ("flow map", "calibration.flow_per_speed_mm3_s", [900.0]),
    ("profile", "crack.width_mm", -1.0),
    ("profile", "crack.depth_mm", [[0.0, 4.0], [0.0, 9.5]]),
    ("profile", "localization.crack.depth_mm", [[0.0, 4.0], [10.0, 0.0]]),
    ("profile", "localization.crack.width_mm", "wide"),
    ("polyline", "crack.path_mm", [[0.0, 10.0]]),
    ("polyline", "localization.crack.path_mm", [[0.0, 10.0], [0.0, "far"]]),
    ("block", "camera", 5),
    ("block", "fill", [1]),
    ("block", "crack", 3),
    ("block", "localization.crack", "straight"),
    ("unknown key", "camera.fz", 600.0),
    ("unknown key", "localization.crack.colour", "grey"),
    ("principal point", "camera.px", 1000.0),
    ("principal point", "camera.py", -1.0),
    # rejected before any image or grid is allocated
    ("image pixels", "camera.height", 10_000_000),
    ("image pixels", "camera.width", 10_000_000),
    ("grid cells", "grid.nx", 10_000_000),
    ("grid cells", "grid.ny", 10_000_000),
]


@pytest.mark.parametrize(
    "kind, path, value", REJECTED, ids=[f"{kind}:{path}" for kind, path, _ in REJECTED]
)
def test_rejected_value_names_its_key(tmp_path, capsys, kind, path, value):
    assert run_scan(tmp_path, nested(path, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    where = path.rsplit(".", 1)[0] if kind == "unknown key" else path
    assert where in err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"camera": 5}, "camera must be an object, got int"),
        ({"fill": [1]}, "fill must be an object, got list"),
        ({"crack": 3}, "crack must be an object or null, got int"),
        ([1, 2], "config must be an object, got list"),
    ],
)
def test_non_object_block_is_a_config_error(tmp_path, capsys, data, message):
    assert run_scan(tmp_path, data) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "data",
    [
        {"noise": {"laser_sigma_mm": math.nan}},
        {"grid": {"cell_size_mm": math.inf}},
        {"calibration": {"flow_per_speed_mm3_s": {"nan": 900.0, "6": 994.584}}},
        {"calibration": {"flow_per_speed_mm3_s": {"inf": 900.0}}},
        {"calibration": {"flow_per_speed_mm3_s": {"6": math.inf}}},
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, data):
    """JSON parsers accept NaN and Infinity; the schema does not."""
    assert run_scan(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err


# 400 digits, past the largest float: math.isfinite cannot convert it
HUGE_INT = 10**399


@pytest.mark.parametrize(
    "data, message",
    [
        ({"deposition": {"nozzle_diameter_mm": HUGE_INT}}, f"deposition.nozzle_diameter_mm must be a finite number, got {HUGE_INT}\n"),
        ({"crack": {"path_mm": [[HUGE_INT, 10], [0, 240]]}}, f"crack.path_mm must be a list of at least two [x, y] points, got [[{HUGE_INT}, 10], [0, 240]]\n"),
        ({"calibration": {"flow_per_speed_mm3_s": {"6": HUGE_INT}}}, f"calibration.flow_per_speed_mm3_s['6'] must be a finite number, got {HUGE_INT}\n"),
    ],
    ids=["nozzle", "path point", "flow-map value"],
)
def test_an_int_too_large_for_a_float_is_not_finite(tmp_path, capsys, data, message):
    """Such an int overflowed converting to a float and ended in a traceback."""
    assert run_scan(tmp_path, data) == 2
    assert capsys.readouterr().err == f"config error: {message}"


def test_integer_keys_still_accept_an_int_too_large_for_a_float():
    assert ScenarioConfig.from_dict({"seed": HUGE_INT, "localization": {"n_scans": HUGE_INT}}).raw["seed"] == HUGE_INT


@pytest.mark.parametrize(
    "calibration, message",
    [
        ({"source": "file"}, "calibration.source 'file' requires calibration.path"),
        (
            {"strip_length_mm": 50.0, "scan_length_mm": 60.0},
            "calibration.scan_length_mm cannot exceed strip_length_mm",
        ),
    ],
)
def test_cross_field_rules(tmp_path, capsys, calibration, message):
    assert run_scan(tmp_path, {"calibration": calibration}) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_strip_batch_over_the_sample_cap():
    """Each calibration strip is scanned as one batch of stations x
    SCANNER_POINTS samples; a scan step that makes it larger than
    MAX_GRID_CELLS is refused before any strip is printed. 100 mm in steps
    of 100/16383 mm is 16,384 stations, exactly the cap."""
    cal = ScenarioConfig.from_dict({"calibration": {"scan_step_mm": 100.0 / 16383}}).raw["calibration"]
    assert _strip_stations(cal) * SCANNER_POINTS == MAX_GRID_CELLS
    for step in (100.0 / 16384, 1e-3, 5e-324):
        with pytest.raises(ConfigError, match=r"^calibration\.scan_step_mm .* more than 16384 laser stations"):
            ScenarioConfig.from_dict({"calibration": {"scan_step_mm": step}})


@pytest.mark.parametrize(
    "camera, slope",
    [
        ({"fx": 3.3e-4}, None),
        ({"fx": 3.1e-4}, 320 / 3.1e-4),
        ({"fy": 2.5e-4}, None),
        ({"fy": 2e-4}, 240 / 2e-4),
        # the principal point's far side sets the slope: 639 - 100 columns
        ({"fx": 5.5e-4, "px": 100.0}, None),
        ({"fx": 5e-4, "px": 100.0}, 539 / 5e-4),
        ({"fx": 1e-300}, 320 / 1e-300),
        ({"fy": 5e-324}, math.inf),
    ],
)
def test_corner_ray_slope(camera, slope):
    """A focal length so short that a corner pixel's ray leaves the optical
    axis at a slope over MAX_RAY_SLOPE is refused; at 1e-300 the rays hit
    the plate at positions whose cell indices overflow."""
    if slope is None:
        ScenarioConfig.from_dict({"camera": camera})
        return
    key = "fx" if "fx" in camera else "fy"
    message = f"camera.{key} {camera[key]} gives a corner pixel ray a slope of {slope:g}, more than 1e+06"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_dict({"camera": camera})
    assert slope > MAX_RAY_SLOPE


@pytest.mark.parametrize("nozzle", [1000.0000000000001, 1e150, 1e200, 1e308])
def test_a_nozzle_over_a_metre_is_refused(nozzle):
    """A nozzle wider than MAX_NOZZLE_MM is refused before anything is
    built; at 1e150 mm and more its caps overflowed the float range."""
    ScenarioConfig.from_dict({"deposition": {"nozzle_diameter_mm": MAX_NOZZLE_MM}})
    message = f"deposition.nozzle_diameter_mm must be at most 1000 mm, got {nozzle}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_dict({"deposition": {"nozzle_diameter_mm": nozzle}})


@pytest.mark.parametrize("keys", [("6", "6.0"), ("6.0", "6")])
def test_flow_map_names_each_speed_once(tmp_path, capsys, keys):
    """Two keys for one speed are refused in either order, rather than the
    first one silently winning."""
    flows = dict(zip(keys, (994.584, 10.0)))
    assert run_scan(tmp_path, {"calibration": {"flow_per_speed_mm3_s": flows}}) == 2
    assert capsys.readouterr().err == (
        f"config error: calibration.flow_per_speed_mm3_s keys {keys[0]!r} and {keys[1]!r} name the same speed 6\n"
    )


def test_localization_crack_merges_over_its_own_defaults():
    cfg = ScenarioConfig.from_dict({"localization": {"crack": {"width_mm": 3.0}}})
    assert cfg.raw["localization"]["crack"] == {
        "orientation": "horizontal",
        "path_mm": [[0.0, 10.0], [0.0, 240.0]],
        "width_mm": 3.0,
        "depth_mm": 5.0,
    }
    crack = cfg.build_scene(localization=True).crack
    assert (crack.width, crack.depth) == (3.0, 5.0)
    # the main crack keeps its own defaults
    assert cfg.raw["crack"]["depth_mm"] == [[0.0, 4.0], [230.0, 9.5]]


def test_null_crack_is_a_pristine_plate():
    cfg = ScenarioConfig.from_dict({"crack": None, "localization": {"crack": None}})
    assert cfg.raw["crack"] is None and cfg.raw["localization"]["crack"] is None
    assert cfg.build_scene().crack is None and cfg.build_scene(localization=True).crack is None


def test_raw_keeps_user_values_uncoerced_and_unaliased():
    data = {"camera": {"fx": 600, "position_mm": [0, 125, 500]}, "calibration": {"flow_per_speed_mm3_s": None}}
    cfg = ScenarioConfig.from_dict(data)
    assert type(cfg.raw["camera"]["fx"]) is int
    assert cfg.raw["camera"]["position_mm"] == [0, 125, 500]
    assert cfg.raw["calibration"]["flow_per_speed_mm3_s"] is None
    data["camera"]["position_mm"].append(1)
    assert cfg.raw["camera"]["position_mm"] == [0, 125, 500]
    ScenarioConfig.default().raw["camera"]["rotation"][0] = 5.0
    assert ScenarioConfig.default().raw["camera"]["rotation"][0] == 1.0


def schema_keys(schema: dict, prefix: str = "") -> set[str]:
    keys = set()
    for key, node in schema.items():
        path = prefix + key
        if isinstance(node, Field):
            keys.add(path)
        else:
            keys |= schema_keys(node, path + ".")
    return keys


def readme_keys() -> set[str]:
    """Dotted key paths named by the rows of the README's configuration tables."""
    text = README.read_text()
    section = text[text.index("## Configuration") : text.index("## Artifact formats")]
    keys, block = set(), None
    for line in section.splitlines():
        heading = re.match(r"^(Top level|`([\w.]+)`[^|]*):$", line)
        if heading:
            block = heading.group(2)
        elif line.startswith("| `"):
            cell = line.split("|")[1]
            for key in re.findall(r"`([\w.]+)`", cell):
                keys.add(f"{block}.{key}" if block else key)
    return keys


def test_readme_tables_match_the_schema():
    # localization.crack is one README row that stands for its four keys.
    schema = {
        "localization.crack" if key.startswith("localization.crack.") else key for key in schema_keys(SCHEMA)
    }
    assert len(schema_keys(SCHEMA)) == 51
    assert readme_keys() == schema


def test_schema_defaults_are_the_scene_defaults():
    """The scenario schema's defaults for the scene's scan and perception
    settings are RepairScene's own, written once."""
    scene = ScenarioConfig.default().build_scene()
    defaults = {f.name: f.default for f in dataclasses.fields(RepairScene)}
    for name in ("scan_span_mm", "scan_standoff_mm", "min_spacing_px", "mask_threshold_mm", "area_floor_mm2"):
        assert getattr(scene, name) == defaults[name], name


def test_schema_defaults_are_the_noise_and_nozzle_defaults():
    """The default config's sensor noise and nozzle are SensorNoise's and
    DepositionParams' own defaults, written once."""
    cfg = ScenarioConfig.default()
    noise = {f.name: f.default for f in dataclasses.fields(SensorNoise)}
    built = cfg.build_noise()
    for name in ("depth_sigma_fraction", "laser_sigma_mm"):
        assert getattr(built, name) == noise[name], name
    nozzle = {f.name: f.default for f in dataclasses.fields(DepositionParams)}["nozzle_diameter_mm"]
    assert cfg.build_deposition().nozzle_diameter_mm == nozzle
