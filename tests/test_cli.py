"""End-to-end tests for the command line interface.

Every test drives ``crackfill.cli.main`` in process against a compact scene
so full pipeline runs stay quick.  Artifact layout, exit codes, stream
prefixes, and byte-level determinism are the contract under test.
"""

import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crackfill import Frame, Heightfield, Point3, ScenarioConfig, cli, experiment_modes, run_experiment
from crackfill import io as cfio
from crackfill import config as config_module
from crackfill import repair as repair_module
from conftest import counted

WAYPOINT_HEADER = (
    "u,v,depth_mm,x_mm,y_mm,z_mm,"
    "refined_x_mm,refined_y_mm,refined_z_mm,area_mm2,speed_mm_s"
)


def compact_config() -> dict:
    """A trimmed scenario: shorter crack, fewer speeds, two localization scans."""
    return {
        "camera": {"position_mm": [0.0, 60.0, 500.0]},
        "grid": {"ny": 1200},
        "crack": {
            "path_mm": [[0.0, 10.0], [0.0, 110.0]],
            "width_mm": [[0.0, 10.0], [100.0, 16.0]],
            "depth_mm": [[0.0, 5.0], [100.0, 9.5]],
        },
        "calibration": {
            "speeds_mm_s": [6.0, 10.0, 20.0],
            "strip_length_mm": 80.0,
            "scan_length_mm": 40.0,
        },
        "experiment": {"fixed_speeds_mm_s": [6.0, 20.0]},
        "localization": {
            "n_scans": 2,
            "crack": {
                "orientation": "horizontal",
                "path_mm": [[0.0, 10.0], [0.0, 110.0]],
                "width_mm": 8.0,
                "depth_mm": 5.0,
            },
        },
    }


def write_config(tmp_path: Path, data: dict | None = None, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data if data is not None else compact_config()))
    return str(path)


def run_cli_process(tmp_path: Path, data: dict, command: str) -> subprocess.CompletedProcess:
    """Run one command on data in a fresh interpreter, which prints any
    warning it meets to stderr."""
    cfg = write_config(tmp_path, data)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["PYTHONWARNINGS"] = "default"
    argv = ["--config", cfg, "--out", str(tmp_path / "o"), command]
    return subprocess.run([sys.executable, "-m", "crackfill.cli", *argv], env=env, capture_output=True, text=True, timeout=600)


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class InProcessPool:
    """ProcessPoolExecutor's context and map, running every job in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestCalibrate:
    def test_artifacts_and_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "calibrate"]) == 0

        model = json.loads((out / "calibration.json").read_text())
        assert set(model) == {"samples", "Q", "v_min", "v_max"}
        assert model["v_min"] == 6.0
        assert model["v_max"] == 20.0
        assert 900.0 < model["Q"] < 1030.0
        speeds = [s["speed"] for s in model["samples"]]
        assert speeds == sorted(speeds) == [6.0, 10.0, 20.0]

        header, rows = read_csv_rows(out / "calibration_areas.csv")
        assert header == ["speed_mm_s", "mean_area_mm2", "std_area_mm2", "n_profiles"]
        assert [float(r[0]) for r in rows] == [6.0, 10.0, 20.0]
        means = [float(r[1]) for r in rows]
        assert means[0] > means[1] > means[2]
        for mean, expected in zip(means, (165.764, 91.448, 41.713)):
            assert mean == pytest.approx(expected, rel=0.05)
        assert all(int(r[3]) == 5 for r in rows)
        assert "fitted flow rate" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", [6, 8, 10, 12, 15])
    def test_coarse_cells_hold_the_strip(self, tmp_path, cell):
        """However coarse the grid, the strip plate reaches past the strip's
        far end and both ends of every scan line."""
        cfg = write_config(tmp_path, {"grid": {"cell_size_mm": cell}})
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"]) == 0

    def test_single_speed_is_a_config_error(self, tmp_path, capsys):
        data = compact_config()
        data["calibration"]["speeds_mm_s"] = [10.0]
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestScan:
    def test_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["-v", "--config", cfg, "--out", str(out), "scan"]) == 0

        depth, _ = cfio.read_pgm(out / "depth.pgm")
        assert depth.shape == (480, 640)
        mask, _ = cfio.read_pgm(out / "mask.pgm")
        skeleton, _ = cfio.read_pgm(out / "skeleton.pgm")
        assert mask.shape == skeleton.shape == (480, 640)
        assert set(mask.ravel().tolist()) <= {0, 255}
        assert 0 < (skeleton > 0).sum() < (mask > 0).sum()

        header, rows = read_csv_rows(out / "waypoints.csv")
        assert header == WAYPOINT_HEADER.split(",")
        assert len(rows) >= 5
        ys = [float(r[4]) for r in rows]
        assert ys == sorted(ys)
        for row in rows:
            assert 0 <= float(row[0]) < 640 and 0 <= float(row[1]) < 480
            assert abs(float(row[6])) < 0.5
            assert float(row[9]) > 0.0
            assert row[10] == ""
        assert "wrote scan artifacts" in capsys.readouterr().out

    def test_camera_far_off_the_grid_finds_no_crack_without_a_warning(self, tmp_path, capsys):
        """Ray hits 1e18 mm away map to a cell index clipped just off the
        grid, not to an int64 cast that overflows."""
        data = compact_config()
        data["camera"] = {"position_mm": [1e18, 125.0, 500.0]}
        cfg = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "scan"]) == 3
        assert capsys.readouterr().err.startswith("no crack found:")
        assert [str(w.message) for w in caught] == []

    def test_output_dir_from_config(self, tmp_path):
        data = compact_config()
        data["output_dir"] = str(tmp_path / "configured")
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "scan"]) == 0
        assert (tmp_path / "configured" / "waypoints.csv").is_file()

    def test_same_seed_reproduces_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert cli.main(["--config", cfg, "--out", str(out_a), "scan"]) == 0
        assert cli.main(["--config", cfg, "--out", str(out_b), "scan"]) == 0
        assert cli.main(["--config", cfg, "--out", str(out_c), "--seed", "7", "scan"]) == 0
        for name in ("depth.pgm", "waypoints.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "waypoints.csv").read_bytes() != (out_c / "waypoints.csv").read_bytes()


class TestFill:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "fill"]) == 0

        summary = json.loads((out / "fill_summary.json").read_text())
        assert set(summary) == {"mean", "std", "median", "time_s", "mode"}
        assert summary["mode"] == "adaptive"
        assert 0.0 <= summary["mean"] < 0.2
        assert summary["time_s"] > 0.0

        header, rows = read_csv_rows(out / "fill_report.csv")
        assert header == ["station", "area_pre_mm2", "area_post_mm2", "fill_error", "speed_mm_s"]
        assert len(rows) >= 5
        for row in rows:
            assert 6.0 <= float(row[4]) <= 20.0
            assert float(row[2]) <= float(row[1])

        pre, _ = cfio.read_pgm(out / "surface_pre.pgm")
        post, _ = cfio.read_pgm(out / "surface_post.pgm")
        assert pre.shape == post.shape == (1200, 900)
        assert (out / "surface_pre.pgm").read_bytes() != (out / "surface_post.pgm").read_bytes()

        _, wp_rows = read_csv_rows(out / "waypoints.csv")
        assert all(6.0 <= float(r[10]) <= 20.0 for r in wp_rows)

        stdout = capsys.readouterr().out
        assert "mode adaptive" in stdout and "mean fill error" in stdout

    def test_calibration_from_file(self, tmp_path):
        cfg = write_config(tmp_path)
        cal_out = tmp_path / "cal"
        assert cli.main(["--config", cfg, "--out", str(cal_out), "calibrate"]) == 0

        data = compact_config()
        data["calibration"]["source"] = "file"
        data["calibration"]["path"] = str(cal_out / "calibration.json")
        cfg_file = write_config(tmp_path, data, name="file_cal.json")
        out = tmp_path / "out"
        assert cli.main(["--config", cfg_file, "--out", str(out), "fill"]) == 0
        summary = json.loads((out / "fill_summary.json").read_text())
        assert summary["mode"] == "adaptive"
        assert summary["mean"] < 0.2

    def test_missing_calibration_file(self, tmp_path, capsys):
        data = compact_config()
        data["calibration"]["source"] = "file"
        data["calibration"]["path"] = str(tmp_path / "absent.json")
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not found" in err

    def test_overfill_is_a_pipeline_error(self, tmp_path, capsys):
        data = compact_config()
        data["fill"] = {"mode": "fixed", "fixed_speed_mm_s": 0.5}
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pipeline error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "data, command",
        [
            ({"fill": {"mode": "fixed", "fixed_speed_mm_s": 1e-320}}, "fill"),
            ({"calibration": {"speeds_mm_s": [1e-320, 10.0]}}, "calibrate"),
        ],
        ids=["fixed fill", "strip"],
    )
    def test_a_subnormal_speed_is_a_pipeline_error(self, tmp_path, data, command):
        """Q / 1e-320 overflows to an infinite area per mm; the speed is
        refused before any of it is laid, where it once laid NaN caps with
        numpy warnings and a fill exited 0 with a NaN mean."""
        proc = run_cli_process(tmp_path, data, command)
        assert proc.returncode == 1
        assert proc.stderr.startswith("pipeline error: deposition speed ") and "too slow" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_zero_length_segment_is_a_pipeline_error(self, tmp_path, capsys, monkeypatch):
        """Two refined waypoints at the same xy make a zero-length deposition segment."""
        refine_waypoints = repair_module.refine_waypoints

        def repeat_first_waypoint(*args, **kwargs):
            refinement = refine_waypoints(*args, **kwargs)
            return replace(refinement, waypoints=refinement.waypoints[:1] + refinement.waypoints)

        monkeypatch.setattr(repair_module, "refine_waypoints", repeat_first_waypoint)
        cfg = write_config(tmp_path)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pipeline error: deposition segment starts and ends at") and "Traceback" not in err
        point = err.removeprefix("pipeline error: deposition segment starts and ends at ").rstrip("\n")
        assert point == repr(tuple(float(v) for v in point.strip("()").split(", "))) and "np.float64" not in err

    def test_segment_off_the_grid_is_a_pipeline_error(self, tmp_path, capsys, monkeypatch):
        """A refined path whose last segment runs past the grid's far edge
        (y 119.9 mm here); the message names the segment's ends as plain floats."""
        refine_waypoints = repair_module.refine_waypoints

        def run_off_the_grid(*args, **kwargs):
            refinement = refine_waypoints(*args, **kwargs)
            ends = [replace(refinement.waypoints[-1], refined_robot_pt=Point3(0.0, y, 0.0, Frame.ROBOT)) for y in (100.0, 150.0)]
            return replace(refinement, waypoints=tuple(ends))

        monkeypatch.setattr(repair_module, "refine_waypoints", run_off_the_grid)
        cfg = write_config(tmp_path)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 1
        err = capsys.readouterr().err
        assert err == "pipeline error: segment (0.0, 100.0) -> (0.0, 150.0) leaves the grid\n"

    def test_summary_is_strict_json_when_no_station_qualifies(self, tmp_path):
        data = compact_config()
        data["fill"] = {"area_floor_mm2": 1000.0}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "fill"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((out / "fill_summary.json").read_text(), parse_constant=reject)
        assert summary["mean"] is None and summary["std"] is None and summary["median"] is None
        assert summary["time_s"] > 0.0

    def test_no_crack_exit_code(self, tmp_path, capsys):
        data = compact_config()
        data["crack"] = None
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 3
        assert capsys.readouterr().err.startswith("no crack found:")


class TestExperiment:
    def test_table_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "experiment"]) == 0

        text = (out / "experiment.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "Speed (mm/s),Mean,Std. Dev.,Median,Time (s)"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["6", "20", "Adaptive"]
        means = {r[0]: float(r[1]) for r in rows}
        times = {r[0]: float(r[4]) for r in rows}
        assert all(t > 0.0 for t in times.values())
        assert times["6"] > times["20"]
        assert means["Adaptive"] < means["6"]
        assert means["Adaptive"] < means["20"]
        assert "experiment.csv" in capsys.readouterr().out

    def test_serial_and_parallel_runs_match(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = [tmp_path / n for n in ("a", "b", "p")]
        assert cli.main(["--config", cfg, "--out", str(outs[0]), "experiment"]) == 0
        assert cli.main(["--config", cfg, "--out", str(outs[1]), "experiment"]) == 0
        assert cli.main(["--config", cfg, "--out", str(outs[2]), "--parallel", "2", "experiment"]) == 0
        blobs = [(o / "experiment.csv").read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_each_survey_lays_out_its_path_once(self, tmp_path, monkeypatch, parallel):
        """One survey serves its chunk of modes, serial or per worker, and
        lays out its path once for all of them. The workers run in this
        process here, so their calls are counted."""
        calls = {"survey": 0, "lay_out": 0, "execute_fill": 0}
        for name in calls:
            monkeypatch.setattr(repair_module, name, counted(calls, name, getattr(repair_module, name)))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        cfg = write_config(tmp_path)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "--parallel", str(parallel), "experiment"]) == 0
        assert calls == {"survey": parallel, "lay_out": parallel, "execute_fill": 3}

    def test_scanned_mask_reproduces_the_table(self, tmp_path):
        """The mask scan writes is the camera's own: given back as
        fill.mask_path it leaves experiment.csv byte-identical, serial
        and in parallel."""
        data = compact_config()
        assert cli.main(["--config", write_config(tmp_path, data), "--out", str(tmp_path / "s"), "experiment"]) == 0
        assert cli.main(["--config", write_config(tmp_path, data), "--out", str(tmp_path / "scan"), "scan"]) == 0
        data["fill"] = {"mask_path": str(tmp_path / "scan" / "mask.pgm")}
        cfg = write_config(tmp_path, data, name="masked.json")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "m"), "experiment"]) == 0
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "p"), "--parallel", "2", "experiment"]) == 0
        blobs = [(tmp_path / o / "experiment.csv").read_bytes() for o in ("s", "m", "p")]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_library_matches_cli_with_interpolation(self, tmp_path):
        data = compact_config()
        data["calibration"]["interpolate"] = True
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "experiment"]) == 0
        _, rows = read_csv_rows(out / "experiment.csv")

        scenario = ScenarioConfig.from_dict(data)
        reports = run_experiment(
            scenario.build_scene(),
            experiment_modes((6.0, 20.0), interpolate=True),
            scenario.build_deposition(),
            scenario.build_noise(),
            scenario.build_calibration(),
        )
        library = [
            [cfio.fmt(r.mean_fill_error), cfio.fmt(r.std_fill_error), cfio.fmt(r.median_fill_error), cfio.fmt(r.elapsed_s)]
            for r in reports
        ]
        assert [row[1:] for row in rows] == library

    def test_missing_statistics_are_empty_cells(self, tmp_path):
        data = compact_config()
        data["fill"] = {"area_floor_mm2": 1000.0}
        out = tmp_path / "out"
        assert cli.main(["--config", write_config(tmp_path, data), "--out", str(out), "experiment"]) == 0
        header, rows = read_csv_rows(out / "experiment.csv")
        assert header == ["Speed (mm/s)", "Mean", "Std. Dev.", "Median", "Time (s)"]
        assert [row[0] for row in rows] == ["6", "20", "Adaptive"]
        for row in rows:
            assert row[1:4] == ["", "", ""]
            assert float(row[4]) > 0.0

    def test_bad_parallel_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["--config", cfg, "--parallel", "0", "experiment"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestLocalize:
    def test_report_layout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out), "localize"]) == 0

        report = json.loads((out / "localization.json").read_text())
        assert set(report) == {"X", "Y", "Z", "Distance", "n_pairs", "diagnostics"}
        assert report["X"]["average_difference_mm"] == pytest.approx(10.0, abs=2.0)
        assert report["Y"]["average_difference_mm"] <= 0.5
        assert report["Distance"]["average_difference_mm"] >= report["X"]["average_difference_mm"]
        assert report["n_pairs"] >= 10
        assert report["diagnostics"]["refined_lateral_max_mm"] < 1.0
        assert "localization over" in capsys.readouterr().out


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert cli.main(["--config", cfg, "scan"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "absent.json"), "scan"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--config", str(path), "scan"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_file_source_requires_path(self, tmp_path, capsys):
        data = compact_config()
        data["calibration"]["source"] = "file"
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "fill"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "body",
        [
            "{}",
            "{not json",
            "[1, 2]",
            '{"samples": [], "Q": -1, "v_min": 6.0, "v_max": 20.0}',
            '{"samples": [], "Q": NaN, "v_min": 6.0, "v_max": 20.0}',
            '{"samples": [{"speed": 6.0, "area": NaN, "std": 0.0}], "Q": 900.0, "v_min": 6.0, "v_max": 20.0}',
        ],
        ids=["missing-keys", "not-json", "not-an-object", "negative-flow", "nan-flow", "nan-sample-area"],
    )
    def test_malformed_calibration_file(self, tmp_path, capsys, body):
        model = tmp_path / "calibration.json"
        model.write_text(body)
        data = compact_config()
        data["calibration"].update(source="file", path=str(model))
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "fill"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: calibration file {model}:") and "Traceback" not in err


    def test_interpolating_a_sample_free_model(self, tmp_path, capsys, monkeypatch):
        """A Q-only calibration file has no samples to interpolate between,
        which fill and experiment report before any specimen is repaired."""
        model = tmp_path / "calibration.json"
        model.write_text('{"samples": [], "Q": 900.0, "v_min": 6.0, "v_max": 20.0}')
        data = compact_config()
        data["calibration"].update(source="file", path=str(model), interpolate=True)
        cfg = write_config(tmp_path, data)
        ran = []
        monkeypatch.setattr(cli, "run_fill", lambda *args, **kwargs: ran.append("fill"))
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: ran.append("experiment"))
        for command in ("fill", "experiment"):
            assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: calibration.interpolate") and "Traceback" not in err
        assert ran == []

    def test_strip_plate_over_the_cell_cap(self, tmp_path, capsys, monkeypatch):
        """A grid cell so fine that a calibration strip plate would pass the
        cell cap (500,000 x 900,000 cells here) is a config error that
        calibrate and fill report before any plate is built."""
        data = compact_config()
        data["grid"]["cell_size_mm"] = 1e-4
        cfg = write_config(tmp_path, data)
        built = []
        monkeypatch.setattr(Heightfield, "flat", staticmethod(lambda *args, **kwargs: built.append(args)))
        monkeypatch.setattr(cli, "run_fill", lambda *args, **kwargs: built.append("fill"))
        for command in ("calibrate", "fill"):
            assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: grid.cell_size_mm") and "Traceback" not in err
        assert built == []

    def test_strip_batch_over_the_sample_cap(self, tmp_path, capsys, monkeypatch):
        """A scan step so fine that one strip's batch of laser samples would
        pass the cap (40,001 stations x 1024 samples here) is a config error
        that calibrate reports before any strip is printed or scanned."""
        data = compact_config()
        data["calibration"]["scan_step_mm"] = 1e-3
        cfg = write_config(tmp_path, data)
        built = []
        monkeypatch.setattr(Heightfield, "flat", staticmethod(lambda *args, **kwargs: built.append(args)))
        monkeypatch.setattr(config_module, "scan_profile", lambda *args, **kwargs: built.append("scan"))
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: calibration.scan_step_mm") and "Traceback" not in err
        assert built == []

    def test_steep_camera_rays_exit_without_a_warning(self, tmp_path):
        """A focal length of 1e-300 is refused before any ray is cast; left in,
        it made numpy warn about an invalid cast and fill from the centre
        column alone. A fresh interpreter prints any warning it meets."""
        proc = run_cli_process(tmp_path, {"camera": {"fx": 1e-300}}, "fill")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: camera.fx ")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("nozzle", [1e200, 1e308])
    @pytest.mark.parametrize("command", ["calibrate", "fill"])
    def test_a_huge_nozzle_exits_without_a_traceback(self, tmp_path, nozzle, command):
        """A nozzle of 1e200 mm overflowed squaring its cap's chord, and one
        of 1e308 mm reached an infinite number of cells; both are now config
        errors."""
        proc = run_cli_process(tmp_path, {"deposition": {"nozzle_diameter_mm": nozzle}}, command)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: deposition.nozzle_diameter_mm ")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_a_path_point_too_large_for_a_float_exits_without_a_traceback(self, tmp_path):
        """A 400-digit integer overflowed converting to a float; it is now a
        config error."""
        proc = run_cli_process(tmp_path, {"crack": {"path_mm": [[10**399, 10], [0, 240]]}}, "fill")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: crack.path_mm ")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestBadMaskFiles:
    """A mask file the camera cannot use is a configuration error."""

    def run_with_mask(self, tmp_path, capsys, write, command: tuple[str, ...] = ("scan",)) -> str:
        path = tmp_path / "mask.pgm"
        write(path)
        data = compact_config()
        data["fill"] = {"mask_path": str(path)}
        cfg = write_config(tmp_path, data)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o"), *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        return err

    def test_truncated_payload(self, tmp_path, capsys):
        err = self.run_with_mask(tmp_path, capsys, lambda p: p.write_bytes(b"P5\n640 480\n255\n" + bytes(100)))
        assert "payload" in err

    def test_not_a_binary_pgm(self, tmp_path, capsys):
        err = self.run_with_mask(tmp_path, capsys, lambda p: p.write_text("P2\n2 2\n255\n0 0 0 0\n"))
        assert "not a binary PGM" in err

    def test_mask_smaller_than_the_camera_image(self, tmp_path, capsys):
        err = self.run_with_mask(tmp_path, capsys, lambda p: cfio.write_mask_pgm(p, np.ones((10, 10), dtype=bool)))
        assert "10x10" in err and "640x480" in err

    @pytest.mark.parametrize("command", [("fill",), ("experiment",), ("--parallel", "2", "experiment")], ids=" ".join)
    def test_fill_and_experiment_read_the_mask(self, tmp_path, capsys, command):
        err = self.run_with_mask(tmp_path, capsys, lambda p: cfio.write_mask_pgm(p, np.ones((4, 4), dtype=bool)), command)
        assert err == "config error: mask is 4x4 pixels but the camera image is 640x480\n"


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--help"])
        assert exc_info.value.code == 0
