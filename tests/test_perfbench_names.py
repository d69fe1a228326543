"""The benchmark tracer wraps crackfill functions by name from outside the
package; every name it wraps must still exist, or ``--trace 1`` fails, and
its hooks must still read what the wrapped functions return."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from crackfill import cli
from crackfill import io as cfio

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for name, (modname, attr, _) in tracing.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_every_traced_writer_is_in_io(tracing):
    for attr in tracing.IO_WRITERS:
        assert callable(getattr(cfio, attr, None)), attr


def test_the_pool_the_tracer_wraps_is_the_cli_pool():
    assert isinstance(cli.ProcessPoolExecutor, type)



# A scene the size of the acceptance tests' experiment: a 100 mm crack along y
# on a 900 x 1200 grid, calibrated on three short strips.
SMALL_SCENE = {
    "camera": {"position_mm": [0.0, 60.0, 500.0]},
    "grid": {"ny": 1200},
    "crack": {"path_mm": [[0.0, 10.0], [0.0, 110.0]], "width_mm": 10.0, "depth_mm": 5.0},
    "calibration": {"speeds_mm_s": [6.0, 10.0, 20.0], "strip_length_mm": 80.0, "scan_length_mm": 40.0},
    "experiment": {"fixed_speeds_mm_s": [6.0, 10.0, 20.0]},
}


@pytest.mark.parametrize("command", ["fill", "experiment"])
def test_the_hooks_read_what_the_pipeline_returns(tracing, tmp_path, command):
    """A traced in-process run counts the fill's segments and the refined
    stations, and its calibration strips deposit their target volume."""
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(SMALL_SCENE))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), command]) == 0
    finally:
        tracing.uninstall(undo)
    counts = tracer.counts
    assert counts["repair.execute_fill.segments"] > 0
    assert counts["repair.refine_waypoints.stations"] > 0
    assert counts["specimen.deposit.volume_deposited"] == pytest.approx(counts["specimen.deposit.volume_target"], rel=1e-9, abs=0)
    assert counts["specimen.deposit.volume_target"] > 0
