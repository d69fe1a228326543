"""The scene matrix: named scenes, each run end to end and held to a bound.

Each row is a scene and a run on it that gives one metric, with the bound
the metric must not pass. A known failure carries xfail(strict=True) with
its measured value in the reason, so the change that mends it turns it
into a pass and must drop the marker. Run with -s, each row prints one
line: the scene, its metric and its bound.

The first rows hold deposition to its own regime: the metric is the
highest cell of the filled plate above the nominal surface, and the bound
is MAX_OVERFILL_MM, past which deposition raises Overfill.
"""

from functools import cache

import numpy as np
import pytest

from crackfill import FillMode, Overfill, ScenarioConfig, deposit_path, lay_out, run_fill
from crackfill.specimen import MAX_OVERFILL_MM

U_CRACK = [[-20.0, 30.0], [-20.0, 200.0], [20.0, 200.0], [20.0, 30.0]]


@cache
def default_specimen():
    return ScenarioConfig.default().build_scene().build_specimen()


def peak_above_surface(plate) -> float:
    return float(plate.heightfield().heights.max() - plate.nominal_surface)


def axis_pass(end_y: float, speed: float) -> float:
    """One pass along the default crack's axis from y = 200 mm to end_y."""
    layout = lay_out(default_specimen(), [(0.0, 200.0), (0.0, end_y)])
    filled, _ = deposit_path(layout, [speed], ScenarioConfig.default().build_deposition())
    return peak_above_surface(filled)


def fixed_fill(crack_path, speed: float) -> float:
    """A fixed-speed run_fill of the default scene with the crack along crack_path."""
    cfg = ScenarioConfig.from_dict({"crack": {"path_mm": crack_path}})
    artifacts = run_fill(cfg.build_scene(), FillMode.fixed(speed), cfg.build_deposition(), cfg.build_noise())
    return peak_above_surface(artifacts.surface_after)


U_CRACK_ZIGZAG = pytest.mark.xfail(
    raises=Overfill,
    strict=True,
    reason="order_path sorts the U's waypoints by y, so the nozzle zig-zags between its legs; at 6 mm/s a cap "
    "reaches 119.8 mm, at 8 mm/s 89.0 mm; at 10 mm/s the fill completes with a mean fill error of 2.84",
)

SCENES = [
    *(pytest.param(axis_pass, (255.0, v), id=f"end-cap pass {v:g} mm/s") for v in (6.0, 12.0, 20.0, 60.0)),
    *(pytest.param(axis_pass, (247.0, v), id=f"pass short of the tip {v:g} mm/s") for v in (6.0, 60.0)),
    pytest.param(fixed_fill, (U_CRACK, 6.0), id="U-crack fixed 6 mm/s", marks=U_CRACK_ZIGZAG),
]


@pytest.mark.parametrize("run, args", SCENES)
def test_scene(request, run, args):
    metric = run(*args)
    print(f"\n{request.node.callspec.id:<32} peak {metric:9.3f} mm  bound {MAX_OVERFILL_MM:g} mm", end="")
    assert np.isfinite(metric) and metric <= MAX_OVERFILL_MM
