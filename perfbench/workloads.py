"""The benchmark's workloads: scenario, CLI arguments and output checks.

Each workload is one ``crackfill`` subcommand on a fixed scenario; the
seed only changes the sensor noise, so every seed does the same work.
The checks read the artifacts a pass wrote and return the invariants it
broke; ``outcome`` reads the quality figures a user of the rig looks at.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# A crack running along robot x, so deposition walks strided columns of
# the heightfield instead of rows; scanned in vertical orientation.
FILL_X_SCENARIO = {
    "grid": {"origin_mm": [-130.0, 60.0], "nx": 2600, "ny": 900},
    "crack": {"orientation": "vertical", "path_mm": [[-115.0, 105.0], [115.0, 105.0]]},
}


def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _experiment_rows(out: Path) -> list[dict]:
    with open(out / "experiment.csv", newline="") as f:
        return list(csv.DictReader(f))


def check_experiment(out: Path) -> list[str]:
    """Acceptance check 3: adaptive beats every fixed speed; slower is longer."""
    rows = _experiment_rows(out)
    if not rows or rows[-1]["Speed (mm/s)"] != "Adaptive":
        return ["experiment.csv has no final Adaptive row"]
    fixed, adaptive = rows[:-1], rows[-1]
    broken = []
    if not fixed:
        broken.append("experiment.csv has no fixed-speed rows")
    elif float(adaptive["Mean"]) >= min(float(r["Mean"]) for r in fixed):
        broken.append("adaptive mean fill error is not below every fixed speed")
    times = [float(r["Time (s)"]) for r in fixed]
    if any(slow <= fast for slow, fast in zip(times, times[1:])):
        broken.append("fixed-speed times do not strictly decrease with speed")
    return broken


def check_localize(out: Path) -> list[str]:
    """Acceptance check 4: the laser cancels the injected 10 mm camera bias."""
    report = _read_json(out, "localization.json")
    broken = []
    if not report["X"]["average_difference_mm"] >= 8.0:
        broken.append("X average difference below 8 mm")
    if not report["Y"]["average_difference_mm"] <= 0.5:
        broken.append("Y average difference above 0.5 mm")
    if not report["n_pairs"] >= 200:
        broken.append("fewer than 200 localization pairs")
    return broken


def check_fill(out: Path) -> list[str]:
    summary = _read_json(out, "fill_summary.json")
    if summary["mode"] != "adaptive":
        return [f"fill ran in mode {summary['mode']!r}, expected adaptive"]
    if not (isinstance(summary["mean"], float) and math.isfinite(summary["mean"]) and summary["mean"] > 0):
        return [f"fill mean error {summary['mean']!r} is not a positive number"]
    return []


# ``residual_error`` is the share of the initial error the rig leaves behind:
# the adaptive fill error |A_post / A_pre| for fills, and the refined
# points' lateral distance to the true centreline over the injected camera
# bias for localization.


def outcome_experiment(out: Path, raw: dict) -> dict[str, float]:
    err = float(_experiment_rows(out)[-1]["Mean"])
    return {"fill_error_adaptive": err, "residual_error": err}


def outcome_fill(out: Path, raw: dict) -> dict[str, float]:
    err = float(_read_json(out, "fill_summary.json")["mean"])
    return {"fill_error_adaptive": err, "residual_error": err}


def outcome_localize(out: Path, raw: dict) -> dict[str, float]:
    lateral = float(_read_json(out, "localization.json")["diagnostics"]["refined_lateral_mean_mm"])
    bias = math.hypot(*raw["localization"]["camera_bias_mm"])
    return {"loc_lateral_mean_mm": lateral, "residual_error": lateral / bias}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]  # CLI flags and subcommand after --config/--seed/--out
    check: Callable[[Path], list[str]]
    outcome: Callable[[Path, dict], dict[str, float]]
    scenario: dict = field(default_factory=dict)
    localization: bool = False  # set-up builds the localization scene
    pool: bool = False  # the pass fans out to worker processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "Table 2: experiment, serial; 6 fills redo one survey, so deposit, carve and survey-once work shows",
            ("experiment",),
            check_experiment,
            outcome_experiment,
        ),
        Workload(
            "localize",
            "localize: 10 raycasts and skeletonizations of one mask and 350 laser stations, zero deposition",
            ("localize",),
            check_localize,
            outcome_localize,
            localization=True,
        ),
        Workload(
            "fill_x",
            "adaptive fill of a crack along x: deposits along strided columns, writes the full artifact set",
            ("fill",),
            check_fill,
            outcome_fill,
            scenario=FILL_X_SCENARIO,
        ),
        Workload(
            "sweep_p2",
            "experiment with --parallel 2: the only workload through the CLI process-pool fan-out",
            ("--parallel", "2", "experiment"),
            check_experiment,
            outcome_experiment,
            pool=True,
        ),
    )
}
