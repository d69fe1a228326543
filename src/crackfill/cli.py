"""Command-line entry point for reproducible scenario runs.

Subcommands mirror the pipeline stages:

    calibrate   print strips at the configured speeds, scan them, fit the
                extrusion model, write calibration.json + areas CSV
    scan        run perception and laser refinement only, write the
                depth/mask/skeleton images and the waypoint table
    fill        run the full repair loop once, write waypoints, pre/post
                surfaces, and the fill report
    experiment  survey once, then fill under each fixed speed and in
                adaptive mode, write a summary CSV
    localize    repeated localization study, write a summary JSON

Every command is a pure function of (config, seed): re-running with the
same inputs produces byte-identical artifacts. All outputs land under
the output directory (--out overrides the config's output_dir).

Exit codes: 0 success, 2 configuration problem, 3 no crack found,
4 output I/O failure, 1 any other pipeline error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import io
from .config import ScenarioConfig
from .errors import (
    AllPointsDropped,
    ConfigError,
    CrackFillError,
    EmptyPath,
    EmptyWaypoints,
    InsufficientSamples,
    NoIntersection,
    ProviderUnavailable,
)
from .perception import Waypoint
from .profile import calibrate
from .repair import (
    FillRunArtifacts,
    edge_threshold_for,
    experiment_modes,
    image_specimen,
    localization_experiment,
    run_experiment,
    run_fill,
    survey,
)


def _write_waypoints_csv(path, waypoints: tuple[Waypoint, ...]) -> None:
    columns = (
        "u,v,depth_mm,x_mm,y_mm,z_mm,"
        "refined_x_mm,refined_y_mm,refined_z_mm,area_mm2,speed_mm_s"
    )
    with open(path, "w", newline="\n") as f:
        f.write(columns + "\n")
        for wp in waypoints:
            refined = wp.refined_robot_pt
            cells = [
                str(wp.pixel.u),
                str(wp.pixel.v),
                io.fmt(wp.pixel.depth),
                io.fmt(wp.robot_pt.x),
                io.fmt(wp.robot_pt.y),
                io.fmt(wp.robot_pt.z),
                io.fmt(refined.x) if refined is not None else "",
                io.fmt(refined.y) if refined is not None else "",
                io.fmt(refined.z) if refined is not None else "",
                io.fmt_cell(wp.area_mm2),
                io.fmt_cell(wp.speed_mm_s),
            ]
            f.write(",".join(cells) + "\n")


def cmd_calibrate(cfg: ScenarioConfig, out: Path) -> int:
    scans = cfg.strip_scans()
    model = calibrate(scans, edge_threshold_for(cfg.build_noise()))
    io.ensure_dir(out)
    io.write_json(out / "calibration.json", model.to_dict())
    with open(out / "calibration_areas.csv", "w", newline="\n") as f:
        f.write("speed_mm_s,mean_area_mm2,std_area_mm2,n_profiles\n")
        for sample, (_, profiles) in zip(model.samples, scans):
            f.write(
                f"{io.fmt(sample.speed_mm_s)},{io.fmt(sample.area_mm2)},"
                f"{io.fmt(sample.std_mm2)},{profiles.n_lines}\n"
            )
    print(f"fitted flow rate {model.flow_rate_mm3_s:.3f} mm^3/s over {len(model.samples)} speeds")
    print(f"wrote {out / 'calibration.json'} and {out / 'calibration_areas.csv'}")
    return 0


def _write_fill_artifacts(out: Path, artifacts: FillRunArtifacts) -> None:
    io.ensure_dir(out)
    _write_waypoints_csv(out / "waypoints.csv", artifacts.plan.waypoints)
    io.write_heightfield_pgm(out / "surface_pre.pgm", artifacts.surface_before)
    io.write_heightfield_pgm(out / "surface_post.pgm", artifacts.surface_after)
    artifacts.report.to_csv(out / "fill_report.csv")
    artifacts.report.to_json(out / "fill_summary.json")


def cmd_fill(cfg: ScenarioConfig, out: Path) -> int:
    mode = cfg.build_mode()
    model = cfg.build_calibration() if mode.kind == "adaptive" else None
    artifacts = run_fill(
        cfg.build_scene(),
        mode,
        cfg.build_deposition(),
        cfg.build_noise(),
        model,
        cfg.build_mask(),
    )
    _write_fill_artifacts(out, artifacts)
    report = artifacts.report
    print(
        f"mode {mode.label()}: mean fill error {report.mean_fill_error:.4f}, "
        f"median {report.median_fill_error:.4f}, elapsed {report.elapsed_s:.2f} s"
    )
    print(f"wrote fill artifacts under {out}")
    return 0


def cmd_experiment(cfg: ScenarioConfig, out: Path, parallel: int) -> int:
    speeds = sorted(float(v) for v in cfg.raw["experiment"]["fixed_speeds_mm_s"])
    modes = experiment_modes(speeds, cfg.raw["calibration"]["interpolate"])
    run = partial(
        run_experiment,
        cfg.build_scene(),
        params=cfg.build_deposition(),
        noise=cfg.build_noise(),
        model=cfg.build_calibration(),
        mask=cfg.build_mask(),
    )
    # Each worker surveys its own specimen for a contiguous chunk of modes:
    # shipping one survey from here would hold a specimen in this process too.
    n = min(parallel, len(modes))
    chunks = [modes[k * len(modes) // n : (k + 1) * len(modes) // n] for k in range(n)]
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(run, chunks))
    else:
        parts = list(map(run, chunks))
    reports = [report for part in parts for report in part]
    io.ensure_dir(out)
    with open(out / "experiment.csv", "w", newline="\n") as f:
        f.write("Speed (mm/s),Mean,Std. Dev.,Median,Time (s)\n")
        for mode, report in zip(modes, reports):
            f.write(
                f"{mode.label().capitalize()},{io.fmt_cell(report.mean_fill_error)},"
                f"{io.fmt_cell(report.std_fill_error)},{io.fmt_cell(report.median_fill_error)},"
                f"{io.fmt(report.elapsed_s)}\n"
            )
    for mode, report in zip(modes, reports):
        print(
            f"mode {mode.label():>8}: mean {report.mean_fill_error:.4f}, "
            f"median {report.median_fill_error:.4f}, time {report.elapsed_s:.2f} s"
        )
    print(f"wrote {out / 'experiment.csv'}")
    return 0


def cmd_localize(cfg: ScenarioConfig, out: Path) -> int:
    scene = cfg.build_scene(localization=True)
    noise = cfg.build_noise(localization=True)
    report = localization_experiment(scene, noise, cfg.raw["localization"]["n_scans"])
    io.ensure_dir(out)
    report.to_json(out / "localization.json")
    print(
        f"localization over {report.n_pairs} pairs: "
        f"X {report.x.mean_abs_mm:.3f} mm, Y {report.y.mean_abs_mm:.3f} mm, "
        f"Z {report.z.mean_abs_mm:.3f} mm, distance {report.mean_distance_mm:.3f} mm"
    )
    print(f"wrote {out / 'localization.json'}")
    return 0


def cmd_scan(cfg: ScenarioConfig, out: Path) -> int:
    scene = cfg.build_scene()
    view = image_specimen(scene, scene.build_specimen(), cfg.build_mask())
    surveyed = survey(scene, view, cfg.build_noise())
    refinement = surveyed.refinement
    io.ensure_dir(out)
    io.write_depth_pgm(out / "depth.pgm", surveyed.perception.depth)
    io.write_mask_pgm(out / "mask.pgm", view.mask.flags)
    io.write_mask_pgm(out / "skeleton.pgm", view.skeleton.flags)
    _write_waypoints_csv(out / "waypoints.csv", refinement.waypoints)
    print(
        f"found {len(refinement.waypoints)} waypoints "
        f"({refinement.dropped} dropped during refinement)"
    )
    print(f"wrote scan artifacts under {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackfill",
        description="Deterministic crack detection and filling simulator.",
    )
    parser.add_argument("--config", metavar="PATH", help="scenario config JSON (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: config output_dir)")
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiment runs (default 1)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log pipeline progress")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("calibrate", "fit the extrusion model from synthetic strip prints"),
        ("scan", "run perception and laser refinement, write images and waypoints"),
        ("fill", "run the full repair pipeline once"),
        ("experiment", "fixed-speed sweep plus adaptive run"),
        ("localize", "repeated localization study"),
    ):
        sub.add_parser(name, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig.default()
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out)
        if args.command == "scan":
            return cmd_scan(cfg, out)
        if args.command == "fill":
            return cmd_fill(cfg, out)
        if args.command == "experiment":
            return cmd_experiment(cfg, out, args.parallel)
        return cmd_localize(cfg, out)
    except (ConfigError, InsufficientSamples, ProviderUnavailable) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmptyPath, EmptyWaypoints, AllPointsDropped, NoIntersection) as exc:
        print(f"no crack found: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except CrackFillError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
