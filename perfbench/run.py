"""Benchmark driver for the crackfill CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

One process runs ``crackfill.cli.main([...])`` in-process, pass after pass,
on the workload's generated scenario with ``--seed`` passed through. Each
pass is checked (exit code, artifact digests, invariants); a pass that
breaks any check counts as failed. With ``--trace 0`` the passes run
untraced and the end-to-end metrics are reported; with ``--trace 1``
traced and untraced passes alternate and the per-layer metrics are
reported. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record-golden`` rewrites ``golden.json`` with the artifact digests of
every workload at the golden seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (0, 9173)  # the default seed and one held out while the benchmark was written
TRACE_DIR = ROOT / ".perfbench-traces"

MIN_PASSES = 3
HARD_CAP_S = 120.0  # never start a pass expected to end later than this
SETUP_SAMPLES = 5

SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import crackfill
from crackfill.config import ScenarioConfig
ScenarioConfig.from_file({config!r}).with_seed({seed}).build_scene(localization={localization})
"""

# units of the printed metrics that BENCHMARK.json does not list
UNITS = {"failed_frac": "ratio", "fill_error_adaptive": "ratio", "loc_lateral_mean_mm": "mm"}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def keep_going(walls: list[float], elapsed: float, seconds: float) -> bool:
    """Start another pass while the run is short of ``seconds`` (or of MIN_PASSES)."""
    if not walls:
        return True
    typical = statistics.median(walls)
    if elapsed + typical > HARD_CAP_S:
        return False
    return len(walls) < MIN_PASSES or elapsed + typical / 2 < seconds


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, work: Path, use_golden: bool = True) -> None:
        from crackfill.config import ScenarioConfig

        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "scenario.json"
        self.config.write_text(json.dumps(workload.scenario, indent=2, sort_keys=True) + "\n")
        self.raw = ScenarioConfig.from_file(self.config).with_seed(seed).raw
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = golden.get("digests", {}).get(str(seed), {}).get(workload.name) if use_golden else None
        self.golden_env = golden.get("environment")
        self.reference: dict[str, str] | None = self.golden
        self.attempted = 0
        self.failed = 0
        self.outcomes: list[dict[str, float]] = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def setup_times(self, n: int) -> list[float]:
        """Fresh interpreter -> import crackfill -> scenario loaded and validated -> scene built."""
        code = SETUP_CODE.format(
            src=str(SRC), config=str(self.config), seed=self.seed, localization=self.workload.localization
        )
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        return times

    def one_pass(self, k: int, tracer=None) -> float:
        """Run the subcommand once, check its artifacts, return its wall time.

        With a tracer, the CLI call is recorded as its root span.
        """
        from crackfill import cli

        out = self.work / f"pass{k}"
        argv = ["--config", str(self.config), "--seed", str(self.seed), "--out", str(out), *self.workload.argv]
        self.attempted += 1
        gc.collect()
        problems: list[str] = []
        if not self.workload.pool:
            # Shared vCPUs differ in speed by up to ~20%; rotating serial passes
            # over them in pairs (a traced pass and its untraced partner share
            # one) keeps a run's median from hinging on where it landed.
            os.sched_setaffinity(0, {self.cpus[k // 2 % len(self.cpus)]})
        t0 = time.perf_counter()
        root = tracer.begin(tracing.ROOT) if tracer is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed pass, not a crashed benchmark
            rc = f"exception {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end(root)
        wall = time.perf_counter() - t0
        os.sched_setaffinity(0, self.cpus)
        if rc != 0:
            problems.append(f"exit {rc}")
        else:
            problems += self.check(out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"FAILED pass {k}: " + "; ".join(problems))
        return wall

    def check(self, out: Path) -> list[str]:
        found = digests(out)
        problems = []
        if self.reference is None:
            self.reference = found
            for name, sha in found.items():
                print(f"digest {self.workload.name} seed={self.seed} {name} {sha}")
        elif found != self.reference:
            what = "golden" if self.golden is not None else "first pass"
            diff = sorted(set(found.items()) ^ set(self.reference.items()))
            problems.append(f"artifact digests differ from the {what}: " + ", ".join(sorted({n for n, _ in diff})))
        try:
            problems += self.workload.check(out)
            outcome = self.workload.outcome(out, self.raw)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return problems + [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
        if self.outcomes and outcome != self.outcomes[0]:
            problems.append(f"quality outcome {outcome} differs from the first pass {self.outcomes[0]}")
        self.outcomes.append(outcome)
        return problems


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.setup_times(SETUP_SAMPLES)
    walls: list[float] = []
    t0 = time.perf_counter()
    while keep_going(walls, time.perf_counter() - t0, seconds):
        walls.append(run.one_pass(len(walls)))
        if len(walls) == 1:
            # Later passes in the same process only add heap fragmentation;
            # after the first, the high-water mark is what a CLI process reaches.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if run.workload.pool:
                rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_frac": run.failed / run.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, warm page cache; min {min(setup):.4f} max {max(setup):.4f}",
        "wall_s": f"median of {len(walls)} passes; min {min(walls):.4f} max {max(walls):.4f}",
        "peak_rss_mb": "high-water mark after the first pass, " + ("largest of the benchmark process and its pool workers" if run.workload.pool else "benchmark process"),
        "failed_frac": f"{run.failed} of {run.attempted} passes",
    }
    for key in ("fill_error_adaptive", "loc_lateral_mean_mm", "residual_error"):
        values = [o[key] for o in run.outcomes if key in o]
        if values:
            metrics[key] = values[0]
            notes[key] = f"{len(values)} passes, " + ("all equal" if len(set(values)) == 1 else "NOT all equal")
        else:
            notes[key] = "n/a: this workload does not produce it"
    return metrics, notes


def run_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    traced: list[tuple[int, tracing.Tracer, float]] = []
    untraced: list[float] = []
    t0 = time.perf_counter()
    walls: list[float] = []
    while keep_going(walls, time.perf_counter() - t0, seconds):
        k = len(walls)
        if k % 2 == 1:
            untraced.append(run.one_pass(k))
            walls.append(untraced[-1])
            continue
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            wall = run.one_pass(k, tracer)
        finally:
            tracing.uninstall(undo)
        traced.append((k, tracer, wall))
        walls.append(wall)
    per_pass = [tracing.layer_metrics(tracer, wall) for _, tracer, wall in traced]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced_walls = [wall for _, _, wall in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"{run.workload.name}-seed{run.seed}.json"
    tracing.write_spans(spans_path, [(k, tracer) for k, tracer, _ in traced], t0)
    notes = {
        "spans": f"{sum(len(t.spans) for _, t, _ in traced)} spans written to {spans_path.relative_to(ROOT)}",
        "passes": f"median over {len(traced)} traced passes; {len(untraced)} untraced passes for the overhead",
    }
    # absolute self times per function, for reading; the JSON carries shares
    for name in tracing.TRACED:
        share = metrics[f"{name}.self_share"]
        notes[f"{name}.self_s"] = f"{share * statistics.median(traced_walls):.4f} s"
    return metrics, notes


def print_environment(run: Run, before, after) -> None:
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"env loadavg_before={before[0]:.2f},{before[1]:.2f},{before[2]:.2f} "
          f"loadavg_after={after[0]:.2f},{after[1]:.2f},{after[2]:.2f}")
    nproc = env["nproc"] or 1
    if max(before[0], after[0]) > nproc:
        print(f"FLAG loaded box: 1-minute load above nproc={nproc}; do not compare these numbers")
    if run.golden_env and {k: env[k] for k in run.golden_env} != run.golden_env:
        print(f"FLAG machine differs from the golden reference {run.golden_env}; do not compare these numbers")


def record_golden(work: Path) -> None:
    golden = {"environment": environment(), "digests": {}}
    for seed in GOLDEN_SEEDS:
        for name, workload in WORKLOADS.items():
            run = Run(workload, seed, work, use_golden=False)
            run.one_pass(0)
            golden["digests"].setdefault(str(seed), {})[name] = run.reference
            print(f"golden {name} seed={seed}: {'FAILED' if run.failed else 'ok'}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "crackfill" / "__init__.py").is_file():
        print(f"perfbench: no crackfill sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import crackfill  # noqa: F401  (warms the page cache before set-up is timed)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.record_golden:
            record_golden(work)
            return 0
        workload = WORKLOADS[args.workload]
        run = Run(workload, args.seed, work)
        print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"why: {workload.why}")
        before = os.getloadavg()
        if args.trace:
            metrics, notes = run_traced(run, args.seconds)
            wanted = spec["per_layer"]
        else:
            metrics, notes = run_untraced(run, args.seconds)
            wanted = spec["end_to_end"]
        after = os.getloadavg()
        print_environment(run, before, after)
        units = {**UNITS, **{m["name"]: m["unit"] for m in wanted}}
        for name, value in metrics.items():
            note = f" ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {value:.6g} {units[name]}{note}")
        for name, note in notes.items():
            if name not in metrics:
                print(f"note {name}: {note}")
        if args.trace and not workload.pool and metrics["trace.coverage"] < 0.95:
            print("FLAG trace.coverage below 0.95: top-level spans miss part of the pass")
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"perfbench: no pass succeeded, so {', '.join(missing)} cannot be reported", file=sys.stderr)
            return 1
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
