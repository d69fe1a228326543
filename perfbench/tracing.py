"""In-memory span tracer that wraps crackfill's public functions from outside.

Nothing in ``crackfill`` knows about this module. ``install`` replaces
each traced function in every ``crackfill`` module that holds a reference
to it, which is where its callers look it up (``deposit`` is reached as
both ``crackfill.repair.deposit`` and ``crackfill.cli.deposit``,
``render_truth_mask`` through ``crackfill.perception``). ``uninstall``
puts the originals back.

A span is ``(id, name, start, end, parent, proc)``: ``parent`` is the id
of the enclosing span or ``None``, ``proc`` is 0 for the benchmark
process and k >= 1 for the k-th pool job. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("config", "specimen", "sensors", "perception", "profile", "repair", "io", "cli")
ROOT = "cli.main"  # the root span the driver records around each CLI call
IO_WRITE = "io.write"
POOL = "cli.pool"


class Tracer:
    """Collects spans and counters of one process in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.open_spans: dict[int, tuple[str, float, int | None]] = {}
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._next_id = 0

    def begin(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.open_spans[sid] = (name, time.perf_counter(), parent)
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        t = time.perf_counter()
        name, start, parent = self.open_spans.pop(sid)
        self.spans.append((sid, name, start, t, parent, 0))
        while self.stack and self.stack.pop() != sid:
            pass

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.open_spans[self.stack[-1]][0] == name

    def merge(self, spans: list[tuple], counts: Counter, proc: int) -> None:
        """Adopt spans recorded by pool job ``proc``, renumbered after ours.

        Their top-level spans keep no parent: the jobs run concurrently
        with the ``cli.pool`` span that waits for them, so they are not
        its children for self time.
        """
        offset = self._next_id
        for sid, name, start, end, par, _ in spans:
            self.spans.append((sid + offset, name, start, end, par + offset if par is not None else None, proc))
        self._next_id += max((s[0] for s in spans), default=-1) + 1
        self.counts.update(counts)


# -- wrappers ------------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _after_deposit(tracer, fn, args, kwargs, result):
    tracer.counts["specimen.deposit.volume_deposited"] += result.volume_deposited_mm3
    tracer.counts["specimen.deposit.volume_target"] += result.volume_target_mm3


def _after_skeletonize(tracer, fn, args, kwargs, result):
    mask = _bound(fn, args, kwargs)["mask"]
    flags = getattr(mask, "flags", mask)
    tracer.counts["perception.skeletonize.mask_px"] += int(flags.sum())
    tracer.counts["perception.skeletonize.image_px"] += int(flags.size)


def _after_execute(tracer, fn, args, kwargs, result):
    tracer.counts["repair.execute_fill.segments"] += len(result.segments)


def _after_refine(tracer, fn, args, kwargs, result):
    tracer.counts["repair.refine_waypoints.stations"] += len(result.stations)
    tracer.counts["repair.refine_waypoints.dropped"] += result.dropped


def _after_plan(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    model = bound.get("model")
    if bound["mode"].kind != "adaptive" or model is None:
        return
    tracer.counts["repair.plan_fill.clamped"] += sum(
        1 for wp in result.waypoints if wp.speed_mm_s <= model.v_min or wp.speed_mm_s >= model.v_max
    )


def _after_validate(tracer, fn, args, kwargs, result):
    tracer.counts["repair.validate.excluded"] += sum(1 for r in result.records if not r.included)


# span name -> (defining module, attribute, hook run on the result)
FUNCTIONS = {
    "specimen.generate_specimen": ("crackfill.specimen", "generate_specimen", None),
    "specimen.deposit": ("crackfill.specimen", "deposit", _after_deposit),
    "sensors.render_depth": ("crackfill.sensors", "render_depth", None),
    "sensors.render_truth_mask": ("crackfill.sensors", "render_truth_mask", None),
    "sensors.scan_profile": ("crackfill.sensors", "scan_profile", None),
    "perception.skeletonize": ("crackfill.perception", "skeletonize", _after_skeletonize),
    "perception.extract_pixels": ("crackfill.perception", "extract_pixels", None),
    "perception.order_path": ("crackfill.perception", "order_path", None),
    "profile.measure": ("crackfill.profile", "measure", None),
    "profile.calibrate": ("crackfill.profile", "calibrate", None),
    "repair.perceive": ("crackfill.repair", "perceive", None),
    "repair.refine_waypoints": ("crackfill.repair", "refine_waypoints", _after_refine),
    "repair.plan_fill": ("crackfill.repair", "plan_fill", _after_plan),
    "repair.execute_fill": ("crackfill.repair", "execute_fill", _after_execute),
    "repair.validate": ("crackfill.repair", "validate", _after_validate),
    "repair.run_fill": ("crackfill.repair", "run_fill", None),
    "repair.localization_experiment": ("crackfill.repair", "localization_experiment", None),
}
CONFIG_LOAD = "config.load"  # ScenarioConfig.from_file and .from_dict, patched on the class
# io entry points the CLI calls; files opened elsewhere are caught by ``open``
IO_WRITERS = ("write_heightfield_pgm", "write_depth_pgm", "write_mask_pgm", "write_json")
# modules whose own ``open`` calls write artifacts
OPENERS = ("crackfill.cli", "crackfill.io", "crackfill.repair")
TRACED = (*FUNCTIONS, CONFIG_LOAD, IO_WRITE)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    from crackfill.errors import NoEdges

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except NoEdges:
            tracer.counts[name + ".no_edges"] += 1
            raise
        finally:
            tracer.end(sid)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result

    return traced


class _TracedFile:
    """File proxy that closes its ``io.write`` span and counts bytes on close."""

    def __init__(self, f, tracer: Tracer, sid: int | None) -> None:
        self._f, self._tracer, self._sid = f, tracer, sid
        self.write = f.write

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._f.closed:
            return
        self._f.close()
        self._tracer.counts["io.write.bytes"] += os.path.getsize(self._f.name)
        if self._sid is not None:
            self._tracer.end(self._sid)

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def _traced_open(tracer: Tracer):
    def open_(file, mode="r", *args, **kwargs):
        if not any(c in mode for c in "wax"):
            return builtins.open(file, mode, *args, **kwargs)
        sid = None if tracer.inside(IO_WRITE) else tracer.begin(IO_WRITE)
        return _TracedFile(builtins.open(file, mode, *args, **kwargs), tracer, sid)

    return open_


# Set by ``install``: forked pool workers inherit the wrappers, which are bound to this
# tracer, so a job resets it and ships what it recorded back to the parent.
_installed: Tracer | None = None


def _pool_job(payload):
    fn, args = payload
    tracer = _installed
    if tracer is None:  # a spawned worker imports crackfill unwrapped
        return fn(*args), [], Counter()
    tracer.reset()
    result = fn(*args)
    return result, tracer.spans, tracer.counts


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        """Pool whose jobs bring their spans back; waiting on it is a ``cli.pool`` span."""

        def map(self, fn, *iterables, **kwargs):
            sid = tracer.begin(POOL)
            try:
                out = list(super().map(_pool_job, [(fn, args) for args in zip(*iterables)], **kwargs))
            finally:
                tracer.end(sid)
            for k, (_, spans, counts) in enumerate(out, start=1):
                tracer.merge(spans, counts, k)
            return iter([result for result, _, _ in out])

        def __exit__(self, *exc):
            sid = tracer.begin(POOL)
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(sid)

    return TracedPool


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function wherever a crackfill module refers to it.

    Returns the undo list for ``uninstall``.
    """
    global _installed
    from crackfill import cli, io
    from crackfill.config import ScenarioConfig

    undo: list[tuple] = []
    modules = [m for n, m in list(sys.modules.items()) if n == "crackfill" or n.startswith("crackfill.")]

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
        setattr(owner, attr, new)

    def patch_refs(original, new):
        for m in modules:
            for attr in [a for a, v in vars(m).items() if v is original]:
                patch(m, attr, new)

    for name, (modname, attr, after) in FUNCTIONS.items():
        original = getattr(sys.modules[modname], attr)
        patch_refs(original, _wrap(tracer, name, original, after))
    for attr in IO_WRITERS:
        original = getattr(io, attr)
        patch_refs(original, _wrap(tracer, IO_WRITE, original))
    for attr in ("from_file", "from_dict"):
        patch(ScenarioConfig, attr, staticmethod(_wrap(tracer, CONFIG_LOAD, getattr(ScenarioConfig, attr))))
    opener = _traced_open(tracer)
    for modname in OPENERS:
        patch(sys.modules[modname], "open", opener)
    patch_refs(cli.ProcessPoolExecutor, _traced_pool(tracer, cli.ProcessPoolExecutor))
    _installed = tracer
    return undo


def uninstall(undo: list[tuple]) -> None:
    global _installed
    for owner, attr, old, had in reversed(undo):
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)
    _installed = None


# -- per-pass layer metrics ------------------------------------------------------------

CALIBRATION_SPANS = ("specimen.deposit", "sensors.scan_profile", "profile.calibrate")
COUNTERS = (
    "profile.measure.no_edges",
    "repair.execute_fill.segments",
    "repair.refine_waypoints.stations",
    "repair.refine_waypoints.dropped",
    "repair.plan_fill.clamped",
    "repair.validate.excluded",
    "io.write.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Reduce one traced pass to per-layer metrics.

    Module and function times are self times. Per-function times are
    given as shares of the pass wall time so that a function a workload
    never calls reads 0 rather than a fixed 0 s; on ``sweep_p2`` the
    shares of pool jobs add up across workers and can exceed 1.
    """
    spans = tracer.spans
    children = defaultdict(float)
    for sid, name, start, end, parent, proc in spans:
        if parent is not None:
            children[parent] += end - start
    root = next(s[0] for s in spans if s[1] == ROOT and s[5] == 0)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    module_s: defaultdict = defaultdict(float)
    top_level = calibration = 0.0
    for sid, name, start, end, parent, proc in spans:
        own = end - start - children[sid]
        calls[name] += 1
        self_s[name] += own
        module_s[name.split(".")[0]] += own
        if parent == root and proc == 0:
            top_level += end - start
            if name in CALIBRATION_SPANS:
                calibration += end - start
    out: dict[str, float] = {f"{m}.self_s": module_s[m] for m in MODULES}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_share"] = self_s[name] / wall_s
    c = tracer.counts
    out["specimen.deposit.volume_ratio"] = _ratio(c["specimen.deposit.volume_deposited"], c["specimen.deposit.volume_target"])
    out["perception.skeletonize.mask_frac"] = _ratio(c["perception.skeletonize.mask_px"], c["perception.skeletonize.image_px"])
    for name in COUNTERS:
        out[name] = c[name]
    out["cli.calibration_share"] = calibration / wall_s
    out["cli.pool.wait_share"] = self_s[POOL] / wall_s
    out["trace.coverage"] = top_level / wall_s
    return out


def write_spans(path, passes: list[tuple[int, Tracer]], t0: float) -> None:
    """Write every recorded span, sorted by pass, process and start time."""
    rows = [
        {"pass": k, "proc": proc, "id": sid, "parent": parent, "name": name,
         "start_s": start - t0, "end_s": end - t0}
        for k, tracer in passes
        for sid, name, start, end, parent, proc in tracer.spans
    ]
    rows.sort(key=lambda r: (r["pass"], r["proc"], r["start_s"], r["id"]))
    with builtins.open(path, "w") as f:
        json.dump(rows, f, indent=0)
        f.write("\n")
