"""Spans around calls into difam's modules, recorded from the benchmark side.

A traced child process installs wrappers on the module attributes that
callers look up at call time (the home module and every difam module that
imported the name), so both the benchmark's own calls and the library's
internal calls through those names are recorded.  Nothing under `src/` is
edited; an untraced child installs nothing.

A span is [name, start, end, parent index, attrs, error].  Spans stay in
memory until the child ends.  A span's layer is the prefix of its name
before the first dot; names outside the difam layers (the benchmark's own
steps and set-up) belong to the `harness` layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("designs", "io", "cli", "lifting", "families", "diffs", "gf", "catalog")
CLI_COMMANDS = ("catalog", "verify", "develop", "lift", "anomaly")
VERIFY_SPANS = (
    "families.verify_rdf",
    "families.verify_sdf",
    "designs.verify_design",
    "designs.verify_super_regular",
)


def _design_size(args, result):
    design = args[0]
    return {"v": design.v, "b": design.b}


# span name -> (home module, attribute, attrs hook); see install()
TARGETS = (
    ("gf.cyclotomic_class", "difam.gf", "cyclotomic_class", None),
    ("diffs.delta_family", "difam.diffs", "delta_family", None),
    ("diffs.coverage", "difam.diffs", "coverage", None),
    ("families.verify_rdf", "difam.families", "verify_rdf", None),
    ("families.verify_sdf", "difam.families", "verify_sdf", None),
    ("lifting.build_psi", "difam.lifting", "build_psi", None),
    ("lifting.greedy_lift", "difam.lifting", "greedy_lift", None),
    ("lifting.apply_multipliers", "difam.lifting", "apply_multipliers", None),
    ("lifting.extend_field", "difam.lifting", "extend_field", None),
    ("lifting.simple_lift", "difam.lifting", "simple_lift", None),
    ("designs.develop", "difam.designs", "develop", None),
    ("designs.verify_design", "difam.designs", "verify_design", _design_size),
    ("designs.verify_super_regular", "difam.designs", "verify_super_regular", None),
    ("designs.anomaly_witness", "difam.designs", "anomaly_witness", None),
    ("designs.closure", "difam.designs", "closure", None),
    ("designs.ag_design", "difam.designs", "ag_design", None),
    ("designs.subspace_replace", "difam.designs", "subspace_replace", None),
    ("io.render_family", "difam.io", "render_family", lambda a, r: {"bytes": len(r)}),
    ("io.parse_family", "difam.io", "parse_family", lambda a, r: {"bytes": len(a[0])}),
)

# functions whose tracemalloc peak the memory repetition records
PEAK_TARGETS = ("develop", "verify_design", "verify_super_regular", "anomaly_witness")


class NullTracer:
    """The untraced run's tracer: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.monotonic(), 0.0, parent, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[4] = attrs(args, result)
            return result

        return traced


def _difam_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("difam.")]


def _rebind(original, replacement, attr: str) -> None:
    """Point every difam module global bound to `original` at `replacement`."""
    for module in _difam_modules():
        if module.__dict__.get(attr) is original:
            setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; difam.cli must already be imported."""
    for name, home, attr, attrs in TARGETS:
        original = getattr(sys.modules[home], attr)
        _rebind(original, tracer.wrap(name, original, attrs), attr)
    field_cls = sys.modules["difam.gf"].FiniteField
    field_cls.__init__ = tracer.wrap("gf.field_build", field_cls.__init__)
    catalog = sys.modules["difam.catalog"]
    for key, fixture in list(catalog.FIXTURES.items()):
        wrapped = tracer.wrap("catalog.fixture", fixture)
        catalog.FIXTURES[key] = wrapped
        _rebind(fixture, wrapped, fixture.__name__)


def install_peaks(peaks: dict) -> None:
    """Record, per call, the tracemalloc peak of the PEAK_TARGETS functions.

    Tracing starts at the call and stops at its return, so the peak counts
    only what the call allocated.  tracemalloc slows the closure loop about
    tenfold, so an anomaly scan stops tracing at its first closure: by then
    the pair table and the block index, which set the peak, are allocated,
    and each closure adds only a transient point set.
    """
    designs = sys.modules["difam.designs"]

    def peak_of(name, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested in another measured call
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracemalloc.is_tracing():
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                else:
                    peak = peaks.pop("_closure_cut")
                key = f"designs.{name}_peak_mb"
                peaks[key] = max(peaks.get(key, 0.0), peak / 2**20)

        return measured

    closure = designs.closure

    @functools.wraps(closure)
    def cut_at_closure(*args, **kwargs):
        if tracemalloc.is_tracing():
            peaks["_closure_cut"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return closure(*args, **kwargs)

    for name in PEAK_TARGETS:
        original = getattr(designs, name)
        _rebind(original, peak_of(name, original), name)
    _rebind(closure, cut_at_closure, "closure")


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else "harness"


def layer_metrics(spans: list[list], wall_s: float, steps_from: float, counts: dict) -> dict:
    """Per-layer numbers of one traced repetition.

    `steps_from` is when the timed job began: top-level spans that start
    there are the job's steps, and their durations should sum to `wall_s`.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    child_time = [0.0] * len(spans)
    for rec in spans:
        name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    for rec, covered in zip(spans, child_time):
        self_s[layer_of(rec[0])] += rec[2] - rec[1] - covered

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + ("harness",)}
    for name, _home, _attr, _attrs in TARGETS:
        m[f"{name}_s"] = total[name]
    m["gf.field_build_s"] = total["gf.field_build"]
    m["catalog.fixture_s"] = total["catalog.fixture"]
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]

    m["io.render_calls"] = calls["io.render_family"]
    m["io.parse_calls"] = calls["io.parse_family"]
    m["io.bytes"] = sum(r[4]["bytes"] for r in spans if r[0].startswith("io.") and r[4])
    m["families.verify_calls"] = calls["families.verify_rdf"] + calls["families.verify_sdf"]

    sizes = [r[4] for r in spans if r[0] == "designs.verify_design"]
    m["designs.v"] = max((s["v"] for s in sizes), default=0)
    m["designs.b"] = max((s["b"] for s in sizes), default=0)
    m["designs.closures"] = calls["designs.closure"]
    m["designs.closures_per_s"] = _rate(calls["designs.closure"], total["designs.closure"])

    lifts = [r for r in spans if r[0] == "lifting.greedy_lift"]
    failed_lift_s = sum(r[2] - r[1] for r in lifts if r[5] is not None)
    m["lifting.nodes"] = counts.get("lifting.nodes", 0)
    m["lifting.seeds_tried"] = len(lifts)
    m["lifting.seed_yield"] = _rate(sum(1 for r in lifts if r[5] is None), len(lifts))
    m["lifting.nodes_per_s"] = _rate(m["lifting.nodes"], failed_lift_s)

    # verify_* calls per CLI command, counting calls nested at any depth
    in_cli = [False] * len(spans)
    commands = passes = 0
    for i, rec in enumerate(spans):
        parent = rec[3]
        in_cli[i] = rec[0].startswith("cli.") or (parent >= 0 and in_cli[parent])
        commands += rec[0].startswith("cli.")
        passes += rec[0] in VERIFY_SPANS and in_cli[i]
    m["cli.verify_passes"] = _rate(passes, commands)

    top = sum(r[2] - r[1] for r in spans if r[3] < 0 and r[1] >= steps_from)
    m["trace.top_level_share"] = _rate(top, wall_s)
    return m


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(path, run_id: str, spans: list[list], origin: float) -> None:
    """Append one JSON line per span; times in seconds from `origin`."""
    with open(path, "a") as fh:
        for i, (name, start, end, parent, attrs, error) in enumerate(spans):
            row = {
                "run": run_id,
                "id": i,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent if parent >= 0 else None,
            }
            if attrs:
                row["attrs"] = attrs
            if error:
                row["error"] = error
            fh.write(json.dumps(row) + "\n")
