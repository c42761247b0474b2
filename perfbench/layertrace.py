"""Per-layer tracing of the confocal library, installed from outside it.

``installed(tracer)`` replaces the entry points of each library layer
(``SPANS``) and the per-node hot functions (``HOT``) with wrappers, in every
confocal namespace that holds a reference to them (``backlund.rk4_step``,
``permute.riccati_field_residual``, ...), and restores the originals on
exit.  Names a module reads at call
time, such as ``lattice_build``'s local import of ``integrate_backlund``,
resolve to the wrapper because the source module attribute is patched too.

Entry points record a span: name, start, end, parent span and run id.  The
hot functions only count calls, and ``sjcore.random_orthogonal`` also adds its duration to a per-name total; that
time is taken out of the enclosing span's self time.  Spans stay in memory
until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# the entry points of each layer that get a span; everything they call that
# is not listed here counts toward their self time
SPANS = {
    "deform": ("zero_soliton", "seed_frame", "forms_assemble", "system_residual",
               "frame_checks", "peterson_admissible"),
    "backlund": ("integrate_backlund", "integrate_backlund_qc_line",
                 "algebraic_transform_qwc", "algebraic_transform_qc",
                 "qwc_transform_residuals", "qc_transform_residuals",
                 "involution_residual", "leaf_system_residual", "leaf_embed",
                 "ruling_facet_check", "riccati_field_residual",
                 "asymptotic_directions"),
    "permute": ("bpt_compose_field", "bpt_verify", "m3_r7_field", "lattice_build",
                "bpt_orthogonality_identity", "bpt_scalar_identity"),
    "quadric": ("elliptic_coordinates", "intersect_confocal"),
    "scenarios": ("ivory_suite", "lame_suite", "sine_gordon_suite",
                  "random_state_batch", "soliton_pipeline", "backlund_pipeline"),
    "numerics": ("diff1",),
    "gridio": ("save_fieldgrid", "save_lattice", "save_residual_csv"),
    "cli": ("run_scenario",),
}
# called per node or per sample: counted, no span
HOT = {"backlund.riccati_rhs_qwc", "numerics.rk4_step", "permute.bpt_compose",
       "quadric.eval_confocal"}
HOT_TIMED = {"sjcore.random_orthogonal"}
ALIASES = {"backlund.algebraic_transform_qwc": "backlund.algebraic_transform",
           "backlund.algebraic_transform_qc": "backlund.algebraic_transform"}


def _nodes(fg) -> int:
    return math.prod(fg.grid.shape)


def _integrate_backlund(a, _r):
    kind = "trivial" if a["fg"].meta.get("soliton") == "zero" else "general"
    return {"name": f"backlund.integrate_backlund.{kind}",
            "node_steps": 2 * (_nodes(a["fg"]) - 1)}


# work done by one call, from its bound arguments and its result; a "name"
# entry renames the span.  A node-step is one RK4 step of one node in one
# sweep order.
WORK = {
    "deform.zero_soliton": lambda a, r: {
        "node_steps": 2 * (math.prod(a["grid"].shape) - 1)},
    "deform.seed_frame": lambda a, r: {"node_steps": _nodes(a["fg"]) - 1},
    "deform.forms_assemble": lambda a, r: {"nodes": _nodes(a["fg"])},
    "backlund.integrate_backlund": _integrate_backlund,
    "backlund.algebraic_transform_qwc": lambda a, r: {
        "nodes": math.prod(a["V0"].shape[:-1])},
    "backlund.algebraic_transform_qc": lambda a, r: {
        "nodes": math.prod(a["V0"].shape[:-1])},
    "backlund.leaf_embed": lambda a, r: {"nodes": _nodes(a["fg0"])},
    "permute.bpt_compose_field": lambda a, r: {
        "nodes": math.prod(a["R0"].shape[:-2])},
    "permute.bpt_verify": lambda a, r: {"nodes": _nodes(a["fg_seed"])},
    "permute.lattice_build": lambda a, r: {"holes": len(r[1])},
    "quadric.intersect_confocal": lambda a, r: {"useful": int(r is not None)},
    "scenarios.ivory_suite": lambda a, r: {"samples": r["samples"]},
    "scenarios.lame_suite": lambda a, r: {
        "useful": r["samples"], "attempts": r["samples"] + r["skipped"]},
    "scenarios.random_state_batch": lambda a, r: {"states": a["count"]},
}


class Tracer:
    """Span and counter store for one traced pass (single-threaded)."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent, run_id, work]
        self.hidden = defaultdict(float)  # span index -> timed-counter seconds
        self.counts = Counter()
        self.timed = defaultdict(float)
        self.run_id = None
        self._stack = []

    def wrap(self, name, fn):
        if name in HOT:
            return self._counter(name, fn)
        if name in HOT_TIMED:
            return self._timed_counter(name, fn)
        return self._span(ALIASES.get(name, name), fn, WORK.get(name))

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.counts[name] += 1
                self.timed[name] += dt
                if self._stack:
                    self.hidden[self._stack[-1]] += dt
        return wrapper

    def _span(self, name, fn, work):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                      self.run_id, None]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if work:
                done = work(sig.bind(*args, **kwargs).arguments, result)
                record[0] = done.pop("name", name)
                record[5] = done
            return result
        return wrapper

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id, "work": work}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch the library with the tracer's wrappers for the duration."""
    package = sys.modules["confocal"]
    namespaces = [m for k, m in sorted(sys.modules.items())
                  if k.startswith("confocal.") and m is not None]
    targets = [name for layer, attrs in SPANS.items()
               for name in (f"{layer}.{a}" for a in attrs)]
    patches = []
    try:
        for name in targets + sorted(HOT | HOT_TIMED):
            layer, attr = name.split(".")
            fn = getattr(getattr(package, layer), attr)
            wrapper = tracer.wrap(name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        patches.append((ns, key, fn))
                        setattr(ns, key, wrapper)
        yield tracer
    finally:
        for ns, key, fn in reversed(patches):
            setattr(ns, key, fn)


# ---------------------------------------------------------------------------
# derived numbers
# ---------------------------------------------------------------------------

def union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, hidden=None) -> list:
    """Each span's duration minus the part of it its child spans cover, and
    minus the timed-counter seconds recorded directly under it."""
    hidden = hidden or {}
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [end - start - union_length(children[i], start, end) - hidden.get(i, 0.0)
            for i, (_n, start, end, *_rest) in enumerate(spans)]


def aggregate(tracer: Tracer) -> dict:
    """name -> {"calls", "busy_s", work keys...} over spans and counters."""
    out = defaultdict(lambda: defaultdict(int))
    for span, busy in zip(tracer.spans, self_times(tracer.spans, tracer.hidden)):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["busy_s"] += busy
        for key, amount in (span[5] or {}).items():
            entry[key] += amount
    for name, calls in tracer.counts.items():
        out[name]["calls"] += calls
        if name in tracer.timed:
            out[name]["busy_s"] += tracer.timed[name]
    return out


def span_coverage(tracer: Tracer, wall_s: float) -> float:
    """Share of the pass wall time covered by library (non-cli) spans."""
    covered = union_length((s[1], s[2]) for s in tracer.spans
                           if not s[0].startswith("cli."))
    return covered / wall_s
