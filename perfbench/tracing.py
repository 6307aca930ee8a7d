"""Spans recorded from outside the analyser, for the traced run.

:func:`install` replaces a fixed set of public entry points of
``repro`` (functions in every module that imported them, and methods on
their classes) with thin wrappers.  Each wrapper records one span —
name, start, end, parent span — in the process's :class:`Recorder`,
which keeps them in memory until the process hands them back.  Nothing
inside ``src/`` is edited; the untraced run never calls :func:`install`.

The program's own ``repro.obs`` spans are switched on here too, but only
counted (``blazer.round``, ``checksafe``, ``checkattack``): the
collector's export path is replaced by a counter.

:func:`summarize` turns a list of spans into the per-layer metrics of
``BENCHMARK.json``: a layer's self time is its spans' durations minus
the time their direct child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, layer, module, qualified attribute).  A span's self time
# is charged to its layer.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("lang.parse", "lang", "repro.lang.parser", "parse_program"),
    ("lang.check", "lang", "repro.lang.typecheck", "check_program"),
    ("bytecode.compile", "bytecode", "repro.bytecode.compile", "compile_program"),
    ("ir.lift", "ir", "repro.ir.lift", "lift_module"),
    ("taint.analyze", "taint", "repro.taint.analysis", "analyze_taint"),
    ("trails.split", "trails", "repro.trails.refine", "split_trail"),
    ("automata.intersect", "automata", "repro.automata.dfa", "DFA.intersect"),
    ("automata.union", "automata", "repro.automata.dfa", "DFA.union"),
    ("automata.difference", "automata", "repro.automata.dfa", "DFA.difference"),
    ("automata.includes", "automata", "repro.automata.dfa", "DFA.includes"),
    ("automata.complement", "automata", "repro.automata.dfa", "DFA.complement"),
    ("automata.minimized", "automata", "repro.automata.dfa", "DFA.minimized"),
    ("automata.to_regex", "automata", "repro.automata.elim", "dfa_to_regex"),
    ("automata.to_dfa", "automata", "repro.automata.elim", "regex_to_dfa"),
    ("core.analyze", "core", "repro.core.blazer", "Blazer.analyze"),
    ("absint.analyze", "absint", "repro.absint.engine", "Engine.analyze"),
    ("bounds.compute", "bounds", "repro.bounds.analysis", "BoundAnalysis.compute"),
    ("bounds.proc", "bounds", "repro.bounds.interproc", "compute_proc_bounds"),
    ("domains.fw_close", "domains", "repro.domains.dbm", "fw_close_rows"),
    ("domains.tighten", "domains", "repro.domains.dbm", "tighten_rows"),
    ("domains.octagon_close", "domains", "repro.domains.dbm", "octagon_close_rows"),
    ("pdsc.verify", "pdsc", "repro.pdsc.checker", "PDSC.verify"),
    ("leakage.quantify", "leakage", "repro.leakage.analysis", "leakage_from_verdict"),
    ("leakage.consttime", "leakage", "repro.leakage.consttime", "check_constant_time"),
)

LAYER_OF = {name: layer for name, layer, _, _ in TARGETS}

# The memo categories BlazerVerdict.cache_stats can report.
PERF_CATEGORIES = (
    "bound",
    "bound.disk",
    "bound.shared",
    "bounds.iterbound",
    "bounds.proc",
    "bounds.transition",
    "bounds.unrestricted",
    "cfg_meta",
    "refine.lineage",
    "refine.reuse",
    "refine.split",
    "trail.regex",
    "transfer",
    "zone.close",
)

# repro.obs span names counted in the traced run → counter name.
OBS_COUNTED = {"blazer.round": "core.rounds", "checksafe": "core.checksafe"}
OBS_TIMED = {"checkattack": "core.attack_s"}

Span = Tuple[int, int, str, float, float]  # (id, parent id or 0, name, start, end)


class Recorder:
    """In-memory span store plus result counters for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.lock = threading.Lock()  # the daemon counts from several threads
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, ids, stack_of, counts, lock = self.spans, self._ids, self._stack, self.counts, self.lock

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = os.getpid() << 32 | next(ids)  # unique across forked children
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                with lock:
                    observe(counts, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def drain(self) -> Tuple[List[Span], Dict[str, float]]:
        """Hand over (and forget) everything recorded so far."""
        with self.lock:
            spans, counts = list(self.spans), dict(self.counts)
            del self.spans[:]
            self.counts.clear()
        return spans, counts


# -- result observers (counts taken from what an entry point returns) -------


def _count_instrs(counts: Counter, module) -> None:
    counts["bytecode.instrs"] += sum(len(code.instrs) for code in module.codes.values())


def _count_blocks(counts: Counter, cfgs) -> None:
    counts["cfg.blocks"] += sum(cfg.size for cfg in cfgs.values())


def _count_call(key: str) -> Callable:
    def observe(counts: Counter, _result) -> None:
        counts[key] += 1

    return observe


def _count_verdict(counts: Counter, verdict) -> None:
    counts["core.leaves"] += len(verdict.tree.leaves())
    for category, (hits, misses) in verdict.cache_stats.items():
        counts["perf.%s.hits" % category] += hits
        counts["perf.%s.misses" % category] += misses


def _count_pdsc(counts: Counter, result) -> None:
    counts["pdsc.refinements"] += result.refinements
    counts["pdsc.%s" % result.outcome] += 1


OBSERVERS = {
    "bytecode.compile": _count_instrs,
    "ir.lift": _count_blocks,
    "taint.analyze": _count_call("taint.calls"),
    "trails.split": _count_call("trails.splits"),
    "core.analyze": _count_verdict,
    "absint.analyze": _count_call("absint.analyses"),
    "bounds.compute": _count_call("bounds.computes"),
    "domains.fw_close": _count_call("domains.closures"),
    "domains.tighten": _count_call("domains.closures"),
    "domains.octagon_close": _count_call("domains.closures"),
    "pdsc.verify": _count_pdsc,
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(owner, cls_name), method
    return owner, attr


def install(recorder: Recorder) -> None:
    """Wrap every target in the already-imported ``repro`` modules."""
    for name, _layer, module, attr in TARGETS:
        owner, field = _resolve(module, attr)
        original = owner.__dict__[field]
        wrapper = recorder.wrap(name, original, OBSERVERS.get(name))
        setattr(owner, field, wrapper)
        if isinstance(owner, type):
            continue
        # Rebind every `from module import fn` copy of a plain function.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if other is owner or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(other, key, wrapper)
    _count_obs_spans(recorder)


def _count_obs_spans(recorder: Recorder) -> None:
    """Switch repro.obs spans on, counted into ``recorder`` only."""
    from repro.obs import runtime as obs_runtime
    from repro.obs import trace as obs_trace

    counts, lock = recorder.counts, recorder.lock

    def record(span) -> None:
        counter = OBS_COUNTED.get(span.name)
        timed = OBS_TIMED.get(span.name)
        with lock:
            if counter is not None:
                counts[counter] += 1
            if timed is not None:
                counts[timed] += span.seconds

    obs_trace.COLLECTOR.record = record  # type: ignore[method-assign]
    obs_runtime.set_enabled(True)


# -- reduction to per-layer metrics --------------------------------------------

# Layers reported by self time; the DBM kernels are leaf spans, reported
# as domains.closure_s instead.
LAYERS = ("lang", "bytecode", "ir", "taint", "trails", "automata", "core",
          "absint", "bounds", "pdsc", "leakage")


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer: duration minus direct children's cover."""
    child_cover: Dict[int, float] = defaultdict(float)
    for _span_id, parent, _name, start, end in spans:
        if parent:
            child_cover[parent] += end - start
    per_layer: Dict[str, float] = defaultdict(float)
    for span_id, _parent, name, start, end in spans:
        per_layer[LAYER_OF[name]] += (end - start) - child_cover.get(span_id, 0.0)
    return per_layer


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for _span_id, _parent, name, start, end in spans:
        totals[name] += end - start
    return totals


def summarize(spans: Sequence[Span], counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values for one run's spans and counters."""
    own = self_times(spans)
    total = total_times(spans)
    out: Dict[str, float] = {"%s.self_s" % layer: own.get(layer, 0.0) for layer in LAYERS}
    out["bounds.proc_s"] = total.get("bounds.proc", 0.0)
    out["domains.closure_s"] = sum(
        total.get(n, 0.0) for n in ("domains.fw_close", "domains.tighten", "domains.octagon_close")
    )
    out["leakage.consttime_s"] = total.get("leakage.consttime", 0.0)
    for key in ("bytecode.instrs", "cfg.blocks", "taint.calls", "trails.splits",
                "core.leaves", "core.rounds", "core.checksafe", "core.attack_s",
                "absint.analyses", "bounds.computes", "domains.closures",
                "pdsc.refinements", "pdsc.verified", "pdsc.exhausted", "pdsc.unverified"):
        out[key] = counts.get(key, 0)
    hits = misses = 0
    for category in PERF_CATEGORIES:
        h = counts.get("perf.%s.hits" % category, 0)
        m = counts.get("perf.%s.misses" % category, 0)
        hits, misses = hits + h, misses + m
        out["perf.%s.hit_ratio" % category] = h / (h + m) if h + m else 0.0
    out["perf.hits"], out["perf.misses"] = hits, misses
    return out
