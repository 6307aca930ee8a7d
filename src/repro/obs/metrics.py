"""The unified metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric family a process (or a
daemon) wants to expose.  Families are created idempotently —
``registry.counter("repro_spans_total", ...)`` returns the existing
family on the second call — so instrumentation sites never need
coordination.  Each family fans out into label-addressed children
(``family.labels(name="checksafe").inc()``); a family used without
labels is its own single child.

Histograms use **fixed log-scale buckets** (powers of two from 1 ms to
~131 s by default): latency distributions in this codebase span five
orders of magnitude between a memoized cache hit and a cold crypto
benchmark, so linear buckets would waste all their resolution on one
end.  Buckets are cumulative at exposition time (Prometheus semantics,
:mod:`repro.obs.exporters`), but stored per-interval here.

Sources that already count things — :class:`repro.perf.runtime.
PerfStats`, the daemon's ``ServiceStats``, the job queue — are unified
through **collectors**: a registered zero-argument callable returning
ready-made :class:`Family` values at snapshot time.  This is how the
pre-existing stats objects were migrated onto the registry without
adding a second increment to any hot path: the registry *pulls* their
totals when scraped, and one ``collect()`` returns everything —
native families and collected ones — in a single snapshot.

Thread safety: one lock per registry covers every child mutation and
snapshot.  No metric here sits on the abstract-interpretation hot loop,
so a plain lock is cheap enough.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

KINDS = ("counter", "gauge", "histogram")

# Log-scale latency buckets: 1ms * 2^i, i in [0, 17] -> 0.001 .. 131.072s.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(0.001 * (2 ** i) for i in range(18))

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Dict[str, str]) -> LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            "labels %s do not match declared label names %s"
            % (sorted(labels), sorted(labelnames))
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class Child:
    """One label-addressed time series of a family."""

    def __init__(self, family: "Family", key: LabelKey):
        self._family = family
        self._lock = family._lock
        self.key = key
        self.value = 0.0
        # Histogram state (unused for counter/gauge):
        self.bucket_counts: Optional[List[int]] = None
        self.sum = 0.0
        self.count = 0
        # Observed extremes: quantile estimates are clamped to them.
        self.min = math.inf
        self.max = -math.inf
        if family.kind == "histogram":
            self.bucket_counts = [0] * len(family.buckets)

    # -- counter / gauge ---------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        if self._family.kind == "counter" and amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._family.kind != "gauge":
            raise ValueError("only gauges can decrease")
        with self._lock:
            self.value -= amount

    def set(self, value: float) -> None:
        if self._family.kind != "gauge":
            raise ValueError("only gauges can be set")
        with self._lock:
            self.value = float(value)

    # -- histogram ---------------------------------------------------------

    def observe(self, value: float) -> None:
        if self._family.kind != "histogram":
            raise ValueError("only histograms observe")
        assert self.bucket_counts is not None
        with self._lock:
            for i, bound in enumerate(self._family.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            # Values beyond the last bound land only in +Inf (count).
            self.sum += value
            self.count += 1
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``0 < q <= 1``) of the observed
        distribution, interpolated linearly inside the log-scale bucket
        the rank falls in — the standard Prometheus ``histogram_quantile``
        estimate, computed locally so the service loadgen can publish
        p50/p99 straight from its latency histograms.

        None before the first observation.  Ranks beyond the last bucket
        bound fall on that bound.  Either way the estimate is clamped to
        the observed ``[min, max]``: interpolating inside a wide bucket
        would otherwise report a p99 above the largest latency seen.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1], got %r" % q)
        assert self.bucket_counts is not None
        with self._lock:
            if self.count == 0:
                return None
            rank = q * self.count
            seen = 0
            bounds = self._family.buckets
            estimate = bounds[-1]  # unless found below: the +Inf overflow
            for i, in_bucket in enumerate(self.bucket_counts):
                if in_bucket == 0:
                    continue
                if seen + in_bucket >= rank:
                    lower = bounds[i - 1] if i > 0 else 0.0
                    upper = bounds[i]
                    fraction = (rank - seen) / in_bucket
                    estimate = lower + (upper - lower) * fraction
                    break
                seen += in_bucket
            return min(max(estimate, self.min), self.max)


class Family:
    """One named metric (a set of label-addressed children)."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        lock: Optional[threading.Lock] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % name)
        if kind not in KINDS:
            raise ValueError("invalid metric kind %r" % kind)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError("invalid label name %r" % label)
        if kind == "histogram":
            bounds = tuple(float(b) for b in buckets)
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise ValueError("histogram buckets must strictly increase")
            self.buckets: Tuple[float, ...] = bounds
        else:
            self.buckets = ()
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock or threading.Lock()
        self._children: Dict[LabelKey, Child] = {}

    def labels(self, **labels: str) -> Child:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Child(self, key)
            return child

    def _default(self) -> Child:
        if self.labelnames:
            raise ValueError(
                "metric %s declares labels %s; use .labels(...)"
                % (self.name, list(self.labelnames))
            )
        return self.labels()

    # Label-free convenience: the family acts as its own child.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def children(self) -> List[Child]:
        with self._lock:
            return list(self._children.values())

    @staticmethod
    def constant(
        name: str,
        kind: str,
        help: str,
        entries: Sequence[Tuple[Dict[str, str], float]],
    ) -> "Family":
        """A ready-made snapshot family (what collectors return):
        ``entries`` is a list of ``(labels, value)`` pairs sharing one
        label-name set."""
        labelnames = sorted(entries[0][0]) if entries else ()
        family = Family(name, kind, help, labelnames=labelnames)
        for labels, value in entries:
            family.labels(**labels).value = float(value)
        return family


class MetricsRegistry:
    """A process- or daemon-scoped set of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}
        self._collectors: List[Callable[[], List[Family]]] = []

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        "metric %s already registered as %s, not %s"
                        % (name, existing.kind, kind)
                    )
                return existing
            family = Family(name, kind, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        return self._family(name, "histogram", help, labelnames, buckets)

    def register_collector(self, collector: Callable[[], List[Family]]) -> None:
        """Attach a pull-time source (see the module docstring)."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> List[Family]:
        """Every family — native ones plus collector output — sorted by
        name.  Collector families shadow native ones on a name clash
        (the collector is the authoritative source for what it counts).
        """
        with self._lock:
            families = dict(self._families)
            collectors = list(self._collectors)
        for collector in collectors:
            for family in collector():
                families[family.name] = family
        return [families[name] for name in sorted(families)]

    def clear(self) -> None:
        """Drop every family and collector (tests)."""
        with self._lock:
            self._families.clear()
            self._collectors.clear()


# The process-wide default registry: span metrics and anything not owned
# by a longer-lived object (the daemon composes its own registry with
# this one).
REGISTRY = MetricsRegistry()
