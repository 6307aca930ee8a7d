"""Flat difference-bound-matrix kernels shared by the zone and octagon
domains.

The DBM domains used to run their Floyd–Warshall closures as
triple-nested Python loops over ``Optional`` entries, testing ``is
None`` on every relaxation — profiling showed that loop alone was ~70%
of a serial full-suite run.  These kernels replace the entry-wise inner
loop with row-at-a-time ``map(min, row, candidates)`` over matrices that
encode +∞ as ``float("inf")`` instead of ``None``:

* ``INF`` compares and adds exactly against ``int``/``Fraction`` bounds
  (``Fraction(1, 3) < INF``; ``x + INF == INF``), and a candidate that
  involves +∞ can never win a ``min``, so no finite entry is ever
  contaminated by float arithmetic;
* ``min`` returns its *first* argument on ties, matching the strict
  ``cand < m[i][j]`` update of the reference loop, so existing entries
  (and their int-vs-Fraction representation) survive value ties exactly
  as before;
* within one ``k`` sweep the row ``m[k]`` and column ``m[·][k]`` are
  fixed points of their own relaxation unless the diagonal has already
  gone negative — in which case the matrix is inconsistent (⊥) under
  either evaluation order — so the row-snapshot kernels compute
  *identical* results to the in-place reference loop.

The incremental closure after one tightened bound (``tighten_rows``)
is sparse instead: it relaxes, entry by entry, only the rows and
columns the triangle inequality lets the new bound improve.

``closure_reference`` preserves the original ``None``-encoded triple
loop verbatim; the property tests in ``tests/domains`` use it as the
oracle that the flat kernels agree with the seed semantics entry-wise.

Matrix cache keys are bytes-backed where possible: an all-``int`` DBM
packs into a single ``array('q')`` buffer (``+∞`` becomes a reserved
sentinel; out-of-range values fall back to the string key), which is
what the zone domain's memo tables and the interned-canonical-matrix
table hash.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

INF = float("inf")
NEG_INF = float("-inf")

Rows = List[List[object]]

# array('q') packing: one reserved code for +oo.  Finite entries must
# stay clear of the sentinel, so anything at or beyond ±2^62 (absurd for
# a bound, but possible in principle) refuses the fast key instead of
# risking a collision.
_INF_CODE = (1 << 63) - 1
_KEY_LIMIT = 1 << 62


# -- observability -------------------------------------------------------------

_HISTOGRAM = None
_OBS_ENABLED = None  # late-bound repro.obs.runtime.enabled (import cycle)


def _obs_enabled() -> bool:
    global _OBS_ENABLED
    if _OBS_ENABLED is None:
        from repro.obs import runtime as obs_runtime

        _OBS_ENABLED = obs_runtime.enabled
    return _OBS_ENABLED()


def _observe_closure(kernel: str, seconds: float) -> None:
    """Record one closure-kernel run in the process metrics registry
    (only called when REPRO_OBS is armed; see ``repro metrics``)."""
    global _HISTOGRAM
    if _HISTOGRAM is None:
        from repro.obs.metrics import REGISTRY

        _HISTOGRAM = REGISTRY.histogram(
            "repro_dbm_closure_seconds",
            "Wall time of one DBM closure kernel invocation",
            labelnames=("kernel",),
        )
    _HISTOGRAM.labels(kernel=kernel).observe(seconds)


# -- flat (INF-encoded) kernels ------------------------------------------------


def fw_close_rows(m: Rows, n: int) -> bool:
    """In-place Floyd–Warshall closure of an ``INF``-encoded DBM.

    Returns False when the system is inconsistent (a negative diagonal
    entry appears, i.e. a negative cycle exists); otherwise normalizes
    the diagonal to ``0`` and returns True.  Exactly the shortest-path
    matrix the reference loop computes.
    """
    timed = _obs_enabled()
    start = perf_counter() if timed else 0.0
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            row_i = m[i]
            mik = row_i[k]
            if mik < INF:
                if mik:
                    m[i] = list(map(min, row_i, [mik + v for v in row_k]))
                else:
                    m[i] = list(map(min, row_i, row_k))
    ok = True
    for i in range(n):
        if m[i][i] < 0:
            ok = False
            break
        m[i][i] = 0
    if timed:
        _observe_closure("fw", perf_counter() - start)
    return ok


def tighten_rows(m: Rows, n: int, a: int, b: int, c) -> None:
    """In-place incremental closure of a *closed* ``INF``-encoded DBM
    after tightening one entry to ``v_a - v_b <= c``.

    For a closed matrix the closure of the tightened system is
    ``min(m[i][j], m[i][a] + c + m[b][j])`` — every path either avoids
    the new edge or uses it once.  The caller must have checked
    consistency (``m[b][a] + c >= 0``) and that the update actually
    tightens (``c < m[a][b]``).

    Only a few entries can change, and the triangle inequality of the
    closed matrix says which: ``m[i][a] + c + m[b][j] < m[i][j]``
    implies ``m[i][a] + c < m[i][b]`` (as ``m[i][j] <= m[i][b] +
    m[b][j]``) and ``c + m[b][j] < m[a][j]`` (as ``m[i][j] <= m[i][a] +
    m[a][j]``).  So the sweep relaxes just those rows ``i`` and columns
    ``j``: O(n) to find them plus one step per entry of their product,
    instead of O(n²).  Row ``a`` and column ``b`` are always swept,
    since a caller may have preset ``m[a][b] = c`` (which hides them
    from both tests).  Row ``b`` and column ``a`` never change
    (consistency), so the snapshot ``c + m[b][·]`` stays exact while
    rows are updated in place.  A candidate replaces an entry only when
    strictly smaller, and a zero ``m[i][a]`` reuses the shifted value
    itself, so unchanged entries keep their object and type (an
    integral ``Fraction`` stays one, an ``int`` is never widened).
    """
    timed = _obs_enabled()
    start = perf_counter() if timed else 0.0
    row_a = m[a]
    shifted = [c + v for v in m[b]]
    cols = [j for j in range(n) if j == b or shifted[j] < row_a[j]]
    for i in range(n):
        row_i = m[i]
        mia = row_i[a]
        if i != a and not mia + c < row_i[b]:
            continue
        if mia:
            for j in cols:
                cand = mia + shifted[j]
                if cand < row_i[j]:
                    row_i[j] = cand
        else:
            for j in cols:
                cand = shifted[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    if timed:
        _observe_closure("tighten", perf_counter() - start)


def _half(bound):
    if isinstance(bound, int):
        return bound // 2 if bound % 2 == 0 else Fraction(bound, 2)
    return bound / 2


def octagon_close_rows(m: Rows, n: int) -> bool:
    """In-place strong closure of an ``INF``-encoded octagon DBM:
    alternating shortest-path and strengthening rounds, exactly as the
    reference loop (including its 4-round cap and change detection).

    Returns False on inconsistency, True with a strongly closed matrix
    (diagonal normalized to 0) otherwise.
    """
    timed = _obs_enabled()
    start = perf_counter() if timed else 0.0
    ok = True
    for _ in range(4):
        changed = False
        for k in range(n):
            row_k = m[k]
            for i in range(n):
                row_i = m[i]
                mik = row_i[k]
                if mik < INF:
                    if mik:
                        new_row = list(map(min, row_i, [mik + v for v in row_k]))
                    else:
                        new_row = list(map(min, row_i, row_k))
                    if new_row != row_i:
                        changed = True
                        m[i] = new_row
        # Strengthening with the unary bounds: the column of m[bar(j)][j]
        # entries is a fixed point of this pass, so one snapshot is exact.
        colv = [m[j ^ 1][j] for j in range(n)]
        for i in range(n):
            row_i = m[i]
            uib = row_i[i ^ 1]
            if uib < INF:
                for j in range(n):
                    cj = colv[j]
                    if cj < INF:
                        cand = _half(uib + cj)
                        if cand < row_i[j]:
                            row_i[j] = cand
                            changed = True
        for i in range(n):
            if m[i][i] < 0:
                ok = False
                break
            m[i][i] = 0
        if not ok or not changed:
            break
    if timed:
        _observe_closure("octagon", perf_counter() - start)
    return ok


# -- encoding ------------------------------------------------------------------


def rows_from_opt(matrix: Sequence[Sequence[object]]) -> Rows:
    """``None``-encoded DBM -> ``INF``-encoded copy."""
    return [[INF if v is None else v for v in row] for row in matrix]


def rows_to_opt(m: Rows) -> List[List[object]]:
    """``INF``-encoded DBM -> ``None``-encoded copy."""
    return [[None if v == INF else v for v in row] for row in m]


# -- reference semantics (the seed loop, kept as the oracle) -------------------


def closure_reference(
    matrix: Sequence[Sequence[object]],
) -> Tuple[Optional[List[List[object]]], bool]:
    """The original ``None``-encoded Floyd–Warshall closure.

    Returns ``(closed_matrix, False)`` or ``(None, True)`` when the
    system is empty.  This is the seed implementation, kept verbatim so
    the property tests can check the flat kernels against it.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            mik = m[i][k]
            if mik is None:
                continue
            row_i = m[i]
            for j in range(n):
                mkj = row_k[j]
                if mkj is None:
                    continue
                candidate = mik + mkj
                if row_i[j] is None or candidate < row_i[j]:
                    row_i[j] = candidate
    for i in range(n):
        if m[i][i] is not None and m[i][i] < 0:
            return None, True
        m[i][i] = 0
    return m, False


# -- bytes-backed keys and interning -------------------------------------------


def int_key(m: Rows) -> Optional[bytes]:
    """A compact injective key for an all-int ``INF``-encoded DBM, as
    the raw buffer of an ``array('q')`` — or None when the matrix holds
    a ``Fraction`` (or an implausibly large int that could collide with
    the +∞ sentinel), in which case the caller falls back to a string
    key.

    The hot path is one substituting list comprehension plus the C-level
    ``array('q')`` constructor, which validates int-ness and the 64-bit
    range for free (``Fraction`` raises TypeError, a too-big int raises
    OverflowError).  The only remaining hazard is a *finite* entry equal
    to the +∞ sentinel itself; comparing C-level ``count``\\ s of the
    sentinel before and after substitution detects exactly that case.
    """
    flat = [_INF_CODE if v == INF else v for row in m for v in row]
    try:
        buf = array("q", flat)
    except (TypeError, OverflowError):
        return None
    if flat.count(_INF_CODE) != sum(row.count(INF) for row in m):
        return None  # a finite entry collides with the sentinel
    return buf.tobytes()


_INTERN: Dict[object, Rows] = {}
_INTERN_LIMIT = 50_000


def intern_rows(key: object, m: Rows) -> Rows:
    """Canonical-matrix interning: equal closed matrices (same content
    key) share one row-list object, so sibling trails that converge on
    the same invariant also share the per-instance closure caches hung
    off it downstream.  Bounded; wholesale-cleared at the limit."""
    if len(_INTERN) >= _INTERN_LIMIT:
        _INTERN.clear()
    return _INTERN.setdefault(key, m)


def clear_interned() -> None:
    _INTERN.clear()
