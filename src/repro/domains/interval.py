"""The interval (box) abstract domain.

The cheapest domain in the hierarchy.  Non-relational: it cannot express
``i <= low``, so the seeded transition-invariant analysis normally runs
on zones or better; intervals serve as a fast pre-pass, a baseline for
the domain ablation benchmark, and a reference implementation for the
domain laws in the property tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.domains.base import AbstractState, Bound, Domain
from repro.domains.linexpr import Coeff, LinCons, LinExpr, RelOp


class Interval:
    """A single interval value [lo, hi]; None endpoints mean unbounded."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Bound = None, hi: Bound = None):
        self.lo = lo
        self.hi = hi

    TOP: "Interval"

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to infinity."""
        if self.lo is None or newer.lo is None or newer.lo < self.lo:
            lo: Bound = None
        else:
            lo = self.lo
        if self.hi is None or newer.hi is None or newer.hi > self.hi:
            hi: Bound = None
        else:
            hi = self.hi
        return Interval(lo, hi)

    def leq(self, other: "Interval") -> bool:
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return self.is_empty or (lo_ok and hi_ok)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __str__(self) -> str:
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return "[%s, %s]" % (lo, hi)


Interval.TOP = Interval(None, None)


def _add(a: Bound, b: Bound) -> Bound:
    return None if a is None or b is None else a + b


def _mul_bound(a: Bound, factor: Coeff) -> Bound:
    if factor == 0:
        return Fraction(0)
    return None if a is None else a * factor


class IntervalState(AbstractState):
    """A box: every tracked variable has an interval; others are top."""

    def __init__(self, boxes: Optional[Dict[str, Interval]] = None, bottom: bool = False):
        self._boxes: Dict[str, Interval] = dict(boxes or {})
        self._bottom = bottom

    # -- lattice ----------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self._bottom

    def _normalized(self) -> "IntervalState":
        for box in self._boxes.values():
            if box.is_empty:
                return IntervalState(bottom=True)
        return self

    def join(self, other: "IntervalState") -> "IntervalState":
        if self._bottom:
            return other
        if other._bottom:
            return self
        keys = set(self._boxes) & set(other._boxes)
        joined = {k: self._boxes[k].join(other._boxes[k]) for k in keys}
        # A variable tracked on only one side is top on the other: drop it.
        return IntervalState(joined)

    def widen(self, other: "IntervalState") -> "IntervalState":
        if self._bottom:
            return other
        if other._bottom:
            return self
        keys = set(self._boxes) & set(other._boxes)
        return IntervalState({k: self._boxes[k].widen(other._boxes[k]) for k in keys})

    def leq(self, other: "IntervalState") -> bool:
        if self._bottom:
            return True
        if other._bottom:
            return False
        for var, box in other._boxes.items():
            if not self._box(var).leq(box):
                return False
        return True

    # -- internals --------------------------------------------------------------------

    def _box(self, var: str) -> Interval:
        return self._boxes.get(var, Interval.TOP)

    def _eval(self, expr: LinExpr) -> Interval:
        lo: Bound = expr.const
        hi: Bound = expr.const
        for var, coeff in expr.coeffs.items():
            box = self._box(var)
            a = _mul_bound(box.lo if coeff > 0 else box.hi, coeff)
            b = _mul_bound(box.hi if coeff > 0 else box.lo, coeff)
            lo = _add(lo, a)
            hi = _add(hi, b)
        return Interval(lo, hi)

    # -- transfer ----------------------------------------------------------------------

    def assign(self, var: str, expr: Optional[LinExpr]) -> "IntervalState":
        if self._bottom:
            return self
        boxes = dict(self._boxes)
        if expr is None:
            boxes.pop(var, None)
        else:
            boxes[var] = self._eval(expr)
        return IntervalState(boxes)._normalized()

    def guard(self, cons: LinCons) -> "IntervalState":
        if self._bottom:
            return self
        value = self._eval(cons.expr)
        if cons.op is RelOp.LE:
            if value.lo is not None and value.lo > 0:
                return IntervalState(bottom=True)
        else:
            if (value.lo is not None and value.lo > 0) or (
                value.hi is not None and value.hi < 0
            ):
                return IntervalState(bottom=True)
        state = self._refine(cons)
        if cons.op is RelOp.EQ:
            # e == 0 also implies -e <= 0.
            state = state._refine(LinCons(-cons.expr, RelOp.LE))
        return state._normalized()

    def _refine(self, cons: LinCons) -> "IntervalState":
        """Tighten each variable of ``expr <= 0`` (or == 0, one side)."""
        boxes = dict(self._boxes)
        expr = cons.expr
        for var, coeff in expr.coeffs.items():
            # coeff*var <= -(rest)  where rest = expr - coeff*var
            rest = LinExpr(
                {v: c for v, c in expr.coeffs.items() if v != var}, expr.const
            )
            rest_iv = self._eval(rest)
            # coeff*var <= -rest; bound uses the smallest possible rest.
            limit = rest_iv.lo
            if limit is None:
                continue
            bound = Fraction(-limit) / coeff
            box = boxes.get(var, Interval.TOP)
            if coeff > 0:
                new_box = box.meet(Interval(None, bound))
            else:
                new_box = box.meet(Interval(bound, None))
            boxes[var] = new_box
        return IntervalState(boxes)

    def forget(self, var: str) -> "IntervalState":
        if self._bottom:
            return self
        boxes = dict(self._boxes)
        boxes.pop(var, None)
        return IntervalState(boxes)

    def project_out(self, names: AbstractSet[str]) -> "IntervalState":
        if self._bottom:
            return self
        boxes = {v: box for v, box in self._boxes.items() if v not in names}
        if len(boxes) == len(self._boxes):
            return self
        return IntervalState(boxes)

    # -- queries --------------------------------------------------------------------------

    def bounds_of(self, expr: LinExpr) -> Tuple[Bound, Bound]:
        if self._bottom:
            return Fraction(0), Fraction(-1)  # empty
        value = self._eval(expr)
        return value.lo, value.hi

    def constraints(self) -> List[LinCons]:
        out: List[LinCons] = []
        for var in sorted(self._boxes):
            box = self._boxes[var]
            v = LinExpr.var(var)
            if box.lo is not None:
                out.append(LinCons.ge(v, box.lo))
            if box.hi is not None:
                out.append(LinCons.le(v, box.hi))
        return out

    def __str__(self) -> str:
        if self._bottom:
            return "⊥"
        if not self._boxes:
            return "⊤"
        return ", ".join("%s ∈ %s" % (v, self._boxes[v]) for v in sorted(self._boxes))


class IntervalDomain(Domain):
    name = "interval"

    def top(self, variables: Sequence[str] = ()) -> IntervalState:
        return IntervalState()

    def bottom(self, variables: Sequence[str] = ()) -> IntervalState:
        return IntervalState(bottom=True)
