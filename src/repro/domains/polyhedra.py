"""A convex-polyhedra abstract domain (the PPL stand-in).

Constraint-only representation: a conjunction of linear inequalities
``e <= 0`` with exact rational arithmetic.  Operations:

* projection (``forget``/``assign``) by Fourier–Motzkin elimination;
* ``bounds_of`` exactly, by eliminating every variable but a fresh one
  equated to the queried expression;
* join by *mutual-entailment weakening* — keep each side's constraints
  that the other side entails.  This over-approximates PPL's exact convex
  hull (documented substitution; sound, occasionally less precise);
* widening by the classic "keep the stable constraints" rule.

Fourier–Motzkin is worst-case exponential; a configurable cap bounds the
constraint count, and over the cap the weakest (syntactically largest)
constraints are *dropped*, which only enlarges the polyhedron — sound
for an over-approximating analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.domains.base import AbstractState, Bound, Domain
from repro.domains.linexpr import LinCons, LinExpr, RelOp

# Maximum number of inequalities kept per state / per elimination step.
MAX_CONSTRAINTS = 120


def _as_le(cons: LinCons) -> List[LinExpr]:
    """Normalize to a list of ``e <= 0`` left-hand sides."""
    if cons.op is RelOp.LE:
        return [cons.expr]
    return [cons.expr, -cons.expr]


def _dedupe(constraints: List[LinExpr]) -> List[LinExpr]:
    seen = set()
    out: List[LinExpr] = []
    for expr in constraints:
        # Normalize scale: divide by the gcd-ish leading magnitude so that
        # 2x <= 0 and x <= 0 coincide.
        scale: Optional[Fraction] = None
        for var in sorted(expr.coeffs):
            scale = abs(expr.coeffs[var])
            break
        if scale is None:
            scale = abs(expr.const) if expr.const != 0 else Fraction(1)
        normal = expr * (Fraction(1) / scale) if scale not in (0, 1) else expr
        key = (tuple(sorted(normal.coeffs.items())), normal.const)
        if key not in seen:
            seen.add(key)
            out.append(normal)
    return out


def _eliminate(constraints: List[LinExpr], var: str) -> List[LinExpr]:
    """Fourier–Motzkin elimination of ``var`` from ``e_i <= 0``."""
    pos: List[LinExpr] = []
    neg: List[LinExpr] = []
    rest: List[LinExpr] = []
    for expr in constraints:
        coeff = expr.coeff(var)
        if coeff > 0:
            pos.append(expr)
        elif coeff < 0:
            neg.append(expr)
        else:
            rest.append(expr)
    for p in pos:
        cp = p.coeff(var)
        for q in neg:
            cq = q.coeff(var)
            # cp > 0, cq < 0: combine to cancel var.
            combined = p * (-cq) + q * cp
            combined = LinExpr(
                {v: c for v, c in combined.coeffs.items() if v != var},
                combined.const,
            )
            rest.append(combined)
    rest = _dedupe(rest)
    if len(rest) > MAX_CONSTRAINTS:
        # Drop the syntactically heaviest constraints (soundly enlarges).
        rest.sort(key=lambda e: (len(e.coeffs), str(e)))
        rest = rest[:MAX_CONSTRAINTS]
    return rest


def _resolvents(constraints: List[LinExpr]) -> List[LinExpr]:
    """One round of pairwise Fourier–Motzkin combinations.

    Every returned ``e <= 0`` is entailed by the input system; used to
    saturate join candidates.  Bounded by MAX_CONSTRAINTS.
    """
    out: List[LinExpr] = []
    variables = sorted({v for e in constraints for v in e.coeffs})
    for var in variables:
        pos = [e for e in constraints if e.coeff(var) > 0]
        neg = [e for e in constraints if e.coeff(var) < 0]
        for p in pos:
            for q in neg:
                combined = p * (-q.coeff(var)) + q * p.coeff(var)
                combined = LinExpr(
                    {v: c for v, c in combined.coeffs.items() if v != var},
                    combined.const,
                )
                if combined.coeffs or combined.const > 0:
                    out.append(combined)
                if len(out) >= MAX_CONSTRAINTS:
                    return _dedupe(out)
    return _dedupe(out)


def _infeasible(constraints: List[LinExpr]) -> bool:
    """Exact feasibility via full elimination.  True = definitely empty."""
    work = list(constraints)
    variables = sorted({v for e in work for v in e.coeffs})
    for var in variables:
        work = _eliminate(work, var)
        for expr in work:
            if not expr.coeffs and expr.const > 0:
                return True
    return any(not e.coeffs and e.const > 0 for e in work)


class PolyhedraState(AbstractState):
    def __init__(self, constraints: Sequence[LinExpr] = (), bottom: bool = False):
        self._cons: List[LinExpr] = _dedupe(
            [c for c in constraints if c.coeffs or c.const > 0]
        )
        self._bottom = bottom
        self._feasibility: Optional[bool] = None  # cached is_bottom

    # -- lattice ------------------------------------------------------------------

    def is_bottom(self) -> bool:
        if self._bottom:
            return True
        if self._feasibility is None:
            self._feasibility = _infeasible(self._cons)
        return self._feasibility

    def join(self, other: "PolyhedraState") -> "PolyhedraState":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        # Mutual-entailment weakening over a *saturated* candidate set:
        # the syntactic constraints alone miss facts that are only
        # derivable (e.g. ``i <= n`` via a temp with ``i = t ∧ t <= n``),
        # so one round of Fourier–Motzkin resolvents is added to each
        # side's candidates before filtering by the other side.
        cand_self = self._cons + _resolvents(self._cons)
        cand_other = other._cons + _resolvents(other._cons)
        kept = [e for e in cand_self if other._entails_expr(e)]
        kept += [e for e in cand_other if self._entails_expr(e)]
        return PolyhedraState(kept)

    def widen(self, other: "PolyhedraState") -> "PolyhedraState":
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        return PolyhedraState([e for e in self._cons if other._entails_expr(e)])

    def leq(self, other: "PolyhedraState") -> bool:
        if self.is_bottom():
            return True
        if other.is_bottom():
            return False
        return all(self._entails_expr(e) for e in other._cons)

    # -- internals ---------------------------------------------------------------------

    def _entails_expr(self, expr: LinExpr) -> bool:
        """Does the state entail ``expr <= 0``?  Exact via elimination."""
        _, hi = self.bounds_of(expr)
        return hi is not None and hi <= 0

    # -- transfer ---------------------------------------------------------------------

    def assign(self, var: str, expr: Optional[LinExpr]) -> "PolyhedraState":
        if self._bottom:
            return self
        if expr is None:
            return self.forget(var)
        primed = var + "'"
        cons = list(self._cons)
        # primed = expr
        cons.append(LinExpr.var(primed) - expr)
        cons.append(expr - LinExpr.var(primed))
        cons = _eliminate(cons, var)
        renamed = [e.rename({primed: var}) for e in cons]
        return PolyhedraState(renamed)

    def guard(self, cons: LinCons) -> "PolyhedraState":
        if self._bottom:
            return self
        return PolyhedraState(self._cons + _as_le(cons))

    def forget(self, var: str) -> "PolyhedraState":
        if self._bottom:
            return self
        return PolyhedraState(_eliminate(self._cons, var))

    def project_out(self, names: AbstractSet[str]) -> "PolyhedraState":
        if self.is_bottom():
            return self
        cons = self._cons
        present = {v for e in cons for v in e.coeffs}
        for var in sorted(present & set(names)):
            cons = _eliminate(cons, var)
        return self if cons is self._cons else PolyhedraState(cons)

    # -- queries ---------------------------------------------------------------------

    def bounds_of(self, expr: LinExpr) -> Tuple[Bound, Bound]:
        if self.is_bottom():
            return Fraction(0), Fraction(-1)
        if not expr.coeffs:
            return expr.const, expr.const
        fresh = "@query"
        cons = list(self._cons)
        cons.append(LinExpr.var(fresh) - expr)
        cons.append(expr - LinExpr.var(fresh))
        for var in sorted({v for e in cons for v in e.coeffs} - {fresh}):
            cons = _eliminate(cons, var)
        lo: Bound = None
        hi: Bound = None
        for e in cons:
            coeff = e.coeff(fresh)
            if coeff > 0:  # coeff*fresh + const <= 0  =>  fresh <= -const/coeff
                bound = Fraction(-e.const) / coeff
                hi = bound if hi is None else min(hi, bound)
            elif coeff < 0:  # fresh >= -const/coeff
                bound = Fraction(-e.const) / coeff
                lo = bound if lo is None else max(lo, bound)
            elif e.const > 0:
                return Fraction(0), Fraction(-1)  # infeasible
        return lo, hi

    def constraints(self) -> List[LinCons]:
        if self.is_bottom():
            return [LinCons.le(LinExpr.constant(1), 0)]
        return [LinCons(e, RelOp.LE) for e in self._cons]

    def __str__(self) -> str:
        if self.is_bottom():
            return "⊥"
        if not self._cons:
            return "⊤"
        return " ∧ ".join("%s <= 0" % e for e in self._cons)


class PolyhedraDomain(Domain):
    name = "polyhedra"

    def top(self, variables: Sequence[str] = ()) -> PolyhedraState:
        return PolyhedraState()

    def bottom(self, variables: Sequence[str] = ()) -> PolyhedraState:
        return PolyhedraState(bottom=True)
