"""The complexity-lemma database: loop iteration bounds.

Blazer "leverage[s] the seeding technique to compute transition
invariants, and match[es] these invariants against a database of
complexity bound lemmas".  This module is that matcher.

Given a loop of the product graph, the facts available are:

* candidate *ranking expressions* ``r`` — from each branch that can exit
  the loop, the linear constraint of its *continue* side, normalized so
  that staying in the loop implies ``r >= 0``;
* the seeded *transition relation* T relating the variables at one visit
  of the header (``x``) to their values at the previous visit
  (``x@pre``);
* the loop's *entry state* (join of states on edges entering the header
  from outside the loop).

Lemmas:

``DECREASING_RANK`` (upper bounds)
    If T entails ``r - r@pre <= -δ`` for a constant δ >= 1, the loop
    makes at most ``r_entry/δ + 1`` back-edge traversals.  ``r_entry`` is
    expressed symbolically over the input symbols by rewriting each
    program variable as ``symbol + constant`` using the entry state.

``EXACT_COUNTER`` (lower bounds)
    Additionally, if the matched branch is the loop's *only* exit, the
    decrease per iteration is also bounded above (``r - r@pre >= -δ'``),
    and every inner loop is known finite, then the loop makes at least
    ``r_entry/δ' + 1`` traversals (clamped at 0 by the cost algebra).
    This is what distinguishes "must enter the for loop" trails (exact
    ``g.len`` iterations) from trails with early exits.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bounds.cost import CostBound, Poly
from repro.domains.base import AbstractState
from repro.domains.linexpr import LinCons, LinExpr


def seed_name(var: str) -> str:
    """The seeded (pre-iteration) copy of ``var``."""
    return var + "@pre"


def linexpr_to_poly(expr: LinExpr) -> Poly:
    poly = Poly.constant(expr.const)
    for var, coeff in expr.coeffs.items():
        poly = poly + Poly.symbol(var) * coeff
    return poly


def symbolic_form(
    expr: LinExpr,
    state: AbstractState,
    symbols: Sequence[str],
) -> Optional[LinExpr]:
    """Rewrite ``expr`` over the designated input symbols using ``state``.

    Each non-symbol variable must be provably equal (in ``state``) to a
    constant or to ``symbol + constant`` for some input symbol; returns
    None when some variable cannot be resolved.
    """
    out = LinExpr.constant(expr.const)
    for var, coeff in sorted(expr.coeffs.items()):
        if var in symbols:
            out = out + LinExpr.var(var) * coeff
            continue
        lo, hi = state.bounds_of(LinExpr.var(var))
        if lo is not None and lo == hi:
            out = out + coeff * lo
            continue
        resolved = False
        for sym in symbols:
            lo, hi = state.bounds_of(LinExpr.var(var) - LinExpr.var(sym))
            if lo is not None and lo == hi:
                out = out + (LinExpr.var(sym) + lo) * coeff
                resolved = True
                break
        if not resolved:
            return None
    return out


@dataclass(frozen=True)
class RankCandidate:
    """One continue-side constraint: staying in the loop implies r >= 0."""

    rank: LinExpr
    branch_node: Tuple[int, int]  # the product node of the branch


@dataclass
class IterationBound:
    """Back-edge traversal count of one loop: [lower, upper] polynomials.

    ``upper=None`` means the lemma database could not bound the loop.
    The lower bound is always sound (0 when nothing better is known).
    """

    lower: Poly
    upper: Optional[Poly]
    exact: bool = False  # lower == upper semantically (deterministic count)
    # The entry state proves the lower bound non-negative (lets the cost
    # algebra keep the precise product instead of clamping at zero).
    lower_nonneg: bool = False

    def as_cost(self, nonneg: FrozenSet[str]) -> CostBound:
        if self.upper is None:
            return CostBound.unbounded(self.lower, nonneg)
        return CostBound.range(self.lower, self.upper, nonneg)


def match_iteration_lemmas(
    candidates: Sequence[RankCandidate],
    transition: AbstractState,
    entry_state: AbstractState,
    seeded_vars: Set[str],
    symbols: Sequence[str],
    single_exit_branch: Optional[Tuple[int, int]],
    inner_loops_finite: bool,
    header: Optional[Tuple[int, int]] = None,
) -> IterationBound:
    """Try every rank candidate against the lemma database; combine.

    ``single_exit_branch`` is the product node of the loop's only exiting
    branch when there is exactly one, else None (disables EXACT_COUNTER).

    ``header`` is the loop's header node.  EXACT_COUNTER's lower bound
    counts stay-decisions at the ranked branch starting from the rank's
    value at loop entry — which is only the value at the *first check*
    when the branch is the header.  Occurrence-split product graphs
    rotate loops (the trail DFA's state change moves the natural-loop
    header into the body), so the rank may already have decreased by one
    step before the branch first fires; the lower bound then concedes
    one decrement, and exactness is never claimed.
    """
    best_upper: Optional[Poly] = None
    best_upper_key: Optional[Tuple] = None
    best_lower: Optional[Poly] = None
    best_lower_nonneg = False
    exact = False

    for cand in candidates:
        r = cand.rank
        if any(var not in seeded_vars for var in r.coeffs):
            continue
        pre = r.rename({v: seed_name(v) for v in r.coeffs})
        delta_lo, delta_hi = transition.bounds_of(r - pre)
        if delta_hi is None or delta_hi > -1:
            continue  # not provably decreasing
        delta_min = -delta_hi
        entry_sym = symbolic_form(r, entry_state, symbols)
        if entry_sym is None:
            # Fall back to a constant bound from the entry state.
            _, entry_hi = entry_state.bounds_of(r)
            if entry_hi is None:
                continue
            entry_sym = LinExpr.constant(entry_hi)
        if not entry_sym.coeffs:
            # Constant rank at entry: the iteration count is exactly
            # ceil((r+1)/δ) — integer arithmetic beats the polynomial
            # over-approximation r/δ + 1 (e.g. a step-2 loop over an
            # even constant range has no half-iteration slack).
            upper = Poly.constant(
                max(0, math.ceil(Fraction(entry_sym.const + 1) / delta_min))
            )
        else:
            upper = linexpr_to_poly(entry_sym) * (
                Fraction(1) / delta_min
            ) + Poly.constant(1)
        key = (upper.degree(), str(upper))
        if best_upper is None or key < best_upper_key:  # type: ignore[operator]
            best_upper = upper
            best_upper_key = key

        # EXACT_COUNTER: lower bound.
        if (
            single_exit_branch is not None
            and cand.branch_node == single_exit_branch
            and inner_loops_finite
        ):
            delta_max = None if delta_lo is None else -delta_lo
            at_header = header is None or cand.branch_node == header
            if delta_max is not None and delta_max >= 1:
                entry_sym_exact = symbolic_form(r, entry_state, symbols)
                if entry_sym_exact is not None:
                    # iterations = ceil((r+1)/δ) >= (r+1)/δ.  (Using
                    # r/δ + 1 instead would overcount whenever δ does not
                    # divide r+1 — e.g. a step-2 loop over an odd range.)
                    # A rotated loop (branch below the header) concedes
                    # one decrement before the first check.
                    concede = 0 if at_header else 1
                    if not entry_sym_exact.coeffs:
                        lower = Poly.constant(
                            max(
                                0,
                                math.ceil(Fraction(entry_sym_exact.const + 1) / delta_max)
                                - concede,
                            )
                        )
                    else:
                        lower = (
                            linexpr_to_poly(entry_sym_exact) + Poly.constant(1)
                        ) * (Fraction(1) / delta_max) - Poly.constant(concede)
                    entry_r_lo, _ = entry_state.bounds_of(r)
                    # The unclamped product is sound when the entry state
                    # proves r >= 0, and also whenever the decrement is
                    # exactly 1: then lb = r + 1, and by integrality
                    # lb > 0 implies r >= 0 (so the loop really runs);
                    # lb <= 0 makes the claim vacuous.
                    nonneg_here = (
                        entry_r_lo is not None and entry_r_lo >= 0
                    ) or delta_max == 1
                    lkey = (lower.degree(), str(lower))
                    if best_lower is None or lkey > (best_lower.degree(), str(best_lower)):
                        best_lower = lower
                        best_lower_nonneg = nonneg_here
                    if at_header and (
                        delta_max == delta_min == 1
                        or (delta_max == delta_min and not entry_sym_exact.coeffs)
                    ):
                        # Unit steps (symbolically) or constant ranks
                        # (exact ceiling) give lower == upper.
                        exact = True

    if best_upper is None:
        return IterationBound(lower=Poly.ZERO, upper=None)
    lower = best_lower if best_lower is not None else Poly.ZERO
    return IterationBound(
        lower=lower,
        upper=best_upper,
        exact=exact,
        lower_nonneg=best_lower_nonneg if best_lower is not None else False,
    )
