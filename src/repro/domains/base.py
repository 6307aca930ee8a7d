"""The abstract-state interface every numeric domain implements.

The abstract interpreter (:mod:`repro.absint`) is parametric in the
domain: intervals, zones, octagons and polyhedra all implement this
interface.  States are immutable from the caller's perspective — every
operation returns a fresh state.

Variables come into existence lazily: operations mentioning an unknown
variable implicitly add it unconstrained (top).  ``bounds_of`` is the
central query for the bound analysis: the tightest derivable interval of
a linear expression.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import AbstractSet, Iterable, List, Optional, Sequence, Tuple

from repro.domains.linexpr import LinCons, LinExpr

Bound = Optional[Fraction]  # None = unbounded


class AbstractState(abc.ABC):
    """One element of a numeric abstract domain."""

    # -- lattice -------------------------------------------------------------

    @abc.abstractmethod
    def is_bottom(self) -> bool:
        ...

    @abc.abstractmethod
    def join(self, other: "AbstractState") -> "AbstractState":
        ...

    @abc.abstractmethod
    def widen(self, other: "AbstractState") -> "AbstractState":
        """Widening: ``self`` is the old state, ``other`` the new one."""

    @abc.abstractmethod
    def leq(self, other: "AbstractState") -> bool:
        """Abstract inclusion (sound: γ(self) ⊆ γ(other) when True)."""

    # -- transfer -------------------------------------------------------------

    @abc.abstractmethod
    def assign(self, var: str, expr: Optional[LinExpr]) -> "AbstractState":
        """``var := expr``; ``expr=None`` havocs the variable."""

    @abc.abstractmethod
    def guard(self, cons: LinCons) -> "AbstractState":
        """Meet with one linear constraint."""

    @abc.abstractmethod
    def forget(self, var: str) -> "AbstractState":
        """Project the variable away (keep it, unconstrained)."""

    @abc.abstractmethod
    def project_out(self, names: AbstractSet[str]) -> "AbstractState":
        """Drop ``names`` from the state altogether (unknown names are
        ignored).  Exact: ``bounds_of`` of any expression over the
        remaining variables is unchanged, and bottom stays bottom."""

    # -- queries ----------------------------------------------------------------

    @abc.abstractmethod
    def bounds_of(self, expr: LinExpr) -> Tuple[Bound, Bound]:
        """Sound (lo, hi) bounds of ``expr``; ``None`` = unbounded."""

    @abc.abstractmethod
    def constraints(self) -> List[LinCons]:
        """A sound set of constraints describing the state."""

    def entails(self, cons: LinCons) -> bool:
        """Does every concrete state satisfy ``cons``?  Sound, may say False."""
        lo, hi = self.bounds_of(cons.expr)
        if cons.op.value == "==":
            return lo is not None and hi is not None and lo == hi == 0
        return hi is not None and hi <= 0

    def guard_all(self, constraints: Iterable[LinCons]) -> "AbstractState":
        state: AbstractState = self
        for cons in constraints:
            state = state.guard(cons)
        return state

    # -- convenience ---------------------------------------------------------------

    def var_bounds(self, var: str) -> Tuple[Bound, Bound]:
        return self.bounds_of(LinExpr.var(var))


class Domain(abc.ABC):
    """A factory of abstract states."""

    name: str = "abstract"

    @abc.abstractmethod
    def top(self, variables: Sequence[str] = ()) -> AbstractState:
        ...

    @abc.abstractmethod
    def bottom(self, variables: Sequence[str] = ()) -> AbstractState:
        ...
