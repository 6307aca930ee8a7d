"""Symbolic running-time expressions.

The bound analysis reports running times like ``[19*g.len + 10,
23*g.len + 10]`` (Fig. 1 of the paper): polynomials over *input symbols*
(integer parameters and array-length parameters), with ``max``/``min``
over alternatives where control flow allows several shapes
(``20*max(g.len, p.len) + 8``).

Representation:

* :class:`Poly` — a multivariate polynomial with rational coefficients
  over named symbols (monomials are sorted tuples of symbol names, so
  ``g.len * p.len`` is a degree-2 monomial).  Coefficients are
  integer-first, like :class:`repro.domains.linexpr.LinExpr`'s: an
  ``int`` when integral, a ``Fraction`` only otherwise;
* :class:`CostBound` — a pair (lower, upper) where the lower bound is a
  *min-set* of polynomials and the upper bound a *max-set* (``None`` =
  unbounded).  Max-sets always contain the zero polynomial, which both
  encodes the clamp ``iterations >= 0`` and keeps multiplication sound
  when a symbol can be negative.

Set sizes are capped; over the cap, a max-set collapses to the
coefficient-wise maximum (sound over-approximation for symbols known to
be non-negative — array lengths — and still sound elsewhere because the
collapse only ever *adds* area on max-sets given the embedded zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.domains.linexpr import Coeff, _num

Monomial = Tuple[str, ...]  # sorted symbol names; () is the constant term

MAX_SET_SIZE = 6


class Poly:
    """A multivariate polynomial with exact (integer-first) coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Coeff]] = None):
        self.terms: Dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = _num(coeff)

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def constant(value: Coeff) -> "Poly":
        return Poly({(): value})

    @staticmethod
    def symbol(name: str) -> "Poly":
        return Poly({(name,): 1})

    ZERO: "Poly"
    ONE: "Poly"

    # -- queries ---------------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    @property
    def const_value(self) -> Coeff:
        return self.terms.get((), 0)

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def symbols(self) -> FrozenSet[str]:
        out = set()
        for mono in self.terms:
            out.update(mono)
        return frozenset(out)

    def evaluate(self, env: Mapping[str, object]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for sym in mono:
                value *= Fraction(env[sym])  # type: ignore[arg-type]
            total += value
        return total

    # -- arithmetic ---------------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * -1)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            factor = _num(other)
            return Poly({m: c * factor for m, c in self.terms.items()})
        terms: Dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    # -- comparison helpers -----------------------------------------------------------------

    def dominates(self, other: "Poly", nonneg: FrozenSet[str]) -> bool:
        """Sufficient check for ``self(x) >= other(x)`` for all valuations
        with the ``nonneg`` symbols >= 0: every monomial of the difference
        has a non-negative coefficient and only non-negative symbols."""
        diff = self - other
        for mono, coeff in diff.terms.items():
            if coeff < 0:
                return False
            if any(sym not in nonneg for sym in mono):
                return False
        return True

    def _key(self) -> Tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (-len(m), m)):
            coeff = self.terms[mono]
            if not mono:
                parts.append(str(coeff))
            else:
                body = "*".join(mono)
                if coeff == 1:
                    parts.append(body)
                elif coeff == -1:
                    parts.append("-%s" % body)
                else:
                    parts.append("%s*%s" % (coeff, body))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return "Poly(%s)" % self


Poly.ZERO = Poly()
Poly.ONE = Poly.constant(1)


def _prune_max(polys: Iterable[Poly], nonneg: FrozenSet[str]) -> Tuple[Poly, ...]:
    """Normalize a max-set: dedupe, drop dominated members, cap size."""
    unique = list(dict.fromkeys(polys))
    kept: List[Poly] = [
        p
        for p in unique
        if not any(q.dominates(p, nonneg) and q != p for q in unique)
    ]
    if not kept:
        kept = unique[:1]
    if len(kept) > MAX_SET_SIZE:
        # Collapse to the coefficient-wise maximum (sound upper bound for
        # non-negative symbols; see the module docstring).
        terms: Dict[Monomial, Coeff] = {}
        for p in kept:
            for mono, coeff in p.terms.items():
                terms[mono] = max(terms.get(mono, 0), coeff)
        kept = [Poly(terms)]
    return tuple(kept)


def _prune_min(polys: Iterable[Poly], nonneg: FrozenSet[str]) -> Tuple[Poly, ...]:
    unique = list(dict.fromkeys(polys))
    kept = [
        p
        for p in unique
        if not any(p.dominates(q, nonneg) and p != q for q in unique)
    ]
    if not kept:
        kept = unique[:1]
    if len(kept) > MAX_SET_SIZE:
        terms: Dict[Monomial, Coeff] = {}
        for p in kept:
            for mono, coeff in p.terms.items():
                terms[mono] = min(terms.get(mono, 0), coeff)
        kept = [Poly(terms)]
    return tuple(kept)


@dataclass(frozen=True)
class CostBound:
    """A symbolic running-time range [min lower, max(0, max upper)].

    ``upper=None`` means no upper bound was derivable (∞).
    """

    lower: Tuple[Poly, ...]
    upper: Optional[Tuple[Poly, ...]]
    nonneg: FrozenSet[str] = frozenset()

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def exact(poly: Poly, nonneg: FrozenSet[str] = frozenset()) -> "CostBound":
        return CostBound((poly,), (poly, Poly.ZERO), nonneg)

    @staticmethod
    def of_constant(value, nonneg: FrozenSet[str] = frozenset()) -> "CostBound":
        return CostBound.exact(Poly.constant(value), nonneg)

    @staticmethod
    def range(lo: Poly, hi: Optional[Poly], nonneg: FrozenSet[str] = frozenset()) -> "CostBound":
        return CostBound((lo,), None if hi is None else (hi, Poly.ZERO), nonneg)

    @staticmethod
    def unbounded(lo: Poly = Poly.ZERO, nonneg: FrozenSet[str] = frozenset()) -> "CostBound":
        return CostBound((lo,), None, nonneg)

    ZERO: ClassVar["CostBound"]

    # -- algebra --------------------------------------------------------------------

    def _with(self, lower: Iterable[Poly], upper: Optional[Iterable[Poly]]) -> "CostBound":
        return CostBound(
            _prune_min(lower, self.nonneg),
            None if upper is None else _prune_max(upper, self.nonneg),
            self.nonneg,
        )

    def __add__(self, other: "CostBound") -> "CostBound":
        lower = [a + b for a in self.lower for b in other.lower]
        if self.upper is None or other.upper is None:
            upper = None
        else:
            upper = [a + b for a in self.upper for b in other.upper]
        return self._with(lower, upper)

    def scale(self, factor) -> "CostBound":
        """Multiply by a non-negative rational constant."""
        f = _num(factor)
        if f < 0:
            raise ValueError("cost bounds scale by non-negative factors only")
        lower = [p * f for p in self.lower]
        upper = None if self.upper is None else [p * f for p in self.upper]
        return self._with(lower, upper)

    def multiply(
        self, iterations: "CostBound", iterations_nonneg: bool = False
    ) -> "CostBound":
        """``iterations × self`` — total cost of a loop body repeated.

        Both factors are semantically clamped at zero (the zero polynomial
        is a member of every max-set), so the products over-approximate
        the true nonnegative product.

        ``iterations_nonneg`` asserts that the iteration lower bounds are
        known non-negative from *context* (the loop's entry state proves
        the ranking expression >= 0) even when not structurally evident.
        """
        lower = [a * b for a in self.lower for b in iterations.lower]
        # When either factor's lower bound is not provably non-negative,
        # the product's true minimum may be 0 (a loop cannot run a
        # negative number of times) — clamp with the zero polynomial.
        # When both are provably non-negative, keep the precise product:
        # this is what gives "must enter the loop" trails their exact
        # 19*g.len-style lower bounds.
        nonneg = self.nonneg | iterations.nonneg
        self_nonneg = all(p.dominates(Poly.ZERO, nonneg) for p in self.lower)
        # The iterations factor must be vouched for by the *caller*
        # (iterations_nonneg): a structurally non-negative polynomial is
        # NOT enough, because an iteration lower bound like (n+1)/2 can
        # evaluate positive at inputs where the loop actually runs zero
        # times (the lemma's validity condition failed there).
        if not (self_nonneg and iterations_nonneg):
            lower = lower + [Poly.ZERO]
        if self.upper is None or iterations.upper is None:
            upper = None
        else:
            upper = [a * b for a in self.upper for b in iterations.upper]
        return self._with(lower, upper)

    def join(self, other: "CostBound") -> "CostBound":
        """Union of ranges: min of lowers, max of uppers."""
        lower = list(self.lower) + list(other.lower)
        if self.upper is None or other.upper is None:
            upper = None
        else:
            upper = list(self.upper) + list(other.upper)
        merged_nonneg = self.nonneg | other.nonneg
        return CostBound(
            _prune_min(lower, merged_nonneg),
            None if upper is None else _prune_max(upper, merged_nonneg),
            merged_nonneg,
        )

    # -- queries -----------------------------------------------------------------------

    def symbols(self) -> FrozenSet[str]:
        out = set()
        for p in self.lower:
            out |= p.symbols()
        for p in self.upper or ():
            out |= p.symbols()
        return frozenset(out)

    def degree(self) -> Optional[int]:
        """Degree of the upper bound; None when unbounded."""
        if self.upper is None:
            return None
        return max((p.degree() for p in self.upper), default=0)

    def lower_degree(self) -> int:
        return max((p.degree() for p in self.lower), default=0)

    def evaluate(self, env: Mapping[str, object]) -> Tuple[Fraction, Optional[Fraction]]:
        """Concrete (lo, hi) for a symbol valuation; hi=None if unbounded."""
        lo = min(p.evaluate(env) for p in self.lower)
        if self.upper is None:
            return lo, None
        hi = max(p.evaluate(env) for p in self.upper)
        return lo, hi

    def is_constant(self) -> bool:
        return (
            self.upper is not None
            and all(p.is_constant for p in self.lower)
            and all(p.is_constant for p in self.upper)
        )

    def __str__(self) -> str:
        if len(self.lower) == 1:
            lo = str(self.lower[0])
        else:
            lo = "min(%s)" % ", ".join(str(p) for p in self.lower)
        if self.upper is None:
            hi = "oo"
        else:
            nonzero = [p for p in self.upper if p != Poly.ZERO] or [Poly.ZERO]
            if len(nonzero) == 1:
                hi = str(nonzero[0])
            else:
                hi = "max(%s)" % ", ".join(str(p) for p in nonzero)
        return "[%s, %s]" % (lo, hi)


CostBound.ZERO = CostBound.exact(Poly.ZERO)
