"""Linear expressions and constraints over named variables.

The shared constraint language of every numeric abstract domain in
:mod:`repro.domains` and of the bound-lemma matching: affine expressions
with rational coefficients, and constraints ``e <= 0`` / ``e == 0`` (with
``e < 0`` normalized to ``e <= -1`` since all program values are
integers).

Coefficients and constants are *integer-first* (see :func:`_num`): an
``int`` when the value is integral, a ``Fraction`` only when its
denominator exceeds 1.  Almost every value in a program is an integer,
and ``int`` arithmetic is an order of magnitude cheaper than
``Fraction`` arithmetic; equal values keep one representation, so
hashes, orderings and renderings do not depend on how a value was
computed.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Coeff = Union[int, Fraction]


def _num(value: Coeff) -> Coeff:
    """The normal form of an exact number: ``int`` when integral, else a
    ``Fraction`` with denominator > 1.  Shared by :class:`LinExpr`, the
    cost algebra's ``Poly`` and the DBM entries of the zone and octagon
    domains.  A ``float`` is rejected: the analysis is exact, and a
    binary float silently rounds."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError("exact number expected, got %r" % (value,))


def _frac(value: Coeff) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class LinExpr:
    """An affine expression ``sum(coeffs[v] * v) + const``.

    Immutable; arithmetic operators build new expressions.  Variables are
    plain strings (register names, length variables like ``a#len``, or
    seed variables like ``i@seed``).
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Mapping[str, Coeff]] = None, const: Coeff = 0):
        items = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if coeff != 0:
                    items[var] = _num(coeff)
        self.coeffs: Dict[str, Coeff] = items
        self.const: Coeff = _num(const)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr({name: 1})

    @staticmethod
    def constant(value: Coeff) -> "LinExpr":
        return LinExpr(None, value)

    # -- queries ----------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, var: str) -> Coeff:
        return self.coeffs.get(var, 0)

    def evaluate(self, env: Mapping[str, Coeff]) -> Fraction:
        total = _frac(self.const)
        for var, coeff in self.coeffs.items():
            total += coeff * _frac(env[var])
        return total

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        """Replace ``var`` by ``replacement``."""
        if var not in self.coeffs:
            return self
        coeff = self.coeffs[var]
        rest = {v: c for v, c in self.coeffs.items() if v != var}
        return LinExpr(rest, self.const) + replacement * coeff

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        return LinExpr(
            {mapping.get(v, v): c for v, c in self.coeffs.items()}, self.const
        )

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const + other)
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    def __radd__(self, other: Coeff) -> "LinExpr":
        return self + other

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const - other)
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "LinExpr":
        return (-self) + other

    def __mul__(self, factor: Coeff) -> "LinExpr":
        f = _num(factor)
        return LinExpr({v: c * f for v, c in self.coeffs.items()}, self.const * f)

    def __rmul__(self, factor: Coeff) -> "LinExpr":
        return self * factor

    # -- equality / hashing -----------------------------------------------------------

    def _key(self) -> Tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinExpr) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        parts = []
        for var in sorted(self.coeffs):
            coeff = self.coeffs[var]
            if coeff == 1:
                parts.append("+ %s" % var)
            elif coeff == -1:
                parts.append("- %s" % var)
            elif coeff > 0:
                parts.append("+ %s*%s" % (coeff, var))
            else:
                parts.append("- %s*%s" % (-coeff, var))
        if self.const != 0 or not parts:
            sign = "+" if self.const >= 0 else "-"
            parts.append("%s %s" % (sign, abs(self.const)))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text

    def __repr__(self) -> str:
        return "LinExpr(%s)" % self


class RelOp(enum.Enum):
    LE = "<="
    EQ = "=="


class LinCons:
    """A linear constraint ``expr <= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "op")

    def __init__(self, expr: LinExpr, op: RelOp):
        self.expr = expr
        self.op = op

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def le(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        """``lhs <= rhs``."""
        return LinCons(lhs - rhs, RelOp.LE)

    @staticmethod
    def ge(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.constant(rhs)
        return LinCons(rhs_expr - lhs, RelOp.LE)

    @staticmethod
    def lt(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        """``lhs < rhs`` over integers: ``lhs <= rhs - 1``."""
        return LinCons(lhs - rhs + 1, RelOp.LE)

    @staticmethod
    def gt(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        rhs_expr = rhs if isinstance(rhs, LinExpr) else LinExpr.constant(rhs)
        return LinCons(rhs_expr - lhs + 1, RelOp.LE)

    @staticmethod
    def eq(lhs: LinExpr, rhs: Union[LinExpr, Coeff]) -> "LinCons":
        return LinCons(lhs - rhs, RelOp.EQ)

    # -- queries --------------------------------------------------------------------

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def holds(self, env: Mapping[str, Coeff]) -> bool:
        value = self.expr.evaluate(env)
        return value == 0 if self.op is RelOp.EQ else value <= 0

    def negate(self) -> "LinCons":
        """Integer negation of an inequality; equalities cannot be negated
        into a single constraint (raises)."""
        if self.op is RelOp.EQ:
            raise ValueError("cannot negate an equality into one constraint")
        # not(e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0
        return LinCons(-self.expr + 1, RelOp.LE)

    def rename(self, mapping: Mapping[str, str]) -> "LinCons":
        return LinCons(self.expr.rename(mapping), self.op)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinCons)
            and self.op == other.op
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.op))

    def __str__(self) -> str:
        return "%s %s 0" % (self.expr, self.op.value)

    def __repr__(self) -> str:
        return "LinCons(%s)" % self


def conjunction_holds(constraints: Iterable[LinCons], env: Mapping[str, Coeff]) -> bool:
    return all(c.holds(env) for c in constraints)
