"""The octagon abstract domain (Miné).

Octagons track constraints of the form ``±x ± y <= c``, strictly more
precise than zones (which lack the ``x + y <= c`` forms).  Used as the
default "PPL-grade" relational domain of the reproduction and compared
against zones in the domain-ablation benchmark.

Representation: a DBM over 2n indices; variable ``v`` with index ``k``
contributes ``V[2k] = +v`` and ``V[2k+1] = -v``.  ``m[i][j]`` bounds
``V_i - V_j``.  The *coherence* invariant ``m[i][j] == m[bar(j)][bar(i)]``
(where ``bar`` flips the low bit) is maintained by all operations.
Strong closure = shortest paths + the strengthening step
``m[i][j] = min(m[i][j], (m[i][bar(i)] + m[bar(j)][j]) / 2)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.domains import dbm
from repro.domains.base import AbstractState, Bound, Domain
from repro.domains.linexpr import Coeff, LinCons, LinExpr, RelOp, _num

Matrix = List[List[Bound]]


def _bar(i: int) -> int:
    return i ^ 1


def _add(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return a + b


def _minb(a: Bound, b: Bound) -> Bound:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _maxb(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return max(a, b)


class OctagonState(AbstractState):
    def __init__(
        self,
        variables: Sequence[str] = (),
        matrix: Optional[Matrix] = None,
        bottom: bool = False,
        closed: bool = False,
    ):
        self._vars: List[str] = list(variables)
        self._index: Dict[str, int] = {v: 2 * i for i, v in enumerate(self._vars)}
        n = 2 * len(self._vars)
        if matrix is None:
            matrix = [[None] * n for _ in range(n)]
            for i in range(n):
                matrix[i][i] = 0
        self._m = matrix
        self._bottom = bottom
        self._closed = closed

    # -- plumbing -------------------------------------------------------------

    def _dim(self) -> int:
        return 2 * len(self._vars)

    def _copy_matrix(self) -> Matrix:
        return [row[:] for row in self._m]

    def _with_vars(self, variables: Sequence[str]) -> "OctagonState":
        new_vars = list(self._vars)
        for var in variables:
            if var not in self._index:
                new_vars.append(var)
        if len(new_vars) == len(self._vars):
            return self
        n_new = 2 * len(new_vars)
        matrix: Matrix = [[None] * n_new for _ in range(n_new)]
        for i in range(n_new):
            matrix[i][i] = 0
        n_old = self._dim()
        for i in range(n_old):
            for j in range(n_old):
                matrix[i][j] = self._m[i][j]
        return OctagonState(new_vars, matrix, self._bottom, self._closed)

    def _reordered(self, variables: Sequence[str]) -> "OctagonState":
        assert set(variables) == set(self._vars)
        n = 2 * len(variables)
        matrix: Matrix = [[None] * n for _ in range(n)]
        pos: List[int] = []
        for var in variables:
            pos.append(self._index[var])
            pos.append(self._index[var] + 1)
        for i in range(n):
            for j in range(n):
                matrix[i][j] = self._m[pos[i]][pos[j]]
        return OctagonState(variables, matrix, self._bottom, self._closed)

    def _aligned(self, other: "OctagonState") -> Tuple["OctagonState", "OctagonState"]:
        if self._vars == other._vars:
            # Identity fast path: same index space already (see the zone
            # domain) — alignment sits under every join/leq/widen.
            return self, other
        left = self._with_vars(other._vars)
        right = other._with_vars(left._vars)
        left = left._with_vars(right._vars)
        if left._vars != right._vars:
            right = right._reordered(left._vars)
        return left, right

    def _close(self) -> "OctagonState":
        if self._bottom or self._closed:
            return self
        n = self._dim()
        # Strong closure runs on the flat INF-encoded kernel
        # (repro.domains.dbm): alternating shortest-path and
        # strengthening rounds, identical entry-wise to the reference
        # triple loop.  Division stays exact: even ints halve to ints,
        # odd ones become Fractions.
        m = dbm.rows_from_opt(self._m)
        if not dbm.octagon_close_rows(m, n):
            return OctagonState(self._vars, None, bottom=True, closed=True)
        return OctagonState(self._vars, dbm.rows_to_opt(m), False, closed=True)

    def _set(self, m: Matrix, i: int, j: int, bound) -> None:
        """Tighten m[i][j] (and its coherent mirror) to ``bound``."""
        bound = _num(bound)
        if m[i][j] is None or bound < m[i][j]:
            m[i][j] = bound
        bi, bj = _bar(j), _bar(i)
        if m[bi][bj] is None or bound < m[bi][bj]:
            m[bi][bj] = bound

    # -- lattice -----------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self._close()._bottom

    def join(self, other: "OctagonState") -> "OctagonState":
        a, b = self._close(), other._close()
        if a._bottom:
            return b
        if b._bottom:
            return a
        a, b = a._aligned(b)
        a, b = a._close(), b._close()
        n = a._dim()
        matrix = [[_maxb(a._m[i][j], b._m[i][j]) for j in range(n)] for i in range(n)]
        return OctagonState(a._vars, matrix, False, closed=True)

    def widen(self, other: "OctagonState") -> "OctagonState":
        old, new = self._close(), other._close()
        if old._bottom:
            return new
        if new._bottom:
            return old
        old, new = old._aligned(new)
        old, new = old._close(), new._close()
        n = old._dim()
        matrix: Matrix = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                o, w = old._m[i][j], new._m[i][j]
                matrix[i][j] = o if (o is not None and w is not None and w <= o) else None
        for i in range(n):
            matrix[i][i] = 0
        return OctagonState(old._vars, matrix, False, closed=False)

    def leq(self, other: "OctagonState") -> bool:
        a = self._close()
        if a._bottom:
            return True
        b = other._close()
        if b._bottom:
            return False
        a, b = a._aligned(b)
        a, b = a._close(), b._close()
        n = a._dim()
        for i in range(n):
            for j in range(n):
                if b._m[i][j] is None:
                    continue
                if a._m[i][j] is None or a._m[i][j] > b._m[i][j]:
                    return False
        return True

    # -- transfer --------------------------------------------------------------------

    def assign(self, var: str, expr: Optional[LinExpr]) -> "OctagonState":
        if self._bottom:
            return self
        state = self._with_vars([var])._close()
        if state._bottom:
            return state
        if expr is None:
            return state.forget(var)
        x = state._index[var]
        coeffs = expr.coeffs
        if not coeffs:
            result = state.forget(var)
            m = result._copy_matrix()
            self._set(m, x, x + 1, 2 * expr.const)
            self._set(m, x + 1, x, -2 * expr.const)
            return OctagonState(result._vars, m, False, closed=False)._close()
        if len(coeffs) == 1:
            (src, coeff), = coeffs.items()
            if src == var and coeff == 1:
                # var := var + c : translate.
                c = expr.const
                m = state._copy_matrix()
                n = state._dim()

                def shift(i: int) -> Coeff:
                    if i == x:
                        return c
                    if i == x + 1:
                        return -c
                    return 0

                for i in range(n):
                    for j in range(n):
                        if i != j and m[i][j] is not None:
                            m[i][j] = m[i][j] + shift(i) - shift(j)
                return OctagonState(state._vars, m, False, closed=True)
            if src == var and coeff == -1:
                # var := -var + c : swap the ± rows/cols, then translate.
                m = state._copy_matrix()
                n = state._dim()
                perm = list(range(n))
                perm[x], perm[x + 1] = perm[x + 1], perm[x]
                m = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
                swapped = OctagonState(state._vars, m, False, closed=True)
                return swapped.assign(var, LinExpr.var(var) + expr.const)
            if src != var and coeff in (1, -1):
                state = state._with_vars([src])._close()
                x = state._index[var]
                y = state._index[src]
                result = state.forget(var)
                m = result._copy_matrix()
                c = expr.const
                if coeff == 1:
                    # x - y <= c and y - x <= -c
                    self._set(m, x, y, c)
                    self._set(m, y, x, -c)
                else:
                    # x + y <= c  (x - (-y) <= c) and -(x + y) <= -c
                    self._set(m, x, y + 1, c)
                    self._set(m, y + 1, x, -c)
                return OctagonState(result._vars, m, False, closed=False)._close()
        lo, hi = state.bounds_of(expr)
        result = state.forget(var)
        m = result._copy_matrix()
        if hi is not None:
            self._set(m, x, x + 1, 2 * hi)
        if lo is not None:
            self._set(m, x + 1, x, -2 * lo)
        return OctagonState(result._vars, m, False, closed=False)._close()

    def guard(self, cons: LinCons) -> "OctagonState":
        if self._bottom:
            return self
        if cons.op is RelOp.EQ:
            return self.guard(LinCons(cons.expr, RelOp.LE)).guard(
                LinCons(-cons.expr, RelOp.LE)
            )
        expr = cons.expr
        state = self._with_vars(list(expr.coeffs))._close()
        if state._bottom:
            return state
        m = state._copy_matrix()
        items = sorted(expr.coeffs.items())
        handled = False
        if len(items) == 1:
            (name, coeff), = items
            x = state._index[name]
            if coeff == 1:  # x <= -c
                self._set(m, x, x + 1, -2 * expr.const)
                handled = True
            elif coeff == -1:  # -x <= -c
                self._set(m, x + 1, x, -2 * expr.const)
                handled = True
        elif len(items) == 2:
            (na, ca), (nb, cb) = items
            if abs(ca) == 1 and abs(cb) == 1:
                a = state._index[na]
                b = state._index[nb]
                c = -expr.const
                if ca == 1 and cb == -1:
                    self._set(m, a, b, c)  # a - b <= c
                elif ca == -1 and cb == 1:
                    self._set(m, b, a, c)
                elif ca == 1 and cb == 1:
                    self._set(m, a, b + 1, c)  # a + b <= c
                else:
                    self._set(m, a + 1, b, c)  # -a - b <= c
                handled = True
        if not handled:
            closed = OctagonState(state._vars, m, False, closed=False)._close()
            if closed._bottom:
                return closed
            lo, _ = closed.bounds_of(expr)
            if lo is not None and lo > 0:
                return OctagonState(state._vars, None, bottom=True, closed=True)
            m = closed._copy_matrix()
            for var, coeff in expr.coeffs.items():
                rest = LinExpr(
                    {v: c for v, c in expr.coeffs.items() if v != var}, expr.const
                )
                rest_lo, _ = closed.bounds_of(rest)
                if rest_lo is None:
                    continue
                limit = Fraction(-rest_lo) / coeff
                x = state._index[var]
                if coeff > 0:
                    self._set(m, x, x + 1, 2 * limit)
                else:
                    self._set(m, x + 1, x, -2 * limit)
        return OctagonState(state._vars, m, False, closed=False)._close()

    def forget(self, var: str) -> "OctagonState":
        if self._bottom or var not in self._index:
            return self
        state = self._close()
        if state._bottom:
            return state
        m = state._copy_matrix()
        x = state._index[var]
        n = state._dim()
        for j in range(n):
            m[x][j] = None
            m[j][x] = None
            m[x + 1][j] = None
            m[j][x + 1] = None
        m[x][x] = 0
        m[x + 1][x + 1] = 0
        return OctagonState(state._vars, m, False, closed=True)

    def project_out(self, names: AbstractSet[str]) -> "OctagonState":
        """The submatrix of the strongly closed DBM over the remaining
        variables (both ``±v`` rows of each): exact, and still closed."""
        if self._bottom or not any(name in self._index for name in names):
            return self
        state = self._close()
        if state._bottom:
            return state
        kept = [v for v in state._vars if v not in names]
        keep = [i for v in kept for i in (state._index[v], state._index[v] + 1)]
        m = state._m
        matrix: Matrix = [[m[i][j] for j in keep] for i in keep]
        return OctagonState(kept, matrix, False, closed=True)

    # -- queries ------------------------------------------------------------------------

    @staticmethod
    def _half(bound):
        if isinstance(bound, int):
            return bound // 2 if bound % 2 == 0 else Fraction(bound, 2)
        return bound / 2

    def _var_hi(self, state: "OctagonState", x: int) -> Bound:
        bound = state._m[x][x + 1]
        return None if bound is None else self._half(bound)

    def _var_lo(self, state: "OctagonState", x: int) -> Bound:
        bound = state._m[x + 1][x]
        return None if bound is None else -self._half(bound)

    def bounds_of(self, expr: LinExpr) -> Tuple[Bound, Bound]:
        state = self._close()
        if state._bottom:
            return Fraction(0), Fraction(-1)
        for var in expr.coeffs:
            if var not in state._index:
                return None, None
        items = sorted(expr.coeffs.items())
        if len(items) == 2 and abs(items[0][1]) == 1 and abs(items[1][1]) == 1:
            (na, ca), (nb, cb) = items
            a = state._index[na]
            b = state._index[nb]
            ia = a if ca == 1 else a + 1
            ib = b if cb == 1 else b + 1
            # expr - const = V_ia + V_ib = V_ia - V_{bar(ib)}
            hi = state._m[ia][_bar(ib)]
            lo = state._m[_bar(ia)][ib]
            hi_val = None if hi is None else hi + expr.const
            lo_val = None if lo is None else -lo + expr.const
            return lo_val, hi_val
        # Greedy difference-pairing (as in the zone domain): match
        # positive-coefficient variables against negative ones — same
        # base name first, so seeded queries like
        # (low - i) - (low@pre - i@pre) stay exact — then unary
        # leftovers from the ±x bounds.
        pos: Dict[str, Coeff] = {}
        neg: Dict[str, Coeff] = {}
        for var, coeff in expr.coeffs.items():
            if coeff > 0:
                pos[var] = coeff
            else:
                neg[var] = -coeff
        lo: Bound = expr.const
        hi: Bound = expr.const

        def base(name: str) -> str:
            return name.split("@", 1)[0]

        def consume_pair(a_name: str, b_name: str) -> None:
            nonlocal lo, hi
            t = min(pos[a_name], neg[b_name])
            i = state._index[a_name]
            j = state._index[b_name]
            hi_ab = state._m[i][j]
            lo_ab = None if state._m[j][i] is None else -state._m[j][i]
            hi = _add(hi, None if hi_ab is None else t * hi_ab)
            lo = _add(lo, None if lo_ab is None else t * lo_ab)
            pos[a_name] -= t
            neg[b_name] -= t
            if pos[a_name] == 0:
                del pos[a_name]
            if neg[b_name] == 0:
                del neg[b_name]

        for a_name in sorted(pos):
            for b_name in sorted(neg):
                if a_name in pos and b_name in neg and base(a_name) == base(b_name):
                    consume_pair(a_name, b_name)
        for a_name in sorted(pos):
            for b_name in sorted(neg):
                if a_name in pos and b_name in neg:
                    i = state._index[a_name]
                    j = state._index[b_name]
                    if state._m[i][j] is not None or state._m[j][i] is not None:
                        consume_pair(a_name, b_name)
        for var, amount in sorted(pos.items()):
            x = state._index[var]
            vlo, vhi = self._var_lo(state, x), self._var_hi(state, x)
            hi = _add(hi, None if vhi is None else amount * vhi)
            lo = _add(lo, None if vlo is None else amount * vlo)
        for var, amount in sorted(neg.items()):
            x = state._index[var]
            vlo, vhi = self._var_lo(state, x), self._var_hi(state, x)
            hi = _add(hi, None if vlo is None else amount * -vlo)
            lo = _add(lo, None if vhi is None else amount * -vhi)
        return lo, hi

    def constraints(self) -> List[LinCons]:
        state = self._close()
        if state._bottom:
            return [LinCons.le(LinExpr.constant(1), 0)]
        out: List[LinCons] = []
        n = state._dim()

        def term(i: int) -> LinExpr:
            var = state._vars[i // 2]
            return LinExpr.var(var) if i % 2 == 0 else -LinExpr.var(var)

        seen = set()
        for i in range(n):
            for j in range(n):
                if i == j or state._m[i][j] is None:
                    continue
                if i == _bar(j):
                    # Unary: V_i - V_bar(i) = 2 * (±var)
                    expr = term(i)
                    cons = LinCons.le(expr, self._half(state._m[i][j]))
                else:
                    cons = LinCons.le(term(i) - term(j), state._m[i][j])
                if cons not in seen:
                    seen.add(cons)
                    out.append(cons)
        return out

    def __str__(self) -> str:
        if self.is_bottom():
            return "⊥"
        cons = self.constraints()
        return " ∧ ".join(str(c) for c in cons) if cons else "⊤"


class OctagonDomain(Domain):
    name = "octagon"

    def top(self, variables: Sequence[str] = ()) -> OctagonState:
        return OctagonState(variables, closed=True)

    def bottom(self, variables: Sequence[str] = ()) -> OctagonState:
        return OctagonState(variables, None, bottom=True, closed=True)
