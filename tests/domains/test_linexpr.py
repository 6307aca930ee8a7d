"""Linear expressions and constraints."""

from fractions import Fraction

import pytest

from repro.domains.linexpr import LinCons, LinExpr, RelOp

x = LinExpr.var("x")
y = LinExpr.var("y")


class TestLinExpr:
    def test_arithmetic(self):
        expr = 2 * x + y - 3
        assert expr.coeff("x") == 2
        assert expr.coeff("y") == 1
        assert expr.const == -3

    def test_zero_coefficients_dropped(self):
        expr = x - x + y
        assert expr.variables() == ("y",)

    def test_evaluate(self):
        expr = 2 * x - y + 1
        assert expr.evaluate({"x": 3, "y": 5}) == 2

    def test_substitute(self):
        expr = 2 * x + y
        assert expr.substitute("x", y + 1) == 3 * y + 2
        assert expr.substitute("z", y) == expr

    def test_rename(self):
        expr = x + 2 * y
        renamed = expr.rename({"x": "x@pre"})
        assert renamed.coeff("x@pre") == 1
        assert renamed.coeff("x") == 0

    def test_equality_and_hash(self):
        assert x + 1 == LinExpr({"x": 1}, 1)
        assert hash(x + 1) == hash(LinExpr({"x": 1}, 1))
        assert x + 1 != x + 2

    def test_scalar_multiplication(self):
        expr = (x + 2) * Fraction(1, 2)
        assert expr.coeff("x") == Fraction(1, 2)
        assert expr.const == 1


class TestLinCons:
    def test_le_normalization(self):
        cons = LinCons.le(x, y)  # x - y <= 0
        assert cons.op is RelOp.LE
        assert cons.holds({"x": 1, "y": 2})
        assert not cons.holds({"x": 3, "y": 2})

    def test_strict_integer_tightening(self):
        cons = LinCons.lt(x, 5)  # x <= 4
        assert cons.holds({"x": 4})
        assert not cons.holds({"x": 5})

    def test_ge_gt(self):
        assert LinCons.ge(x, 3).holds({"x": 3})
        assert not LinCons.gt(x, 3).holds({"x": 3})

    def test_eq(self):
        cons = LinCons.eq(x + y, 4)
        assert cons.holds({"x": 1, "y": 3})
        assert not cons.holds({"x": 1, "y": 4})

    def test_negate_inequality(self):
        cons = LinCons.le(x, 3)
        neg = cons.negate()
        for value in (-1, 3, 4, 10):
            assert cons.holds({"x": value}) != neg.holds({"x": value})

    def test_negate_equality_raises(self):
        with pytest.raises(ValueError):
            LinCons.eq(x, 1).negate()

    def test_rename(self):
        cons = LinCons.le(x, y).rename({"x": "a"})
        assert "a" in cons.variables()


def is_normal(value):
    """Integer-first normal form: an int, or a Fraction that is not one."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator > 1


class TestIntegerFirst:
    def test_integral_values_are_stored_as_ints(self):
        expr = LinExpr({"x": Fraction(4, 2), "y": Fraction(0)}, Fraction(6, 3))
        assert expr.coeffs == {"x": 2} and type(expr.coeffs["x"]) is int
        assert type(expr.const) is int

    def test_non_integral_values_stay_fractions(self):
        expr = (x + 1) * Fraction(1, 3)
        assert expr.coeffs["x"] == Fraction(1, 3)
        assert type(expr.const) is Fraction

    def test_fraction_arithmetic_that_lands_on_an_integer_normalizes(self):
        half = x * Fraction(1, 2) + Fraction(1, 2)
        whole = half + half
        assert whole == x + 1
        assert all(is_normal(v) for v in list(whole.coeffs.values()) + [whole.const])
        assert type(whole.coeffs["x"]) is int and type(whole.const) is int

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            LinExpr({"x": 0.5})
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            LinExpr.constant(1.0)

    def test_evaluate_stays_exact(self):
        value = (x * Fraction(1, 3) + 2).evaluate({"x": 1})
        assert type(value) is Fraction and value == Fraction(7, 3)
        assert type((x + 1).evaluate({"x": 2})) is Fraction

    def test_coeff_of_absent_variable_is_int_zero(self):
        assert x.coeff("y") == 0 and type(x.coeff("y")) is int


class TestExactDivision:
    """Every true division in the domains divides a Fraction, so two int
    operands never produce a float: ``2x + 3y <= 7`` bounds x by 7/2."""

    def _box_guard(self, domain):
        from repro.domains import DOMAINS

        state = DOMAINS[domain].top(["x", "y"])
        state = state.guard(LinCons.ge(x, 0)).guard(LinCons.ge(y, 0))
        return state.guard(LinCons.le(2 * x + 3 * y, 7))

    @pytest.mark.parametrize("domain", ["zone", "octagon", "interval", "polyhedra"])
    def test_fallback_guard_limits_are_fractions(self, domain):
        state = self._box_guard(domain)
        _, x_hi = state.bounds_of(x)
        _, y_hi = state.bounds_of(y)
        assert x_hi == Fraction(7, 2) and type(x_hi) is Fraction
        assert y_hi == Fraction(7, 3) and type(y_hi) is Fraction

    def test_zone_matrix_never_holds_a_float(self):
        from repro.domains.dbm import INF

        state = self._box_guard("zone")._close()
        for row in state._m:
            for entry in row:
                assert entry == INF or is_normal(entry)

    def test_polyhedra_bounds_divide_a_fraction(self):
        from repro.domains import DOMAINS

        state = DOMAINS["polyhedra"].top(["x", "y"]).guard(LinCons.le(2 * x, 7))
        state = state.guard(LinCons.ge(2 * x, -7))
        lo, hi = state.bounds_of(x)
        assert (lo, hi) == (Fraction(-7, 2), Fraction(7, 2))
        assert type(lo) is Fraction and type(hi) is Fraction
        # 3y <= 3 normalizes to y - 1 <= 0: int over int.
        state = state.guard(LinCons.le(3 * y, 3)).guard(LinCons.ge(3 * y, -3))
        lo, hi = state.bounds_of(y)
        assert (lo, hi) == (-1, 1)
        assert type(lo) is Fraction and type(hi) is Fraction
