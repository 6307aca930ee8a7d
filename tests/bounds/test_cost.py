"""Symbolic cost algebra unit tests."""

from fractions import Fraction

import pytest

from repro.bounds.cost import MAX_SET_SIZE, CostBound, Poly

L = frozenset({"n"})


def sym(name):
    return Poly.symbol(name)


class TestPoly:
    def test_arithmetic(self):
        p = sym("n") * 2 + Poly.constant(3)
        q = sym("n") + Poly.constant(1)
        assert (p + q).terms == (3 * sym("n") + Poly.constant(4)).terms

    def test_multiplication_degree(self):
        p = sym("n") + Poly.constant(1)
        sq = p * p
        assert sq.degree() == 2
        assert sq.terms[("n", "n")] == 1
        assert sq.terms[("n",)] == 2

    def test_evaluate(self):
        p = sym("a") * sym("b") + 2 * sym("a") + Poly.constant(5)
        assert p.evaluate({"a": 3, "b": 4}) == 12 + 6 + 5

    def test_dominates_with_nonneg(self):
        big = 2 * sym("n")
        small = sym("n")
        assert big.dominates(small, L)
        assert not small.dominates(big, L)
        # Without nonneg knowledge nothing dominates.
        assert not big.dominates(small, frozenset())

    def test_zero_and_one(self):
        assert Poly.ZERO.degree() == 0
        assert Poly.ONE.const_value == 1

    def test_str_readable(self):
        assert str(23 * sym("g#len") + Poly.constant(10)) == "23*g#len + 10"


def is_normal(value):
    """Integer-first normal form: an int, or a Fraction that is not one."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator > 1


class TestIntegerFirst:
    def test_integral_coefficients_are_ints(self):
        p = Poly({(): Fraction(6, 3), ("n",): Fraction(2), ("m",): Fraction(0)})
        assert p.terms == {(): 2, ("n",): 2}
        assert all(type(c) is int for c in p.terms.values())
        assert type(Poly.symbol("n").terms[("n",)]) is int

    def test_halves_that_sum_to_an_integer_normalize(self):
        half = sym("n") * Fraction(1, 2) + Poly.constant(Fraction(1, 2))
        assert all(type(c) is Fraction for c in half.terms.values())
        whole = half + half
        assert whole == sym("n") + Poly.ONE
        assert all(type(c) is int for c in whole.terms.values())
        assert (whole - half).terms == half.terms

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Poly.constant(0.5)
        with pytest.raises(TypeError):
            sym("n") * 1.5
        with pytest.raises(TypeError):
            CostBound.exact(sym("n")).scale(0.5)

    def test_evaluate_stays_exact(self):
        value = (sym("n") * Fraction(1, 3)).evaluate({"n": 2})
        assert type(value) is Fraction and value == Fraction(2, 3)
        assert type(Poly.constant(3).evaluate({})) is Fraction
        lo, hi = CostBound.range(Poly.constant(1), 2 * sym("n"), L).evaluate({"n": 4})
        assert type(lo) is Fraction and type(hi) is Fraction

    def test_scale_and_collapse_keep_the_normal_form(self):
        bound = CostBound.range(sym("n"), 3 * sym("n") + Poly.constant(1), L)
        scaled = bound.scale(Fraction(2, 3))
        for p in scaled.lower + scaled.upper:
            assert all(is_normal(c) for c in p.terms.values())
        collapsed = CostBound.exact(Poly.ZERO, L)
        for k in range(MAX_SET_SIZE + 3):
            collapsed = collapsed.join(
                CostBound.exact(sym("n") * Fraction(k, 2) + Poly.constant(k), L)
            )
        for p in collapsed.lower + collapsed.upper:
            assert all(is_normal(c) for c in p.terms.values())


class TestCostBound:
    def test_exact_and_range(self):
        exact = CostBound.exact(Poly.constant(8))
        assert exact.evaluate({}) == (8, 8)
        rng = CostBound.range(Poly.constant(8), 23 * sym("n") + Poly.constant(10), L)
        lo, hi = rng.evaluate({"n": 4})
        assert (lo, hi) == (8, 102)

    def test_addition(self):
        a = CostBound.range(Poly.constant(1), Poly.constant(2))
        b = CostBound.range(sym("n"), sym("n") + Poly.constant(1), L)
        total = a + b
        lo, hi = total.evaluate({"n": 10})
        assert (lo, hi) == (11, 13)

    def test_unbounded_propagates(self):
        a = CostBound.unbounded(Poly.constant(1))
        b = CostBound.exact(Poly.constant(5))
        assert (a + b).upper is None
        assert b.multiply(a).upper is None
        assert a.degree() is None

    def test_multiply_loop_semantics(self):
        body = CostBound.range(Poly.constant(19), Poly.constant(23), L)
        iters = CostBound.exact(sym("n"), L)
        # The caller vouches for the iteration lower bound's validity
        # (the lemma's side condition); only then is the product exact.
        total = body.multiply(iters, iterations_nonneg=True)
        lo, hi = total.evaluate({"n": 4})
        assert (lo, hi) == (76, 92)

    def test_multiply_clamps_possibly_negative_iterations(self):
        body = CostBound.exact(Poly.constant(10))
        # "n" not known non-negative here.
        iters = CostBound.exact(sym("n"))
        total = body.multiply(iters)
        lo, _ = total.evaluate({"n": -3})
        assert lo <= 0  # clamped member keeps the bound sound

    def test_multiply_unclamped_when_flagged(self):
        body = CostBound.exact(Poly.constant(10))
        iters = CostBound.exact(sym("n"))
        total = body.multiply(iters, iterations_nonneg=True)
        lo, hi = total.evaluate({"n": 5})
        assert (lo, hi) == (50, 50)

    def test_join_widens(self):
        a = CostBound.exact(Poly.constant(5))
        b = CostBound.exact(sym("n"), L)
        joined = a.join(b)
        lo, hi = joined.evaluate({"n": 100})
        assert lo == 5 and hi == 100

    def test_scale(self):
        bound = CostBound.range(Poly.constant(2), Poly.constant(4))
        assert bound.scale(Fraction(3, 2)).evaluate({}) == (3, 6)
        with pytest.raises(ValueError):
            bound.scale(-1)

    def test_upper_clamped_at_zero(self):
        bound = CostBound.exact(sym("n"))  # n may be negative
        _, hi = bound.evaluate({"n": -7})
        assert hi == 0  # the embedded zero polynomial clamps the max

    def test_symbols_and_degree(self):
        bound = CostBound.range(
            sym("a"), sym("a") * sym("b") + Poly.constant(1), frozenset({"a", "b"})
        )
        assert bound.symbols() == frozenset({"a", "b"})
        assert bound.degree() == 2
        assert bound.lower_degree() == 1

    def test_set_cap_collapse_is_sound(self):
        from repro.bounds.cost import MAX_SET_SIZE

        bounds = CostBound.exact(Poly.constant(0), L)
        for k in range(MAX_SET_SIZE + 3):
            bounds = bounds.join(CostBound.exact(k * sym("n") + Poly.constant(k), L))
        # After collapse the upper bound must still dominate every member.
        k_max = MAX_SET_SIZE + 2
        _, hi = bounds.evaluate({"n": 10})
        assert hi >= k_max * 10 + k_max

    def test_str_shape(self):
        bound = CostBound.range(
            19 * sym("g#len") + Poly.constant(10),
            23 * sym("g#len") + Poly.constant(10),
            frozenset({"g#len"}),
        )
        assert str(bound) == "[19*g#len + 10, 23*g#len + 10]"
