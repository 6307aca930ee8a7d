"""Lemma-database unit tests: the iteration-bound matcher in isolation."""

from fractions import Fraction

from repro.bounds.lemmas import (
    IterationBound,
    RankCandidate,
    linexpr_to_poly,
    match_iteration_lemmas,
    seed_name,
    symbolic_form,
)
from repro.domains import DOMAINS, LinCons, LinExpr

ZONE = DOMAINS["zone"]
x = LinExpr.var


def make_transition(delta_lo, delta_hi, var="i"):
    """A transition relation with var - var@pre in [delta_lo, delta_hi]."""
    state = ZONE.top()
    pre = x(seed_name(var))
    state = state.guard(LinCons.ge(x(var) - pre, delta_lo))
    state = state.guard(LinCons.le(x(var) - pre, delta_hi))
    # The bound symbol 'n' is loop-invariant.
    npre = x(seed_name("n"))
    state = state.guard(LinCons.eq(x("n") - npre, 0))
    return state


def make_entry(i0=0, n_nonneg=True):
    state = ZONE.top().assign("i", LinExpr.constant(i0))
    if n_nonneg:
        state = state.guard(LinCons.ge(x("n"), 0))
    return state


RANK = RankCandidate(rank=x("n") - x("i") - 1, branch_node=(1, -1))


class TestHelpers:
    def test_seed_name(self):
        assert seed_name("i") == "i@pre"

    def test_linexpr_to_poly(self):
        poly = linexpr_to_poly(2 * x("a") - x("b") + 3)
        assert poly.evaluate({"a": 5, "b": 1}) == 12

    def test_symbolic_form_direct_symbol(self):
        state = ZONE.top()
        expr = symbolic_form(x("n") + 1, state, ["n"])
        assert expr == x("n") + 1

    def test_symbolic_form_via_equality(self):
        state = ZONE.top().assign("t", x("n") + 2)
        expr = symbolic_form(x("t"), state, ["n"])
        assert expr == x("n") + 2

    def test_symbolic_form_constant_var(self):
        state = ZONE.top().assign("c", LinExpr.constant(7))
        expr = symbolic_form(x("c") + x("n"), state, ["n"])
        assert expr == x("n") + 7

    def test_symbolic_form_unresolvable(self):
        state = ZONE.top()  # 'mystery' unconstrained
        assert symbolic_form(x("mystery"), state, ["n"]) is None


class TestLemmaMatching:
    def _match(self, transition, entry, single_exit=True, **kwargs):
        return match_iteration_lemmas(
            candidates=[RANK],
            transition=transition,
            entry_state=entry,
            seeded_vars={"i", "n"},
            symbols=["n"],
            single_exit_branch=RANK.branch_node if single_exit else None,
            inner_loops_finite=True,
            **kwargs,
        )

    def test_unit_counter_exact(self):
        bound = self._match(make_transition(1, 1), make_entry())
        assert bound.exact
        assert str(bound.upper) == "n"
        assert str(bound.lower) == "n"
        assert bound.lower_nonneg  # delta_max == 1 => unclamped lower valid

    def test_variable_increment_upper_only(self):
        bound = self._match(make_transition(1, 3), make_entry())
        assert not bound.exact
        assert bound.upper is not None and str(bound.upper) == "n"
        # lower uses delta_max=3: ((n-1)+1)/3 = n/3
        assert bound.lower.evaluate({"n": 7}) == Fraction(7, 3)

    def test_fast_decrease_tightens_upper(self):
        bound = self._match(make_transition(2, 2), make_entry())
        # upper = (n-1)/2 + 1 = (n+1)/2
        assert bound.upper.evaluate({"n": 9}) == 5

    def test_non_decreasing_rank_rejected(self):
        bound = self._match(make_transition(-1, 1), make_entry())
        assert bound.upper is None

    def test_multiple_exits_forbid_lower(self):
        bound = self._match(make_transition(1, 1), make_entry(), single_exit=False)
        assert bound.upper is not None
        assert str(bound.lower) == "0"
        assert not bound.exact

    def test_unseeded_rank_variable_skipped(self):
        bound = match_iteration_lemmas(
            candidates=[RankCandidate(rank=x("w") - x("i"), branch_node=(1, -1))],
            transition=make_transition(1, 1),
            entry_state=make_entry(),
            seeded_vars={"i", "n"},  # 'w' not seeded
            symbols=["n"],
            single_exit_branch=(1, -1),
            inner_loops_finite=True,
        )
        assert bound.upper is None

    def test_constant_entry_fallback(self):
        """When the rank has no symbolic form, the entry state's numeric
        upper bound is used (the bigBitLength-style case)."""
        entry = ZONE.top().assign("i", LinExpr.constant(0))
        entry = entry.guard(LinCons.le(x("n"), 100)).guard(LinCons.ge(x("n"), 1))
        bound = match_iteration_lemmas(
            candidates=[RANK],
            transition=make_transition(1, 1),
            entry_state=entry,
            seeded_vars={"i", "n"},
            symbols=[],  # no symbols available at all
            single_exit_branch=RANK.branch_node,
            inner_loops_finite=True,
        )
        assert bound.upper is not None
        assert bound.upper.evaluate({}) == 100  # (100-0-1)/1 + 1

    def test_inner_loops_must_be_finite_for_lower(self):
        bound = match_iteration_lemmas(
            candidates=[RANK],
            transition=make_transition(1, 1),
            entry_state=make_entry(),
            seeded_vars={"i", "n"},
            symbols=["n"],
            single_exit_branch=RANK.branch_node,
            inner_loops_finite=False,
        )
        assert str(bound.lower) == "0"

    def test_no_candidates(self):
        bound = match_iteration_lemmas(
            candidates=[],
            transition=make_transition(1, 1),
            entry_state=make_entry(),
            seeded_vars={"i", "n"},
            symbols=["n"],
            single_exit_branch=None,
            inner_loops_finite=True,
        )
        assert bound.upper is None and str(bound.lower) == "0"

    def test_constant_rank_ceiling_is_exact_on_big_integers(self):
        # Rank n - i - 1 = 10**17 at entry, decreasing by exactly 3: the
        # count is ceil((10**17 + 1) / 3).  Both operands are ints, and a
        # float division would round to 33333333333333332.
        entry = ZONE.top().assign("i", LinExpr.constant(0))
        entry = entry.assign("n", LinExpr.constant(10**17 + 1))
        bound = match_iteration_lemmas(
            candidates=[RANK],
            transition=make_transition(3, 3),
            entry_state=entry,
            seeded_vars={"i", "n"},
            symbols=[],
            single_exit_branch=RANK.branch_node,
            inner_loops_finite=True,
        )
        expected = -(-(10**17 + 1) // 3)
        assert expected == 33333333333333334
        assert bound.upper.terms == {(): expected}
        assert bound.lower.terms == {(): expected}
        assert bound.exact
        assert type(bound.upper.const_value) is int
