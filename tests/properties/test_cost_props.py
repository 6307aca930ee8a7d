"""Property-based tests for the symbolic cost algebra (and the
integer-first numbers it shares with ``LinExpr``).

The semantic contract of a CostBound at a valuation x (with the nonneg
symbols >= 0) is the interval  [min_i L_i(x), max(0, max_j U_j(x))].
Addition, join and scaling must be sound interval operations under this
reading; multiply must over-approximate the product with a non-negative
left factor.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bounds.cost import CostBound, Poly
from repro.domains.linexpr import LinExpr

SYMS = ["n", "m"]
NONNEG = frozenset(SYMS)


@st.composite
def polys(draw):
    terms = {(): Fraction(draw(st.integers(-5, 20)))}
    for sym in SYMS:
        if draw(st.booleans()):
            terms[(sym,)] = Fraction(draw(st.integers(0, 6)))
    return Poly(terms)


@st.composite
def bounds(draw):
    lo = draw(polys())
    hi = lo + Poly.constant(draw(st.integers(0, 10)))
    if draw(st.booleans()):
        hi = hi + Poly.symbol(draw(st.sampled_from(SYMS)))
    return CostBound.range(lo, hi, NONNEG)


envs = st.fixed_dictionaries({s: st.integers(0, 9) for s in SYMS})


def interval(bound, env):
    lo, hi = bound.evaluate(env)
    assert hi is None or lo <= max(hi, lo)  # well-formedness
    return lo, hi


@settings(max_examples=80, deadline=None)
@given(bounds(), bounds(), envs)
def test_addition_is_interval_addition(a, b, env):
    lo_a, hi_a = interval(a, env)
    lo_b, hi_b = interval(b, env)
    lo, hi = interval(a + b, env)
    assert lo <= lo_a + lo_b
    assert hi >= hi_a + hi_b


@settings(max_examples=80, deadline=None)
@given(bounds(), bounds(), envs)
def test_join_contains_both(a, b, env):
    joined = a.join(b)
    lo, hi = interval(joined, env)
    for side in (a, b):
        s_lo, s_hi = interval(side, env)
        assert lo <= s_lo
        assert hi >= s_hi


@settings(max_examples=80, deadline=None)
@given(bounds(), envs, st.integers(0, 5))
def test_scale_is_pointwise(a, env, k):
    lo_a, hi_a = interval(a, env)
    lo, hi = interval(a.scale(k), env)
    assert lo <= k * lo_a
    assert hi >= k * hi_a


@settings(max_examples=80, deadline=None)
@given(bounds(), bounds(), envs)
def test_multiply_over_approximates_nonneg_product(body, iters, env):
    """For any achievable body cost c in [body] with c >= 0 and any
    achievable iteration count k in [iters] with k >= 0, the product
    c*k must lie inside body.multiply(iters)."""
    product = body.multiply(iters)
    b_lo, b_hi = interval(body, env)
    i_lo, i_hi = interval(iters, env)
    lo, hi = interval(product, env)
    # Sample achievable nonnegative values at the interval corners.
    for c in {max(b_lo, 0), max(b_hi, 0)}:
        for k in {max(i_lo, 0), max(i_hi, 0)}:
            assert lo <= c * k <= max(hi, 0), (c, k, lo, hi)


@settings(max_examples=60, deadline=None)
@given(bounds(), envs)
def test_upper_clamped_at_zero(a, env):
    _, hi = interval(a, env)
    assert hi >= 0  # the embedded zero polynomial


@settings(max_examples=60, deadline=None)
@given(bounds())
def test_degree_reflects_symbols(a):
    if a.degree() == 0:
        assert all(p.is_constant for p in a.upper)
    assert a.symbols() <= frozenset(SYMS)


# -- integer-first numerics vs a pure-Fraction reference ----------------------
#
# LinExpr and Poly store integral values as ints and everything else as
# Fractions.  Random arithmetic over both must equal the same arithmetic
# done on Fractions only, never store an integral Fraction and never
# produce a float.

LIN_VARS = ["x", "y", "z"]
ROTATE = {"x": "y", "y": "z", "z": "x"}  # a bijection: rename never merges

numbers = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),  # 4/2 included
    st.integers(-(10**20), 10**20),
)


def normal(value) -> bool:
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator > 1


def lin_leaves():
    return st.one_of(
        st.tuples(st.just("var"), st.sampled_from(LIN_VARS)),
        st.tuples(st.just("const"), numbers),
        st.tuples(st.just("lin"), st.dictionaries(st.sampled_from(LIN_VARS), numbers), numbers),
    )


def lin_nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), children, children),
        st.tuples(st.sampled_from(["mul", "rmul", "addc", "raddc", "subc", "rsubc"]), children, numbers),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("subst"), children, st.sampled_from(LIN_VARS), children),
        st.tuples(st.just("rename"), children),
    )


lin_trees = st.recursive(lin_leaves(), lin_nodes, max_leaves=10)


def lin_real(t) -> LinExpr:
    op = t[0]
    if op == "var":
        return LinExpr.var(t[1])
    if op == "const":
        return LinExpr.constant(t[1])
    if op == "lin":
        return LinExpr(t[1], t[2])
    if op == "add":
        return lin_real(t[1]) + lin_real(t[2])
    if op == "sub":
        return lin_real(t[1]) - lin_real(t[2])
    if op == "neg":
        return -lin_real(t[1])
    if op == "subst":
        return lin_real(t[1]).substitute(t[2], lin_real(t[3]))
    if op == "rename":
        return lin_real(t[1]).rename(ROTATE)
    e, k = lin_real(t[1]), t[2]
    if op == "mul":
        return e * k
    if op == "rmul":
        return k * e
    if op == "addc":
        return e + k
    if op == "raddc":
        return k + e
    if op == "subc":
        return e - k
    return k - e  # rsubc


def lin_ref(t):
    """(coefficients, constant) computed on Fractions only."""
    op = t[0]
    if op == "var":
        return {t[1]: Fraction(1)}, Fraction(0)
    if op == "const":
        return {}, Fraction(t[1])
    if op == "lin":
        return {v: Fraction(c) for v, c in t[1].items() if c != 0}, Fraction(t[2])

    def combine(a, b, sign):
        coeffs = dict(a[0])
        for v, c in b[0].items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + sign * c
        return {v: c for v, c in coeffs.items() if c != 0}, a[1] + sign * b[1]

    def scale(a, k):
        return {v: c * k for v, c in a[0].items() if c * k != 0}, a[1] * k

    if op in ("add", "sub"):
        return combine(lin_ref(t[1]), lin_ref(t[2]), 1 if op == "add" else -1)
    if op == "neg":
        return scale(lin_ref(t[1]), Fraction(-1))
    if op == "subst":
        coeffs, const = lin_ref(t[1])
        if t[2] not in coeffs:
            return coeffs, const
        c = coeffs.pop(t[2])
        return combine((coeffs, const), scale(lin_ref(t[3]), c), 1)
    if op == "rename":
        coeffs, const = lin_ref(t[1])
        return {ROTATE[v]: c for v, c in coeffs.items()}, const
    a, k = lin_ref(t[1]), Fraction(t[2])
    if op in ("mul", "rmul"):
        return scale(a, k)
    if op in ("addc", "raddc"):
        return a[0], a[1] + k
    if op == "subc":
        return a[0], a[1] - k
    return scale(a, Fraction(-1))[0], k - a[1]  # rsubc


lin_envs = st.fixed_dictionaries({v: st.integers(-50, 50) for v in LIN_VARS})


@settings(max_examples=400, deadline=None)
@given(lin_trees, lin_envs)
def test_linexpr_arithmetic_matches_fraction_reference(tree, env):
    expr = lin_real(tree)
    coeffs, const = lin_ref(tree)
    assert expr.coeffs == coeffs and expr.const == const
    assert all(normal(v) for v in expr.coeffs.values()) and normal(expr.const)
    value = expr.evaluate(env)
    assert type(value) is Fraction
    assert value == const + sum(c * env[v] for v, c in coeffs.items())


def poly_nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        st.tuples(st.sampled_from(["scale", "rscale"]), children, numbers),
    )


poly_trees = st.recursive(
    st.one_of(
        st.tuples(st.just("sym"), st.sampled_from(SYMS)),
        st.tuples(st.just("const"), numbers),
    ),
    poly_nodes,
    max_leaves=8,
)


def poly_real(t) -> Poly:
    op = t[0]
    if op == "sym":
        return Poly.symbol(t[1])
    if op == "const":
        return Poly.constant(t[1])
    if op == "scale":
        return poly_real(t[1]) * t[2]
    if op == "rscale":
        return t[2] * poly_real(t[1])
    a, b = poly_real(t[1]), poly_real(t[2])
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    return a * b


def poly_ref(t):
    op = t[0]
    if op == "sym":
        return {(t[1],): Fraction(1)}
    if op == "const":
        return {(): Fraction(t[1])} if t[1] != 0 else {}
    if op in ("scale", "rscale"):
        k = Fraction(t[2])
        return {m: c * k for m, c in poly_ref(t[1]).items() if c * k != 0}
    a, b = poly_ref(t[1]), poly_ref(t[2])
    out = {}
    if op == "mul":
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    else:
        out = dict(a)
        sign = 1 if op == "add" else -1
        for m, c in b.items():
            out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c != 0}


@settings(max_examples=300, deadline=None)
@given(poly_trees, envs)
def test_poly_arithmetic_matches_fraction_reference(tree, env):
    poly = poly_real(tree)
    terms = poly_ref(tree)
    assert poly.terms == terms
    assert all(normal(c) for c in poly.terms.values())
    value = poly.evaluate(env)
    assert type(value) is Fraction
    expected = Fraction(0)
    for mono, c in terms.items():
        for sym in mono:
            c = c * env[sym]
        expected += c
    assert value == expected
