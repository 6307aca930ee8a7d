"""Property-based soundness tests for the numeric abstract domains.

Strategy: generate a random straight-line command sequence (assignments
and guards over three variables), execute it both concretely (on a
random integer environment) and abstractly (in each domain).  Whenever
the concrete execution survives every guard, the abstract state must
*contain* the concrete environment — γ-soundness.  Join and widen must
contain both operands' concretizations.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.domains import DOMAINS, LinCons, LinExpr, polyhedra

VARS = ["x", "y", "z"]

consts = st.integers(min_value=-8, max_value=8)
var_names = st.sampled_from(VARS)


@st.composite
def linexprs(draw):
    expr = LinExpr.constant(draw(consts))
    for var in VARS:
        if draw(st.booleans()):
            expr = expr + LinExpr.var(var) * draw(st.integers(-3, 3))
    return expr


@st.composite
def commands(draw):
    """A command: ('assign', var, expr|None) or ('guard', cons)."""
    if draw(st.booleans()):
        havoc = draw(st.integers(0, 9)) == 0
        return ("assign", draw(var_names), None if havoc else draw(linexprs()))
    expr = draw(linexprs())
    kind = draw(st.sampled_from(["le", "ge", "eq"]))
    rhs = draw(consts)
    if kind == "le":
        return ("guard", LinCons.le(expr, rhs))
    if kind == "ge":
        return ("guard", LinCons.ge(expr, rhs))
    return ("guard", LinCons.eq(expr, rhs))


programs = st.lists(commands(), min_size=1, max_size=6)
envs = st.fixed_dictionaries({v: st.integers(-6, 6) for v in VARS})


def run_concrete(program, env):
    """Execute; returns the final env or None if a guard failed.

    Havoc assignments pick an arbitrary fixed value (0) — the abstract
    run must cover that choice among all others.
    """
    env = dict(env)
    for cmd in program:
        if cmd[0] == "assign":
            _, var, expr = cmd
            env[var] = 0 if expr is None else int(expr.evaluate(env))
        else:
            if not cmd[1].holds(env):
                return None
    return env


def run_abstract(domain, program, initial_env):
    state = domain.top()
    for var, value in initial_env.items():
        state = state.guard(LinCons.eq(LinExpr.var(var), value))
    for cmd in program:
        if cmd[0] == "assign":
            state = state.assign(cmd[1], cmd[2])
        else:
            state = state.guard(cmd[1])
    return state


def contains(state, env):
    for cons in state.constraints():
        if not cons.holds(env):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(programs, envs, st.sampled_from(sorted(DOMAINS)))
def test_transfer_soundness(program, env, domain_name):
    domain = DOMAINS[domain_name]
    final = run_concrete(program, env)
    state = run_abstract(domain, program, env)
    if final is None:
        return  # concrete run filtered out; nothing to check
    assert not state.is_bottom(), "abstract state lost a feasible execution"
    assert contains(state, final)
    # bounds_of must cover the concrete value of every variable.
    for var in VARS:
        lo, hi = state.var_bounds(var)
        value = Fraction(final[var])
        assert lo is None or lo <= value
        assert hi is None or value <= hi


@settings(max_examples=40, deadline=None)
@given(envs, envs, st.sampled_from(sorted(DOMAINS)))
def test_join_and_widen_contain_both(env_a, env_b, domain_name):
    domain = DOMAINS[domain_name]

    def point(env):
        state = domain.top()
        for var, value in env.items():
            state = state.guard(LinCons.eq(LinExpr.var(var), value))
        return state

    a, b = point(env_a), point(env_b)
    joined = a.join(b)
    widened = a.widen(joined)
    for env in (env_a, env_b):
        assert contains(joined, env)
        assert contains(widened, env)
    assert a.leq(joined) and b.leq(joined)
    assert joined.leq(widened)


@settings(max_examples=40, deadline=None)
@given(programs, envs, st.sampled_from(sorted(DOMAINS)))
def test_leq_is_sound_wrt_membership(program, env, domain_name):
    domain = DOMAINS[domain_name]
    final = run_concrete(program, env)
    assume(final is not None)
    state = run_abstract(domain, program, env)
    bigger = state.join(domain.top())
    # top contains everything; state.leq(top-join) and membership carries.
    assert state.leq(bigger)
    assert contains(bigger, final)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)))
def test_widening_terminates_on_increasing_chain(domain_name):
    """Widening an ever-growing interval chain must stabilize."""
    domain = DOMAINS[domain_name]
    x = LinExpr.var("x")
    state = domain.top().guard(LinCons.eq(x, 0))
    previous = state
    for k in range(1, 60):
        nxt = domain.top().guard(LinCons.ge(x, 0)).guard(LinCons.le(x, k))
        widened = previous.widen(previous.join(nxt))
        if nxt.leq(previous):
            break
        previous = widened
    else:
        raise AssertionError("widening did not stabilize within 60 steps")


@settings(max_examples=80, deadline=None)
@given(
    envs,
    programs,
    st.one_of(st.none(), programs),
    st.sets(var_names, min_size=1, max_size=2),
    st.lists(linexprs(), min_size=1, max_size=4),
    st.sampled_from(sorted(DOMAINS)),
)
@example(  # capped, the unprojected polyhedron reads x <= 125/7; exact is 17
    lows={"x": 1, "y": 0, "z": 0},
    program=[("guard", LinCons.le(LinExpr.constant(1), 0))],
    widen_by=[
        ("assign", "y", LinExpr.var("x") * 3 + 6),
        ("guard", LinCons.le(LinExpr.var("x"), 5)),
        ("assign", "x", LinExpr.var("x") + LinExpr.var("y") * 2 + LinExpr.var("z") - 4),
        ("assign", "y", LinExpr.var("y") - LinExpr.var("z")),
        ("assign", "z", None),
    ],
    dropped={"y"},
    exprs=[LinExpr.constant(0)],
    domain_name="polyhedra",
)
def test_project_out_is_exact(lows, program, widen_by, dropped, exprs, domain_name):
    """Projecting variables out changes no bound over the others, and
    keeps bottom bottom (the engine drops block-local registers this
    way at every block exit).  ``widen_by`` also covers the unclosed
    states widening leaves behind in the DBM domains."""
    domain = DOMAINS[domain_name]

    def run(cmds):
        state = domain.top()
        for width, (var, low) in enumerate(sorted(lows.items())):
            state = state.guard(LinCons.ge(LinExpr.var(var), low))
            state = state.guard(LinCons.le(LinExpr.var(var), low + width))
        for cmd in cmds:
            if cmd[0] == "assign":
                state = state.assign(cmd[1], cmd[2])
            else:
                state = state.guard(cmd[1])
        return state

    kept = [v for v in VARS if v not in dropped]
    queries = [LinExpr.var(v) for v in kept]
    queries += [LinExpr.var(a) - LinExpr.var(b) for a in kept for b in kept if a != b]
    for expr in exprs:
        queries.append(
            LinExpr({v: c for v, c in expr.coeffs.items() if v in kept}, expr.const)
        )
    # Past MAX_CONSTRAINTS a polyhedron's eliminations drop constraints
    # (sound, documented), so its own bounds_of depends on elimination
    # order; exactness is a property of the uncapped elimination.
    with mock.patch.object(polyhedra, "MAX_CONSTRAINTS", 10**6):
        state = run(program)
        if widen_by is not None:
            state = state.widen(state.join(run(widen_by)))
        projected = state.project_out(frozenset(dropped))
        assert projected.is_bottom() == state.is_bottom()
        for expr in queries:
            assert projected.bounds_of(expr) == state.bounds_of(expr), str(expr)
        if not state.is_bottom():
            for var in dropped:
                assert projected.var_bounds(var) == (None, None)
