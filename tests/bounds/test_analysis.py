"""BOUNDANALYSIS integration tests: symbolic bounds match executions."""

import pytest

from repro.bounds import compute_bound, compute_proc_bounds, default_summaries
from repro.bounds.analysis import BoundAnalysis
from repro.domains import DOMAINS
from repro.interp import Interpreter
from tests.helpers import compile_one, compile_to_cfgs

ZONE = DOMAINS["zone"]


def bound_of(source, proc, domain=ZONE):
    return compute_bound(compile_one(source, proc), domain)


def check_contains(source, proc, arg_sets, env_of):
    """The static bound must contain every concrete running time."""
    cfgs = compile_to_cfgs(source)
    interp = Interpreter(cfgs)
    result = compute_bound(cfgs[proc], ZONE)
    assert result.feasible
    for args in arg_sets:
        time = interp.time_of(proc, args)
        lo, hi = result.bound.evaluate(env_of(args))
        assert hi is not None, "expected a finite upper bound"
        assert lo <= time <= hi, (args, time, lo, hi)


class TestStraightLine:
    def test_constant_program_exact(self):
        result = bound_of("proc f(): int { return 41; }", "f")
        lo, hi = result.bound.evaluate({})
        assert lo == hi

    def test_branchy_range(self):
        source = """
        proc f(a: int): int {
            if (a > 0) { return 1; }
            var x: int = 0;
            x = x + 1;
            x = x + 1;
            return x;
        }
        """
        result = bound_of(source, "f")
        lo, hi = result.bound.evaluate({"a": 0})
        assert lo < hi  # two paths with different lengths


class TestLoops:
    def test_counter_loop_linear(self):
        source = """
        proc f(n: uint): int {
            var i: int = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        """
        result = bound_of(source, "f")
        assert result.bound.degree() == 1
        check_contains(source, "f", [[0], [1], [7]], lambda a: {"n": a[0]})

    def test_exact_iteration_count(self):
        source = """
        proc f(n: uint): int {
            var i: int = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        """
        result = bound_of(source, "f")
        ((_, ib),) = list(result.loop_bounds.items())
        assert ib.exact
        assert str(ib.lower) == "n" and str(ib.upper) == "n"

    def test_loop_over_array_length(self):
        source = """
        proc f(a: byte[]): int {
            var s: int = 0;
            for (var i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
            return s;
        }
        """
        result = bound_of(source, "f")
        assert "a#len" in {s for s in result.bound.symbols()}
        check_contains(
            source, "f", [[[]], [[1]], [[1, 2, 3, 4]]], lambda a: {"a#len": len(a[0])}
        )

    def test_block_local_temps_get_no_seed_copy(self):
        # The guard reads len(a) through a header temporary; the rank is
        # rewritten to header-entry values (a#len - i), so no temporary
        # needs an @pre copy and the count stays exact.
        source = """
        proc f(a: byte[]): int {
            var i: int = 0;
            while (i < len(a)) { i = i + 1; }
            return i;
        }
        """
        cfg = compile_one(source, "f")
        analysis = BoundAnalysis(cfg, ZONE)
        result = analysis.compute()
        (loop,) = analysis._loops
        seeded = analysis._tracked_vars(loop)
        assert {"i", "a#len"} <= seeded
        assert not seeded & set().union(*cfg.block_locals().values())
        ((_, ib),) = list(result.loop_bounds.items())
        assert ib.exact and str(ib.upper) == "a#len"

    def test_nested_loops_quadratic(self):
        source = """
        proc f(n: uint): int {
            var t: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                for (var j: int = 0; j < n; j = j + 1) { t = t + 1; }
            }
            return t;
        }
        """
        result = bound_of(source, "f")
        assert result.bound.degree() == 2
        check_contains(source, "f", [[0], [1], [3]], lambda a: {"n": a[0]})

    def test_loop_with_break_upper_only(self):
        source = """
        proc f(n: uint, a: byte[]): int {
            var i: int = 0;
            while (i < n) {
                if (i < len(a)) {
                    if (a[i] == 0) { break; }
                }
                i = i + 1;
            }
            return i;
        }
        """
        result = bound_of(source, "f")
        assert result.feasible and result.bound.upper is not None
        check_contains(
            source,
            "f",
            [[3, [1, 1, 1]], [3, [1, 0, 1]], [0, []]],
            lambda a: {"n": a[0], "a#len": len(a[1])},
        )

    def test_decrementing_loop(self):
        source = """
        proc f(n: uint): int {
            var i: int = n;
            while (i > 0) { i = i - 1; }
            return i;
        }
        """
        result = bound_of(source, "f")
        assert result.bound.degree() == 1
        check_contains(source, "f", [[0], [5]], lambda a: {"n": a[0]})

    def test_step_two_loop(self):
        source = """
        proc f(n: uint): int {
            var i: int = 0;
            while (i < n) { i = i + 2; }
            return i;
        }
        """
        result = bound_of(source, "f")
        assert result.feasible and result.bound.upper is not None
        check_contains(source, "f", [[0], [1], [8], [9]], lambda a: {"n": a[0]})

    def test_unbounded_loop_reported(self):
        source = """
        proc f(n: int): int {
            var i: int = 0;
            while (i != n) { i = i + 1; }
            return i;
        }
        """
        # The != guard is not representable; no upper bound derivable.
        result = bound_of(source, "f")
        assert result.feasible
        assert result.bound.upper is None


class TestTrailsAndFeasibility:
    def test_infeasible_trail(self):
        from repro.trails import Trail, split_trail

        source = """
        proc f(n: uint): int {
            if (n < 0) { return 1; }
            return 2;
        }
        """
        cfg = compile_one(source, "f")
        trail = Trail.most_general(cfg)
        branch = cfg.branch_blocks()[0]
        parts = split_trail(trail, branch, "taint")
        results = {
            p.description: compute_bound(cfg, ZONE, trail_dfa=p.dfa) for p in parts
        }
        feasibility = sorted(r.feasible for r in results.values())
        assert feasibility == [False, True]


class TestCalls:
    def test_extern_summary_cost(self):
        source = (
            "extern md5(p: byte[]): byte[];\n"
            "proc f(p: byte[]): int { var h: byte[] = md5(p); return len(h); }"
        )
        result = bound_of(source, "f")
        lo, hi = result.bound.evaluate({"p#len": 4})
        assert lo > 500  # includes the md5 summary cost

    def test_extern_without_summary_unbounded(self):
        source = "extern mystery(): int;\nproc f(): int { return mystery(); }"
        result = bound_of(source, "f")
        assert result.bound.upper is None

    def test_interprocedural_bound(self):
        source = """
        proc inner(n: uint): int {
            var i: int = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        proc outer(m: uint): int { return inner(m); }
        """
        cfgs = compile_to_cfgs(source)
        proc_bounds = compute_proc_bounds(cfgs, ZONE, default_summaries())
        assert "inner" in proc_bounds and "outer" in proc_bounds
        result = compute_bound(
            cfgs["outer"], ZONE, proc_bounds=proc_bounds
        )
        # The callee's n-linear bound must be re-expressed in m.
        assert result.bound.upper is not None
        lo, hi = result.bound.evaluate({"m": 6})
        interp = Interpreter(cfgs)
        time = interp.time_of("outer", [6])
        assert lo <= time <= hi

    def test_recursion_stays_unbounded(self):
        source = """
        proc rec(n: int): int {
            if (n <= 0) { return 0; }
            return rec(n - 1);
        }
        """
        cfgs = compile_to_cfgs(source)
        proc_bounds = compute_proc_bounds(cfgs, ZONE, default_summaries())
        assert "rec" not in proc_bounds
