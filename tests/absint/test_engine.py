"""Abstract-interpretation engine tests (incl. the trail oracle)."""

from repro.absint import Engine
from repro.automata import regex_to_dfa
from repro.automata import regex as rx
from repro.cfg import cfg_automaton, edge_alphabet
from repro.domains import DOMAINS, LinCons, LinExpr
from tests.helpers import COUNT_LOOP, compile_one

ZONE = DOMAINS["zone"]
x = LinExpr.var


class TestPlainAnalysis:
    def test_loop_exit_invariant(self):
        cfg = compile_one(COUNT_LOOP, "count")
        result = Engine(cfg, ZONE).analyze()
        exit_inv = result.block_invariant(cfg.exit_id)
        lo, hi = exit_inv.bounds_of(x("i") - x("low"))
        assert lo == 0  # i >= low at exit

    def test_infeasible_branch_is_bottom(self):
        source = """
        proc f(n: uint): int {
            if (n < 0) { return 1; }
            return 2;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        # The "return 1" block must be unreachable.
        reachable = result.reachable_blocks()
        all_blocks = set(cfg.block_ids())
        assert reachable < all_blocks

    def test_branch_refinement_both_sides(self):
        source = """
        proc f(a: int): int {
            if (a > 10) { return a; }
            return a;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        branch = cfg.branch_blocks()[0]
        taken, not_taken = cfg.branch_edges(branch)
        then_inv = result.block_invariant(taken[1])
        else_inv = result.block_invariant(not_taken[1])
        assert then_inv.entails(LinCons.ge(x("a"), 11))
        assert else_inv.entails(LinCons.le(x("a"), 10))

    def test_equality_branch_refinement(self):
        source = """
        proc f(a: int): int {
            if (a == 5) { return a; }
            return 0;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        branch = cfg.branch_blocks()[0]
        taken, _ = cfg.branch_edges(branch)
        then_inv = result.block_invariant(taken[1])
        lo, hi = then_inv.var_bounds("a")
        assert lo == 5 and hi == 5

    def test_array_length_tracked(self):
        source = """
        proc f(a: byte[]): int {
            var n: int = len(a);
            return n;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        exit_inv = result.block_invariant(cfg.exit_id)
        lo, hi = exit_inv.bounds_of(x("n") - x("a#len"))
        assert lo == 0 and hi == 0
        assert exit_inv.entails(LinCons.ge(x("n"), 0))

    def test_block_local_temps_are_projected_after_the_guard(self):
        source = """
        proc f(public n: int): int {
            var i: int = 0;
            while (i < n + 1) { i = i + 2; }
            return i;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        header = cfg.branch_blocks()[0]
        temps = cfg.block_locals()[header]
        assert temps  # the lifter's n + 1 and i < t0
        body, after = (edge[1] for edge in cfg.branch_edges(header))
        for block in (header, body, after):
            inv = result.block_invariant(block)
            mentioned = {v for cons in inv.constraints() for v in cons.variables()}
            assert not mentioned & temps
        # The guard read the temps before they were dropped.
        assert result.block_invariant(body).entails(LinCons.le(x("i"), x("n")))
        assert result.block_invariant(after).entails(LinCons.ge(x("i"), x("n") + 1))

    def test_not_operator_flips_refinement(self):
        source = """
        proc f(a: int): int {
            if (!(a > 3)) { return a; }
            return 0;
        }
        """
        cfg = compile_one(source, "f")
        result = Engine(cfg, ZONE).analyze()
        branch = cfg.branch_blocks()[0]
        taken, _ = cfg.branch_edges(branch)
        then_inv = result.block_invariant(taken[1])
        assert then_inv.entails(LinCons.le(x("a"), 3))


class TestTrailOracle:
    def _split_dfas(self, cfg, branch_block):
        """Occurrence-split DFAs for a branch's taken edge."""
        from repro.automata.dfa import containing_symbol

        alphabet = edge_alphabet(cfg)
        taken, _ = cfg.branch_edges(branch_block)
        base = cfg_automaton(cfg)
        with_edge = base.intersect(containing_symbol(alphabet, taken))
        without_edge = base.intersect(
            containing_symbol(alphabet, taken).complement(alphabet)
        )
        return with_edge, without_edge

    def test_trail_restriction_sharpens_invariants(self):
        source = """
        proc f(a: int): int {
            var r: int = 0;
            if (a > 0) { r = 1; } else { r = 2; }
            return r;
        }
        """
        cfg = compile_one(source, "f")
        branch = cfg.branch_blocks()[0]
        with_then, without_then = self._split_dfas(cfg, branch)
        res_then = Engine(cfg, ZONE, trail_dfa=with_then).analyze()
        res_else = Engine(cfg, ZONE, trail_dfa=without_then).analyze()

        def exit_r(result, dfa):
            # Join only *accepting* exit nodes: non-accepted prefixes
            # also reach the exit block but are not trail members.
            inv = None
            for node, state in result.invariants.items():
                if node[0] != cfg.exit_id or node[1] not in dfa.accepting:
                    continue
                inv = state if inv is None else inv.join(state)
            assert inv is not None
            return inv.var_bounds("r")

        assert exit_r(res_then, with_then) == (1, 1)
        assert exit_r(res_else, without_then) == (2, 2)

    def test_forbidden_arcs_not_explored(self):
        cfg = compile_one(COUNT_LOOP, "count")
        # A trail of zero loop iterations: never take the loop-entry edge.
        (loop_branch,) = [
            b for b in cfg.branch_blocks()
        ]
        _, without_entry = self._split_dfas(cfg, loop_branch)
        result = Engine(cfg, ZONE, trail_dfa=without_entry).analyze()
        inv = None
        for node, state in result.invariants.items():
            if node[0] != cfg.exit_id or node[1] not in without_entry.accepting:
                continue
            inv = state if inv is None else inv.join(state)
        lo, hi = inv.var_bounds("i")
        assert (lo, hi) == (0, 0)  # i never incremented on this trail


class TestCollectMode:
    def test_collected_transition_relation(self):
        from repro.bounds.lemmas import seed_name

        cfg = compile_one(COUNT_LOOP, "count")
        engine = Engine(cfg, ZONE)
        main = engine.analyze()
        from repro.bounds.graphops import natural_loops

        adjacency = engine.product_graph()
        live = {n for n, s in main.invariants.items() if not s.is_bottom()}
        adj = {u: [e.dst for e in adjacency.get(u, [])] for u in live}
        (loop,) = natural_loops(engine.initial_node(), adj)
        seeded = main.invariants[loop.header]
        for var in ("i", "low"):
            seeded = seeded.assign(seed_name(var), LinExpr.var(var))
        back = set(loop.back_edges)
        result = engine.analyze(
            initial={loop.header: seeded},
            restrict=set(loop.body),
            collect=lambda s, d, e: (s, d) in back,
        )
        relation = result.collected_join()
        lo, hi = relation.bounds_of(x("i") - x(seed_name("i")))
        assert lo == 1 and hi == 1  # i advances by exactly 1 per iteration
        lo, hi = relation.bounds_of(x("low") - x(seed_name("low")))
        assert lo == 0 and hi == 0  # low is loop-invariant
