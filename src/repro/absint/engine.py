"""The abstract-interpretation fixpoint engine with a trail oracle.

Section 5 of the paper: *"We equip a standard abstract interpreter with
the ability to consult an oracle (the synthesized trails) to decide which
CFG arcs to follow, thus deriving partition-specific invariants."*

The oracle is realized as a product construction: analysis states live on
nodes ``(block, q)`` of the product of the CFG with the trail DFA.  A CFG
edge may only be followed if the DFA has a transition on that edge symbol
from the current ``q`` — executions outside the trail are simply never
explored, which is exactly how trail restriction sharpens invariants
(e.g. proving the vulnerable-looking path of ``loopAndBranch`` infeasible).

The engine is also reused by the bound analysis for per-loop transition
relations: callers can supply arbitrary initial states, restrict the
explored blocks, and *collect* (rather than propagate) the states flowing
along chosen edges (the loop back edges).

Fixpoint machinery: chaotic iteration in reverse postorder, delayed
widening at the targets of retreating edges, followed by a bounded number
of narrowing (decreasing) passes to recover precision lost to widening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.absint.transfer import TransferFunctions
from repro.automata.dfa import DFA
from repro.cfg.graph import ControlFlowGraph, Edge
from repro.domains.base import AbstractState, Domain
from repro.obs.trace import span as trace_span
from repro.resilience import faults
from repro.util.errors import AnalysisError

# A node of the product graph: (CFG block id, trail-DFA state).
# The DFA state is -1 when the analysis runs unrestricted.
Node = Tuple[int, int]

NO_TRAIL_STATE = -1

CollectPred = Callable[[Node, Node, Edge], bool]


@dataclass
class ProductEdgeInfo:
    src: Node
    dst: Node
    cfg_edge: Edge
    branch_taken: Optional[bool]  # None for non-branch edges


@dataclass
class AnalysisResult:
    """Invariants on product nodes plus any collected edge states."""

    cfg: ControlFlowGraph
    domain: Domain
    invariants: Dict[Node, AbstractState] = field(default_factory=dict)
    collected: Dict[Tuple[Node, Node], AbstractState] = field(default_factory=dict)

    def nodes_of_block(self, block_id: int) -> List[Node]:
        return [n for n in self.invariants if n[0] == block_id]

    def block_invariant(self, block_id: int) -> AbstractState:
        """Join of the invariants of every product node of ``block_id``."""
        nodes = self.nodes_of_block(block_id)
        if not nodes:
            return self.domain.bottom()
        state = self.invariants[nodes[0]]
        for node in nodes[1:]:
            state = state.join(self.invariants[node])
        return state

    def collected_join(self) -> AbstractState:
        state: AbstractState = self.domain.bottom()
        for other in self.collected.values():
            state = state.join(other)
        return state

    def reachable_blocks(self) -> Set[int]:
        return {
            node[0]
            for node, state in self.invariants.items()
            if not state.is_bottom()
        }


class Engine:
    def __init__(
        self,
        cfg: ControlFlowGraph,
        domain: Domain,
        trail_dfa: Optional[DFA] = None,
        widening_delay: int = 2,
        narrowing_passes: int = 2,
        max_iterations: int = 10_000,
        summaries=None,
        budget=None,
    ):
        self._cfg = cfg
        self._domain = domain
        self._dfa = trail_dfa
        self._transfer = TransferFunctions(cfg, summaries)
        self._locals = cfg.block_locals()
        self._widening_delay = widening_delay
        self._narrowing_passes = narrowing_passes
        self._max_iterations = max_iterations
        # Optional cooperative Budget (repro.resilience.budget): checked
        # once per fixpoint step; None (the default and the whole seed
        # path) costs a single comparison per iteration.
        self._budget = budget

    # -- product graph ---------------------------------------------------------

    def _initial_node(self) -> Node:
        q0 = self._dfa.initial if self._dfa is not None else NO_TRAIL_STATE
        return (self._cfg.entry, q0)

    def _product_successors(self, node: Node) -> List[ProductEdgeInfo]:
        block_id, q = node
        block = self._cfg.blocks[block_id]
        if block.term is None:
            return []
        out: List[ProductEdgeInfo] = []
        succs = self._cfg.successors(block_id)
        from repro.ir.instr import Branch

        is_real_branch = isinstance(block.term, Branch) and len(succs) == 2
        for succ in succs:
            cfg_edge = (block_id, succ)
            if self._dfa is not None:
                q_next = self._dfa.step(q, cfg_edge)
                if q_next is None:
                    continue  # the trail forbids this arc
            else:
                q_next = NO_TRAIL_STATE
            taken: Optional[bool] = None
            if is_real_branch:
                taken = succ == block.term.on_true  # type: ignore[union-attr]
            out.append(ProductEdgeInfo(node, (succ, q_next), cfg_edge, taken))
        return out

    def _explore(
        self, roots: Sequence[Node], restrict: Optional[Set[Node]]
    ) -> Tuple[List[Node], Dict[Node, List[ProductEdgeInfo]]]:
        """Reachable product subgraph and its adjacency.

        ``restrict``, when given, is a set of *product nodes* the
        exploration may not leave (used by per-loop analyses).
        """
        adjacency: Dict[Node, List[ProductEdgeInfo]] = {}
        seen: Set[Node] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            edges = [
                e
                for e in self._product_successors(node)
                if restrict is None or e.dst in restrict
            ]
            adjacency[node] = edges
            for e in edges:
                if e.dst not in seen:
                    stack.append(e.dst)
        return sorted(seen), adjacency

    @staticmethod
    def _rpo(
        roots: Sequence[Node], adjacency: Dict[Node, List[ProductEdgeInfo]]
    ) -> List[Node]:
        seen: Set[Node] = set()
        order: List[Node] = []
        for root in roots:
            if root in seen:
                continue
            stack: List[Tuple[Node, int]] = [(root, 0)]
            seen.add(root)
            while stack:
                node, idx = stack.pop()
                edges = adjacency.get(node, [])
                if idx < len(edges):
                    stack.append((node, idx + 1))
                    dst = edges[idx].dst
                    if dst not in seen:
                        seen.add(dst)
                        stack.append((dst, 0))
                else:
                    order.append(node)
        return list(reversed(order))

    # -- the fixpoint ---------------------------------------------------------------

    def analyze(
        self,
        initial: Optional[Dict[Node, AbstractState]] = None,
        restrict: Optional[Set[Node]] = None,
        collect: Optional[CollectPred] = None,
    ) -> AnalysisResult:
        domain = self._domain
        if initial is None:
            entry_state = self._transfer.entry_state(domain.top())
            initial = {self._initial_node(): entry_state}
        roots = sorted(initial)
        _, adjacency = self._explore(roots, restrict)
        order = self._rpo(roots, adjacency)
        position = {node: i for i, node in enumerate(order)}
        widen_at: Set[Node] = set()
        for src, edges in adjacency.items():
            for e in edges:
                if (
                    e.dst in position
                    and src in position
                    and position[e.dst] <= position[src]
                ):
                    widen_at.add(e.dst)

        invariants: Dict[Node, AbstractState] = {
            node: initial.get(node, domain.bottom()) for node in order
        }
        result_collected: Dict[Tuple[Node, Node], AbstractState] = {}
        visits: Dict[Node, int] = {node: 0 for node in order}

        worklist: List[Node] = list(order)
        in_worklist: Set[Node] = set(worklist)
        iterations = 0
        with trace_span(
            "engine.widen", cfg=self._cfg.name, nodes=len(order)
        ) as widen_span:
            while worklist:
                iterations += 1
                if iterations > self._max_iterations:
                    raise AnalysisError(
                        "abstract interpretation did not converge on %s"
                        % self._cfg.name
                    )
                if self._budget is not None:
                    self._budget.step("engine.step")
                faults.maybe_fire("engine.step", key=self._cfg.name)
                # Pop the node earliest in RPO for near-optimal iteration order.
                worklist.sort(key=lambda n: position.get(n, 0))
                node = worklist.pop(0)
                in_worklist.discard(node)
                state = invariants[node]
                if state.is_bottom():
                    continue
                for e, out_state in self._edge_states(node, state, adjacency):
                    if collect is not None and collect(e.src, e.dst, e.cfg_edge):
                        key = (e.src, e.dst)
                        prev = result_collected.get(key, domain.bottom())
                        result_collected[key] = prev.join(out_state)
                        continue
                    if out_state.is_bottom():
                        continue
                    old = invariants.get(e.dst, domain.bottom())
                    if out_state.leq(old):
                        continue
                    joined = old.join(out_state)
                    visits[e.dst] = visits.get(e.dst, 0) + 1
                    if e.dst in widen_at and visits[e.dst] > self._widening_delay:
                        joined = old.widen(joined)
                    invariants[e.dst] = joined
                    if e.dst not in in_worklist:
                        worklist.append(e.dst)
                        in_worklist.add(e.dst)
            widen_span.annotate(iterations=iterations)

        # Narrowing: recompute joins without widening, a fixed number of
        # passes (each pass is sound: transfer is monotone and we only
        # shrink toward a post-fixpoint).
        with trace_span(
            "engine.narrow", cfg=self._cfg.name, passes=self._narrowing_passes
        ):
            for _ in range(self._narrowing_passes):
                changed = False
                incoming: Dict[Node, AbstractState] = {
                    node: initial.get(node, domain.bottom()) for node in order
                }
                for node in order:
                    if self._budget is not None:
                        self._budget.step("engine.step")
                    state = invariants[node]
                    if state.is_bottom():
                        continue
                    for e, out_state in self._edge_states(node, state, adjacency):
                        if collect is not None and collect(e.src, e.dst, e.cfg_edge):
                            key = (e.src, e.dst)
                            prev = result_collected.get(key, domain.bottom())
                            result_collected[key] = prev.join(out_state)
                            continue
                        prev_in = incoming.get(e.dst, domain.bottom())
                        incoming[e.dst] = prev_in.join(out_state)
                for node in order:
                    new_state = incoming[node]
                    # Each narrowing iterate initial ∪ F(X) of a sound X is
                    # itself sound, so plain assignment is safe; the pass count
                    # bounds any oscillation.
                    if not (
                        new_state.leq(invariants[node])
                        and invariants[node].leq(new_state)
                    ):
                        changed = True
                    invariants[node] = new_state
                if not changed:
                    break

        return AnalysisResult(
            cfg=self._cfg,
            domain=self._domain,
            invariants=invariants,
            collected=result_collected,
        )

    # -- helpers -----------------------------------------------------------------------

    def product_graph(
        self,
        roots: Optional[Sequence[Node]] = None,
        restrict: Optional[Set[Node]] = None,
    ) -> Dict[Node, List[ProductEdgeInfo]]:
        """The reachable product adjacency (for the bound analysis)."""
        if roots is None:
            roots = [self._initial_node()]
        _, adjacency = self._explore(list(roots), restrict)
        return adjacency

    def initial_node(self) -> Node:
        return self._initial_node()

    def edge_out_states(
        self, node: Node, state: AbstractState
    ) -> List[Tuple[ProductEdgeInfo, AbstractState]]:
        """The states flowing out of ``node`` given its invariant."""
        adjacency = {node: self._product_successors(node)}
        return self._edge_states(node, state, adjacency)

    def _edge_states(
        self,
        node: Node,
        state: AbstractState,
        adjacency: Dict[Node, List[ProductEdgeInfo]],
    ) -> List[Tuple[ProductEdgeInfo, AbstractState]]:
        """The out-state of each product edge leaving ``node``: the block's
        effect, refined by the branch guard, with the block-local registers
        (dead past the terminator, see ``ControlFlowGraph.block_locals``)
        projected out once the guard has read them.  The return edge keeps
        them: the exit invariant is the procedure's final state, read by
        callers of the analysis, and projecting into a sink saves nothing."""
        out_state, conds = self._transfer.block_effect(node[0], state)
        local = self._locals[node[0]]
        exit_id = self._cfg.exit_id
        results = []
        for e in adjacency.get(node, []):
            edge_state = out_state
            if e.branch_taken is not None and not edge_state.is_bottom():
                cons = self._transfer.branch_constraint(node[0], e.branch_taken, conds)
                if cons is not None:
                    edge_state = edge_state.guard(cons)
            if e.dst[0] != exit_id:
                edge_state = edge_state.project_out(local)
            results.append((e, edge_state))
        return results
