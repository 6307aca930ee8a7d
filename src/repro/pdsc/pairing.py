"""Shared pair-program semantics of the self-composition family.

Self-composition reduces the 2-safety timing-contrast property to a
1-safety property of two renamed copies of the procedure running over a
joint state.  Everything that is common to the *eager* baseline
(:mod:`repro.core.selfcomp`) and the *property-directed* checker
(:mod:`repro.pdsc.checker`) lives here:

* copy 2's registers (and array-length shadows) are renamed with the
  ``$2`` suffix, so both copies share one abstract state over a
  disjoint union of variables;
* the entry state equates the copies' *public* inputs (low-equivalent
  pairs) and leaves secrets unconstrained;
* each copy accumulates its own instruction counter (``#cost`` /
  ``#cost$2``); the property under verification is a bound on their
  difference at the paired exit.

The two engines differ only in *scheduling* — which copy advances at a
given pair node — which is exactly the alignment the PDSC search is
about, so scheduling stays out of this module on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.absint.transfer import TransferFunctions, len_var
from repro.bounds.summaries import SummaryRegistry, default_summaries
from repro.cfg.graph import ControlFlowGraph
from repro.domains.base import AbstractState, Domain
from repro.domains.linexpr import LinCons, LinExpr
from repro.ir import instr as ir
from repro.lang import ast
from repro.util.errors import AnalysisError

SUFFIX = "$2"

# The cost counters: fresh variables incremented by block costs.
COST1 = "#cost"
COST2 = "#cost" + SUFFIX

# Scratch variables for nondeterministic call-cost deltas (one per copy).
_CALL1 = "#call"
_CALL2 = "#call" + SUFFIX

PairNode = Tuple[int, int]  # (block of copy 1, block of copy 2)


def rename_map(cfg: ControlFlowGraph) -> Dict[str, str]:
    """Copy-1 variable → copy-2 variable, length shadows included.

    A renamed register's length shadow is ``len_var(reg + SUFFIX)`` —
    the name the transfer functions derive when they step the *renamed*
    instruction — not ``len_var(reg) + SUFFIX``.
    """
    mapping = {}
    for reg in cfg.reg_kinds:
        mapping[reg] = reg + SUFFIX
        mapping[len_var(reg)] = len_var(reg + SUFFIX)
    return mapping


def renamed_instr(instr: ir.Instr) -> ir.Instr:
    """A copy-2 version of the instruction (registers suffixed)."""

    def op(o: ir.Operand) -> ir.Operand:
        if isinstance(o, ir.Reg):
            return ir.Reg(o.name + SUFFIX)
        return o

    if isinstance(instr, ir.Assign):
        return ir.Assign(dst=op(instr.dst), src=op(instr.src), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.BinInstr):
        return ir.BinInstr(dst=op(instr.dst), op=instr.op, a=op(instr.a), b=op(instr.b), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.CmpInstr):
        return ir.CmpInstr(dst=op(instr.dst), op=instr.op, a=op(instr.a), b=op(instr.b), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.UnInstr):
        return ir.UnInstr(dst=op(instr.dst), op=instr.op, a=op(instr.a), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.ALoad):
        return ir.ALoad(dst=op(instr.dst), arr=op(instr.arr), idx=op(instr.idx), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.AStore):
        return ir.AStore(arr=op(instr.arr), idx=op(instr.idx), val=op(instr.val), weight=instr.weight)
    if isinstance(instr, ir.NewArr):
        return ir.NewArr(dst=op(instr.dst), size=op(instr.size), elem=instr.elem, weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.ArrLen):
        return ir.ArrLen(dst=op(instr.dst), arr=op(instr.arr), weight=instr.weight)  # type: ignore[arg-type]
    if isinstance(instr, ir.CallInstr):
        return ir.CallInstr(
            dst=op(instr.dst) if instr.dst is not None else None,  # type: ignore[arg-type]
            callee=instr.callee,
            args=tuple(op(a) for a in instr.args),
            weight=instr.weight,
        )
    raise AnalysisError("cannot rename %r" % type(instr).__name__)


class PairSemantics:
    """Abstract semantics of one scheduling *step* of the 2-copy product.

    ``step_copy`` advances exactly one copy through one basic block
    (straight-line effect, cost-counter bump, branch refinement on each
    out edge); the caller decides which copy moves when — lockstep,
    catch-up, eager sequencing — and composes steps freely, because the
    two copies touch disjoint variables.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        domain: Domain,
        summaries: Optional[SummaryRegistry] = None,
    ):
        self._cfg = cfg
        self._domain = domain
        self._summaries = (
            summaries if summaries is not None else default_summaries()
        )
        self._transfer = TransferFunctions(cfg, summaries=self._summaries)
        self._rename = rename_map(cfg)
        # Each copy's block-local registers, dropped at the block's exit
        # (copy 2's under their renamed names) except on the return edge,
        # as in the single-copy engine.
        self._locals = {
            False: cfg.block_locals(),
            True: {
                bid: frozenset(self._rename.get(v, v + SUFFIX) for v in names)
                for bid, names in cfg.block_locals().items()
            },
        }
        # Teach the shared transfer functions the kinds of the renamed
        # copy-2 registers (extra keys are inert for other analyses).
        for reg, kind in list(cfg.reg_kinds.items()):
            cfg.reg_kinds.setdefault(reg + SUFFIX, kind)

    @property
    def cfg(self) -> ControlFlowGraph:
        return self._cfg

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def entry_node(self) -> PairNode:
        return (self._cfg.entry, self._cfg.entry)

    @property
    def exit_node(self) -> PairNode:
        return (self._cfg.exit_id, self._cfg.exit_id)

    # -- states ----------------------------------------------------------------

    def entry_state(self) -> AbstractState:
        """⊤ constrained to low-equivalent input pairs, costs zeroed."""
        state = self._transfer.entry_state(self._domain.top())
        state = self._rename_entry_constraints(state)
        # Equal low inputs; secrets unconstrained.
        for param in self._cfg.params:
            if param.is_secret:
                continue
            if param.declared.is_array:
                first = len_var(param.name)
                second = len_var(param.name + SUFFIX)
            else:
                first = param.name
                second = param.name + SUFFIX
            state = state.guard(
                LinCons.eq(LinExpr.var(first), LinExpr.var(second))
            )
        state = state.assign(COST1, LinExpr.constant(0))
        state = state.assign(COST2, LinExpr.constant(0))
        return state

    def _rename_entry_constraints(self, state: AbstractState) -> AbstractState:
        # Re-impose the entry constraints for copy 2 under renamed vars.
        for param in self._cfg.params:
            if param.declared.is_array:
                state = state.guard(
                    LinCons.ge(LinExpr.var(len_var(param.name + SUFFIX)), 0)
                )
            elif param.declared.base is ast.BaseType.UINT:
                state = state.guard(LinCons.ge(LinExpr.var(param.name + SUFFIX), 0))
        return state

    def gap_bounds(self, state: AbstractState):
        """``[lo, hi]`` of ``cost1 - cost2`` in ``state``."""
        return state.bounds_of(LinExpr.var(COST1) - LinExpr.var(COST2))

    # -- steps -----------------------------------------------------------------

    def step_copy(
        self, block_id: int, state: AbstractState, copy2: bool
    ) -> List[Tuple[int, AbstractState]]:
        """Advance one copy through block ``block_id``: the successor
        blocks with their (branch-refined) out-states."""
        cfg = self._cfg
        block = cfg.blocks[block_id]
        cost_var = COST2 if copy2 else COST1
        conds: Dict = {}
        for instr in block.instrs:
            instr = renamed_instr(instr) if copy2 else instr
            state = self._transfer.step(instr, state, conds)
            if isinstance(instr, ir.CallInstr):
                state = self._charge_call(instr, state, copy2)
        state = state.assign(cost_var, LinExpr.var(cost_var) + block.cost)
        local = self._locals[copy2][block_id]
        out: List[Tuple[int, AbstractState]] = []
        succs = cfg.successors(block_id)
        is_branch = isinstance(block.term, ir.Branch) and len(succs) == 2
        for succ in succs:
            edge_state = state
            if is_branch:
                taken = succ == block.term.on_true  # type: ignore[union-attr]
                cons = self._branch_constraint(block_id, taken, conds, copy2)
                if cons is not None:
                    edge_state = edge_state.guard(cons)
            if succ != cfg.exit_id:
                edge_state = edge_state.project_out(local)
            out.append((succ, edge_state))
        return out

    def _charge_call(
        self, instr: ir.CallInstr, state: AbstractState, copy2: bool
    ) -> AbstractState:
        """Add a call's running time to the stepping copy's counter.

        ``block.cost`` only covers the caller's own instructions — the
        callee's time is charged here, from the same summary registry
        the bound analysis uses (the concrete extern models charge the
        identical constants, so this is exact for every shipped
        summary).  A callee without a summary — a defined procedure, an
        unknown extern — raises :class:`AnalysisError`: the engines
        catch it into the three-valued ``"exhausted"`` outcome rather
        than silently under-counting, which would be a soundness hole
        (a secret-guarded call skipped in one copy *is* the timing
        channel, cf. the unixlogin benchmark).
        """
        summary = self._summaries.lookup(instr.callee)
        if summary is None:
            raise AnalysisError(
                "pair semantics cannot cost a call to %r (no summary)"
                % instr.callee
            )
        lo, hi = self._call_cost_exprs(instr, summary)
        cost_var = COST2 if copy2 else COST1
        cost = LinExpr.var(cost_var)
        if hi is not None and lo is not None and lo == hi:
            return state.assign(cost_var, cost + lo)
        # Nondeterministic cost: route it through a havoced delta
        # variable bounded by the summary's range.
        delta_var = _CALL2 if copy2 else _CALL1
        state = state.assign(delta_var, None)
        delta = LinExpr.var(delta_var)
        if lo is not None:
            state = state.guard(LinCons.ge(delta, lo))
        if hi is not None:
            state = state.guard(LinCons.le(delta, hi))
        state = state.assign(cost_var, cost + delta)
        return state.assign(delta_var, None)  # scratch: decorrelate

    def _call_cost_exprs(
        self, instr: ir.CallInstr, summary
    ) -> Tuple[Optional[LinExpr], Optional[LinExpr]]:
        """``[lo, hi]`` cost expressions of one summarized call, in the
        stepping copy's (already renamed) variables.  ``None`` = that
        side unbounded."""
        lo: Optional[LinExpr] = LinExpr.constant(int(math.floor(summary.lo)))
        hi: Optional[LinExpr] = LinExpr.constant(int(math.ceil(summary.hi)))
        if summary.per_byte_arg is None:
            return lo, hi
        length = None
        if summary.per_byte_arg < len(instr.args):
            arg = instr.args[summary.per_byte_arg]
            if isinstance(arg, ir.Reg):
                length = LinExpr.var(len_var(arg.name))
            elif isinstance(arg, ir.ConstArr):
                length = LinExpr.constant(len(arg.values))
        if length is None:
            return lo, None  # length unknown: the upper bound is lost
        per = Fraction(summary.per_byte)
        # Lengths are nonnegative, so flooring/ceiling the per-byte
        # coefficient keeps each side conservative.
        return (
            lo + length * int(math.floor(per)),
            hi + length * int(math.ceil(per)),
        )

    def _branch_constraint(
        self, block_id: int, taken: bool, conds: Dict, copy2: bool
    ) -> Optional[LinCons]:
        """Branch-edge refinement for either copy.

        Copy 2's instructions were renamed *before* stepping, so its
        cond defs are keyed by the suffixed register names; looking the
        terminator's condition up under its renamed name keeps the full
        relational constraint (e.g. ``i$2 < l$2``) instead of degrading
        to the boolean-register fallback — which is what prunes the
        infeasible mixed pairs ("copy 1 still looping, copy 2 already
        out") that lockstep precision lives on.
        """
        if not copy2:
            return self._transfer.branch_constraint(block_id, taken, conds)
        cfg = self._cfg
        term = cfg.blocks[block_id].term
        if not isinstance(term, ir.Branch):
            return None
        cond = term.cond
        if isinstance(cond, ir.ConstInt):
            # Constant branches: the dead edge is refined to bottom.
            if (cond.value != 0) == taken:
                return None
            return LinCons.le(LinExpr.constant(1), 0)  # unsatisfiable
        if not isinstance(cond, ir.Reg):
            return None
        name = cond.name + SUFFIX
        cond_def = conds.get(name)
        if cond_def is None:
            # Branching on a plain 0/1 register: v != 0 / v == 0.
            if cfg.reg_kinds.get(cond.name) == "arr":
                return None
            var = LinExpr.var(name)
            return LinCons.ge(var, 1) if taken else LinCons.eq(var, 0)
        effective = cond_def if taken else cond_def.negated()
        # The cond def's operands are already copy-2 registers (the
        # renamed kinds were registered at construction).
        return effective.constraint(cfg)

    def step_both(
        self, node: PairNode, state: AbstractState
    ) -> List[Tuple[PairNode, AbstractState]]:
        """Advance *both* copies one block (the lockstep move).  Sound
        to compose sequentially: the copies' variable sets are disjoint,
        so copy 2's step commutes with copy 1's."""
        b1, b2 = node
        out: List[Tuple[PairNode, AbstractState]] = []
        for succ1, mid in self.step_copy(b1, state, copy2=False):
            for succ2, final in self.step_copy(b2, mid, copy2=True):
                out.append(((succ1, succ2), final))
        return out
