"""Control-flow graphs over the register IR.

A :class:`ControlFlowGraph` is the central program representation of this
reproduction (as WALA's CFG was for Blazer): basic blocks of straight-line
IR instructions, each ended by a terminator.  One synthetic *exit* block
(with no instructions and no terminator) is the target of every return;
the CFG automaton and the trails machinery rely on it so the language of
complete executions is prefix-free.

Edges are plain ``(src_block_id, dst_block_id)`` pairs — exactly the
alphabet over which trails (Section 4 of the paper) are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ir.instr import Branch, Instr, Return, Terminator
from repro.lang import ast

Edge = Tuple[int, int]


def len_var(reg_name: str) -> str:
    """The domain variable tracking the length of array register ``reg``."""
    return reg_name + "#len"


@dataclass
class ParamInfo:
    """One formal parameter: its name, type and security level."""

    name: str
    declared: ast.Type
    level: ast.SecLevel

    @property
    def is_secret(self) -> bool:
        return self.level is ast.SecLevel.SECRET


@dataclass
class Block:
    """A basic block: straight-line instructions plus one terminator.

    The synthetic exit block has ``term is None``.
    """

    id: int
    instrs: List[Instr] = field(default_factory=list)
    term: Optional[Terminator] = None

    @property
    def cost(self) -> int:
        """Bytecode instructions charged when executing this block."""
        total = sum(i.weight for i in self.instrs)
        if self.term is not None:
            total += self.term.weight
        return total

    @property
    def is_branch(self) -> bool:
        return isinstance(self.term, Branch)

    def __str__(self) -> str:
        lines = ["b%d:" % self.id]
        lines.extend("    %s  ; w=%d" % (i, i.weight) for i in self.instrs)
        if self.term is not None:
            lines.append("    %s  ; w=%d" % (self.term, self.term.weight))
        else:
            lines.append("    <exit>")
        return "\n".join(lines)


class ControlFlowGraph:
    """CFG of one procedure, with cached predecessor/successor maps."""

    def __init__(
        self,
        name: str,
        params: Sequence[ParamInfo],
        ret: ast.Type,
        blocks: Dict[int, Block],
        entry: int,
        exit_id: int,
    ):
        self.name = name
        self.params = list(params)
        self.ret = ret
        self.blocks = blocks
        self.entry = entry
        self.exit_id = exit_id
        # Register kinds ("int" / "arr") filled in by the lifter; analyses
        # use this to know which registers hold array references.
        self.reg_kinds: Dict[str, str] = {}
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        self._locals: Optional[Dict[int, FrozenSet[str]]] = None
        self._rebuild_edges()

    # -- structure ------------------------------------------------------------

    def _rebuild_edges(self) -> None:
        self._succ = {bid: [] for bid in self.blocks}
        self._pred = {bid: [] for bid in self.blocks}
        for bid, block in self.blocks.items():
            if block.term is None:
                continue
            if isinstance(block.term, Return):
                succs: List[int] = [self.exit_id]
            else:
                # Deduplicate (a degenerate branch can target one block twice).
                succs = list(dict.fromkeys(block.term.successors()))
            for succ in succs:
                self._succ[bid].append(succ)
                self._pred[succ].append(bid)

    def successors(self, bid: int) -> List[int]:
        return list(self._succ[bid])

    def predecessors(self, bid: int) -> List[int]:
        return list(self._pred[bid])

    def edges(self) -> List[Edge]:
        return [(b, s) for b in sorted(self._succ) for s in self._succ[b]]

    def block_ids(self) -> List[int]:
        return sorted(self.blocks)

    def branch_blocks(self) -> List[int]:
        """Blocks with two distinct successors (candidate split points)."""
        return [
            bid
            for bid in self.block_ids()
            if self.blocks[bid].is_branch and len(self._succ[bid]) == 2
        ]

    def branch_edges(self, bid: int) -> Tuple[Edge, Edge]:
        """The (taken, not-taken) edges of branch block ``bid``."""
        block = self.blocks[bid]
        if not isinstance(block.term, Branch):
            raise ValueError("b%d is not a branch block" % bid)
        return (bid, block.term.on_true), (bid, block.term.on_false)

    def block_locals(self) -> Dict[int, FrozenSet[str]]:
        """The block-local domain variables of every block, by block id.

        A register is local to block ``b`` when ``b`` defines it, every
        use of it (terminators included) lies in ``b`` after a definition
        there, and it is not a parameter.  Such a register is dead at
        every block boundary, so an analysis may drop it from its state
        once ``b``'s terminator has read it.  An array register brings
        its length shadow ``len_var(reg)``.  Derived from def/use alone
        (never from register names) and computed once per graph.
        """
        if self._locals is not None:
            return self._locals
        params = {p.name for p in self.params}
        defined: Dict[int, Set[str]] = {}
        used_in: Dict[str, Set[int]] = {}
        exposed: Set[str] = set()
        for bid, block in self.blocks.items():
            defs: Set[str] = set()
            steps = [(i.uses(), i.defs()) for i in block.instrs]
            if block.term is not None:
                steps.append((block.term.uses(), []))
            for uses, out in steps:
                for reg in uses:
                    used_in.setdefault(reg.name, set()).add(bid)
                    if reg.name not in defs:
                        exposed.add(reg.name)
                defs.update(reg.name for reg in out)
            defined[bid] = defs
        result: Dict[int, FrozenSet[str]] = {}
        for bid, defs in defined.items():
            names: Set[str] = set()
            for name in defs:
                if name in params or name in exposed:
                    continue
                if not used_in.get(name, set()) <= {bid}:
                    continue
                names.add(name)
                if self.reg_kinds.get(name) == "arr":
                    names.add(len_var(name))
            result[bid] = frozenset(names)
        self._locals = result
        return result

    @property
    def size(self) -> int:
        """Number of basic blocks (the "Size" column of Table 1)."""
        return len(self.blocks)

    # -- traversal --------------------------------------------------------------

    def reverse_postorder(self) -> List[int]:
        """Blocks in reverse postorder from the entry (good fixpoint order)."""
        seen = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            stack = [(bid, iter(self._succ[bid]))]
            seen.add(bid)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self._succ[succ])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))

    def reachable(self) -> List[int]:
        return self.reverse_postorder()

    def iter_instrs(self) -> Iterator[Tuple[int, Instr]]:
        for bid in self.block_ids():
            for instr in self.blocks[bid].instrs:
                yield bid, instr

    def param(self, name: str) -> ParamInfo:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def secret_params(self) -> List[ParamInfo]:
        return [p for p in self.params if p.is_secret]

    def public_params(self) -> List[ParamInfo]:
        return [p for p in self.params if not p.is_secret]

    def __str__(self) -> str:
        header = "cfg %s(%s): %s  entry=b%d exit=b%d" % (
            self.name,
            ", ".join("%s %s: %s" % (p.level.value, p.name, p.declared) for p in self.params),
            self.ret,
            self.entry,
            self.exit_id,
        )
        parts = [header]
        parts.extend(str(self.blocks[bid]) for bid in self.block_ids())
        return "\n".join(parts)
