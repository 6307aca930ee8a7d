"""The block-local register sets of ``ControlFlowGraph.block_locals``.

A register is block-local when its block defines it and every use lies
in that block after a definition there; analyses drop such registers at
the block's exit.  The hand-built graphs pin each exclusion rule; the
suite-wide checks pin that the lifter's temporaries all qualify, so a
lifter change cannot silently switch the projection off.
"""

import re

from repro.benchsuite import ALL_BENCHMARKS
from repro.cfg.graph import Block, ControlFlowGraph, ParamInfo, len_var
from repro.diffcheck.generator import generate_program
from repro.ir import instr as ir
from repro.lang import ast
from tests.helpers import compile_to_cfgs

INT = ast.Type(ast.BaseType.INT)


def reg(name):
    return ir.Reg(name)


def graph(blocks, params=(), kinds=None):
    """A CFG over ``blocks`` (id -> (instrs, term)); block 0 is the entry
    and the highest id + 1 the synthetic exit."""
    exit_id = max(blocks) + 1
    built = {bid: Block(bid, list(instrs), term) for bid, (instrs, term) in blocks.items()}
    built[exit_id] = Block(exit_id)
    cfg = ControlFlowGraph(
        "g",
        [ParamInfo(p, INT, ast.SecLevel.PUBLIC) for p in params],
        INT,
        built,
        0,
        exit_id,
    )
    cfg.reg_kinds.update(kinds or {})
    return cfg


def test_register_defined_and_used_in_one_block_is_local():
    cfg = graph({
        0: (
            [
                ir.BinInstr(dst=reg("t"), op=ir.ArithOp.ADD, a=ir.ConstInt(1), b=ir.ConstInt(2)),
                ir.Assign(dst=reg("x"), src=reg("t")),
            ],
            ir.Return(value=reg("x")),
        ),
    })
    assert cfg.block_locals()[0] == {"t", "x"}


def test_upward_exposed_use_is_excluded():
    cfg = graph({
        0: ([ir.Assign(dst=reg("t"), src=ir.ConstInt(0))], ir.Jump(target=1)),
        1: (
            [
                ir.Assign(dst=reg("y"), src=reg("t")),  # reads t before b1 defines it
                ir.Assign(dst=reg("t"), src=ir.ConstInt(3)),
                ir.Assign(dst=reg("z"), src=reg("t")),
            ],
            ir.Return(value=reg("z")),
        ),
    })
    locals_ = cfg.block_locals()
    assert "t" not in locals_[0] and "t" not in locals_[1]
    assert locals_[1] == {"y", "z"}


def test_use_in_another_block_is_excluded():
    cfg = graph({
        0: ([ir.Assign(dst=reg("t"), src=ir.ConstInt(1))], ir.Jump(target=1)),
        1: ([ir.Assign(dst=reg("y"), src=reg("t"))], ir.Return(value=reg("y"))),
    })
    assert "t" not in cfg.block_locals()[0]
    assert cfg.block_locals()[1] == {"y"}


def test_use_by_another_blocks_terminator_is_excluded():
    cfg = graph({
        0: (
            [ir.CmpInstr(dst=reg("c"), op=ir.CmpOp.LT, a=ir.ConstInt(0), b=ir.ConstInt(1))],
            ir.Jump(target=1),
        ),
        1: ([], ir.Branch(cond=reg("c"), on_true=2, on_false=2)),
        2: ([], ir.Return(value=ir.ConstInt(0))),
    })
    assert cfg.block_locals()[0] == frozenset()


def test_own_terminator_use_is_local():
    cfg = graph({
        0: (
            [ir.CmpInstr(dst=reg("c"), op=ir.CmpOp.LT, a=ir.ConstInt(0), b=ir.ConstInt(1))],
            ir.Branch(cond=reg("c"), on_true=1, on_false=1),
        ),
        1: ([], ir.Return(value=ir.ConstInt(0))),
    })
    assert cfg.block_locals()[0] == {"c"}


def test_parameters_are_excluded():
    cfg = graph(
        {
            0: (
                [
                    ir.Assign(dst=reg("p"), src=ir.ConstInt(1)),
                    ir.Assign(dst=reg("y"), src=reg("p")),
                ],
                ir.Return(value=reg("y")),
            ),
        },
        params=("p",),
    )
    assert cfg.block_locals()[0] == {"y"}


def test_array_register_brings_its_length_shadow():
    cfg = graph(
        {
            0: (
                [
                    ir.NewArr(dst=reg("t"), size=ir.ConstInt(4)),
                    ir.ArrLen(dst=reg("n"), arr=reg("t")),
                ],
                ir.Return(value=reg("n")),
            ),
        },
        kinds={"t": "arr", "n": "int"},
    )
    assert cfg.block_locals()[0] == {"t", len_var("t"), "n"}


# -- the lifter's temporaries ------------------------------------------------------

TEMP = re.compile(r"t\d+$")


def check_temps(sources):
    """Every lifter temporary (``t<n>``) of every CFG is block-local;
    returns how many temporaries were checked."""
    missing, checked = {}, 0
    for label, source in sources:
        for name, cfg in compile_to_cfgs(source).items():
            local = set().union(*cfg.block_locals().values())
            temps = {r for r in cfg.reg_kinds if TEMP.match(r)}
            checked += len(temps)
            if temps - local:
                missing["%s/%s" % (label, name)] = sorted(temps - local)
    assert missing == {}
    return checked


def test_every_table1_temp_is_block_local():
    assert check_temps((b.name, b.source) for b in ALL_BENCHMARKS) == 245


def test_every_generated_temp_is_block_local():
    programs = (generate_program(0, index) for index in range(60))
    assert check_temps((p.name, p.source) for p in programs) > 1000
