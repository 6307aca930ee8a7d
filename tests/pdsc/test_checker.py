"""The PDSC CEGAR loop on hand-written programs.

The claims of docs/PDSC.md, each pinned by a program:

* lockstep round 0 proves the low-guarded loop the eager baseline loses
  to widening — the headline qualitative win;
* a phase-desynchronizing secret branch needs (and gets) a refinement
  round: lockstep fails, the catch-up realignment verifies;
* a genuinely leaky program is never verified, whatever the budgets;
* budget exhaustion degrades to ``outcome="exhausted"`` — a
  three-valued "gave up", never a wrong verdict;
* a secret-guarded extern call is charged its summary cost, so the
  unixlogin-shaped channel cannot be "verified" away.
"""

import pytest

from repro.core.selfcomp import SelfComposition
from repro.domains import DOMAINS
from repro.pdsc import PDSC
from repro.pdsc.pairing import PairSemantics, rename_map
from tests.helpers import compile_one

ZONE = DOMAINS["zone"]

TRIVIAL = """
proc f(secret h: int, public l: int): int {
    var x: int = l + 1;
    return x;
}
"""

# The paper's decisive example shape: running time depends only on the
# public bound, but the eager baseline widens copy 1's loop before
# copy 2 ever moves and loses the counters' correlation.
LOW_LOOP = """
proc f(secret h: int, public l: uint): int {
    var i: int = 0;
    while (i < l) { i = i + 1; }
    return i;
}
"""

# Secret branch with nested structure in one arm: the copies leave the
# branch after different block counts, so lockstep desynchronizes and
# fails, while the catch-up policy re-aligns at the join and proves the
# (cost-balanced) program.  Needs >= 1 refinement round by design.
PHASED = """
proc f(secret h: int, public l: uint): int {
    var x: int = 0;
    if (h > 0) {
        if (l > 0) { x = x + 1; } else { x = x + 1; }
    } else {
        x = x + 2;
    }
    var i: int = 0;
    while (i < l) { i = i + 1; }
    return x;
}
"""

LEAKY = """
proc f(secret h: int, public l: int): int {
    var x: int = 0;
    if (h > 0) {
        var i: int = 0;
        while (i < 20) { x = x + i; i = i + 1; }
    }
    return x + l;
}
"""

# A secret-guarded extern call: the md5 summary cost (500) must land in
# the gap bound, or the absent hash in the else-arm "verifies" exactly
# the username-existence channel the unixlogin benchmark models.
SECRET_CALL = """
extern md5(p: byte[]): byte[];

proc f(secret h: bool, public pass: byte[]): bool {
    var outcome: bool = false;
    if (h) {
        var d: byte[] = md5(pass);
        outcome = true;
    } else {
        outcome = false;
    }
    return outcome;
}
"""


def pdsc(source, **kwargs):
    cfg = compile_one(source, "f")
    defaults = dict(epsilon=16, max_pairs=4000, max_refinements=4)
    defaults.update(kwargs)
    return PDSC(cfg, ZONE, **defaults).verify()


def test_each_copy_drops_its_block_local_registers():
    cfg = compile_one(LOW_LOOP, "f")
    sem = PairSemantics(cfg, ZONE)
    header = cfg.branch_blocks()[0]
    local = cfg.block_locals()[header]
    assert local
    renamed = {rename_map(cfg)[v] for v in local}
    for copy2, gone in ((False, local), (True, renamed)):
        for _, out in sem.step_copy(header, sem.entry_state(), copy2):
            mentioned = {v for cons in out.constraints() for v in cons.variables()}
            assert not mentioned & gone


def test_trivial_program_verifies_in_one_lockstep_round():
    result = pdsc(TRIVIAL)
    assert result.outcome == "verified"
    assert result.refinements == 0
    assert result.rounds[0].alignment == "lockstep"


def test_lockstep_proves_the_loop_the_eager_baseline_loses():
    cfg = compile_one(LOW_LOOP, "f")
    eager = SelfComposition(cfg, ZONE, epsilon=16, max_pairs=4000).verify()
    directed = PDSC(cfg, ZONE, epsilon=16, max_pairs=4000).verify()
    assert eager.outcome == "unverified"  # the ablation this PR is about
    assert directed.outcome == "verified"
    assert directed.refinements == 0  # trivial alignment already suffices


def test_phase_shifted_branch_needs_a_refinement_round():
    result = pdsc(PHASED)
    assert result.outcome == "verified"
    assert result.refinements >= 1, "lockstep alone must not suffice here"
    assert not result.rounds[0].verified
    assert result.rounds[0].alignment == "lockstep"
    assert result.rounds[-1].verified
    assert result.rounds[-1].alignment.startswith("catchup")


def test_leaky_program_is_never_verified():
    for budget in (0, 1, 4):
        result = pdsc(LEAKY, max_refinements=budget)
        assert result.outcome in ("unverified", "exhausted")
        assert not result.verified


def test_budget_exhaustion_degrades_to_exhausted_not_a_verdict():
    result = pdsc(LOW_LOOP, max_pairs=3, max_refinements=1)
    assert result.outcome == "exhausted"
    assert not result.verified
    assert result.exhausted
    # Every round records what it spent.
    assert all(r.explored_pairs <= 4 for r in result.rounds)


def test_wall_deadline_degrades_to_exhausted():
    result = pdsc(LOW_LOOP, deadline=0.0)
    assert result.outcome in ("exhausted", "verified")
    # A zero deadline can only verify if round 0 finishes before the
    # first amortized clock check; either way it must never error.
    if result.outcome == "exhausted":
        assert not result.verified


def test_secret_guarded_extern_call_cost_is_charged():
    result = pdsc(SECRET_CALL, epsilon=16)
    assert not result.verified, "md5's cost difference is the channel"
    # With a slack beyond the summary cost the program really is safe.
    wide = pdsc(SECRET_CALL, epsilon=1000)
    assert wide.outcome == "verified"


def test_result_dict_is_json_shaped_and_timing_free():
    result = pdsc(PHASED)
    record = result.to_dict()
    assert record["outcome"] == "verified"
    assert record["refinements"] == result.refinements
    assert "seconds" not in record
    assert all("seconds" not in r for r in record["rounds"])
    assert result.render()  # human rendering never crashes


@pytest.mark.parametrize("source", [TRIVIAL, LOW_LOOP, PHASED, LEAKY])
def test_outcomes_are_deterministic(source):
    first = pdsc(source)
    second = pdsc(source)
    assert first.to_dict() == second.to_dict()
