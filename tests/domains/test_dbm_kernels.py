"""Property tests: flat DBM kernels vs the seed list-of-lists closure.

The referee is :func:`repro.domains.dbm.closure_reference` — the seed
engine's ``None``-encoded triple loop, kept verbatim.  On seeded random
DBMs (ints and Fractions, varying +∞ density, planted negative cycles):

* the flat Floyd–Warshall kernel must agree entry-wise, including the
  inconsistency verdict and the int-vs-Fraction *type* of every entry;
* the sparse incremental closure after one tightened constraint must
  agree with re-closing the tightened matrix from scratch, whether or
  not the caller preset the tightened entry, keep the type of every
  entry, and leave the rows it cannot change alone;
* the bytes cache key must be injective where defined and refuse
  exactly the matrices it cannot encode.
"""

import random
from fractions import Fraction

import pytest

from repro.domains import dbm
from repro.domains.dbm import INF


def random_opt_matrix(rng, n, frac_prob=0.0, inf_prob=0.35, lo=-8, hi=12):
    """A random ``None``-encoded DBM with a zero diagonal."""
    m = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(0)
            elif rng.random() < inf_prob:
                row.append(None)
            elif rng.random() < frac_prob:
                row.append(Fraction(rng.randint(lo, hi), rng.randint(1, 4)))
            else:
                row.append(rng.randint(lo, hi))
        m.append(row)
    return m


def tightening_case(rng, frac_prob=0.0, integral_prob=0.0, zero_prob=0.0):
    """A closed random DBM and a strictly tightening, still consistent
    ``v_a - v_b <= c`` for it (None when the draw is empty or would go
    empty).  ``integral_prob``/``zero_prob`` turn finite entries into
    integral Fractions and ``Fraction(0)``."""
    n = rng.randint(2, 7)
    matrix = random_opt_matrix(rng, n, frac_prob=frac_prob)
    for i in range(n):
        for j in range(n):
            if i == j or matrix[i][j] is None:
                continue
            if rng.random() < integral_prob:
                matrix[i][j] = Fraction(int(matrix[i][j]))
            elif rng.random() < zero_prob:
                matrix[i][j] = Fraction(0)
    closed, empty = dbm.closure_reference(matrix)
    if empty:
        return None
    a, b = rng.sample(range(n), 2)
    old = closed[a][b]
    c = (old - rng.randint(1, 3)) if old is not None else rng.randint(-3, 3)
    if rng.random() < integral_prob:
        c = Fraction(c)
    back = closed[b][a]
    if back is not None and back + c < 0:
        return None
    return closed, n, a, b, c


def reclosed(closed, a, b, c):
    """The reference re-closure of ``closed`` with ``m[a][b] = c``."""
    tightened = [list(r) for r in closed]
    tightened[a][b] = c
    expect, empty = dbm.closure_reference(tightened)
    assert not empty
    return expect


def close_flat(matrix):
    """Close a ``None``-encoded matrix with the flat kernel; mirror the
    ``(closed, empty)`` contract of ``closure_reference``."""
    rows = dbm.rows_from_opt(matrix)
    ok = dbm.fw_close_rows(rows, len(rows))
    if not ok:
        return None, True
    return dbm.rows_to_opt(rows), False


class TestFlatClosureAgreesWithSeed:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_int_matrices(self, seed):
        rng = random.Random(seed)
        matrix = random_opt_matrix(rng, rng.randint(1, 7))
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert got_empty == expect_empty
        if not expect_empty:
            assert got == expect
            # Entry *types* must survive too: a min tie keeps the
            # original int, never a float or needless Fraction.
            for row_e, row_g in zip(expect, got):
                for e, g in zip(row_e, row_g):
                    assert type(e) is type(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_fraction_matrices(self, seed):
        rng = random.Random(1000 + seed)
        matrix = random_opt_matrix(rng, rng.randint(1, 6), frac_prob=0.4)
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert got_empty == expect_empty
        if not expect_empty:
            assert got == expect

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_negative_cycles_are_detected(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 6)
        matrix = random_opt_matrix(rng, n, inf_prob=0.2)
        # Plant a certain negative 2-cycle.
        i, j = rng.sample(range(n), 2)
        matrix[i][j] = -5
        matrix[j][i] = 2
        expect, expect_empty = dbm.closure_reference(matrix)
        got, got_empty = close_flat(matrix)
        assert expect_empty and got_empty
        assert got is None and expect is None


class TestIncrementalClosureAgreesWithFull:
    @pytest.mark.parametrize("seed", range(60))
    def test_tighten_matches_reclose(self, seed):
        rng = random.Random(3000 + seed)
        n = rng.randint(2, 7)
        matrix = random_opt_matrix(
            rng, n, frac_prob=0.2 if seed % 3 == 0 else 0.0
        )
        closed, empty = dbm.closure_reference(matrix)
        if empty:
            return
        a, b = rng.sample(range(n), 2)
        old = closed[a][b]
        # Pick a strictly tightening, still-consistent bound.
        c = (old - rng.randint(1, 3)) if old is not None else rng.randint(-3, 3)
        back = closed[b][a]
        if back is not None and back + c < 0:
            return  # would go empty; tighten_rows' contract excludes this
        rows = dbm.rows_from_opt(closed)
        rows[a][b] = c
        dbm.tighten_rows(rows, n, a, b, c)
        tightened = [list(r) for r in closed]
        tightened[a][b] = c
        expect, expect_empty = dbm.closure_reference(tightened)
        assert not expect_empty
        assert dbm.rows_to_opt(rows) == expect

    @pytest.mark.parametrize("seed", range(60))
    def test_tighten_without_preset_matches_reclose(self, seed):
        # The zone domain's convention: m[a][b] still holds the old bound.
        rng = random.Random(3500 + seed)
        case = tightening_case(rng, frac_prob=0.2 if seed % 3 == 0 else 0.0)
        if case is None:
            return
        closed, n, a, b, c = case
        rows = dbm.rows_from_opt(closed)
        dbm.tighten_rows(rows, n, a, b, c)
        assert dbm.rows_to_opt(rows) == reclosed(closed, a, b, c)

    @pytest.mark.parametrize("seed", range(120))
    def test_tighten_keeps_entry_types(self, seed):
        """Zero and integral-Fraction entries: every entry equals the
        re-closure's, type included, except where ``m[i][a]`` is a zero:
        there the kernel stores ``c + m[b][j]`` itself (an int stays an
        int) where the reference loop adds the ``Fraction(0)`` in."""
        rng = random.Random(4000 + seed)
        case = tightening_case(rng, frac_prob=0.3, integral_prob=0.3, zero_prob=0.15)
        if case is None:
            return
        closed, n, a, b, c = case
        expect = reclosed(closed, a, b, c)
        for preset in (False, True):
            rows = dbm.rows_from_opt(closed)
            if preset:
                rows[a][b] = c
            dbm.tighten_rows(rows, n, a, b, c)
            got = dbm.rows_to_opt(rows)
            assert got == expect
            for i in range(n):
                for j in range(n):
                    if type(got[i][j]) is type(expect[i][j]):
                        continue
                    assert closed[i][a] == 0 and got[i][j] != closed[i][j]
                    assert type(got[i][j]) is type(c + closed[b][j])

    def test_zero_entry_reuses_the_shifted_value(self):
        # v1 - v2 <= Fraction(0) and a new v2 - v0 <= 3: v1 - v0 <= 3
        # stays an int, as it did under the dense sweep.
        closed = [[0, INF, INF], [INF, 0, Fraction(0)], [INF, INF, 0]]
        dbm.tighten_rows(closed, 3, 2, 0, 3)
        assert closed[2][0] == 3 and closed[1][0] == 3
        assert type(closed[1][0]) is int

    def test_ties_keep_the_old_entry(self):
        # v0 - v3 <= Fraction(3) already equals the path v0 -> v1 -> v2 -> v3
        # through the new v1 - v2 <= 1: the entry keeps its Fraction.
        m = [
            [0, 1, 5, Fraction(3)],
            [INF, 0, 4, 5],
            [INF, INF, 0, 1],
            [INF, INF, INF, 0],
        ]
        dbm.tighten_rows(m, 4, 1, 2, 1)
        assert m[0] == [0, 1, 2, 3] and m[1] == [INF, 0, 1, 2]
        assert type(m[0][3]) is Fraction

    @pytest.mark.parametrize("seed", range(40))
    def test_untouched_rows_keep_their_objects(self, seed):
        rng = random.Random(5000 + seed)
        case = tightening_case(rng, frac_prob=0.2)
        if case is None:
            return
        closed, n, a, b, c = case
        # Scaled past CPython's small-int cache, so that a tie rewritten
        # with a freshly computed equal value shows up as a new object.
        big = 1000
        closed = [[None if v is None else v * big for v in row] for row in closed]
        c *= big
        rows = dbm.rows_from_opt(closed)
        before = list(rows)
        snapshot = [list(row) for row in rows]
        dbm.tighten_rows(rows, n, a, b, c)
        for i in range(n):
            assert rows[i] is before[i]
            for j in range(n):
                if rows[i][j] == snapshot[i][j]:
                    assert rows[i][j] is snapshot[i][j]

    def test_planted_no_change_leaves_every_row_untouched(self):
        # The caller preset v0 - v1 <= 2 (was 3).  No other row reaches
        # v0 and v1 reaches nothing, so the bound propagates nowhere: no
        # row changes, and every row and entry object survives.
        m = [[0, 3, INF], [INF, 0, INF], [INF, INF, 0]]
        m[0][1] = 2
        rows = list(m)
        entries = [[id(v) for v in row] for row in m]
        dbm.tighten_rows(m, 3, 0, 1, 2)
        assert all(m[i] is rows[i] for i in range(3))
        assert [[id(v) for v in row] for row in m] == entries
        assert m == [[0, 2, INF], [INF, 0, INF], [INF, INF, 0]]


class TestIntKey:
    def test_distinct_matrices_distinct_keys(self):
        rng = random.Random(7)
        seen = {}
        for _ in range(200):
            m = dbm.rows_from_opt(random_opt_matrix(rng, 3))
            key = dbm.int_key(m)
            assert key is not None
            flat = tuple(tuple(r) for r in m)
            if key in seen:
                assert seen[key] == flat
            seen[key] = flat

    def test_fraction_entries_refuse_fast_key(self):
        assert dbm.int_key([[0, Fraction(1, 2)], [1, 0]]) is None

    def test_huge_int_refuses_fast_key(self):
        assert dbm.int_key([[0, 10**25], [1, 0]]) is None

    def test_sentinel_collision_refuses_fast_key(self):
        # A *finite* entry equal to the +∞ sentinel must not be
        # conflated with a real +∞.
        sentinel = (1 << 63) - 1
        assert dbm.int_key([[0, sentinel], [1, 0]]) is None
        assert dbm.int_key([[0, INF], [1, 0]]) is not None

    def test_inf_encodes_stably(self):
        a = dbm.int_key([[0, INF], [3, 0]])
        b = dbm.int_key([[0, INF], [3, 0]])
        c = dbm.int_key([[0, INF], [4, 0]])
        assert a == b and a != c
