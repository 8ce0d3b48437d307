import functools
import itertools
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from torus_orbits import (
    CapacityError,
    MatrixShape,
    RangeError,
    TupleCode,
    code_at_index,
    count_burnside,
    enumerate_torus,
    iter_canonical_indices,
    iter_representative_indices,
    tuple_index,
)
from torus_orbits import torus
from torus_orbits.torus import (
    VisitedStore,
    block_moves,
    necklace_moves,
    row_moves,
    row_rotations,
)

import oracles


@functools.cache
def filter_words(m, n):
    return frozenset(iter_canonical_indices(MatrixShape(m, n)))


def all_codes(m, n):
    shape = MatrixShape(m, n)
    for rows in itertools.product(range(1 << n), repeat=m):
        yield TupleCode(rows, shape)


class TestTupleIndex:
    def test_examples(self):
        shape = MatrixShape(2, 3)
        assert tuple_index(TupleCode((0, 0), shape)) == 0
        assert tuple_index(TupleCode((5, 1), shape)) == 41
        assert tuple_index(TupleCode((7, 7), shape)) == 63

    def test_round_trip_beyond_63_bits(self):
        shape = MatrixShape(8, 8)
        for w in (0, 1, (1 << 63) + 5, (1 << 64) - 1):
            assert tuple_index(code_at_index(shape, w)) == w

    def test_monotone_in_lex_order_exhaustive_2x3(self):
        codes = list(all_codes(2, 3))
        indices = [tuple_index(c) for c in codes]
        assert indices == sorted(indices)
        assert indices == list(range(64))

    def test_code_at_index_inverse(self):
        shape = MatrixShape(3, 4)
        for idx in (0, 1, 100, (1 << 12) - 1):
            assert tuple_index(code_at_index(shape, idx)) == idx
        for idx in (-1, 1 << 12):
            with pytest.raises(RangeError):
                code_at_index(shape, idx)


def moved_word(w, move):
    """A flat move of row_moves applied to the word w: its row move,
    then its column move."""
    mask, a, b, j, keep, low, k = move
    x = ((w & mask) << a) | (w >> b)
    return ((x >> j) & keep) | ((x & low) << k)


def visited_rows(rows, m, n, q):
    """The row tuples the sieve's kernel reaches from a code of any
    shape, with the block of the necklace q: all m rows' moves, the
    identity included; for one row or one column, which the pass walks
    as one m*n-bit row, all its distinct rotations."""
    w = 0
    for p in rows:
        w = (w << n) | p
    top = (1 << n) - 1
    if m == 1 or n == 1:
        words = row_rotations(w, m * n)
    else:
        rows_moves, moves = necklace_moves(m, n)
        block = block_moves(moves, q, n)
        words = [moved_word(w, move) for move in
                 row_moves(w, rows_moves, block, n * (m - 1))]
    return [tuple((x >> (n * (m - 1 - i))) & top for i in range(m))
            for x in words]


@st.composite
def shaped_rows(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    row = st.integers(0, (1 << n) - 1)
    return m, n, tuple(draw(st.lists(row, min_size=m, max_size=m)))


class TestOrbitVisits:
    def test_zero_code_fixed_point(self):
        # each row 00 is its least rotation at both offsets
        assert visited_rows((0, 0, 0), 3, 2, 0) == [(0, 0, 0)] * 6

    def test_2x2_four_element_orbit(self):
        # only the orbit members under the top row 00, not (1, 0) or
        # (2, 0), whose top rows 01 and 10 are not the minimum's
        assert set(visited_rows((1, 0), 2, 2, 0)) == {(0, 1), (0, 2)}

    def test_2x2_singleton_orbit(self):
        # equal rows, and 3 = 11b is fixed by the bit rotation at n = 2:
        # all four moves reach the code itself
        assert visited_rows((3, 3), 2, 2, 3) == [(3, 3)] * 4

    @settings(max_examples=200, deadline=None)
    @example((7, 9, (1, 0, 0, 0, 0, 0, 0)))  # 63 cells
    @example((8, 8, (1, 2, 3, 4, 5, 6, 7, 8)))  # 64 cells
    @example((3, 4, (5, 10, 11)))  # periodic rows: 0101 has two offsets
    @example((2, 4, (5, 12)))  # 1100's necklace 0011 is below 0101
    @given(shaped_rows())
    def test_matches_grid_closure(self, case):
        m, n, rows = case
        whole = m == 1 or n == 1  # one row or one column
        # the top row of the class minimum: the least row necklace
        q = min(oracles.necklace(p, n) for p in rows)
        visits = visited_rows(rows, m, n, q)
        orbit = oracles.rows_orbit(rows, n)
        assert len(visits) == (len(orbit) if whole else sum(
            len(oracles.least_rotation_offsets(p, n)) for p in rows
            if oracles.necklace(p, n) == q))
        # the orbit members under top row q; for one row or one column,
        # the whole orbit, each member once
        assert set(visits) == {r for r in orbit if whole or r[0] == q}
        if whole or rows[0] == q:
            # the identity comes first, and the pass leaves it out
            assert visits[0] == rows
        if m * n <= 20:
            # the filter's verdict, which shares no code with the kernel,
            # from its full run of the same shape
            w = tuple_index(TupleCode(rows, MatrixShape(m, n)))
            assert (w in filter_words(m, n)) == (rows == min(orbit))


class TestVisitedStore:
    def test_budget(self):
        # 34 cells: refused before any allocation
        with pytest.raises(CapacityError, match="8589934592-code budget"):
            VisitedStore(MatrixShape(2, 17))

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_only_touched_pages_are_resident(self):
        # two 128 MiB stores: one untouched, and the pass's, of which
        # the first word touches one page
        def resident_bytes():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident_bytes()
        store = VisitedStore(MatrixShape(5, 6))
        indices = iter_representative_indices(MatrixShape(5, 6))
        assert next(indices) == 0
        assert resident_bytes() - before < 8 << 20
        assert store.nbytes == 1 << 27


SHAPES_UP_TO_20_CELLS = [(m, n) for m in range(1, 21) for n in range(1, 21)
                         if m * n <= 20]


class TestSieve:
    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_20_CELLS)
    def test_matches_full_orbit_sieve(self, m, n):
        assert list(iter_representative_indices(MatrixShape(m, n))) == \
            list(oracles.full_orbit_sieve(m, n))

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_20_CELLS)
    def test_kernel_marks_only_under_the_minimum_top_row(self, m, n):
        # the rest of each class holds a row whose necklace is below its
        # top row, so the pass never reads it; one row and one column
        # mark the other rotations of the m*n-bit row
        if m == 1 or n == 1:
            for w in iter_representative_indices(MatrixShape(m, n)):
                rots = row_rotations(w, m * n)
                assert rots[0] == w and min(rots) == w
            return
        rows, columns = necklace_moves(m, n)
        shift = n * (m - 1)
        blocks = {}
        for w in iter_representative_indices(MatrixShape(m, n)):
            q = w >> shift
            if q not in blocks:
                blocks[q] = block_moves(columns, q, n)
            moves = row_moves(w, rows, blocks[q], shift)
            words = [moved_word(w, move) for move in moves]
            assert words[0] == w  # the identity, which the pass leaves out
            assert {x >> shift for x in words} == {q}
            # the first m - 1 rows' moves depend on those rows alone, so
            # the pass finds them from the prefix, the last row zero
            assert row_moves(w >> n << n, rows[:-1], blocks[q], shift) == \
                row_moves(w, rows[:-1], blocks[q], shift)

    @pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (10, 2)])
    def test_row_moves_once_per_prefix(self, m, n, monkeypatch):
        prefixes = []

        def logged(x, rows, block, shift):
            prefixes.append(x >> n)
            return row_moves(x, rows, block, shift)

        monkeypatch.setattr(torus, "row_moves", logged)
        words = list(iter_representative_indices(MatrixShape(m, n)))
        assert prefixes == sorted({w >> n for w in words})

    def test_first_offset_alone_misses_periodic_rows(self, monkeypatch):
        # the row 0101 is its least rotation at offsets 0 and 2, so the
        # class of (0101, 0111) has two members under it, (0101, 0111)
        # and (0101, 1101); a block with only each row's first offset
        # leaves the second unmarked, to be listed as a class of its own
        def first_only(moves, q, n):
            return [row[:1] for row in block_moves(moves, q, n)]

        monkeypatch.setattr(torus, "block_moves", first_only)
        got = list(iter_representative_indices(MatrixShape(2, 4)))
        assert got != list(oracles.full_orbit_sieve(2, 4))
        assert 0b0101_1101 in got

    def test_one_column_is_passed_as_one_row(self, monkeypatch):
        # the same words under the same rotation: 20x1 and 1x20 both
        # rotate each minimum as one 20-bit row, with no kernel constants
        asked = []

        def recorded(p, n):
            asked.append((p, n))
            return row_rotations(p, n)

        def refused(m, n):
            raise AssertionError("the one-row pass needs no kernel")

        monkeypatch.setattr(torus, "row_rotations", recorded)
        monkeypatch.setattr(torus, "necklace_moves", refused)
        got = list(iter_representative_indices(MatrixShape(20, 1)))
        assert asked == [(w, 20) for w in got]
        asked.clear()
        assert got == list(iter_representative_indices(MatrixShape(1, 20)))
        assert asked == [(w, 20) for w in got]

    def test_pass_moves_past_a_word_the_kernel_missed(self, monkeypatch):
        # blocks with no moves, from which the kernel finds none, for
        # the first rows or the last: the pass lists every candidate,
        # the words the filter tests
        monkeypatch.setattr(torus, "block_moves",
                            lambda moves, q, n: [()] * (1 << n))
        got = list(itertools.islice(
            iter_representative_indices(MatrixShape(2, 3)), 100))
        assert got == oracles.pruned_candidates(2, 3)


class _Read(int):
    """A byte read from a MarkLog: or-ing into it keeps the operand, and
    and-ing it with a bit logs the code that bit tests."""

    def __or__(self, other):
        result = _Ored(int(self) | other)
        result.operand = other
        return result

    def __and__(self, other):
        self.log.reads.append((self.index << 3) | (other.bit_length() - 1))
        return int(self) & other


class _Ored(int):
    operand = 0


class MarkLog:
    """A visited store's bits that log each mark made into them, and
    each code whose bit the pass tests.

    A mark is `bits[i] |= bit`: the read gives a _Read, or-ing the bit
    into it gives an _Ored that keeps the bit, and writing that back
    logs the code 8 * i + log2(bit). A test is `bits[i] & bit`, which
    logs the same code as a read; a mark's own read is never and-ed.
    """

    def __init__(self, bits):
        self.bits = bits
        self.marks = []
        self.reads = []

    def __getitem__(self, i):
        value = _Read(self.bits[i])
        value.log, value.index = self, i
        return value

    def __setitem__(self, i, value):
        if isinstance(value, _Ored):
            self.marks.append((i << 3) | (value.operand.bit_length() - 1))
        self.bits[i] = value


def logged_stores(monkeypatch):
    """Give each VisitedStore the pass makes a MarkLog, listed in the
    list returned."""
    logs = []

    def logged_store(shape):
        store = VisitedStore(shape)
        store.bits = MarkLog(store.bits)
        logs.append(store.bits)
        return store

    monkeypatch.setattr(torus, "VisitedStore", logged_store)
    return logs


def marks_by_word(m, n, monkeypatch):
    """Yield each word the pass lists with the marks it makes after
    listing it, through a MarkLog on the pass's store."""
    logs = logged_stores(monkeypatch)
    last = None
    for w in iter_representative_indices(MatrixShape(m, n)):
        if last is not None:
            yield last, logs[0].marks
        logs[0].marks = []
        last = w
    yield last, logs[0].marks


class TestMarks:
    @pytest.mark.parametrize("m,n", [(m, n) for m, n in SHAPES_UP_TO_20_CELLS
                                     if m * n <= 16])
    def test_each_mark_is_another_member_under_the_top_row(
            self, m, n, monkeypatch):
        # the marks after w: the orbit members under w's top row q, each
        # as often as the kernel reaches it, less the identity; so w
        # itself only by the other moves that fix it, and never if none
        # does. All lie in w's block, at or ahead of the pass. One row
        # and one column mark each other member of the orbit once.
        shift = n * (m - 1)
        whole = m == 1 or n == 1
        for w, marks in marks_by_word(m, n, monkeypatch):
            rows = code_at_index(MatrixShape(m, n), w).rows
            orbit = oracles.rows_orbit(rows, n)
            under_q = {tuple_index(TupleCode(r, MatrixShape(m, n)))
                       for r in orbit if whole or r[0] == rows[0]}
            if whole:
                assert sorted(marks) == sorted(under_q - {w})
            else:
                assert marks.count(w) == m * n // len(orbit) - 1
            assert set(marks) | {w} == under_q
            assert min(marks, default=w) >= w
            assert whole or {x >> shift for x in marks} <= {w >> shift}

    def test_4x4_count(self, monkeypatch):
        # the kernel's 9,555 moves less each of the 4,156 classes' identity
        assert sum(len(marks) for _, marks in
                   marks_by_word(4, 4, monkeypatch)) == 5399

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
    def test_reads_exactly_the_candidates(self, m, n, monkeypatch):
        # one test per candidate, ascending, none twice, and no other
        # code: the words whose rows' necklaces are all at least the
        # necklace top row
        logs = logged_stores(monkeypatch)
        list(iter_representative_indices(MatrixShape(m, n)))
        assert logs[0].reads == oracles.pruned_candidates(m, n)


class TestEnumerateTorus:
    def test_1x1(self):
        reps = enumerate_torus(MatrixShape(1, 1))
        assert [c.rows for c in reps] == [(0,), (1,)]

    def test_2x2(self):
        assert len(enumerate_torus(MatrixShape(2, 2))) == 7

    def test_2x3(self):
        assert len(enumerate_torus(MatrixShape(2, 3))) == 14

    def test_budget_error(self):
        with pytest.raises(CapacityError):
            enumerate_torus(MatrixShape(2, 17))

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 3), (2, 5), (3, 4)])
    def test_partition_soundness(self, m, n):
        reps = enumerate_torus(MatrixShape(m, n))
        covered = set()
        for rep in reps:
            orbit = oracles.rows_orbit(rep.rows, n)
            # rep is its orbit's lexicographic minimum, orbits disjoint
            assert rep.rows == min(orbit)
            assert not (covered & orbit)
            covered |= orbit
        assert len(covered) == 1 << (m * n)

    @pytest.mark.parametrize("m,n", [(1, 8), (2, 4), (3, 3), (4, 3)])
    def test_count_matches_burnside(self, m, n):
        shape = MatrixShape(m, n)
        assert len(enumerate_torus(shape)) == count_burnside(shape).value

    def test_orbit_sizes_partition_ground_set(self):
        shape = MatrixShape(3, 3)
        reps = enumerate_torus(shape)
        total = sum(len(oracles.rows_orbit(r.rows, 3)) for r in reps)
        assert total == 1 << 9


def test_iter_indices_ascending():
    indices = list(iter_representative_indices(MatrixShape(3, 3)))
    assert indices == sorted(indices)
    assert len(indices) == 64
