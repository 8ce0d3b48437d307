import functools
import itertools
import os
import tracemalloc
from unittest import mock

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
    fill_block,
    necklace_moves,
    row_moves,
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
    identity included."""
    w = 0
    for p in rows:
        w = (w << n) | p
    top = (1 << n) - 1
    rows_moves, moves, shift = necklace_moves(m, n)
    block = block_moves(moves, q, n, 1 << (m * n - shift))
    return [tuple((x >> (n * (m - 1 - i))) & top for i in range(m))
            for x in (moved_word(w, move)
                      for move in row_moves(w, rows_moves, block, shift))]


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
        # 2x2's 4-bit blocks lie under a byte, so the kernel lists the
        # whole orbit, also (2, 0), whose top row 10 is not a necklace
        assert set(visited_rows((1, 0), 2, 2, 0)) == \
            {(1, 0), (0, 1), (0, 2), (2, 0)}

    def test_2x2_singleton_orbit(self):
        # equal rows, and 3 = 11b is fixed by the bit rotation at n = 2
        assert set(visited_rows((3, 3), 2, 2, 0)) == {(3, 3)}

    @settings(max_examples=200, deadline=None)
    @example((7, 9, (1, 0, 0, 0, 0, 0, 0)))  # 63 cells
    @example((8, 8, (1, 2, 3, 4, 5, 6, 7, 8)))  # 64 cells
    @example((3, 4, (5, 10, 11)))  # periodic rows: 0101 has two offsets
    @example((2, 4, (5, 12)))  # 1100's necklace 0011 is below 0101
    @given(shaped_rows())
    def test_matches_grid_closure(self, case):
        m, n, rows = case
        whole = n * (m - 1) < 3  # one row, or blocks under a byte
        # the top row of the class minimum: the least row necklace
        q = 0 if whole else min(oracles.necklace(p, n) for p in rows)
        visits = visited_rows(rows, m, n, q)
        orbit = oracles.rows_orbit(rows, n)
        assert len(visits) == (m * n if whole else sum(
            len(oracles.least_rotation_offsets(p, n)) for p in rows
            if oracles.necklace(p, n) == q))
        # the orbit members under top row q; for one row or blocks under
        # a byte, the whole orbit
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
        # the rest of each class lies in later blocks, which their fills
        # cover; only the whole-orbit shapes mark whole orbits
        rows, columns, shift = necklace_moves(m, n)
        whole = n * (m - 1) < 3
        blocks = {}
        for w in iter_representative_indices(MatrixShape(m, n)):
            q = w >> shift
            if q not in blocks:
                blocks[q] = block_moves(columns, q, n, 1 << (m * n - shift))
            moves = row_moves(w, rows, blocks[q], shift)
            words = [moved_word(w, move) for move in moves]
            assert words[0] == w  # the identity, which the pass leaves out
            if whole:
                assert len(words) == m * n
            else:
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
        def first_only(moves, q, n, size):
            return [row[:1] for row in block_moves(moves, q, n, size)]

        monkeypatch.setattr(torus, "block_moves", first_only)
        got = list(iter_representative_indices(MatrixShape(2, 4)))
        assert got != list(oracles.full_orbit_sieve(2, 4))
        assert 0b0101_1101 in got

    def test_one_column_is_passed_as_one_row(self, monkeypatch):
        # the same words under the same rotation: 20x1 asks for the
        # one-row constants of 1x20, not the 20-row ones of 20x1
        asked = []

        def recorded(m, n):
            asked.append((m, n))
            return necklace_moves(m, n)

        monkeypatch.setattr(torus, "necklace_moves", recorded)
        got = list(iter_representative_indices(MatrixShape(20, 1)))
        assert asked == [(1, 20)]
        assert got == list(iter_representative_indices(MatrixShape(1, 20)))
        assert asked == [(1, 20)] * 2

    def test_pass_moves_past_a_word_the_kernel_missed(self, monkeypatch):
        # blocks with no moves, from which the kernel finds none, for
        # the first rows or the last: the pass must still end, listing
        # every code the fills leave, the words the filter tests
        monkeypatch.setattr(torus, "block_moves",
                            lambda moves, q, n, size: [()] * size)
        got = list(itertools.islice(
            iter_representative_indices(MatrixShape(2, 3)), 100))
        assert got == oracles.pruned_candidates(2, 3)


class _Read(int):
    """A byte read from a MarkLog: or-ing into it keeps the operand."""

    def __or__(self, other):
        result = _Ored(int(self) | other)
        result.operand = other
        return result


class _Ored(int):
    operand = 0


class MarkLog:
    """A visited store's bits that log each mark made into them.

    A mark is `bits[i] |= bit`: the read gives a _Read, or-ing the bit
    into it gives an _Ored that keeps the bit, and writing that back
    logs the code 8 * i + log2(bit). The pass's own rereads are or-ed
    but never written back, and fills write slices, so neither is
    logged.
    """

    def __init__(self, bits):
        self.bits = bits
        self.marks = []

    def __getitem__(self, i):
        value = self.bits[i]
        return _Read(value) if isinstance(i, int) else value

    def __setitem__(self, i, value):
        if isinstance(value, _Ored):
            self.marks.append((i << 3) | (value.operand.bit_length() - 1))
        self.bits[i] = value


def marks_by_word(m, n, monkeypatch):
    """Yield each word the pass lists with the marks it makes after
    listing it, through a MarkLog on the pass's store."""
    logs = []

    def logged_store(shape):
        store = VisitedStore(shape)
        store.bits = MarkLog(store.bits)
        logs.append(store.bits)
        return store

    monkeypatch.setattr(torus, "VisitedStore", logged_store)
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
        # does. All lie in w's block, at or ahead of the pass. One column
        # is passed as one row, whose orbits are marked whole.
        shift = necklace_moves(m, n)[2]
        whole = n == 1 or n * (m - 1) < 3
        for w, marks in marks_by_word(m, n, monkeypatch):
            rows = code_at_index(MatrixShape(m, n), w).rows
            orbit = oracles.rows_orbit(rows, n)
            under_q = {tuple_index(TupleCode(r, MatrixShape(m, n)))
                       for r in orbit if whole or r[0] == rows[0]}
            assert marks.count(w) == m * n // len(orbit) - 1
            assert set(marks) | {w} == under_q
            assert min(marks, default=w) >= w
            assert whole or {x >> shift for x in marks} <= {w >> shift}

    def test_4x4_count(self, monkeypatch):
        # the kernel's 9,555 moves less each of the 4,156 classes' identity
        assert sum(len(marks) for _, marks in
                   marks_by_word(4, 4, monkeypatch)) == 5399


@st.composite
def fill_cases(draw):
    # blocks of 8 to 2^10 codes, the first levels narrower than a byte
    # when n <= 2; chunks down to one byte write every level in place
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1 - (-3 // n), 1 + 10 // n))  # 3 <= n*(m-1) <= 10
    chunk = draw(st.sampled_from([1, 2, 8, 64, torus.FILL_CHUNK]))
    return m, n, chunk


class TestFillBlock:
    @settings(max_examples=60, deadline=None)
    @example((3, 2, 1))
    @example((5, 2, 2))
    @example((4, 1, 1))
    @example((8, 2, 1))  # 2-bit rows, built up from under a byte, 5 above
    @example((4, 3, 1))  # a one-row pattern, 2 levels above
    @given(fill_cases())
    def test_matches_necklace_oracle(self, case):
        m, n, chunk = case
        depth, top = m - 1, (1 << n) - 1
        size = 1 << (n * depth)  # codes in a block, a whole number of bytes
        necklaces = [oracles.necklace(p, n) for p in range(1 << n)]
        for q in sorted(set(necklaces)):
            low = sum(1 << p for p in range(1 << n) if necklaces[p] < q)
            # the block between two others, which must stay untouched
            store = bytearray(3 * size >> 3)
            with mock.patch.object(torus, "FILL_CHUNK", chunk):
                fill_block(store, size >> 3, depth, n, low)
            want = sum(1 << c for c in range(size)
                       if any(necklaces[(c >> (n * i)) & top] < q
                              for i in range(depth)))
            assert int.from_bytes(store, "little") == want << size, (q, low)

    @pytest.mark.parametrize("m,n", [(5, 6), (13, 2)])
    def test_temporaries_stay_under_the_chunk(self, m, n):
        # a 2 MiB block, 512 chunks: a fill that built it whole would
        # trace megabytes
        chunk, depth = 1 << 12, m - 1
        necklaces = sorted({oracles.necklace(p, n) for p in range(1 << n)})
        q = necklaces[len(necklaces) // 2]
        low = sum(1 << p for p in range(1 << n)
                  if oracles.necklace(p, n) < q)
        store = bytearray(1 << (n * depth - 3))
        assert len(store) >= 256 * chunk
        tracemalloc.start()
        try:
            with mock.patch.object(torus, "FILL_CHUNK", chunk):
                fill_block(store, 0, depth, n, low)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * chunk, peak
        unmarked = (1 << n) - bin(low).count("1")
        assert (int.from_bytes(store, "little").bit_count()
                == (1 << (n * depth)) - unmarked ** depth)


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
