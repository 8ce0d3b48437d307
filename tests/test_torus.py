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
    necklace_moves,
    necklace_topped_words,
)

import oracles


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


def visited_rows(rows, m, n):
    """The row tuples of the sieve's kernel on a code, for any shape."""
    w = 0
    for p in rows:
        w = (w << n) | p
    top = (1 << n) - 1
    return [tuple((x >> (n * (m - 1 - i))) & top for i in range(m))
            for x in necklace_topped_words(w, *necklace_moves(m, n))]


@st.composite
def shaped_rows(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    row = st.integers(0, (1 << n) - 1)
    return m, n, tuple(draw(st.lists(row, min_size=m, max_size=m)))


class TestOrbitVisits:
    def test_zero_code_fixed_point(self):
        # each row 00 is its least rotation at both offsets
        assert visited_rows((0, 0, 0), 3, 2) == [(0, 0, 0)] * 6

    def test_2x2_four_element_orbit(self):
        # 2x2's 4-bit blocks lie under a byte, so the kernel lists the
        # whole orbit, also (2, 0), whose top row 10 is not a necklace
        assert set(visited_rows((1, 0), 2, 2)) == \
            {(1, 0), (0, 1), (0, 2), (2, 0)}

    def test_2x2_singleton_orbit(self):
        # equal rows, and 3 = 11b is fixed by the bit rotation at n = 2
        assert set(visited_rows((3, 3), 2, 2)) == {(3, 3)}

    @settings(max_examples=200, deadline=None)
    @example((7, 9, (1, 0, 0, 0, 0, 0, 0)))  # 63 cells
    @example((8, 8, (1, 2, 3, 4, 5, 6, 7, 8)))  # 64 cells
    @example((3, 4, (5, 10, 11)))  # periodic rows: 0101 has two offsets
    @given(shaped_rows())
    def test_matches_grid_closure(self, case):
        m, n, rows = case
        visits = visited_rows(rows, m, n)
        orbit = oracles.rows_orbit(rows, n)
        whole = n * (m - 1) < 3  # one row, or blocks under a byte
        assert len(visits) == (m * n if whole else sum(
            len(oracles.least_rotation_offsets(p, n)) for p in rows))
        # the orbit members whose top row is its own least rotation; for
        # one row or blocks under a byte, the whole orbit
        assert set(visits) == {r for r in orbit if whole or
                               oracles.necklace(r[0], n) == r[0]}
        shape = MatrixShape(m, n)
        w = tuple_index(TupleCode(rows, shape))
        # the filter's targeted test, which shares no code with the
        # kernel, on the same shapes
        assert list(iter_canonical_indices(shape, w, w + 1)) == \
            ([w] if rows == min(orbit) else [])


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

    def test_first_offset_alone_misses_periodic_rows(self, monkeypatch):
        # the row 0101 is its least rotation at offsets 0 and 2, so the
        # class of (0011, 0101) has two members under it, (0101, 0011)
        # and (0101, 1100); a table with only each row's first offset
        # leaves the second unmarked, to be listed as a class of its own
        def first_only(m, n):
            rows, table, shift = necklace_moves(m, n)
            return rows, [moves[:1] for moves in table], shift

        monkeypatch.setattr(torus, "necklace_moves", first_only)
        got = list(iter_representative_indices(MatrixShape(2, 4)))
        assert got != list(oracles.full_orbit_sieve(2, 4))
        assert 0b0101_1100 in got

    def test_pass_moves_past_a_word_the_kernel_missed(self, monkeypatch):
        # a kernel that marks nothing: the pass must still end, listing
        # every code under a necklace top row (000, 001, 011, 111)
        monkeypatch.setattr(torus, "necklace_topped_words",
                            lambda w, rows, table, shift: [])
        got = list(itertools.islice(
            iter_representative_indices(MatrixShape(2, 3)), 100))
        assert got == [p << 3 | q for p in (0, 1, 3, 7) for q in range(8)]


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
