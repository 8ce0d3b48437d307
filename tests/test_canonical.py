import ast
import functools
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import pytest

from torus_orbits import (
    MatrixShape,
    RangeError,
    TupleCode,
    code_at_index,
    iter_canonical_indices,
    iter_representative_indices,
    tuple_index,
)
from torus_orbits import canonical, torus

import oracles


def canonical_words(shape, words):
    """The words of the iterable that the filter keeps, one at a time."""
    return [w for w in words if list(iter_canonical_indices(shape, w, w + 1))]


def imported_modules(module):
    """The last dotted part of each module or name that module's source
    imports: `from .torus import f` gives torus and f."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_filter_and_sieve_import_nothing_from_each_other():
    # check compares the two routes: a helper they shared would fail
    # both alike, and the comparison could not see it
    assert "torus" not in imported_modules(canonical)
    assert "canonical" not in imported_modules(torus)


def test_zero_code_is_canonical():
    assert list(iter_canonical_indices(MatrixShape(2, 4), 0, 1)) == [0]


def test_non_minimal_rejected():
    # rows 10,00 rotate to 01,00 which is smaller
    shape = MatrixShape(2, 2)
    w = tuple_index(TupleCode((2, 0), shape))
    assert list(iter_canonical_indices(shape, w, w + 1)) == []


def test_2x2_has_seven_canonical_codes():
    shape = MatrixShape(2, 2)
    assert len(canonical_words(shape, range(16))) == 7


def test_canonical_words_are_orbit_minima():
    rng = random.Random(17)
    shape = MatrixShape(3, 4)
    for _ in range(100):
        rows = tuple(rng.randint(0, 15) for _ in range(3))
        orbit = oracles.rows_orbit(rows, 4)
        kept = canonical_words(
            shape, (tuple_index(TupleCode(r, shape)) for r in orbit))
        # exactly one member of each orbit is kept: its minimum
        assert kept == [tuple_index(TupleCode(min(orbit), shape))]


SHAPES_UP_TO_20_CELLS = [(m, n) for m in range(1, 21) for n in range(1, 21)
                         if m * n <= 20]


@functools.cache
def _sieve_words(m, n):
    return list(iter_representative_indices(MatrixShape(m, n)))


def sieve_words(m, n, start=0, stop=None):
    """The sieve's representatives within [start, stop), ascending."""
    words = _sieve_words(m, n)
    return words[bisect_left(words, start):
                 len(words) if stop is None else bisect_left(words, stop)]


class TestStream:
    def test_length_two_necklaces(self):
        assert list(iter_canonical_indices(MatrixShape(1, 2))) == [0, 1, 3]

    def test_2x2_full_range(self):
        assert len(list(iter_canonical_indices(MatrixShape(2, 2)))) == 7

    @pytest.mark.parametrize("m,n", [(2000, 1), (1000, 2)])
    def test_tall_shape(self, m, n):
        # more rows than the interpreter's default recursion limit: one
        # column is walked as one row, and two columns by the odometer,
        # which keeps one walk per row, not one stack frame
        shape = MatrixShape(m, n)
        expected, seen = [], set()
        for w in range(10):
            # an orbit's minimum is its first word in an ascending walk
            # from 0, so a word is kept iff no earlier orbit holds it
            rows = code_at_index(shape, w).rows
            if rows not in seen:
                orbit = oracles.rows_orbit(rows, n)
                assert min(orbit) == rows
                expected.append(w)
                seen |= orbit
        assert list(iter_canonical_indices(shape, 0, 10)) == expected

    def test_empty_range(self):
        assert list(iter_canonical_indices(MatrixShape(2, 2), 5, 5)) == []

    def test_invalid_range(self):
        with pytest.raises(RangeError):
            list(iter_canonical_indices(MatrixShape(2, 2), 0, 17))
        with pytest.raises(RangeError):
            list(iter_canonical_indices(MatrixShape(2, 2), -1, 4))
        with pytest.raises(RangeError):
            list(iter_canonical_indices(MatrixShape(2, 2), 9, 4))

    @pytest.mark.parametrize("step", [1, 97, 1000])
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (2, 7), (1, 12),
                                     (12, 1)])
    def test_range_partition_refines_full_output(self, m, n, step):
        shape = MatrixShape(m, n)
        total = 1 << shape.cells
        full = list(iter_canonical_indices(shape))
        pieces = []
        for lo in range(0, total, step):
            pieces.extend(iter_canonical_indices(shape, lo,
                                                 min(lo + step, total)))
        assert pieces == full

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_20_CELLS)
    def test_agrees_with_sieve(self, m, n):
        assert list(iter_canonical_indices(MatrixShape(m, n))) == \
            sieve_words(m, n)


class TestNecklaces:
    """The FKM walk that lists one-row and one-column shapes, against the
    brute-force necklace oracle."""

    def test_full_list(self):
        # strictly ascending necklaces, as many as there are: all of them
        for n in range(1, 21):
            words = list(canonical._necklaces(n, 0, 1 << n))
            assert words == sorted(set(words)), n
            assert all(oracles.necklace(p, n) == p for p in words), n
            assert len(words) == oracles.necklace_count(n), n

    def test_every_range(self):
        # starts that are no prenecklace, start = 2^n - 1, empty ranges
        for n in range(1, 9):
            total = 1 << n
            necklaces = [p for p in range(total)
                         if oracles.necklace(p, n) == p]
            for start in range(total + 1):
                for stop in range(start, total + 1):
                    assert list(canonical._necklaces(n, start, stop)) == \
                        necklaces[bisect_left(necklaces, start):
                                  bisect_left(necklaces, stop)], \
                        (n, start, stop)


class TestLeastRotation:
    """The per-row necklace memo of the filter's walk, against the
    brute-force necklaces and rotations of tests/oracles.py."""

    def test_every_row(self):
        for n in range(1, 13):
            for p in range(1 << n):
                least, offsets = canonical._least_rotation(p, n)
                assert least == oracles.necklace(p, n), (n, p)
                assert list(offsets) == \
                    oracles.least_rotation_offsets(p, n), (n, p)

    @pytest.mark.parametrize("m,n", [(2, 8), (3, 5), (4, 4)])
    def test_each_row_once_per_run(self, monkeypatch, m, n):
        # r0 = 0 walks every row, and the memo holds each for the run
        rows = []
        real = canonical._least_rotation

        def counting(p, n):
            rows.append(p)
            return real(p, n)

        monkeypatch.setattr(canonical, "_least_rotation", counting)
        assert list(iter_canonical_indices(MatrixShape(m, n))) == \
            sieve_words(m, n)
        assert sorted(rows) == list(range(1 << n))


def wide_filter_words(ranges):
    """The filter's 2x40 words within each [start, stop) of ranges, from
    a subprocess with a timeout: a walk up from the top row over the
    2^40 last rows, instead of a seek to the range's start, cannot
    finish."""
    script = ("import sys\n"
              "from torus_orbits import MatrixShape, iter_canonical_indices\n"
              "args = [int(a) for a in sys.argv[1:]]\n"
              "for start, stop in zip(args[::2], args[1::2]):\n"
              "    print(*iter_canonical_indices(MatrixShape(2, 40), "
              "start, stop))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script,
         *(str(x) for bounds in ranges for x in bounds)],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    return [[int(w) for w in line.split()]
            for line in proc.stdout.splitlines()]


class TestWideSeek:
    """Ranges on 2x40 whose last rows lie far above the top row r0."""

    def test_one_word_ranges(self):
        # (1, 2^k) has the move row 1 on top, right-rotated by k, to
        # (1, 2^(40 - k)): canonical iff k <= 20; (1, 2^40 - 1) has none
        words = [(1 << 40) | p for p in (1 << 20, 1 << 39, (1 << 40) - 1)]
        assert wide_filter_words([(w, w + 1) for w in words]) == \
            [[words[0]], [], [words[2]]]

    def test_range_from_the_middle_of_a_row(self):
        shape = MatrixShape(2, 40)

        def is_minimum(w):
            rows = code_at_index(shape, w).rows
            return min(oracles.rows_orbit(rows, 40)) == rows

        ranges = [((r0 << 40) | ((1 << 39) - 300),
                   (r0 << 40) | ((1 << 39) + 300)) for r0 in (1, 5)]
        expected = [[w for w in range(start, stop) if is_minimum(w)]
                    for start, stop in ranges]
        assert all(expected)
        assert wide_filter_words(ranges) == expected

    def test_a_seek_holds_no_rows(self):
        # a seek's rows are walked once, so the memo keeps none of them:
        # 10,000 would take megabytes
        start = (1 << 40) | (1 << 39)
        tracemalloc.start()
        try:
            words = iter_canonical_indices(MatrixShape(2, 40), start,
                                           start + 10000)
            assert sum(1 for _ in words) > 9000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPruning:
    """The pruned walk against the sieve, the independent route."""

    def test_random_subranges_match_sieve(self):
        rng = random.Random(20261018)
        for m, n in SHAPES_UP_TO_20_CELLS:
            shape = MatrixShape(m, n)
            total = 1 << shape.cells
            starts = [rng.randrange(total + 1) for _ in range(5)]
            ranges = [(s, min(total, s + length)) for s, length in
                      zip(starts, (0, 1, 2, rng.randrange(1 << 14),
                                   rng.randrange(1 << 14)))]
            for start, stop in ranges:
                assert list(iter_canonical_indices(shape, start, stop)) \
                    == sieve_words(m, n, start, stop), (m, n, start, stop)

    @pytest.mark.parametrize("m,n", [(2, 7), (3, 4), (3, 6), (4, 5)])
    def test_ranges_at_top_row_boundaries(self, m, n):
        shape = MatrixShape(m, n)
        total = 1 << shape.cells
        shift = n * (m - 1)
        width = 1 << shift
        for r0 in range(1 << n):
            edge = r0 << shift
            near = (edge - 1, edge, edge + 1)
            ranges = [(lo, hi) for lo in near for hi in near if lo <= hi]
            ranges += [(x - 37, x) for x in near] + [(x, x + 37) for x in near]
            for lo, hi in ranges:
                if 0 <= lo and hi <= total:
                    assert list(iter_canonical_indices(shape, lo, hi)) == \
                        sieve_words(m, n, lo, hi), (lo, hi)
            if oracles.necklace(r0, n) != r0:
                # inside a top row that is no necklace: nothing is kept
                for lo, hi in ((edge, edge + width),
                               (edge + 1, edge + width - 1)):
                    assert list(iter_canonical_indices(shape, lo, hi)) == \
                        sieve_words(m, n, lo, hi) == []

    @pytest.mark.parametrize("m,n", [(1, 9), (2, 7), (3, 4), (4, 4),
                                     (4, 5), (5, 3)])
    def test_tests_only_the_lemma_candidates(self, monkeypatch, m, n):
        walked = []
        real = canonical._RowsUnder.walk

        def recording(rows, lo, hi):
            kept = list(real(rows, lo, hi))
            walked.append(tuple(p for p, _ in kept))
            return iter(kept)

        monkeypatch.setattr(canonical._RowsUnder, "walk", recording)
        shape = MatrixShape(m, n)
        total = 1 << shape.cells

        def candidates(start=0, stop=total):
            # the words the last row's walks reach, and the words kept;
            # the odometer walks the rows under each prefix it pushes,
            # and pushes exactly the oracle's prefixes, in its order. On
            # one row every candidate is a necklace, kept without a walk
            walked.clear()
            kept = list(iter_canonical_indices(shape, start, stop))
            walks = oracles.filter_walks(m, n, start, stop)
            assert walked == [rows for _, _, rows in walks], (start, stop)
            if m == 1:
                return kept, kept
            return [(prefix << n) | p for depth, prefix, rows in walks
                    if depth == m - 2 for p in rows], kept

        words, kept = candidates()
        assert len(words) <= oracles.pruned_candidate_count(m, n)
        assert set(kept) <= set(words)
        # sub-ranges seek into rows above the top row's value
        rng = random.Random(m * 100 + n)
        for _ in range(20):
            start = rng.randrange(total)
            stop = min(total, start + rng.randrange(1 << 12))
            words, kept = candidates(start, stop)
            assert set(kept) <= set(words) <= \
                set(oracles.pruned_candidates(m, n, start, stop))

    @pytest.mark.parametrize("m,n,rows", [
        # below its orbit only by row 0's own column rotations: 0000, 0001
        (2, 4, (0b0000, 0b0010)),
        # r0 = 0101 is periodic; row 1 turns into it by right rotations of
        # 1 and 3 columns, and only the second gives a word below
        (3, 4, (0b0101, 0b1010, 0b1011)),
        # row 1 on top, right-rotated by 1: 001, 001, 100
        (3, 3, (0b001, 0b010, 0b010)),
        # the last compared rows tie, and a wrapped row decides: row 1
        # on top, right-rotated by 3, gives 0001, 1000, 0010 (and the
        # last row on top gives 0001, 0100, 0010)
        (3, 4, (0b0001, 0b1000, 0b0100)),
        # only a tie: row 1 on top, right-rotated by 1: 0011, 0110, 1001
        (3, 4, (0b0011, 0b0110, 0b1100)),
        # only a tie: row 2 on top, right-rotated by 2: 000, 001, 000, 010
        (4, 3, (0b000, 0b001, 0b000, 0b100)),
    ])
    def test_rejects_words_below_by_one_move(self, m, n, rows):
        assert min(oracles.rows_orbit(rows, n)) < rows
        shape = MatrixShape(m, n)
        w = tuple_index(TupleCode(rows, shape))
        assert list(iter_canonical_indices(shape, w, w + 1)) == []

    def test_lemma_holds_for_every_class_minimum(self):
        # the sieve's minima, so the lemma is checked apart from the walk
        for m, n in SHAPES_UP_TO_20_CELLS:
            if m * n > 16:
                continue
            shape = MatrixShape(m, n)
            for w in sieve_words(m, n):
                rows = code_at_index(shape, w).rows
                r0 = rows[0]
                assert oracles.necklace(r0, n) == r0, (m, n, rows)
                assert all(oracles.necklace(p, n) >= r0 for p in rows), \
                    (m, n, rows)
