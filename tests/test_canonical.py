import ast
import collections
import functools
import itertools
import random
from pathlib import Path

import pytest

from torus_orbits import (
    MatrixShape,
    TupleCode,
    code_at_index,
    count_burnside,
    iter_canonical_indices,
    iter_representative_indices,
    tuple_index,
)
from torus_orbits import canonical, torus

import oracles


@functools.cache
def _filter_words(m, n):
    return frozenset(iter_canonical_indices(MatrixShape(m, n)))


def canonical_words(shape, words):
    """The words of the iterable that the filter's full run keeps."""
    kept = _filter_words(shape.m, shape.n)
    return [w for w in words if w in kept]


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
    assert canonical_words(MatrixShape(2, 4), [0]) == [0]


def test_non_minimal_rejected():
    # rows 10,00 rotate to 01,00 which is smaller
    shape = MatrixShape(2, 2)
    w = tuple_index(TupleCode((2, 0), shape))
    assert canonical_words(shape, [w]) == []


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
def sieve_words(m, n):
    """The sieve's representatives, ascending."""
    return list(iter_representative_indices(MatrixShape(m, n)))


class TestStream:
    def test_length_two_necklaces(self):
        assert list(iter_canonical_indices(MatrixShape(1, 2))) == [0, 1, 3]

    def test_2x2_full_range(self):
        assert len(list(iter_canonical_indices(MatrixShape(2, 2)))) == 7

    @pytest.mark.parametrize("m,n", [(2000, 1), (1000, 2), (8, 8), (7, 9),
                                     (5, 6), (3, 10), (2, 40), (3, 40)])
    def test_tall_shape(self, m, n):
        # more rows than the interpreter's default recursion limit: one
        # column is walked as one row, and two columns by the odometer,
        # which keeps one walk per row, not one stack frame. Shapes
        # beyond the 20-cell sweep give the filter's verdict on their
        # first words, which the lazy row walks yield at once
        shape = MatrixShape(m, n)
        # each orbit below is m*n row tuples of m rows: few on tall shapes
        k = 10 if m > 100 else 300
        got = list(itertools.islice(iter_canonical_indices(shape), k))
        last = code_at_index(shape, got[-1]).rows
        expected, seen = [], set()
        for w in range(got[-1] + 1):
            # an orbit's minimum is its first word in an ascending walk
            # from 0, so a word is kept iff no earlier orbit holds it
            rows = code_at_index(shape, w).rows
            if rows not in seen:
                orbit = oracles.rows_orbit(rows, n)
                assert min(orbit) == rows
                expected.append(w)
                # only members up to the last word can be met again
                seen.update(r for r in orbit if r <= last)
        assert got == expected

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_20_CELLS)
    def test_agrees_with_sieve(self, m, n):
        assert list(iter_canonical_indices(MatrixShape(m, n))) == \
            sieve_words(m, n)


class TestCount:
    """The count that settles a last-row frame with no open move by one
    sum, against the word stream it skips and against Burnside."""

    @pytest.mark.parametrize("m,n", SHAPES_UP_TO_20_CELLS + [
        (4, 6), (6, 4), (3, 8), (8, 3), (2, 12), (12, 2), (1, 24), (24, 1)])
    def test_agrees_with_stream_and_burnside(self, m, n):
        shape = MatrixShape(m, n)
        count = canonical.count_canonical(shape)
        assert count == sum(1 for _ in iter_canonical_indices(shape))
        assert count == count_burnside(shape).value

    def test_walks_only_frames_with_open_moves(self, monkeypatch):
        # the rows each last-row walk yields, by whether its frame has an
        # open move; the count and the stream read the same frames
        pulled = collections.Counter()
        real = canonical._walk

        def counted(walk, opened):
            for entry in walk:
                pulled[opened] += 1
                yield entry

        def recording(m, n):
            row, frames, settle = real(m, n)
            return row, (
                (prefix, moves, counted(walk, bool(moves)))
                for prefix, moves, walk in frames), settle

        monkeypatch.setattr(canonical, "_walk", recording)
        shape = MatrixShape(4, 6)
        assert canonical.count_canonical(shape) == 699600
        assert pulled == {True: 91259}
        pulled.clear()
        assert sum(1 for _ in iter_canonical_indices(shape)) == 699600
        assert pulled == {True: 91259, False: 713732}


class TestNecklaces:
    """The FKM walk that lists one-row and one-column shapes, against the
    brute-force necklace oracle."""

    def test_full_list(self):
        # strictly ascending necklaces, as many as there are: all of them
        for n in range(1, 21):
            words = list(canonical._necklaces(n))
            assert words == sorted(set(words)), n
            assert all(oracles.necklace(p, n) == p for p in words), n
            assert len(words) == oracles.necklace_count(n), n


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
        # and so does the count, whose per-necklace sums read the memo
        rows.clear()
        assert canonical.count_canonical(MatrixShape(m, n)) == \
            len(sieve_words(m, n))
        assert sorted(rows) == list(range(1 << n))


class TestPruning:
    """The pruned walk against the sieve, the independent route."""

    @pytest.mark.parametrize("m,n", [(1, 9), (2, 7), (3, 4), (4, 4),
                                     (4, 5), (5, 3)])
    def test_tests_only_the_lemma_candidates(self, monkeypatch, m, n):
        walked = []
        real = canonical._rows_under

        class Recording:
            def __init__(self, *args):
                self.rows = real(*args)

            def __copy__(self):
                kept = list(self.rows.__copy__())
                walked.append(tuple(p for p, _ in kept))
                return iter(kept)

        monkeypatch.setattr(canonical, "_rows_under", Recording)
        # the odometer walks the rows under each prefix it pushes, and
        # pushes exactly the oracle's prefixes, in its order
        kept = list(iter_canonical_indices(MatrixShape(m, n)))
        walks = oracles.filter_walks(m, n)
        assert walked == [rows for _, _, rows in walks]
        # the words the last row's walks reach; on one row every
        # candidate is a necklace, kept without a walk
        words = kept if m == 1 else [
            (prefix << n) | p for depth, prefix, rows in walks
            if depth == m - 2 for p in rows]
        assert len(words) <= oracles.pruned_candidate_count(m, n)
        assert set(kept) <= set(words)

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
        assert canonical_words(shape, [w]) == []

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
