import random

import pytest

from torus_orbits import (
    MatrixShape,
    RangeError,
    TupleCode,
    enumerate_torus,
    iter_canonical_indices,
    tuple_index,
)

import oracles


def canonical_words(shape, words):
    """The words of the iterable that the filter keeps, one at a time."""
    return [w for w in words if list(iter_canonical_indices(shape, w, w + 1))]


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


class TestStream:
    def test_length_two_necklaces(self):
        assert list(iter_canonical_indices(MatrixShape(1, 2))) == [0, 1, 3]

    def test_2x2_full_range(self):
        assert len(list(iter_canonical_indices(MatrixShape(2, 2)))) == 7

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
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (2, 7)])
    def test_range_partition_refines_full_output(self, m, n, step):
        shape = MatrixShape(m, n)
        total = 1 << shape.cells
        full = list(iter_canonical_indices(shape))
        pieces = []
        for lo in range(0, total, step):
            pieces.extend(iter_canonical_indices(shape, lo,
                                                 min(lo + step, total)))
        assert pieces == full

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (2, 3), (3, 3),
                                     (2, 5), (4, 3)])
    def test_agrees_with_sieve(self, m, n):
        shape = MatrixShape(m, n)
        assert list(iter_canonical_indices(shape)) == \
            [tuple_index(c) for c in enumerate_torus(shape)]
