import random

import pytest

from torus_orbits import (
    MatrixShape,
    RangeError,
    TupleCode,
    canonical_form,
    enumerate_torus,
    is_canonical,
    stream_canonical,
)

import oracles


def test_zero_code_is_canonical():
    assert is_canonical(TupleCode((0, 0), MatrixShape(2, 4)))


def test_non_minimal_rejected():
    # rows 10,00 rotate to 01,00 which is smaller
    assert not is_canonical(TupleCode((2, 0), MatrixShape(2, 2)))


def test_2x2_has_seven_canonical_codes():
    shape = MatrixShape(2, 2)
    canonical = [rows for rows in
                 ((a, b) for a in range(4) for b in range(4))
                 if is_canonical(TupleCode(rows, shape))]
    assert len(canonical) == 7


def test_canonical_form_is_orbit_minimum():
    rng = random.Random(17)
    shape = MatrixShape(3, 4)
    for _ in range(100):
        rows = tuple(rng.randint(0, 15) for _ in range(3))
        best = canonical_form(TupleCode(rows, shape))
        assert best.rows == min(oracles.rows_orbit(rows, 4))
        assert is_canonical(best)


class TestStream:
    def test_length_two_necklaces(self):
        codes = list(stream_canonical(MatrixShape(1, 2)))
        assert [c.rows for c in codes] == [(0,), (1,), (3,)]

    def test_2x2_full_range(self):
        assert len(list(stream_canonical(MatrixShape(2, 2)))) == 7

    def test_empty_range(self):
        assert list(stream_canonical(MatrixShape(2, 2), 5, 5)) == []

    def test_invalid_range(self):
        with pytest.raises(RangeError):
            list(stream_canonical(MatrixShape(2, 2), 0, 17))
        with pytest.raises(RangeError):
            list(stream_canonical(MatrixShape(2, 2), -1, 4))
        with pytest.raises(RangeError):
            list(stream_canonical(MatrixShape(2, 2), 9, 4))

    def test_range_partition_refines_full_output(self):
        shape = MatrixShape(3, 3)
        full = list(stream_canonical(shape))
        pieces = []
        for lo in range(0, 1 << 9, 97):
            pieces.extend(stream_canonical(shape, lo,
                                           min(lo + 97, 1 << 9)))
        assert pieces == full

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (2, 3), (3, 3),
                                     (2, 5), (4, 3)])
    def test_agrees_with_sieve(self, m, n):
        shape = MatrixShape(m, n)
        assert list(stream_canonical(shape)) == list(enumerate_torus(shape))
