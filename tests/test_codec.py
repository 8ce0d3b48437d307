"""Codes, their linearized words and the full-orbit word kernel.

`oracles.orbit_words` lists a word's whole rotation orbit, as the
reference sieve of `oracles.full_orbit_sieve` marks it; these tests pin
it and the code/word bijection to plain grids and the last-to-first
grid moves of `oracles`. The package's own kernel, which lists only the
orbit members whose top row is a necklace, is checked in
`test_torus.py` and by acceptance criterion 5.
"""

import itertools
import random

import pytest

from torus_orbits import (
    MatrixShape,
    RangeError,
    TupleCode,
    code_at_index,
    tuple_index,
)
from torus_orbits.torus import row_low_mask

import oracles


def all_codes(m, n):
    shape = MatrixShape(m, n)
    for rows in itertools.product(range(1 << n), repeat=m):
        yield TupleCode(rows, shape)


def random_code(rng, shape):
    top = (1 << shape.n) - 1
    return TupleCode(tuple(rng.randint(0, top) for _ in range(shape.m)),
                     shape)


def cells_word(grid):
    """The grid's cells read row-major as one binary numeral."""
    return int("".join(str(cell) for row in grid for cell in row), 2)


def words(w, m, n):
    return list(oracles.orbit_words(w, m, n, row_low_mask(m, n)))


def word_rows(x, m, n):
    top = (1 << n) - 1
    return tuple((x >> (n * (m - 1 - i))) & top for i in range(m))


def word_grid(x, m, n):
    return oracles.rows_to_grid(word_rows(x, m, n), n)


def row_rotation(x, m, n):
    """row^1 of a word, by the kernel: word n + n - 1 of its orbit."""
    return words(x, m, n)[2 * n - 1] if m > 1 else x


class TestShape:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MatrixShape(0, 3)
        with pytest.raises(ValueError):
            MatrixShape(2, -1)


class TestEncodeDecode:
    """Grid to code through the word, and code back to grid rows."""

    def test_encode_2x3(self):
        grid = ((1, 0, 1), (0, 0, 1))
        code = code_at_index(MatrixShape(2, 3), cells_word(grid))
        assert code.rows == (5, 1)

    def test_encode_zero(self):
        grid = tuple(((0,) * 4,) * 3)
        code = code_at_index(MatrixShape(3, 4), cells_word(grid))
        assert code.rows == (0, 0, 0)

    def test_encode_1x1(self):
        code = code_at_index(MatrixShape(1, 1), cells_word(((1,),)))
        assert code.rows == (1,)

    def test_decode_2x3(self):
        code = TupleCode((5, 1), MatrixShape(2, 3))
        assert oracles.row_strings(code) == ["101", "001"]

    def test_decode_all_ones_row(self):
        for n in (1, 3, 8):
            code = TupleCode(((1 << n) - 1,), MatrixShape(1, n))
            assert oracles.row_strings(code) == ["1" * n]

    def test_roundtrip_random_4x4(self):
        rng = random.Random(7)
        shape = MatrixShape(4, 4)
        for _ in range(1000):
            grid = tuple(
                tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)
            )
            w = cells_word(grid)
            code = code_at_index(shape, w)
            assert oracles.row_strings(code) == \
                ["".join(map(str, row)) for row in grid]
            assert tuple_index(code) == w

    def test_roundtrip_exhaustive_2x3(self):
        shape = MatrixShape(2, 3)
        for code in all_codes(2, 3):
            assert code_at_index(shape, tuple_index(code)) == code

    def test_tuple_code_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            TupleCode((8, 0), MatrixShape(2, 3))
        with pytest.raises(RangeError):
            TupleCode((-1,), MatrixShape(1, 4))

    def test_tuple_code_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TupleCode((1, 2, 3), MatrixShape(2, 3))

    def test_matrix_rejects_non_bits(self):
        # a row given as a bit string or a float is not a row value
        with pytest.raises(RangeError):
            TupleCode((0, "10"), MatrixShape(2, 2))
        with pytest.raises(RangeError):
            TupleCode((1.0,), MatrixShape(1, 2))

    def test_lexicographic_order(self):
        shape = MatrixShape(2, 2)
        assert tuple_index(TupleCode((0, 3), shape)) < \
            tuple_index(TupleCode((1, 0), shape))
        assert tuple_index(TupleCode((1, 1), shape)) < \
            tuple_index(TupleCode((1, 2), shape))


class TestXi:
    """One column rotation: the n-bit right rotation of each row field."""

    def test_zero_fixed_point(self):
        for n in range(1, 10):
            assert words(0, 1, n) == [0] * n

    def test_hand_values(self):
        assert words(5, 1, 4)[0] == 10  # 0101 -> 1010
        assert words(6, 1, 3)[0] == 3   # 110 -> 011
        # each row field rotates on its own: 0101 0110 -> 1010 0011
        assert words(0b0101_0110, 2, 4)[0] == 0b1010_0011

    def test_order_n(self):
        for n in (1, 2, 5):
            for a in range(1 << n):
                assert words(a, 1, n)[n - 1] == a


class TestRotations:
    def test_rotate_rows_pattern(self):
        w = tuple_index(TupleCode((1, 2, 3), MatrixShape(3, 2)))
        orbit = words(w, 3, 2)
        assert word_rows(orbit[3], 3, 2) == (3, 1, 2)
        assert word_rows(orbit[5], 3, 2) == (2, 3, 1)

    def test_rotate_rows_single_row(self):
        # one row has no row move: its orbit words are its n column moves
        assert words(9, 1, 4) == [12, 6, 3, 9]
        assert row_rotation(9, 1, 4) == 9

    def test_rotate_cols_2x3(self):
        w = tuple_index(TupleCode((5, 1), MatrixShape(2, 3)))
        assert word_rows(words(w, 2, 3)[0], 2, 3) == (6, 4)

    def test_rotate_cols_zero(self):
        assert words(0, 2, 5) == [0] * 10

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (4, 5)])
    def test_rotation_orders(self, m, n):
        rng = random.Random(m * 100 + n)
        shape = MatrixShape(m, n)
        for _ in range(50):
            w = tuple_index(random_code(rng, shape))
            r = w
            for _ in range(m):
                r = row_rotation(r, m, n)
            assert r == w
            assert words(w, m, n)[n - 1] == w

    def test_commutation_exhaustive_2x3(self):
        m, n = 2, 3
        for w in range(1 << (m * n)):
            orbit = words(w, m, n)
            for j in range(1, n + 1):
                col_j = words(orbit[j - 1], m, n)
                for i in range(m):
                    # row^i(col^j(w)) == col^j(row^i(w))
                    assert col_j[i * n + n - 1] == orbit[i * n + j - 1]

    @staticmethod
    def check_grid_semantics(w, m, n):
        # word i*n + j - 1 is col^j(row^i(w)): the last-to-first grid moves
        orbit = words(w, m, n)
        row_moved = word_grid(w, m, n)
        for i in range(m):
            g = row_moved
            for j in range(1, n + 1):
                g = oracles.move_last_col_first(g)
                assert word_grid(orbit[i * n + j - 1], m, n) == g
            row_moved = oracles.move_last_row_first(row_moved)

    def test_grid_semantics_exhaustive_2x3(self):
        for w in range(1 << 6):
            self.check_grid_semantics(w, 2, 3)

    def test_grid_semantics_random_4x5(self):
        rng = random.Random(3)
        shape = MatrixShape(4, 5)
        for _ in range(200):
            self.check_grid_semantics(
                tuple_index(random_code(rng, shape)), 4, 5)
