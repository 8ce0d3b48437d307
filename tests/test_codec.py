import itertools
import random

import pytest

from torus_orbits import (
    BinaryMatrix,
    MatrixShape,
    RangeError,
    TupleCode,
    decode,
    encode,
    rotate_cols,
    rotate_rows,
    xi,
)

import oracles


def all_codes(m, n):
    shape = MatrixShape(m, n)
    for rows in itertools.product(range(1 << n), repeat=m):
        yield TupleCode(rows, shape)


def random_code(rng, shape):
    top = (1 << shape.n) - 1
    return TupleCode(tuple(rng.randint(0, top) for _ in range(shape.m)),
                     shape)


class TestShape:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MatrixShape(0, 3)
        with pytest.raises(ValueError):
            MatrixShape(2, -1)


class TestEncodeDecode:
    def test_encode_2x3(self):
        m = BinaryMatrix(MatrixShape(2, 3), ((1, 0, 1), (0, 0, 1)))
        assert encode(m).rows == (5, 1)

    def test_encode_zero(self):
        m = BinaryMatrix(MatrixShape(3, 4), tuple(((0,) * 4,) * 3))
        assert encode(m).rows == (0, 0, 0)

    def test_encode_1x1(self):
        m = BinaryMatrix(MatrixShape(1, 1), ((1,),))
        assert encode(m).rows == (1,)

    def test_decode_2x3(self):
        code = TupleCode((5, 1), MatrixShape(2, 3))
        assert decode(code).bits == ((1, 0, 1), (0, 0, 1))

    def test_decode_all_ones_row(self):
        for n in (1, 3, 8):
            code = TupleCode(((1 << n) - 1,), MatrixShape(1, n))
            assert decode(code).bits == ((1,) * n,)

    def test_roundtrip_random_4x4(self):
        rng = random.Random(7)
        shape = MatrixShape(4, 4)
        for _ in range(1000):
            grid = tuple(
                tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)
            )
            matrix = BinaryMatrix(shape, grid)
            assert decode(encode(matrix)) == matrix

    def test_roundtrip_exhaustive_2x3(self):
        for code in all_codes(2, 3):
            assert encode(decode(code)) == code

    def test_tuple_code_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            TupleCode((8, 0), MatrixShape(2, 3))
        with pytest.raises(RangeError):
            TupleCode((-1,), MatrixShape(1, 4))

    def test_tuple_code_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TupleCode((1, 2, 3), MatrixShape(2, 3))

    def test_matrix_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BinaryMatrix(MatrixShape(1, 2), ((0, 2),))

    def test_lexicographic_order(self):
        shape = MatrixShape(2, 2)
        assert TupleCode((0, 3), shape) < TupleCode((1, 0), shape)
        assert TupleCode((1, 1), shape) < TupleCode((1, 2), shape)


class TestXi:
    def test_zero_fixed_point(self):
        for n in range(1, 10):
            assert xi(0, n) == 0

    def test_hand_values(self):
        assert xi(5, 4) == 10  # 0101 -> 1010
        assert xi(6, 3) == 3   # 110 -> 011

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            xi(8, 3)
        with pytest.raises(RangeError):
            xi(-1, 3)

    def test_order_n(self):
        for n in (1, 2, 5):
            for a in range(1 << n):
                b = a
                for _ in range(n):
                    b = xi(b, n)
                assert b == a


class TestRotations:
    def test_rotate_rows_pattern(self):
        code = TupleCode((1, 2, 3), MatrixShape(3, 2))
        assert rotate_rows(code).rows == (3, 1, 2)

    def test_rotate_rows_single_row(self):
        code = TupleCode((9,), MatrixShape(1, 4))
        assert rotate_rows(code) == code

    def test_rotate_cols_2x3(self):
        code = TupleCode((5, 1), MatrixShape(2, 3))
        assert rotate_cols(code).rows == (6, 4)

    def test_rotate_cols_zero(self):
        code = TupleCode((0, 0), MatrixShape(2, 5))
        assert rotate_cols(code) == code

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (4, 5)])
    def test_rotation_orders(self, m, n):
        rng = random.Random(m * 100 + n)
        shape = MatrixShape(m, n)
        for _ in range(50):
            code = random_code(rng, shape)
            r = code
            for _ in range(m):
                r = rotate_rows(r)
            assert r == code
            c = code
            for _ in range(n):
                c = rotate_cols(c)
            assert c == code

    def test_commutation_exhaustive_2x3(self):
        for code in all_codes(2, 3):
            assert rotate_rows(rotate_cols(code)) == \
                rotate_cols(rotate_rows(code))

    def test_grid_semantics_exhaustive_2x3(self):
        # row/column rotations on codes match last-to-first grid moves
        for code in all_codes(2, 3):
            grid = decode(code).bits
            assert decode(rotate_rows(code)).bits == \
                oracles.move_last_row_first(grid)
            assert decode(rotate_cols(code)).bits == \
                oracles.move_last_col_first(grid)

    def test_grid_semantics_random_4x5(self):
        rng = random.Random(3)
        shape = MatrixShape(4, 5)
        for _ in range(200):
            code = random_code(rng, shape)
            grid = decode(code).bits
            assert decode(rotate_rows(code)).bits == \
                oracles.move_last_row_first(grid)
            assert decode(rotate_cols(code)).bits == \
                oracles.move_last_col_first(grid)
