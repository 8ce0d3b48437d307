"""Binary matrices as tuples of row codes, plus the torus rotation operators.

An m x n binary matrix is identified with the m-tuple of its row values,
each row read most-significant-bit-first as an n-digit binary numeral.
Row rotation moves the last row to the front; column rotation applies a
one-step right bit-rotation to every row value.
"""

from dataclasses import dataclass
from functools import total_ordering

from .errors import RangeError


@dataclass(frozen=True)
class MatrixShape:
    """Validated (row count, column count) pair."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("m and n must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"shape must be positive, got ({self.m}, {self.n})")

    @property
    def cells(self):
        return self.m * self.n


@total_ordering
@dataclass(frozen=True)
class TupleCode:
    """An m-tuple of row values, each in {0, ..., 2^n - 1}.

    Ordered lexicographically with the first row most significant; this
    order drives representative selection everywhere downstream.
    """

    rows: tuple
    shape: MatrixShape

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.shape.m:
            raise ValueError(
                f"expected {self.shape.m} rows, got {len(rows)}"
            )
        top = (1 << self.shape.n) - 1
        for p in rows:
            if not isinstance(p, int) or p < 0 or p > top:
                raise RangeError(f"row value {p!r} outside [0, {top}]")

    def __lt__(self, other):
        if self.shape != other.shape:
            raise ValueError("codes of different shapes are not comparable")
        return self.rows < other.rows


@dataclass(frozen=True)
class BinaryMatrix:
    """An m x n grid of 0/1 cells."""

    shape: MatrixShape
    bits: tuple

    def __post_init__(self):
        grid = tuple(tuple(row) for row in self.bits)
        object.__setattr__(self, "bits", grid)
        if len(grid) != self.shape.m:
            raise ValueError(f"expected {self.shape.m} rows, got {len(grid)}")
        for row in grid:
            if len(row) != self.shape.n:
                raise ValueError(
                    f"expected {self.shape.n} columns, got {len(row)}"
                )
            for cell in row:
                if cell not in (0, 1):
                    raise ValueError(f"cell {cell!r} is not a bit")


def encode(matrix):
    """Read each row as an n-digit binary numeral, MSB leftmost."""
    rows = []
    for row in matrix.bits:
        p = 0
        for cell in row:
            p = (p << 1) | cell
        rows.append(p)
    return TupleCode(tuple(rows), matrix.shape)


def decode(code):
    """Inverse of encode: expand each row value to n bits, leading zeros."""
    n = code.shape.n
    grid = tuple(
        tuple((p >> (n - 1 - j)) & 1 for j in range(n)) for p in code.rows
    )
    return BinaryMatrix(code.shape, grid)


def xi(a, n):
    """Right-rotate the n-bit string of a by one position.

    Defined as (a mod 2) * 2^(n-1) + a // 2; inputs outside
    {0, ..., 2^n - 1} are rejected rather than masked so that encoding
    bugs surface instead of being silently hidden.
    """
    if a < 0 or a >> n:
        raise RangeError(f"value {a} outside [0, {(1 << n) - 1}]")
    return (a % 2) * (1 << (n - 1)) + a // 2


def rotate_rows(code):
    """Move the last row value to the front."""
    rows = code.rows
    return TupleCode(rows[-1:] + rows[:-1], code.shape)


def rotate_cols(code):
    """Apply xi to every row value (last column moves to the front)."""
    n = code.shape.n
    return TupleCode(tuple(xi(p, n) for p in code.rows), code.shape)

