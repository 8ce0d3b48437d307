"""Binary matrices as tuples of row codes.

An m x n binary matrix is identified with the m-tuple of its row values,
each row read most-significant-bit-first as an n-digit binary numeral.
The rotations act on the linearized word, in the sieve's pass
(`torus.row_moves` and `torus.iter_representative_indices`).
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class TupleCode:
    """An m-tuple of row values, each in {0, ..., 2^n - 1}."""

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
