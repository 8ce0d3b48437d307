"""Sieve enumeration of rotation classes, specialised to the torus action.

The whole ground set of shape (m, n) linearizes into indices
0 .. 2^(m*n) - 1 via a mixed-radix map that agrees with tuple
lexicographic order, so one visited bit per code suffices. Rotations
act directly on the linearized word: a row rotation is an n-bit right
rotation of the m*n-bit word, and a column rotation right-rotates each
n-bit field independently.
"""

from .codec import TupleCode
from .errors import CapacityError, RangeError

SCAN_BUDGET = 1 << 33  # codes per exhaustive scan: 1 GiB of sieve marks


def tuple_index(code):
    """Linearize a code, first row most significant.

    Strictly increasing in tuple lexicographic order, so scanning
    indices in ascending order scans codes in ascending order.
    """
    shape = code.shape
    idx = 0
    for p in code.rows:
        idx = (idx << shape.n) | p
    return idx


def code_at_index(shape, idx):
    """Inverse of tuple_index."""
    if idx < 0 or idx >> shape.cells:
        raise RangeError(f"index {idx} outside [0, 2^{shape.cells})")
    n, top = shape.n, (1 << shape.n) - 1
    rows = tuple(
        (idx >> (n * (shape.m - 1 - i))) & top for i in range(shape.m)
    )
    return TupleCode(rows, shape)


def row_low_mask(m, n):
    """The lowest bit of each n-bit row field of an m*n-bit word."""
    mask = 0
    for k in range(m):
        mask |= 1 << (n * k)
    return mask


def orbit_words(w, m, n, row_low):
    """Yield col^j(row^i(w)) for i in [0, m), j in [1, n].

    row_low is row_low_mask(m, n). The j = n word is row^i(w) itself,
    so the m*n words cover the whole rotation orbit of w, each orbit
    member equally often.
    """
    col_shift = n - 1
    last_row = (1 << n) - 1
    row_shift = n * (m - 1)
    wr = w
    for _ in range(m):
        x = wr
        for _ in range(n):
            low = x & row_low
            x = ((x ^ low) >> 1) | (low << col_shift)
            yield x
        wr = ((wr & last_row) << row_shift) | (wr >> n)


def check_exhaustive(shape, budget=SCAN_BUDGET):
    """Refuse a scan of the whole ground set beyond budget codes.

    The sieve walks all 2^(m*n) codes and keeps one visited bit per
    code; the filter tests at most that many. The budget is SCAN_BUDGET
    (33 cells), or 2^20 (20 cells) for `check`, which runs both.
    """
    # 2^cells > budget, without building 2^cells for a huge shape
    if shape.cells >= budget.bit_length():
        raise CapacityError(f"2^{shape.cells} codes exceed the {budget}-code "
                            "budget of an exhaustive scan")


class VisitedStore:
    """One bit per code of the ground set, in one flat bytearray."""

    def __init__(self, shape):
        check_exhaustive(shape)
        total = 1 << shape.cells
        try:
            self.bits = bytearray((total + 7) >> 3)
        except MemoryError:
            raise CapacityError(f"cannot allocate the 2^{shape.cells}-bit "
                                "visited store") from None
        if total & 7:
            # spare bits of the last byte must never read as unvisited
            self.bits[-1] |= 0xFF & ~((1 << (total & 7)) - 1)

    @property
    def nbytes(self):
        return len(self.bits)


def iter_representative_indices(shape):
    """Yield the linearized index of each class minimum, ascending.

    One lexicographic pass over the visited store: each zero bit is a
    class minimum, which is yielded and its whole rotation orbit
    marked. The byte iterator reads the live store, and no orbit member
    lies below its minimum, so every mark lands at or ahead of the pass.
    """
    m, n = shape.m, shape.n
    visited = VisitedStore(shape).bits
    row_low = row_low_mask(m, n)
    bit = (1, 2, 4, 8, 16, 32, 64, 128)
    for cursor, b in enumerate(visited):
        while b != 0xFF:
            w = (cursor << 3) | ((~b & (b + 1)).bit_length() - 1)
            yield w
            for x in orbit_words(w, m, n, row_low):
                visited[x >> 3] |= bit[x & 7]
            b = visited[cursor]


def enumerate_torus(shape):
    """All class representatives as a tuple of codes, ascending."""
    return tuple(code_at_index(shape, w)
                 for w in iter_representative_indices(shape))
