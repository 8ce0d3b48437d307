"""Sieve enumeration of rotation classes, specialised to the torus action.

The whole ground set of shape (m, n) linearizes into indices
0 .. 2^(m*n) - 1 via a mixed-radix map that agrees with tuple
lexicographic order, so one visited bit per code suffices. The bits
live in an anonymous mapping, whose pages become resident only once
touched. Rotations act directly on the linearized word: a row rotation
is an n-bit rotation of the m*n-bit word, and a column rotation
right-rotates each n-bit field independently.

A class minimum's top row is a necklace, the least of its own
rotations, or a column rotation would give a smaller word. So the
sieve's pass reads only the blocks of codes under a necklace top row,
and of each class marks only the members whose top row is a
necklace: about m marks per class, not m*n. No other block is ever
touched, so only about 1/n of the store becomes resident. The filter
(canonical.py) rests on the same fact but shares no code with the
sieve, so `check` still compares two independent routes.
"""

from .codec import TupleCode
from .errors import CapacityError, RangeError

SCAN_BUDGET = 1 << 33  # codes per exhaustive scan: a 1 GiB visited store


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


def necklace_moves(m, n):
    """The constants of necklace_topped_words for shape (m, n).

    Returns (rows, table, shift). rows holds, for each i in [0, m), the
    mask and shifts of the row rotation that puts row i on top. A column
    move (j, keep, low, n - j) right-rotates every row by j, and
    table[x >> shift] is the column moves to apply to a word x: those
    by the offsets j that turn x's top row p into its least rotation
    (its necklace), ascending, so p is a necklace iff its first offset
    is 0. Within SCAN_BUDGET, m >= 2 means n <= 16: at most 2^16
    entries. When the 2^(n*(m-1)) codes under one top row fill less
    than a byte (one row, 2x1, 3x1, 2x2), shift = m*n leaves index 0
    instead, where table holds all n moves: the kernel lists whole
    orbits, and the one block is the whole store.
    """
    row_low = row_low_mask(m, n)
    full = (1 << (m * n)) - 1
    rows = tuple((full >> (n * i), n * i, n * (m - i)) for i in range(m))
    moves = [(j, row_low * ((1 << (n - j)) - 1), row_low * ((1 << j) - 1),
              n - j) for j in range(n)]
    if n * (m - 1) < 3:  # one row, or top-row blocks under a byte
        return rows, (tuple(moves),), m * n
    table = [None] * (1 << n)
    steps = {}  # (first offset, period) -> its moves, shared by rows
    for p in range(1 << n):
        if table[p] is not None:
            continue
        # no rotation of p came earlier, so p is its rotations' least:
        # walk them, rots[j] = rot_j(p), and rot_k(rots[j]) == p for the
        # k = -j mod the period d
        rots = [p]
        x = (p >> 1) | ((p & 1) << (n - 1))
        while x != p:
            rots.append(x)
            x = (x >> 1) | ((x & 1) << (n - 1))
        d = len(rots)
        for j, x in enumerate(rots):
            key = (-j % d, d)
            if key not in steps:
                steps[key] = tuple(moves[k] for k in range(key[0], n, d))
            table[x] = steps[key]
    return rows, table, n * (m - 1)


def necklace_topped_words(w, rows, table, shift):
    """The words of w's rotation orbit whose top row is a necklace.

    rows, table and shift are necklace_moves(m, n). For each i in [0, m),
    the word with row i on top is turned by each column move that makes
    its top row a necklace, each word built from w in one step; for
    a table of one entry, every member of the orbit. So every such orbit
    member is listed, some more than once when w is periodic.
    """
    words = []
    for mask, a, b in rows:
        x = ((w & mask) << a) | (w >> b)
        for j, keep, low, k in table[x >> shift]:
            words.append(((x >> j) & keep) | ((x & low) << k))
    return words


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
    """One bit per code of the ground set, in one anonymous mapping.

    The operating system hands out zero pages on first touch, so only
    the pages that are read or marked become resident: on a sieve pass,
    those under a necklace top row.
    """

    def __init__(self, shape):
        check_exhaustive(shape)
        import mmap  # here, so count and burnside never load it

        total = 1 << shape.cells
        try:
            self.bits = mmap.mmap(-1, (total + 7) >> 3)
        except (OSError, MemoryError):
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

    One lexicographic pass over the visited store's blocks under a
    necklace top row, the only ones that hold a class minimum: each
    zero bit there is a class minimum, which is yielded and marked with
    the members of its rotation orbit whose top row is a necklace. The
    pass reads the live store, and no orbit member lies below its
    minimum, so every mark lands at or ahead of the pass. A block is
    2^shift codes, a whole number of bytes or the whole store, so no
    byte is shared with a skipped block, where nothing is ever marked.
    Only the pages of those blocks become resident. The reread keeps the
    bits already passed and adds w's own, so the pass moves on even if
    the kernel missed w.
    """
    m, n = shape.m, shape.n
    visited = VisitedStore(shape).bits
    rows, table, shift = necklace_moves(m, n)
    bit = (1, 2, 4, 8, 16, 32, 64, 128)
    for p, moves in enumerate(table):
        if moves[0][0]:  # p is not its own least rotation
            continue
        for cursor in range((p << shift) >> 3, (((p + 1) << shift) + 7) >> 3):
            b = visited[cursor]
            while b != 0xFF:
                w = (cursor << 3) | ((~b & (b + 1)).bit_length() - 1)
                yield w
                for x in necklace_topped_words(w, rows, table, shift):
                    visited[x >> 3] |= bit[x & 7]
                b |= visited[cursor] | (b + 1)


def enumerate_torus(shape):
    """All class representatives as a tuple of codes, ascending."""
    return tuple(code_at_index(shape, w)
                 for w in iter_representative_indices(shape))
