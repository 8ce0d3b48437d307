"""Sieve enumeration of rotation classes, specialised to the torus action.

The whole ground set of shape (m, n) linearizes into indices
0 .. 2^(m*n) - 1 via a mixed-radix map that agrees with tuple
lexicographic order, so one visited bit per code suffices. The bits
live in an anonymous mapping, whose pages become resident only once
touched. Rotations act directly on the linearized word: a row rotation
is an n-bit rotation of the m*n-bit word, and a column rotation
right-rotates each n-bit field independently.

A class minimum's top row is a necklace, the least of its own
rotations, or a column rotation would give a smaller word; and every
other row's necklace is at least that top row. So the sieve's pass
reads only the candidates: under each necklace top row q, the words
whose rows all have a necklace at least q, each bit once. Of each
class minimum it marks only the other orbit members with the same top
row q, which are candidates; the rest of the class holds a row whose
necklace is below q and is never read. That is about 1 mark per class
on 5x5, not m*n, and only the pages that hold a candidate become
resident. The filter (canonical.py) rests on the same facts but shares
no code with the sieve, so `check` still compares two independent
routes.
"""

import itertools

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
    """The constants of the sieve's kernel for shape (m, n).

    Returns (rows, moves). rows holds, for each i in [0, m), the mask
    and shifts of the row rotation that puts row i on top. moves holds
    the n column moves (j, keep, low, n - j), by j = 0 .. n - 1, each of
    which right-rotates every row by j.
    """
    row_low = row_low_mask(m, n)
    full = (1 << (m * n)) - 1
    rows = tuple((full >> (n * i), n * i, n * (m - i)) for i in range(m))
    moves = tuple((j, row_low * ((1 << (n - j)) - 1),
                   row_low * ((1 << j) - 1), n - j) for j in range(n))
    return rows, moves


def row_rotations(p, n):
    """The distinct rotations of the n-bit row p, rot_j(p) at index j:
    the rows whose necklace is p's."""
    rots = [p]
    x = (p >> 1) | ((p & 1) << (n - 1))
    while x != p:
        rots.append(x)
        x = (x >> 1) | ((x & 1) << (n - 1))
    return rots


def block_moves(moves, q, n):
    """The column moves of each n-bit row that turn it into q.

    moves is necklace_moves(m, n)'s and q a necklace. Entry x of the
    list, for x = rot_j(q) with q of period d, holds the moves by the
    offsets -j mod d, -j mod d + d, ..., those that turn x back into q,
    ascending; every other row has none. So the kernel with it marks
    only the words under top row q.
    """
    block = [()] * (1 << n)
    rots = row_rotations(q, n)
    for j, x in enumerate(rots):
        block[x] = moves[-j % len(rots)::len(rots)]
    return block


def row_moves(x, rows, block, shift):
    """The moves that put a rotation of q on top of the word x.

    rows holds row moves (mask, a, b) of necklace_moves(m, n), shift is
    n*(m - 1), the top row's, and block is block_moves(moves, q, n). For
    each row move, in order, each column move (j, keep, low, k) of block
    that turns the row it puts on top into q, joined into one flat move
    (mask, a, b, j, keep, low, k). A row move puts one row of x on top,
    so only that row decides its column moves: the sieve finds those of
    a word's first m - 1 rows from its prefix alone, with the last row
    zero.
    """
    return [(mask, a, b) + move for mask, a, b in rows
            for move in block[(((x & mask) << a) | (x >> b)) >> shift]]


def check_exhaustive(shape):
    """Refuse a scan of the whole ground set beyond SCAN_BUDGET codes.

    The sieve keeps one visited bit per code of all 2^(m*n), though it
    reads only the candidates, the words whose rows' necklaces are all
    at least the top row; the filter tests at most those. So either
    route takes at most 33 cells.
    """
    # 2^cells > SCAN_BUDGET, without building 2^cells for a huge shape
    if shape.cells >= SCAN_BUDGET.bit_length():
        raise CapacityError(f"2^{shape.cells} codes exceed the {SCAN_BUDGET}"
                            "-code budget of an exhaustive scan")


class VisitedStore:
    """One bit per code of the ground set, in one anonymous mapping.

    The operating system hands out zero pages on first touch, so only
    the pages that are read or marked become resident: on a sieve pass,
    those that hold a candidate.
    """

    def __init__(self, shape):
        check_exhaustive(shape)
        import mmap  # here, so count and burnside never load it

        try:
            self.bits = mmap.mmap(-1, ((1 << shape.cells) + 7) >> 3)
        except (OSError, MemoryError):
            raise CapacityError(f"cannot allocate the 2^{shape.cells}-bit "
                                "visited store") from None

    @property
    def nbytes(self):
        return len(self.bits)


def iter_representative_indices(shape):
    """Yield the linearized index of each class minimum, ascending.

    For m, n >= 2, one lexicographic pass over the candidates: the
    words under a necklace top row q whose rows all have a necklace at
    least q, in ascending q, where every class minimum lies. below holds
    the rows whose necklace is below q, so allowed lists the rows a
    candidate may hold under q. The pass forms each prefix from the
    middle rows, then reads each last row of allowed: it tests the
    word's visited bit once, and a clear bit is a class minimum w,
    which is yielded. Each move that puts a row of w on top and turns
    it into q is then applied to w, and the word it gives is marked:
    the members of w's rotation orbit under the same top row q, which
    are candidates ahead of the pass, as no orbit member lies below its
    minimum. Every other candidate of q is in the class of such a
    minimum. So the pass reads exactly the C = sum over necklaces q of
    A(q)^(m - 1) candidates, A(q) the rows whose necklace is at least
    q, and only their pages become resident.

    The moves of w's first m - 1 rows depend on those rows alone, so
    row_moves finds them once per prefix, on its first minimum, and the
    pass applies them inline, with the last row's column moves from
    block. The identity, row 0 at offset 0, is left out: w was read.

    One row or one column has one rotation, of the m*n-bit word, so
    that pass reads every word and marks the other rotations of each
    minimum.
    """
    m, n = shape.m, shape.n
    visited = VisitedStore(shape).bits
    bit = (1, 2, 4, 8, 16, 32, 64, 128)
    if m == 1 or n == 1:
        for w in range(1 << shape.cells):
            if not visited[w >> 3] & bit[w & 7]:
                yield w
                for x in row_rotations(w, shape.cells)[1:]:
                    visited[x >> 3] |= bit[x & 7]
        return
    rows, moves = necklace_moves(m, n)
    upper_rows = rows[:-1]
    up = n * (m - 1)  # the top row's shift, and the last row's move
    below = set()
    for q in range(1 << n):
        if q in below:  # a rotation of an earlier necklace
            continue
        allowed = [r for r in range(q, 1 << n) if r not in below]
        block = block_moves(moves, q, n)
        middle = [[r << (n * i) for r in allowed] for i in range(m - 2, 0, -1)]
        for rest in itertools.product(*middle):
            prefix = (q << up) | sum(rest)
            upper = None  # the first m - 1 rows' moves, bar the identity
            for r in allowed:
                w = prefix | r
                if visited[w >> 3] & bit[w & 7]:
                    continue
                yield w
                if upper is None:
                    upper = row_moves(prefix, upper_rows, block, up)[1:]
                for mask, a, c, j, keep, lo, k in upper:
                    x = ((w & mask) << a) | (w >> c)
                    x = ((x >> j) & keep) | ((x & lo) << k)
                    visited[x >> 3] |= bit[x & 7]
                for j, keep, lo, k in block[r]:
                    x = (r << up) | (w >> n)
                    x = ((x >> j) & keep) | ((x & lo) << k)
                    visited[x >> 3] |= bit[x & 7]
        below.update(row_rotations(q, n))


def enumerate_torus(shape):
    """All class representatives as a tuple of codes, ascending."""
    return tuple(code_at_index(shape, w)
                 for w in iter_representative_indices(shape))
