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
reads only the blocks of codes under a necklace top row q. Before
reading one, it fills in the codes with a row whose necklace is below
q, whose class minima lie in earlier blocks; of each class minimum it
then marks only the other orbit members with the same top row q, the
rest of the class being filled and the minimum's own bit set as the
pass reads on. That is about 1 mark per class on 5x5, not m*n. No
other block is ever touched, so only about 1/n of the store
becomes resident. The filter (canonical.py) rests on the same facts
but shares no code with the sieve, so `check` still compares two
independent routes.
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

    Returns (rows, moves, shift). rows holds, for each i in [0, m), the
    mask and shifts of the row rotation that puts row i on top. moves
    holds the n column moves (j, keep, low, n - j), by j = 0 .. n - 1,
    each of which right-rotates every row by j. A block of the pass is
    the 2^shift codes under one top row, x >> shift: shift = n*(m - 1).
    When those blocks fill less than a byte (in the pass, one row and
    2x2), shift = m*n makes the whole store one block, under q = 0,
    whose kernel marks whole orbits.
    """
    row_low = row_low_mask(m, n)
    full = (1 << (m * n)) - 1
    rows = tuple((full >> (n * i), n * i, n * (m - i)) for i in range(m))
    moves = tuple((j, row_low * ((1 << (n - j)) - 1),
                   row_low * ((1 << j) - 1), n - j) for j in range(n))
    # one row, or blocks under a byte (2x2 in the pass)
    return rows, moves, m * n if n * (m - 1) < 3 else n * (m - 1)


def row_rotations(p, n):
    """The distinct rotations of the n-bit row p, rot_j(p) at index j:
    the rows whose necklace is p's."""
    rots = [p]
    x = (p >> 1) | ((p & 1) << (n - 1))
    while x != p:
        rots.append(x)
        x = (x >> 1) | ((x & 1) << (n - 1))
    return rots


def block_moves(moves, q, n, size):
    """The column moves of each of size rows that turn it into q.

    moves is necklace_moves(m, n)'s and q a necklace. Entry x of the
    list, for x = rot_j(q) with q of period d, holds the moves by the
    offsets -j mod d, -j mod d + d, ..., those that turn x back into q,
    ascending; every other row has none. So the kernel with it marks
    only the words under top row q. For the one block (size 1, q = 0),
    entry 0 holds all n moves: the kernel marks whole orbits.
    """
    block = [()] * size
    rots = row_rotations(q, n)
    for j, x in enumerate(rots):
        block[x] = moves[-j % len(rots)::len(rots)]
    return block


def row_moves(x, rows, block, shift):
    """The moves that put a rotation of q on top of the word x.

    rows holds row moves (mask, a, b) of necklace_moves(m, n), shift is
    the one it returns, and block is block_moves(moves, q, n, size). For
    each row move, in order, each column move (j, keep, low, k) of block
    that turns the row it puts on top into q, joined into one flat move
    (mask, a, b, j, keep, low, k); for the one block, every column
    move. A row move puts one row of x on top, so only that row
    decides its column moves: the sieve finds those of a word's first
    m - 1 rows from its prefix alone, with the last row zero.
    """
    return [(mask, a, b) + move for mask, a, b in rows
            for move in block[(((x & mask) << a) | (x >> b)) >> shift]]


FILL_CHUNK = 1 << 16  # bytes: the largest pattern a fill builds and writes


def fill_block(visited, start, depth, n, low):
    """Set the bit of every code of a block that has a row in low.

    The block starts at byte start of visited and holds the 2^(n*depth)
    codes of depth n-bit rows below its top row, the last row least
    significant, at least 8 of them; bit r of low marks row r. The level
    of k rows is 2^n sub-blocks of k - 1 rows, all ones under a marked
    row and the level below otherwise. The levels are built from the
    last row up: from low, the level of one row, as an int until the
    pattern spans at least a byte, then as bytes, each level one join of
    its sub-blocks, while the next level stays within FILL_CHUNK bytes
    and the block. A last loop walks the sub-blocks of that size above
    it in block order and writes each one: all ones if any row above it
    is marked, else the pattern. So no temporary exceeds FILL_CHUNK
    bytes whatever the block's size.
    """
    marked = format(low, f"0{1 << n}b")[::-1]  # "1" at each row in low
    level, width, pattern = 1, 1 << n, low
    while width < 8:
        ones = (1 << width) - 1
        pattern = sum((ones if out == "1" else pattern) << (r * width)
                      for r, out in enumerate(marked))
        level, width = level + 1, width << n
    pattern = pattern.to_bytes(width >> 3, "little")
    ones = b"\xff" * len(pattern)
    while level < depth and len(pattern) << n <= FILL_CHUNK:
        pattern = b"".join(ones if out == "1" else pattern for out in marked)
        ones = b"\xff" * len(pattern)
        level += 1
    for outs in itertools.product(marked, repeat=depth - level):
        visited[start:start + len(pattern)] = ones if "1" in outs else pattern
        start += len(pattern)


def check_exhaustive(shape):
    """Refuse a scan of the whole ground set beyond SCAN_BUDGET codes.

    The sieve keeps one visited bit per code of all 2^(m*n), though it
    reads only the blocks under a necklace top row; the filter tests at
    most that many codes. So either route takes at most 33 cells.
    """
    # 2^cells > SCAN_BUDGET, without building 2^cells for a huge shape
    if shape.cells >= SCAN_BUDGET.bit_length():
        raise CapacityError(f"2^{shape.cells} codes exceed the {SCAN_BUDGET}"
                            "-code budget of an exhaustive scan")


class VisitedStore:
    """One bit per code of the ground set, in one anonymous mapping.

    The operating system hands out zero pages on first touch, so only
    the pages that are read, filled or marked become resident: on a
    sieve pass, those under a necklace top row.
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
    necklace top row q, the only ones that hold a class minimum, in
    ascending q. Before the pass reads a block, fill_block sets the bits
    of its codes with a row whose necklace is below q: each such class's
    minimum lies in an earlier block. Each zero bit left is a class
    minimum w, which is yielded; then each move that puts a row of w on
    top and turns it into q is applied to w and the word it gives is
    marked: the members of w's rotation orbit under the same top row q.
    Every other code of the block is in the class of such a minimum,
    since all its rows' necklaces are at least q. The pass reads the
    live store, and no orbit member lies below its minimum, so every
    mark lands at or ahead of the pass and inside the block. A block is
    2^shift codes, a whole number of bytes or the whole store, so no
    byte is shared with a skipped block, where nothing is ever written.
    Only the pages of those blocks become resident; the block under
    q = 0 needs no fill.

    The moves of w's first m - 1 rows depend on those rows alone, so
    row_moves finds them once per prefix w >> n, which consecutive words
    share, and the pass applies them inline, with the last row's column
    moves from block. The identity, row 0 at offset 0, is left out: the
    reread keeps the bits already passed and adds w's own, so it alone
    passes w, and the pass moves on whatever the kernel marks.
    """
    m, n = shape.m, shape.n
    if n == 1:  # one column: the same words and rotation as one row
        m, n = 1, m
    visited = VisitedStore(shape).bits
    rows, moves, shift = necklace_moves(m, n)
    upper_rows = rows[:-1]
    top, up = (1 << n) - 1, n * (m - 1)  # the last row, and its move
    size = 1 << (m * n - shift)  # top rows: 2^n, or 1 for the one block
    sel = size - 1
    bit = (1, 2, 4, 8, 16, 32, 64, 128)
    low = 0  # bit p set for each row p whose necklace is below q
    for q in range(size):
        if low >> q & 1:  # a rotation of an earlier necklace
            continue
        start = (q << shift) >> 3
        if low:
            fill_block(visited, start, m - 1, n, low)
        block = last = block_moves(moves, q, n, size)
        if m == 1:  # the last row is the top row: no identity move
            last = [block[0][1:]]
        key = None  # the prefix w >> n whose moves are kept
        for cursor in range(start, (((q + 1) << shift) + 7) >> 3):
            b = visited[cursor]
            while b != 0xFF:
                w = (cursor << 3) | ((~b & (b + 1)).bit_length() - 1)
                yield w
                if (p := w >> n) != key:
                    key = p
                    # the first m - 1 rows' moves, bar the identity
                    upper = row_moves(p << n, upper_rows, block, shift)[1:]
                for mask, a, c, j, keep, lo, k in upper:
                    x = ((w & mask) << a) | (w >> c)
                    x = ((x >> j) & keep) | ((x & lo) << k)
                    visited[x >> 3] |= bit[x & 7]
                for j, keep, lo, k in last[w & sel]:
                    x = ((w & top) << up) | (w >> n)
                    x = ((x >> j) & keep) | ((x & lo) << k)
                    visited[x >> 3] |= bit[x & 7]
                b |= visited[cursor] | (b + 1)
        for p in row_rotations(q, n):
            low |= 1 << p


def enumerate_torus(shape):
    """All class representatives as a tuple of codes, ascending."""
    return tuple(code_at_index(shape, w)
                 for w in iter_representative_indices(shape))
