"""Memory-free enumerator: keep a code iff it is its orbit's lex minimum.

Needs no visited store. Only some words are tested: a canonical word's
top row r0 is a necklace (the least of its own rotations), and every
row's necklace is at least r0, since a row rotation and a column
rotation can bring any rotation of any row to the top. So the test
runs on the words whose top row is a necklace, listed by an FKM walk,
and whose other rows have necklaces no lower than it, in ascending
order; each row's necklace is found once per call.

Nor does the test try every rotation, or compare whole words. The move
(i, j), row i to the top and its columns right-rotated by j, puts
rot_j(p_i) on top, where p_i is row i, and on a tested word that row is
at least r0. Where it is above r0, the moved word is above w whatever
its other rows, so only the moves with rot_j(p_i) == r0 can give a word
below w: the open moves, which a row whose necklace is above r0 never
opens. As in R. C. Read's orderly generation ("Every one a winner", Ann.
Discrete Math. 2, 1978), the odometer that lists the words carries them
row by row: each row p_k it adds gives each open move one more moved
row, rot_j(p_k), to compare with p_(k - i). Where that row is below
w's, every word under the prefix is beaten and its whole subtree is
skipped; where it is above, the move is dropped; where it ties, the
move stays open. So on the last row each open move costs one row
compare, and only a tie, where the wrapped rows rot_j(p_0 .. p_(i - 1))
decide, and the last row's own moves compare the whole moved word with
w.

One row, and one column (the same words under the same rotation), is
answered apart: its canonical words are the necklaces, listed directly.
"""

import functools
import itertools


def _least_rotation(p, n):
    """The n-bit row p's necklace (its least rotation) and the offsets j
    in [0, n) whose right rotation of p gives it, ascending."""
    least, offsets, x = p, (0,), p
    for j in range(1, n):
        x = (x >> 1) | ((x & 1) << (n - 1))
        if x < least:
            least, offsets = x, (j,)
        elif x == least:
            offsets += (j,)
    return least, offsets


def _necklaces(n):
    """The binary necklaces of length n, ascending.

    An FKM walk (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms
    37, 2000) over the prenecklaces w, at constant amortized cost each;
    p is the length of w's longest Lyndon prefix, and w is a necklace iff
    p divides n. The next prenecklace sets w's last 0 bit, drops the bits
    after it and repeats the first p bits, p the length that remains.
    """

    def extend(w, p):
        # w's first p bits, repeated to n bits
        x, length = w >> (n - p), p
        while length < n:
            x, length = (x << length) | x, 2 * length
        return x >> (length - n)

    w, p, top = 0, 1, (1 << n) - 1
    while True:
        if n % p == 0:
            yield w
        if w == top:
            return
        w += 1
        p = n - (w & -w).bit_length() + 1
        if p < n:
            w = extend(w, p)


def _rows_under(r0, row, top):
    """The rows that may lie under top row r0: those whose necklace is >= r0.

    Every such row is at least r0. Each is yielded as (p, offsets): the
    offsets of row(p) where p's necklace is r0, and () where it is above.
    The rows under the second are walked again for every prefix, so they
    form one lazy stream, a tee that is never advanced itself: every walk
    is a copy of it, and each row is found once, as the furthest walk
    reaches it. Nothing beyond the furthest walk is held.
    """
    return itertools.tee(
        ((p, entry[1] if entry[0] == r0 else ())
         for p in range(r0, top + 1) if (entry := row(p))[0] >= r0), 1)[0]


def iter_canonical_indices(shape):
    """Linearized indices of canonical codes, ascending: exactly the
    sieve's representative sequence."""
    m, n = shape.m, shape.n
    if m == 1 or n == 1:  # one column: the same words and rotation as a row
        yield from _necklaces(m * n)
        return
    full = (1 << shape.cells) - 1
    top = (1 << n) - 1
    row_low = full // top  # the lowest bit of each row: a geometric sum
    last = m - 1

    # each row's necklace and offsets, found once per call
    row = functools.cache(lambda p: _least_rotation(p, n))

    @functools.cache
    def move(i, offsets):
        # the moves that put row i on top, turned by each offset into r0
        return n * i, n * (m - i), tuple(
            (j, row_low * ((1 << (n - j)) - 1), row_low * ((1 << j) - 1),
             n - j) for j in offsets)

    def beaten(w, i, offsets):
        # whether putting row i on top, turned by one of offsets, gives a
        # word below w: the whole word, moved and compared
        a, b, cols = move(i, offsets)
        x = ((w << a) & full) | (w >> b)
        for j, keep, low, k in cols:
            if ((x >> j) & keep) | ((x & low) << k) < w:
                return True
        return False

    for r0 in _necklaces(n):
        # an odometer, not recursion, so tall shapes keep a flat stack:
        # each entry holds a word of rows 0..d, shifted for row d + 1,
        # its open moves (j, n*i), each of which, row i on top and
        # right-rotated by j, ties the word on every row so far, and the
        # walk that yields row d + 1 under it. Row 0's offsets, less the
        # identity, open the first; each row pushed opens its own, which
        # put r0 on top.
        rows = _rows_under(r0, row, top)
        # __copy__(): copy.copy(rows) costs a dispatch, tee(rows) advances it
        stack = [(r0 << n, [(j, 0) for j in row(r0)[1][1:]], rows.__copy__())]
        while stack:
            prefix, moves, walk = stack[-1]
            if len(stack) < last:
                # the new row is each open move's next moved row: below
                # the word's, it beats every word under the new prefix,
                # whose subtree is skipped; above it, the move is dropped
                for p, offsets in walk:
                    w = prefix | p
                    kept = []
                    for j, s in moves:
                        x = ((p >> j) | (p << (n - j))) & top
                        y = (w >> s) & top
                        if x < y:
                            break
                        if x == y:
                            kept.append((j, s))
                    else:
                        kept.extend((j, n * len(stack)) for j in offsets)
                        stack.append((w << n, kept, rows.__copy__()))
                        break
                else:
                    stack.pop()
                continue
            # the last row settles each open move by one row compare,
            # with row m - 1 - i (the candidate row itself when i = 0),
            # unless it ties: then the wrapped rows decide, and the whole
            # moved word is compared, as for the last row's own moves
            for p, offsets in walk:
                w = prefix | p
                for j, s in moves:
                    x = ((p >> j) | (p << (n - j))) & top
                    y = (w >> s) & top
                    if x < y or x == y and beaten(w, s // n, (j,)):
                        break
                else:
                    if not offsets or not beaten(w, last, offsets):
                        yield w
            stack.pop()
