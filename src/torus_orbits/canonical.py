"""Memory-free enumerator: keep a code iff it is its orbit's lex minimum.

Needs no visited store, so disjoint index ranges can be processed
independently (and concatenated in range order). Only some words are
tested: a canonical word's top row r0 is a necklace (the least of its
own rotations), and every row's necklace is at least r0, since a row
rotation and a column rotation can bring any rotation of any row to
the top. So the test runs on the words whose top row is a necklace and
whose other rows have necklaces no lower than it, in ascending order.
"""

from .errors import RangeError
from .torus import row_low_mask


def _word_is_canonical(w, m, n, row_low):
    # inlined orbit_words: via the generator, filter 4x5 took 1.67 s not 1.15
    col_shift = n - 1
    last_row = (1 << n) - 1
    row_shift = n * (m - 1)
    wr = w
    for _ in range(m):
        x = wr
        for _ in range(n):
            low = x & row_low
            x = ((x ^ low) >> 1) | (low << col_shift)
            if x < w:
                return False
        wr = ((wr & last_row) << row_shift) | (wr >> n)
        if wr < w:
            return False
    return True


def _necklace_at_least(p, bound, n):
    """Whether every rotation of the n-bit row p is at least bound."""
    if p < bound:
        return False
    col_shift = n - 1
    x = p
    for _ in range(col_shift):
        x = (x >> 1) | ((x & 1) << col_shift)
        if x < bound:
            return False
    return True


class _RowsUnder:
    """The rows that may lie under top row r0: those whose necklace is >= r0.

    Every such row is at least r0. The rows are found as walks from r0
    first reach them and kept, since the rows under the second are walked
    again for every prefix; nothing beyond the furthest walk is held.
    """

    def __init__(self, r0, n):
        self.r0 = r0
        self.n = n
        self.found = []  # every such row in [r0, self.untested)
        self.untested = r0

    def walk(self, lo, hi):
        """The rows in [max(lo, r0), hi], ascending."""
        r0, n, found = self.r0, self.n, self.found
        if lo > r0:  # a seek to a range's start: walked once, so not kept
            for p in range(lo, hi + 1):
                if _necklace_at_least(p, r0, n):
                    yield p
            return
        i = 0
        while True:
            if i == len(found):  # past the rows found so far: find one more
                p = self.untested
                while p <= hi and not _necklace_at_least(p, r0, n):
                    p += 1
                if p > hi:
                    self.untested = p
                    return
                found.append(p)
                self.untested = p + 1
            p = found[i]
            if p > hi:
                return
            yield p
            i += 1


def iter_canonical_indices(shape, start=0, stop=None):
    """Linearized indices of canonical codes within [start, stop), ascending.

    The full range yields exactly the sieve's representative sequence.
    """
    total = 1 << shape.cells
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise RangeError(f"interval [{start}, {stop}) outside [0, {total})")
    m, n = shape.m, shape.n
    row_low = row_low_mask(m, n)
    top = (1 << n) - 1
    last = m - 1

    def walk(rows, prefix, depth):
        # the rows at depth that keep a word under prefix in [start, stop)
        shift = n * (last - depth)
        base = prefix << n
        return rows.walk((start >> shift) - base,
                         min(top, ((stop - 1) >> shift) - base))

    shift = n * last
    for r0 in range(start >> shift, ((stop - 1) >> shift) + 1):
        if not _necklace_at_least(r0, r0, n):
            continue
        if m == 1:  # one row: a necklace is its orbit minimum
            yield r0
            continue
        # an odometer, not recursion, so tall shapes keep a flat stack:
        # walks[d] yields row d + 1 under prefixes[d], the rows 0..d
        rows = _RowsUnder(r0, n)
        prefixes = [r0]
        walks = [walk(rows, r0, 1)]
        while walks:
            depth = len(walks)
            if depth == last:
                prefix = prefixes[-1] << n
                for p in walks[-1]:
                    w = prefix | p
                    if _word_is_canonical(w, m, n, row_low):
                        yield w
            else:
                p = next(walks[-1], None)
                if p is not None:
                    w = (prefixes[-1] << n) | p
                    prefixes.append(w)
                    walks.append(walk(rows, w, depth + 1))
                    continue
            walks.pop()
            prefixes.pop()
