"""Memory-free enumerator: keep a code iff it is its orbit's lex minimum.

Needs no visited store, so disjoint index ranges can be processed
independently (and concatenated in range order) at the cost of checking
every candidate against its m*n rotations.
"""

from .errors import RangeError
from .torus import code_at_index, orbit_words, row_low_mask, tuple_index


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


def is_canonical(code):
    """True iff no rotation of the code is lexicographically smaller."""
    m, n = code.shape.m, code.shape.n
    return _word_is_canonical(tuple_index(code), m, n, row_low_mask(m, n))


def canonical_form(code):
    """The lex-minimal code in the rotation orbit of the given code."""
    m, n = code.shape.m, code.shape.n
    best = min(orbit_words(tuple_index(code), m, n, row_low_mask(m, n)))
    return code_at_index(code.shape, best)


def iter_canonical_indices(shape, start=0, stop=None):
    """Linearized indices of canonical codes within [start, stop)."""
    total = 1 << shape.cells
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise RangeError(f"interval [{start}, {stop}) outside [0, {total})")
    m, n = shape.m, shape.n
    row_low = row_low_mask(m, n)
    for w in range(start, stop):
        if _word_is_canonical(w, m, n, row_low):
            yield w


def stream_canonical(shape, start=0, stop=None):
    """Canonical codes in ascending order over an index range.

    The full range yields exactly the sieve's representative sequence.
    """
    for w in iter_canonical_indices(shape, start, stop):
        yield code_at_index(shape, w)
