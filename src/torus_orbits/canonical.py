"""Memory-free enumerator: keep a code iff it is its orbit's lex minimum.

Needs no visited store, so disjoint index ranges can be processed
independently (and concatenated in range order) at the cost of checking
every candidate against its m*n rotations.
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
    for w in range(start, stop):
        if _word_is_canonical(w, m, n, row_low):
            yield w
