"""Independent brute-force oracles used to pin expected test values.

Everything here works on plain grids (tuples of tuples of bits) or row
tuples with its own arithmetic, deliberately not reusing the package's
word-level tricks. The record builders format each code through
json.dumps and per-row format(), not from the word.
"""

import json
import sys
from contextlib import contextmanager
from math import gcd, lcm


def move_last_row_first(grid):
    return grid[-1:] + grid[:-1]


def move_last_col_first(grid):
    return tuple(row[-1:] + row[:-1] for row in grid)


def rows_to_grid(rows, n):
    return tuple(
        tuple((p >> (n - 1 - j)) & 1 for j in range(n)) for p in rows
    )


def rows_orbit(rows, n):
    """Orbit of a row tuple: its m*n translations, each of the n
    rotations of every row by string rotation, then each of the m
    rotations of the row order by tuple slicing."""
    m = len(rows)
    strings = [format(p, f"0{n}b") for p in rows]
    orbit = set()
    for j in range(n):
        turned = tuple(int(s[j:] + s[:j], 2) for s in strings)
        orbit.update(turned[i:] + turned[:i] for i in range(m))
    return orbit


def orbit_partition_count(m, n):
    """Number of rotation classes by exhaustive orbit listing."""
    seen = set()
    count = 0
    for w in range(1 << (m * n)):
        rows = tuple((w >> (n * (m - 1 - i))) & ((1 << n) - 1)
                     for i in range(m))
        if rows in seen:
            continue
        count += 1
        seen |= rows_orbit(rows, n)
    return count


def necklace_count(n):
    """Binary necklaces of length n, by brute force over strings."""
    seen = set()
    count = 0
    for w in range(1 << n):
        s = format(w, f"0{n}b")
        if s in seen:
            continue
        count += 1
        for k in range(n):
            seen.add(s[k:] + s[:k])
    return count


def necklace(p, n):
    """The least rotation of the n-bit row p, by string rotation."""
    s = format(p, f"0{n}b")
    return min(int(s[k:] + s[:k], 2) for k in range(n))


def least_rotation_offsets(p, n):
    """The offsets j in [0, n) at which j last-to-first column moves
    turn the n-bit row p into its least rotation, by string rotation."""
    s = format(p, f"0{n}b")
    least = min(s[k:] + s[:k] for k in range(n))
    return [j for j in range(n) if s[n - j:] + s[:n - j] == least]


def orbit_words(w, m, n, row_low):
    """Yield col^j(row^i(w)) for i in [0, m), j in [1, n].

    row_low has the lowest bit of each n-bit row field of the m*n-bit
    word. The j = n word is row^i(w) itself, so the m*n words cover the
    whole rotation orbit of w, each orbit member equally often.
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


def full_orbit_sieve(m, n):
    """Yield each class minimum's word, ascending: the reference sieve,
    which skips no code and marks every orbit member through
    orbit_words, one byte per code."""
    row_low = sum(1 << (n * k) for k in range(m))
    visited = bytearray(1 << (m * n))
    for w, seen in enumerate(visited):
        if not seen:
            yield w
            for x in orbit_words(w, m, n, row_low):
                visited[x] = 1


def pruned_candidate_count(m, n):
    """Words whose top row r0 is a necklace and whose other rows all have
    necklaces >= r0: the words the filter tests."""
    necklaces = [necklace(p, n) for p in range(1 << n)]
    return sum(sum(1 for q in necklaces if q >= r0) ** (m - 1)
               for r0 in set(necklaces))


def pruned_candidates(m, n):
    """The words that the filter tests, row by row."""
    necklaces = [necklace(p, n) for p in range(1 << n)]
    words = []
    for w in range(1 << (m * n)):
        rows = [(w >> (n * (m - 1 - i))) & ((1 << n) - 1) for i in range(m)]
        if necklaces[rows[0]] == rows[0] and \
                all(necklaces[p] >= rows[0] for p in rows):
            words.append(w)
    return words


def filter_walks(m, n):
    """The prefixes the filter walks the rows under, in the order it walks
    them, each as (depth, prefix, rows).

    prefix holds rows 0..depth, depth < m - 1. Its top row r0 is a
    necklace, its rows' necklaces are at least r0, and no move beats it
    on its complete rows: for no i <= depth and no turn j are rows
    i..depth, each turned by j string rotations, below rows 0..depth - i.
    rows lists the rows p whose necklaces are at least r0, ascending.
    """
    top = (1 << n) - 1
    necklaces = [necklace(p, n) for p in range(1 << n)]
    walks = []
    for depth in range(m - 1):
        shift = n * (m - 1 - depth)
        for prefix in range(1 << (n * (depth + 1))):
            rows = [(prefix >> (n * (depth - i))) & top
                    for i in range(depth + 1)]
            r0 = rows[0]
            if necklaces[r0] != r0 or min(necklaces[p] for p in rows) < r0:
                continue
            strings = [format(p, f"0{n}b") for p in rows]
            if any([int(s[j:] + s[:j], 2) for s in strings[i:]]
                   < rows[:depth + 1 - i]
                   for i in range(depth + 1) for j in range(n)):
                continue
            under = tuple(p for p in range(1 << n) if necklaces[p] >= r0)
            walks.append((prefix << shift, depth, prefix, under))
    # a prefix is walked before the longer prefixes that start with it
    return [walk[1:] for walk in sorted(walks)]


def translation_cycle_count(i, j, m, n):
    """Number of cell cycles of the translation (i, j) on the m x n torus."""
    return m * n // lcm(m // gcd(i, m), n // gcd(j, n))


def translation_burnside_count(m, n):
    """Burnside's count by the literal loop over all m*n translations.

    Translation (i, j) fixes exactly 2^cycles matrices, one free bit per
    cell cycle.
    """
    total = 0
    for i in range(m):
        for j in range(n):
            total += 1 << translation_cycle_count(i, j, m, n)
    assert total % (m * n) == 0
    return total // (m * n)


def burnside_count_mod(m, n, modulus):
    """Burnside's count mod `modulus`, with no big integer.

    The divisor-pair sum, with divisors and phi found by brute force, is
    taken mod m*n*modulus; as m*n divides the sum, dividing the residue
    by m*n leaves the count mod `modulus`.
    """
    def divisors(k):
        return [d for d in range(1, k + 1) if k % d == 0]

    def phi(k):
        return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)

    big = m * n * modulus
    total = sum(phi(a) * phi(b) * pow(2, m * n // lcm(a, b), big)
                for a in divisors(m) for b in divisors(n)) % big
    assert total % (m * n) == 0
    return total // (m * n)


@contextmanager
def int_max_str_digits(limit):
    """Python's int-to-str digit limit set to `limit` (0: none) meanwhile."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def decimal_string(value):
    """str(value), with no digit limit."""
    with int_max_str_digits(0):
        return str(value)


def row_strings(code):
    n = code.shape.n
    return [format(p, f"0{n}b") for p in code.rows]


def lines_record(code):
    return "\n".join(row_strings(code)) + "\n"


def pbm_record(code):
    shape = code.shape
    header = f"P1\n{shape.n} {shape.m}\n"
    body = "".join(" ".join(row) + "\n" for row in row_strings(code))
    return header + body


def jsonl_record(code):
    record = {
        "m": code.shape.m,
        "n": code.shape.n,
        "tuple": list(code.rows),
        "rows": row_strings(code),
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


RECORDS = {"lines": lines_record, "pbm": pbm_record, "jsonl": jsonl_record}


def stream(codes, fmt):
    """A format's whole output for codes, one record at a time through
    json.dumps and per-row format(); lines records are blank-line
    separated."""
    sep = "\n" if fmt == "lines" else ""
    return sep.join(RECORDS[fmt](code) for code in codes)
