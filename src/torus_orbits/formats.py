"""Streaming output formats for representative matrices.

lines  - m rows of '0'/'1' characters per matrix, blank-line separated.
pbm    - concatenated plain PBM images (magic P1, header "n m").
jsonl  - one JSON record per matrix with the shape, row codes and rows.

Each record is built straight from the matrix's linearized word: its
n-bit rows are sliced out of the word and their text is made once per
row value for rows of up to 16 bits, so no table outgrows 2^16 entries.
Consecutive words mostly share all but their last k rows: the last row
for rows of 5 bits or more, min(m, 8 // n) rows for narrower ones. So
the text of the rows above them is kept for the last prefix (w >> n*k)
seen and rebuilt only when it changes, and the text of the k tail rows,
joined to the literal after it, is looked up by tail value: in a list
made when the call starts for tails of at most 8 bits (every n <= 8),
else made on first use, and kept only for rows of up to 16 bits.
"""

import functools
import itertools

from .codec import MatrixShape
from .torus import tuple_index

FORMATS = ("lines", "pbm", "jsonl")


def write_words(shape, words, fmt, out):
    """Write one record per linearized word; returns the number emitted."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    m, n = shape.m, shape.n
    top = (1 << n) - 1
    k = min(m, max(1, 8 // n))  # the tail rows
    cut, low = n * k, (1 << n * k) - 1
    shifts = tuple(range(n * (m - k - 1), -1, -n))  # the rows above them
    # a 1 bit above a row, so that bin() gives its n digits after "0b1":
    # several times faster than format() with a "0nb" spec
    pad = 1 << n
    # Rows of at most 16 bits recur from record to record, so their text
    # is cached. Under the budget only one-row shapes have wider rows in
    # a full run, and there no row recurs, so a cache would only grow.
    memo = functools.cache if n <= 16 else (lambda fill: fill)

    def tails(row, sep, end):
        # the text of the k tail rows, joined by sep and followed by end,
        # by tail value t = w & low; row(p, end) is row p's text and end
        if cut <= 8:  # every n <= 8: all 2^cut texts, made up front
            return [sep.join([row((t >> s) & top)
                              for s in range(cut - n, -1, -n)]) + end
                    for t in range(1 << cut)]
        # else k = 1: no 2^n table, each text made when first asked for
        if n > 16:  # rows that do not recur: keep none
            class Fresh:
                def __getitem__(self, t):
                    return row(t, end)
            return Fresh()

        class Kept(dict):
            def __missing__(self, t):
                self[t] = text = row(t, end)
                return text
        return Kept()

    count = 0
    key = None  # the prefix w >> cut whose text is kept
    if fmt == "jsonl":
        # the bytes of json.dumps(record, separators=(",", ":"))
        head = f'{{"m":{m},"n":{n},"tuple":['
        decimal = memo(lambda p, end="": f"{p}{end}")
        quoted = memo(lambda p, end="": f'"{bin(p | pad)[3:]}"{end}')
        mid = tails(decimal, ",", '],"rows":[')
        last = tails(quoted, ",", "]}\n")
        for count, w in enumerate(words, 1):
            if (p := w >> cut) != key:
                key = p
                rows = [(p >> s) & top for s in shifts]
                tup = head + "".join([decimal(r) + "," for r in rows])
                txt = "".join([quoted(r) + "," for r in rows])
            t = w & low
            out.write(f"{tup}{mid[t]}{txt}{last[t]}")
        return count
    if fmt == "pbm":
        head = f"P1\n{n} {m}\n"
        line = memo(lambda p, end="": f"{' '.join(bin(p | pad)[3:])}\n{end}")
    else:  # lines: the digits as bin() gives them
        head = ""
        line = memo(lambda p, end="": f"{bin(p | pad)[3:]}\n{end}")
    last = tails(line, "", "")
    for count, w in enumerate(words, 1):
        if (p := w >> cut) != key:
            key = p
            text = "".join([line((p >> s) & top) for s in shifts])
        out.write(head + text + last[w & low])
        if fmt == "lines":
            head = "\n"  # a blank line between records
    return count


def write_stream(codes, fmt, out):
    """write_words for TupleCodes, all of one shape."""
    codes = iter(codes)
    first = next(codes, None)
    if first is None:
        return write_words(MatrixShape(1, 1), (), fmt, out)
    words = map(tuple_index, itertools.chain((first,), codes))
    return write_words(first.shape, words, fmt, out)
