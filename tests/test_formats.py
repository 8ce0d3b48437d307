import io
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from torus_orbits import (
    MatrixShape,
    TupleCode,
    code_at_index,
    iter_representative_indices,
    tuple_index,
)
from torus_orbits.formats import FORMATS, write_stream, write_words

import oracles

CODE = TupleCode((5, 1), MatrixShape(2, 3))


def words_text(shape, words, fmt):
    out = io.StringIO()
    count = write_words(shape, words, fmt, out)
    assert count == len(words)
    return out.getvalue()


def stream_text(codes, fmt):
    out = io.StringIO()
    assert write_stream(codes, fmt, out) == len(codes)
    return out.getvalue()


def test_lines_record():
    assert words_text(CODE.shape, [tuple_index(CODE)], "lines") == \
        "101\n001\n"


def test_pbm_record():
    assert words_text(CODE.shape, [tuple_index(CODE)], "pbm") == \
        "P1\n3 2\n1 0 1\n0 0 1\n"


def test_jsonl_record_roundtrip():
    record = json.loads(words_text(CODE.shape, [tuple_index(CODE)], "jsonl"))
    assert record == {"m": 2, "n": 3, "tuple": [5, 1],
                      "rows": ["101", "001"]}
    # re-encoding the rows reproduces the tuple field exactly
    assert [int(r, 2) for r in record["rows"]] == record["tuple"]


def test_lines_stream_blank_line_separated():
    codes = [TupleCode((0,), MatrixShape(1, 1)),
             TupleCode((1,), MatrixShape(1, 1))]
    assert stream_text(codes, "lines") == "0\n\n1\n"
    assert words_text(MatrixShape(1, 1), [0, 1], "lines") == "0\n\n1\n"


def test_pbm_stream_concatenates():
    assert stream_text([CODE, CODE], "pbm") == oracles.pbm_record(CODE) * 2


def test_unknown_format():
    with pytest.raises(ValueError):
        write_stream([], "png", io.StringIO())
    with pytest.raises(ValueError):
        write_words(CODE.shape, [], "png", io.StringIO())


@pytest.mark.parametrize("fmt", FORMATS)
def test_no_words_no_output(fmt):
    assert words_text(MatrixShape(3, 3), [], fmt) == ""
    assert stream_text([], fmt) == ""


@pytest.mark.parametrize("fmt", FORMATS)
def test_wide_rows_match_the_oracle(fmt):
    # rows past 2^53, and leading zeros to pad, in every record
    shape = MatrixShape(2, 64)
    codes = [TupleCode(rows, shape) for rows in
             ((0, 1), (1, (1 << 64) - 1), ((1 << 63) | 5, 1 << 62))]
    assert words_text(shape, [tuple_index(c) for c in codes], fmt) == \
        oracles.stream(codes, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape,words", [
    (MatrixShape(2, 16), range(10)),
    (MatrixShape(1, 64), [0, 1 << 63 | 5, (1 << 64) - 1])])
def test_wide_rows_build_no_table(fmt, shape, words):
    # a few records of 16-bit or wider rows: no text is made for the tail
    # values that no word has, so no 2^n table is built
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as out:
            write_words(shape, words, fmt, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("fmt", FORMATS)
def test_distinct_wide_rows_are_not_kept(fmt):
    # a one-row shape's rows never recur, so a full run must not keep
    # the text of each one: memory would grow with the output
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as out:
            write_words(MatrixShape(1, 24), range(50_000), fmt, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# one row (an empty prefix), one column (the prefix changes almost every
# word), 2x20 (rows past the 16-bit memo) and a few ordinary shapes; and
# tails of 8 bits (a table made up front), 9 and 16 bits (texts made when
# first asked for and kept) and 17 bits (made afresh for every record)
EDGE_SHAPES = [(1, 6), (1, 20), (9, 1), (20, 1), (2, 20), (3, 3), (4, 5),
               (1, 8), (2, 8), (2, 9), (3, 9), (2, 16), (1, 17)]


@st.composite
def shaped_words(draw):
    m, n = draw(st.sampled_from(EDGE_SHAPES)
                | st.tuples(st.integers(1, 4), st.integers(1, 5)))
    # the writer keeps the text above the last 8 // n rows of narrow
    # rows, so words share prefixes above any number of tail rows
    tail = n * draw(st.integers(1, m))
    top, prefix_top = (1 << tail) - 1, (1 << n * m - tail) - 1
    # a few prefixes drawn from over and over, in any order: repeated
    # words, and prefixes that come back after another one
    prefixes = draw(st.lists(st.integers(0, prefix_top),
                             min_size=1, max_size=4))
    pairs = st.tuples(st.sampled_from(prefixes), st.integers(0, top))
    words = draw(st.lists(pairs.map(lambda pr: pr[0] << tail | pr[1]),
                          max_size=12)
                 | st.lists(st.integers(0, (1 << m * n) - 1), max_size=12))
    return MatrixShape(m, n), words


@settings(max_examples=400, deadline=None)
@example((MatrixShape(3, 2), [0b000001, 0b010000, 0b000010]))  # A, B, A
# A, B, A above the tail rows: the last 4 of 6x2 and the last 8 of 20x1
@example((MatrixShape(6, 2), [0b0001 << 8 | 5, 0b0100 << 8 | 5,
                              0b0001 << 8 | 7]))
@example((MatrixShape(20, 1), [0b1 << 8 | 0x0F, 0b11 << 8 | 0x0F,
                               0b1 << 8 | 0xF0]))
@example((MatrixShape(2, 3), [0b111000, 0b000111, 0b000111, 0b111000]))
@example((MatrixShape(2, 20), [3 << 20 | 1, 1 << 20 | 1, 3 << 20 | 2]))
@given(shaped_words())
def test_prefix_cache_matches_the_oracle(case):
    # each record's text depends on its word alone, not on the words
    # before it, whatever their order
    shape, words = case
    codes = [code_at_index(shape, w) for w in words]
    for fmt in FORMATS:
        assert words_text(shape, words, fmt) == oracles.stream(codes, fmt)


def assert_same_text(got, expected, label):
    # the first differing line, not a diff of thousands of lines
    if got != expected:
        pairs = zip(got.splitlines(), expected.splitlines())
        first = next(((i, g, e) for i, (g, e) in enumerate(pairs) if g != e),
                     "none; the lengths differ")
        pytest.fail(f"{label}: first differing line: {first}")


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (1, 8), (2, 5)])
def test_every_word_matches_the_oracle(m, n):
    # every word of the shape, not only its representatives, so every
    # entry of the tail tables is written at least once
    shape = MatrixShape(m, n)
    words = range(1 << m * n)
    codes = [code_at_index(shape, w) for w in words]
    for fmt in FORMATS:
        assert_same_text(words_text(shape, words, fmt),
                         oracles.stream(codes, fmt), f"write_words {fmt}")


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 21)
                                 for n in range(1, 21) if m * n <= 20])
def test_matches_the_oracle_on_small_shapes(m, n):
    # byte for byte, on every class of the shape, by words and by codes
    shape = MatrixShape(m, n)
    words = list(iter_representative_indices(shape))
    codes = [code_at_index(shape, w) for w in words]
    for fmt in FORMATS:
        expected = oracles.stream(codes, fmt)
        assert_same_text(words_text(shape, words, fmt), expected,
                         f"write_words {fmt}")
        assert_same_text(stream_text(codes, fmt), expected,
                         f"write_stream {fmt}")
