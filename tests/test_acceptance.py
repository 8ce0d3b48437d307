"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from torus_orbits import (
    MatrixShape,
    TupleCode,
    code_at_index,
    count_burnside,
    iter_canonical_indices,
    iter_representative_indices,
    tuple_index,
)
from torus_orbits.torus import (
    VisitedStore,
    block_moves,
    necklace_moves,
    row_low_mask,
    row_moves,
    row_rotations,
)

import oracles

GOLDEN_DIR = Path(__file__).parent / "golden"


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "torus_orbits.cli", *[str(a) for a in args]],
        capture_output=True, text=True)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def shapes_with_cells_up_to(limit):
    return [(m, n) for m in range(1, limit + 1)
            for n in range(1, limit + 1) if m * n <= limit]


def test_criterion_1_diagonal_counts_by_sieve():
    with criterion(1, "diagonal counts, sieve"):
        expected = {1: "2", 2: "7", 3: "64", 4: "4156"}
        for k, want in expected.items():
            start = time.monotonic()
            proc = cli("count", k, k, "--method", "sieve")
            elapsed = time.monotonic() - start
            assert proc.returncode == 0
            assert proc.stdout.strip() == want
            if k == 4:
                assert elapsed < 1.0, f"4x4 sieve took {elapsed:.2f}s"
        # 5x5: correct within 60 s, visited store within 8 MiB
        assert VisitedStore(MatrixShape(5, 5)).nbytes <= 8 * 1024 * 1024
        start = time.monotonic()
        proc = cli("count", 5, 5, "--method", "sieve")
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1342208"
        assert elapsed < 60.0, f"5x5 sieve took {elapsed:.2f}s"


def test_criterion_2_diagonal_counts_analytic():
    with criterion(2, "diagonal counts, analytic"):
        start = time.monotonic()
        proc = cli("oeis", "--max-n", 12)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 12
        assert all("PASS" in line for line in lines)
        assert lines[-1].endswith(
            "154866286100907105149651981766316633972736")
        assert elapsed < 1.0, f"oeis took {elapsed:.2f}s"


def test_criterion_3_triple_method_agreement():
    with criterion(3, "triple-method agreement"):
        start = time.monotonic()
        for m, n in shapes_with_cells_up_to(16):
            shape = MatrixShape(m, n)
            sieve_seq = list(iter_representative_indices(shape))
            filter_seq = list(iter_canonical_indices(shape))
            analytic = count_burnside(shape).value
            assert len(sieve_seq) == analytic, (m, n)
            assert sieve_seq == filter_seq, (m, n)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"sweep took {elapsed:.2f}s"


def test_criterion_4_orbit_partition_soundness():
    with criterion(4, "orbit-partition soundness"):
        for m, n in shapes_with_cells_up_to(12):
            shape = MatrixShape(m, n)
            covered = set()
            size_sum = 0
            for w in iter_representative_indices(shape):
                rows = tuple((w >> (n * (m - 1 - i))) & ((1 << n) - 1)
                             for i in range(m))
                orbit = oracles.rows_orbit(rows, n)
                assert not (covered & orbit), (m, n)
                covered |= orbit
                size_sum += len(orbit)
            # every code covered exactly once; orbit sizes tile 2^(m*n)
            assert len(covered) == 1 << (m * n), (m, n)
            assert size_sum == 1 << (m * n), (m, n)


def test_criterion_5_operator_laws():
    with criterion(5, "operator laws, randomized"):
        # the sieve's word kernel, its moves applied as the pass applies
        # them, against the oracles' grid moves; one row and one column
        # through the rotations of their one m*n-bit row
        shapes = [(1, 1), (1, 30), (30, 1), (2, 15), (3, 10),
                  (4, 4), (5, 6), (6, 5)]
        rng = random.Random(20240824)
        for m, n in shapes:
            shape = MatrixShape(m, n)
            top = (1 << n) - 1
            rows_moves, moves = necklace_moves(m, n)
            shift = n * (m - 1)
            whole = m == 1 or n == 1  # the pass rotates the whole word
            # grids as tuples of '0'/'1' row strings, which the oracle
            # moves shift as they shift tuples of bits
            row_format = f"0{n}b"
            word_format = f"0{m * n}b"

            def grid(x):
                s = format(x, word_format)
                return tuple(s[k:k + n] for k in range(0, m * n, n))

            row_low = row_low_mask(m, n)
            least_rotation = functools.cache(
                functools.partial(oracles.necklace, n=n))

            for _ in range(10_000):
                rows = tuple(rng.randint(0, top) for _ in range(m))
                w = tuple_index(TupleCode(rows, shape))
                g = tuple(format(p, row_format) for p in rows)
                if whole:
                    # rotation j is j last-to-first moves of the one
                    # row, or of the one column, up to the word's period
                    move = (oracles.move_last_col_first if m == 1
                            else oracles.move_last_row_first)
                    expected = [g]
                    while (g := move(g)) != expected[0]:
                        expected.append(g)
                    words = row_rotations(w, m * n)
                    assert [grid(x) for x in words] == expected
                    assert set(words) == set(
                        oracles.orbit_words(w, m, n, row_low))
                    assert tuple_index(code_at_index(shape, w)) == w
                    continue
                # the top row of w's class minimum: the least necklace
                q = min(map(least_rotation, rows))
                words = []
                for mask, a, b, j, keep, low, k in row_moves(
                        w, rows_moves, block_moves(moves, q, n), shift):
                    x = ((w & mask) << a) | (w >> b)
                    words.append(((x >> j) & keep) | ((x & low) << k))
                # k last-to-first row moves put row (m - k) % m on top
                row_moved = [g]
                for _ in range(m - 1):
                    g = oracles.move_last_row_first(g)
                    row_moved.append(g)
                # word by word: row i on top, then j last-to-first column
                # moves for each j that turns that row into q, ascending
                expected = []
                for i in range(m):
                    g = row_moved[-i]
                    if least_rotation(rows[i]) == q:
                        offsets = oracles.least_rotation_offsets(rows[i], n)
                    else:
                        offsets = []
                    j = 0
                    for k in offsets:
                        for _ in range(k - j):
                            g = oracles.move_last_col_first(g)
                        j = k
                        expected.append(g)
                assert [grid(x) for x in words] == expected
                # and they are the orbit members under top row q, of the
                # whole orbit as the reference sieve's kernel lists it
                assert set(words) == {
                    x for x in oracles.orbit_words(w, m, n, row_low)
                    if x >> shift == q}
                assert tuple_index(code_at_index(shape, w)) == w


def test_criterion_6_analytic_count_validation():
    with criterion(6, "analytic-count validation"):
        for m, n in shapes_with_cells_up_to(16):
            shape = MatrixShape(m, n)
            assert count_burnside(shape).value == \
                oracles.orbit_partition_count(m, n), (m, n)
        # divisibility of the fixed-point sum is asserted internally
        for m in range(1, 65):
            for n in range(1, 65):
                count_burnside(MatrixShape(m, n))


def test_criterion_7_capacity_contract():
    with criterion(7, "capacity contract"):
        proc = cli("enumerate", 8, 8, "--method", "sieve")
        assert proc.returncode == 3
        assert "--method burnside" in proc.stderr
        proc = cli("count", 8, 8, "--method", "burnside")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "288230376353050816"


def test_criterion_8_format_stability(tmp_path):
    with criterion(8, "format stability"):
        for fmt, suffix in (("pbm", "pbm"), ("jsonl", "jsonl")):
            outputs = []
            for run in (1, 2):
                path = tmp_path / f"{fmt}_{run}"
                proc = cli("enumerate", 3, 3, "--format", fmt,
                           "--out", path)
                assert proc.returncode == 0
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1]
            golden = (GOLDEN_DIR / f"shape_3x3.{suffix}").read_bytes()
            assert outputs[0] == golden
