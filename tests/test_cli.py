import errno
import json
import math
import mmap
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torus_orbits import MatrixShape, TupleCode, cli, count_burnside
from torus_orbits.canonical import iter_canonical_indices
from torus_orbits.formats import FORMATS

import oracles

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_records(text, fmt):
    """The records of an enumerate output, each with its final newline."""
    if fmt == "lines":  # records joined by blank lines
        return [r + "\n" for r in text[:-1].split("\n\n")]
    if fmt == "pbm":
        return ["P1" + r for r in text.split("P1")[1:]]
    return text.splitlines(keepends=True)


def join_records(records, fmt):
    return ("\n" if fmt == "lines" else "").join(records)


class TestCount:
    @pytest.mark.parametrize("m,n,expected", [
        ("1", "1", "2"), ("4", "4", "4156"),
    ])
    def test_burnside_default(self, capsys, m, n, expected):
        code, out, _ = run(capsys, "count", m, n)
        assert code == 0
        assert out.strip() == expected

    def test_sieve_method(self, capsys):
        code, out, _ = run(capsys, "count", "2", "3", "--method", "sieve")
        assert code == 0
        assert out.strip() == "14"

    def test_filter_method(self, capsys):
        code, out, _ = run(capsys, "count", "2", "3", "--method", "filter")
        assert code == 0
        assert out.strip() == "14"

    def test_large_shape_needs_burnside(self, capsys):
        code, out, _ = run(capsys, "count", "8", "8",
                           "--method", "burnside")
        assert code == 0
        assert out.strip() == "288230376353050816"

    def test_count_beyond_str_digit_limit(self, capsys, monkeypatch):
        # 6769 digits, above Python's default 4300-digit str() limit
        expected = oracles.decimal_string(
            count_burnside(MatrixShape(150, 150)).value)
        limit = sys.get_int_max_str_digits()
        lifts = []
        monkeypatch.setattr(sys, "set_int_max_str_digits", lifts.append)
        code, out, _ = run(capsys, "count", "150", "150")
        assert code == 0
        assert out == expected + "\n"
        assert lifts == []  # the CLI never touches the limit
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("m,n,digits", [
        (45, 45, 607),  # 2015 bits: printed by str()
        (150, 150, 6769),  # printed through decimal
    ])
    def test_count_under_least_digit_limit(self, m, n, digits):
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "count", str(m),
             str(n)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONINTMAXSTRDIGITS": "640"})
        assert proc.returncode == 0, proc.stderr
        expected = oracles.decimal_string(
            count_burnside(MatrixShape(m, n)).value)
        assert len(expected) == digits
        assert proc.stdout == expected + "\n"

    def test_small_counts_never_load_decimal(self):
        # decimal is imported only for counts above 2048 bits, and heapq
        # only by check, so start-up, the filter's counts and enumerate
        # do not pay for them
        script = ("import sys; from torus_orbits import cli; "
                  "cli.main(['count', '3', '3']); "
                  "cli.main(['count', '4', '6', '--method', 'filter']); "
                  "cli.main(['enumerate', '1', '2']); "
                  "print('decimal' in sys.modules, 'heapq' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "64\n699600\n00\n\n01\n\n11\nFalse False\n"

    def test_sieve_capacity(self, capsys):
        code, _, err = run(capsys, "count", "8", "8", "--method", "sieve")
        assert code == 3
        assert "--method burnside" in err

    @pytest.mark.parametrize("error", [
        OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)), MemoryError()],
        ids=["ENOMEM", "MemoryError"])
    def test_store_allocation_failure(self, capsys, monkeypatch, error):
        def refusing(fileno, length):
            raise error

        # the visited store's mapping, as on a host short of 4 MiB
        monkeypatch.setattr(mmap, "mmap", refusing)
        code, _, err = run(capsys, "count", "5", "5", "--method", "sieve")
        assert code == 3
        assert "cannot allocate the 2^25-bit visited store" in err
        assert "--method burnside" in err

    @pytest.mark.parametrize("argv", [
        ("count", "2147483648", "2147483648"),  # MemoryError: 2^62 bits
        ("count", "100000000000", "100000000000"),  # OverflowError
        ("enumerate", "2147483648", "2147483648", "--method", "filter",
         "--limit", "1"),  # MemoryError, from 1 << cells
        # 2^61 - 1, a prime: 2^(mn) fails before m is factored
        ("count", "2305843009213693951", "1"),
    ])
    def test_host_cannot_hold_shape(self, argv):
        # 2^59 bytes or more: beyond any 64-bit address space
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", *argv],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3
        assert proc.stderr.startswith("capacity exceeded: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("m,n", [("9", "9"), ("6", "6")])
    def test_filter_capacity(self, m, n):
        # a subprocess with a timeout, so an unbounded scan fails the test
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "count", m, n,
             "--method", "filter"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 3
        assert "--method burnside" in proc.stderr

    def test_burnside_prime_sides_in_time(self):
        # a subprocess with a timeout: the old m*n translation loop took
        # about 50 s on a 2-vCPU box; the digits come from the
        # prime-sides closed form
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "count", "1009",
             "1013"],
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0
        digits = proc.stdout.strip()
        assert len(digits) == 307682
        assert digits.endswith("33567967855767413632")

    def test_huge_count_prints_in_time(self):
        # str() of this count takes about 25 s on Python 3.11 (2-vCPU
        # box); halving it through decimal takes under a second
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "count", "2000",
             "2000"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        digits = proc.stdout.strip()
        assert len(digits) == 1204114
        low = oracles.burnside_count_mod(2000, 2000, 10 ** 20)
        assert digits.endswith(f"{low:020d}")


# widths at the str() threshold and at the base size of the decimal
# route's halving and its doublings, each with its neighbours
EDGE_WIDTHS = sorted({w + d for w in (cli._STR_BITS,
                                      *(cli._BASE_BITS << j
                                        for j in range(10)))
                      for d in (-1, 0, 1)})


def edge_forms(w):
    """0, 1, 2^w, 2^w - 1, and 10^k - 1, 10^k + 1 for the k with
    10^k < 2^w < 10^(k + 1) and for k + 1.

    The zeros inside 10^k + 1 fall in the low halves, where a dropped
    leading zero would show.
    """
    k = int(w * math.log10(2))
    return [0, 1, 1 << w, (1 << w) - 1,
            *(10 ** j + d for j in (k, k + 1) for d in (-1, 1))]


@st.composite
def counts(draw):
    w = draw(st.sampled_from(EDGE_WIDTHS)
             | st.integers(min_value=1, max_value=300_000))
    return draw(st.sampled_from(edge_forms(w))
                | st.integers(1 << (w - 1), (1 << w) - 1))


def decimal_under_least_limit(value):
    # 640 is the least nonzero int-to-str limit Python accepts
    with oracles.int_max_str_digits(640):
        return cli._decimal(value)


class TestDecimal:
    @settings(max_examples=300, deadline=None)
    @given(counts())
    def test_matches_str(self, value):
        assert decimal_under_least_limit(value) == \
            oracles.decimal_string(value)

    def test_edge_forms_match_str(self):
        for w in EDGE_WIDTHS:
            for value in edge_forms(w):
                assert decimal_under_least_limit(value) == \
                    oracles.decimal_string(value), (w, value)

    @pytest.mark.parametrize("m,n", [
        (12, 12), (64, 64), (300, 300), (509, 521), (720, 720),
    ])
    def test_bench_counts_match_str(self, m, n):
        value = count_burnside(MatrixShape(m, n)).value
        assert decimal_under_least_limit(value) == \
            oracles.decimal_string(value)


class TestEnumerate:
    def test_1x1_lines(self, capsys):
        code, out, err = run(capsys, "enumerate", "1", "1")
        assert code == 0
        assert out == "0\n\n1\n"
        assert "classes=2" in err

    def test_2x2_record_count(self, capsys):
        code, out, err = run(capsys, "enumerate", "2", "2",
                             "--format", "jsonl")
        assert code == 0
        assert len(out.splitlines()) == 7
        assert "classes=7" in err

    def test_limit_truncates(self, capsys):
        code, out, err = run(capsys, "enumerate", "2", "2", "--limit", "3",
                             "--format", "jsonl")
        assert code == 0
        assert len(out.splitlines()) == 3
        assert "emitted=3" in err

    def test_limit_above_total_reports_classes(self, capsys):
        code, out, err = run(capsys, "enumerate", "2", "2", "--limit", "99",
                             "--format", "jsonl")
        assert code == 0
        assert len(out.splitlines()) == 7
        assert "classes=7" in err

    @pytest.mark.parametrize("method", ["sieve", "filter"])
    def test_limit_beyond_63_bits(self, capsys, method):
        code, out, err = run(capsys, "enumerate", "2", "2", "--limit",
                             str(10**20), "--method", method,
                             "--format", "jsonl")
        assert code == 0
        assert len(out.splitlines()) == 7
        assert "classes=7" in err

    def test_filter_matches_sieve(self, capsys):
        _, sieve_out, _ = run(capsys, "enumerate", "3", "3")
        _, filter_out, _ = run(capsys, "enumerate", "3", "3",
                               "--method", "filter")
        assert sieve_out == filter_out

    def test_jsonl_records_parse(self, capsys):
        _, out, _ = run(capsys, "enumerate", "2", "3", "--format", "jsonl")
        for line in out.splitlines():
            record = json.loads(line)
            assert record["m"] == 2 and record["n"] == 3
            assert [int(r, 2) for r in record["rows"]] == record["tuple"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "reps.txt"
        code, out, err = run(capsys, "enumerate", "2", "2",
                             "--out", str(path))
        assert code == 0
        assert out == ""
        assert "classes=7" in err
        assert path.read_text().count("\n\n") == 6
        assert sorted(tmp_path.iterdir()) == [path]

    def test_out_fifo(self, capsys, tmp_path):
        # written straight into, not replaced by a regular file
        path = tmp_path / "fifo"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run(capsys, "enumerate", "3", "3",
                                 "--format", "jsonl", "--out", str(path))
            data = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
        finally:
            os.close(reader)
        assert (code, out, err) == (0, "", "classes=64\n")
        # 3,648 bytes: within a pipe's buffer, so the write cannot block
        assert data == (GOLDEN_DIR / "shape_3x3.jsonl").read_bytes()
        assert path.is_fifo()
        assert sorted(tmp_path.iterdir()) == [path]
        # with no reader, opening the FIFO would wait: a refusal comes first
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "enumerate", "8", "8",
             "--method", "sieve", "--out", str(path)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3

    def test_out_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old")
        link.symlink_to(target.name)
        code, _, _ = run(capsys, "enumerate", "2", "2", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text().count("\n\n") == 6
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("via_link", [False, True])
    def test_out_keeps_mode(self, capsys, tmp_path, via_link):
        target = tmp_path / "target"
        target.write_text("old")
        target.chmod(0o600)
        path = target
        if via_link:
            path = tmp_path / "link"
            path.symlink_to(target.name)
        code, _, _ = run(capsys, "enumerate", "1", "2", "--out", str(path))
        assert code == 0
        assert target.read_text() == "00\n\n01\n\n11\n"
        assert target.stat().st_mode & 0o7777 == 0o600

    def test_out_empty_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "enumerate", "2", "2", "--out", "")
        assert code == 1
        assert out == ""
        assert err.startswith("I/O error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []

    def test_out_io_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "enumerate", "2", "2",
                           "--out", str(tmp_path / "no" / "such" / "dir"))
        assert code == 1
        assert "I/O error" in err

    def test_failed_out_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "reps.txt"
        code, _, _ = run(capsys, "enumerate", "8", "8", "--out", str(path))
        assert code == 3
        assert sorted(tmp_path.iterdir()) == []
        path.write_bytes(b"kept")
        code, _, _ = run(capsys, "enumerate", "8", "8", "--out", str(path))
        assert code == 3
        assert path.read_bytes() == b"kept"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_interrupt_leaves_no_file(self, tmp_path):
        # a real SIGINT mid-scan: 5x5 runs for tens of seconds
        proc = subprocess.Popen(
            [sys.executable, "-m", "torus_orbits.cli", "enumerate", "5",
             "5", "--out", str(tmp_path / "f")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30
        while not (tmp_path / "f.part").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert (out, err) == ("", "interrupted\n")
        assert sorted(tmp_path.iterdir()) == []

    def test_capacity_exit(self, capsys):
        code, _, err = run(capsys, "enumerate", "8", "8",
                           "--method", "sieve")
        assert code == 3
        assert "`count --method burnside`" in err
        assert "`enumerate --method filter --limit K`" in err

    @pytest.mark.parametrize("limit", [1, 351, 352, 353])  # 3x4: N = 352
    @pytest.mark.parametrize("fmt", ["lines", "pbm", "jsonl"])
    @pytest.mark.parametrize("method", ["sieve", "filter"])
    def test_limit_is_a_prefix(self, capsys, tmp_path, method, fmt, limit):
        argv = ("enumerate", "3", "4", "--method", method, "--format", fmt)
        _, full, _ = run(capsys, *argv)
        records = split_records(full, fmt)
        assert len(records) == 352
        code, out, err = run(capsys, *argv, "--limit", str(limit))
        assert code == 0
        assert out == join_records(records[:limit], fmt)
        summary = "classes=352" if limit >= 352 else f"emitted={limit}"
        assert err == summary + "\n"
        path = tmp_path / "reps"
        code, _, _ = run(capsys, *argv, "--limit", str(limit),
                         "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_filter_limit_on_any_shape(self, capsys):
        code, out, err = run(capsys, "enumerate", "8", "8", "--method",
                             "filter", "--limit", "3", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["tuple"] for r in records] == \
            [[0] * 8, [0] * 7 + [1], [0] * 7 + [3]]
        assert "emitted=3" in err

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("m,n,tuples", [
        ("1", "64", [(0,), (1,), (3,)]),
        ("2", "40", [(0, 0), (0, 1), (0, 3)]),
    ])
    def test_filter_limit_on_wide_shapes(self, m, n, tuples, fmt):
        # a subprocess with a timeout: a table of 2^n rows, of the filter
        # or of any format, cannot pass
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "enumerate", m, n,
             "--method", "filter", "--limit", "3", "--format", fmt],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        shape = MatrixShape(int(m), int(n))
        codes = [TupleCode(rows, shape) for rows in tuples]
        assert proc.stdout == oracles.stream(codes, fmt)
        assert proc.stderr.endswith("emitted=3\n")

    def test_filter_limit_on_tall_shape(self):
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "enumerate", "1200",
             "1", "--limit", "3", "--format", "jsonl"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["tuple"] for r in records] == \
            [[0] * 1200, [0] * 1199 + [1], [0] * 1198 + [1, 1]]
        assert proc.stderr == "emitted=3\n"

    def test_default_method_limits_any_shape(self, capsys):
        # the filter is the default: no visited store, so --limit suffices
        code, out, err = run(capsys, "enumerate", "6", "6", "--limit", "2")
        assert code == 0
        zeros = "000000\n" * 5
        assert out == zeros + "000000\n\n" + zeros + "000001\n"
        assert err == "emitted=2\n"

    # the default is the filter on every shape, full runs of one row or
    # one column included; only --method sieve takes the sieve
    @pytest.mark.parametrize("argv,route", [
        (("4", "5"), "filter"),
        (("3", "3"), "filter"),
        (("1", "6"), "filter"),
        (("5", "1"), "filter"),
        (("5", "2", "--limit", "4"), "filter"),
        (("5", "2", "--method", "filter"), "filter"),
        (("4", "5", "--method", "sieve"), "sieve"),
        (("5", "2"), "filter"),
        (("5", "1", "--limit", "4"), "filter"),
    ])
    def test_default_method_by_shape(self, capsys, monkeypatch, argv,
                                     route):
        used = []
        for name, method in (("iter_canonical_indices", "filter"),
                             ("iter_representative_indices", "sieve")):
            def recording(*args, real=getattr(cli, name), method=method):
                used.append(method)
                return real(*args)
            monkeypatch.setattr(cli, name, recording)
        code, _, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert used == [route]


def check_with_filter(capsys, monkeypatch, shape, edit):
    """Run check on shape with the filter's words passed through edit."""
    def edited(shape):
        indices = list(iter_canonical_indices(shape))
        edit(indices)
        return iter(indices)

    monkeypatch.setattr(cli, "iter_canonical_indices", edited)
    return run(capsys, "check", *shape)


class TestCheck:
    @pytest.mark.parametrize("m,n,count", [
        ("2", "2", "7"), ("3", "3", "64"), ("1", "4", "6"),
        ("1", "17", "7712"),
        ("4", "6", "699600"),  # 24 cells, within each route's limit
    ])
    def test_agreement(self, capsys, m, n, count):
        code, out, _ = run(capsys, "check", m, n)
        assert code == 0
        assert out.count(count) == 3
        assert "identical" in out
        assert "all methods agree" in out

    def test_guarded_shape(self, capsys):
        code, _, err = run(capsys, "check", "6", "6")
        assert code == 3
        assert "8589934592-code budget" in err
        assert err.splitlines()[1].startswith("hint: ")
        # a subprocess with a timeout: past the routes' guard, Burnside
        # would fail on a 2^62-bit integer with no hint
        proc = subprocess.run(
            [sys.executable, "-m", "torus_orbits.cli", "check",
             "2147483648", "2147483648"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3
        assert "8589934592-code budget" in proc.stderr
        assert proc.stderr.splitlines()[1].startswith("hint: ")

    def test_mismatch_reported(self, capsys, monkeypatch):
        # a small shape and one of 21 cells, over 2^20 codes
        for shape in ("3", "3"), ("3", "7"):
            code, out, err = check_with_filter(
                capsys, monkeypatch, shape, lambda indices: indices.pop(5))
            assert code == 1
            assert "MISMATCH" in err
            assert "representative sequences: MISMATCH" in out
            assert out.count("only in sieve:") == 1
            assert "only in filter:" not in out

    def test_repeated_word_reported(self, capsys, monkeypatch):
        code, out, err = check_with_filter(
            capsys, monkeypatch, ("3", "7"),
            lambda indices: indices.insert(5, indices[5]))
        assert code == 1
        assert "MISMATCH" in err
        assert "sieve: 99880\nfilter: 99881\n" in out
        assert out.count("  in filter, filter, sieve: ") == 1
        assert "only in" not in out

    def test_swapped_words_reported(self, capsys, monkeypatch):
        # the same words and counts, in another order
        def swap(indices):
            indices[5], indices[6] = indices[6], indices[5]

        code, out, err = check_with_filter(capsys, monkeypatch, ("3", "7"),
                                           swap)
        assert code == 1
        assert "MISMATCH" in err
        assert out.count(": 99880\n") == 3
        # each of the two words is out of step with the sieve once
        assert out.count("only in sieve:") == 2
        assert out.count("only in filter:") == 2

    def test_routes_are_not_held(self, capsys):
        # the two routes are merged as they stream: a list of 4x5's
        # 52,488 words each would take about 4 MiB
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "check", "4", "5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, out
        assert peak < 1 << 20


class TestOeis:
    def test_all_terms_pass(self, capsys):
        code, out, _ = run(capsys, "oeis")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all("PASS" in line for line in lines)
        assert lines[-1].endswith(
            "154866286100907105149651981766316633972736")

    def test_max_n(self, capsys):
        code, out, _ = run(capsys, "oeis", "--max-n", "5")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("1342208")

    @pytest.mark.parametrize("bad", ["0", "13", "-2"])
    def test_max_n_out_of_range(self, capsys, bad):
        code, _, err = run(capsys, "oeis", "--max-n", bad)
        assert code == 2

    def test_fail_path(self, capsys, monkeypatch):
        table = list(cli.A179043)
        table[2] = 65  # corrupt one golden value
        monkeypatch.setattr(cli, "A179043", tuple(table))
        code, out, _ = run(capsys, "oeis", "--max-n", "4")
        assert code == 1
        assert "FAIL" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("count", "2"),
        ("count", "0", "3"),
        ("count", "2", "3", "--method", "magic"),
        ("enumerate", "2", "2", "--format", "png"),
        ("enumerate", "2", "2", "--method", "burnside"),
        ("nonsense",),
        ("check", "2", "2", "--memory-budget-bits", "8"),
        ("count", "2", "2", "--memory-budget-bits", "8"),
        ("enumerate", "2", "2", "--memory-budget-bits", "8"),
    ])
    def test_exit_2(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("count", "2", "x"),
        ("enumerate", "2", "2", "--limit", "1.5"),
        ("count", "2", "-3"),
    ])
    def test_not_a_positive_integer(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "is not a positive integer" in err
        assert "_positive_int" not in err
