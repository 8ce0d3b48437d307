"""Tests of the benchmark itself: its verifiers, failure counting and
result line, on small shapes so they run in seconds."""

import json
import shutil
import subprocess
import sys
import time
from math import gcd, lcm

import run
from tracing import CLI_METRICS, Tracer, layer_metrics
from workloads import (
    A179043, MEASURED, WORKLOADS, CallResult, CountCall, EnumerateCall,
    OeisCall, process_failure)

SMOKE_ENUMERATE, SMOKE_FILTER, SMOKE_BURNSIDE, SMOKE_OEIS = WORKLOADS["smoke"]


def divisor_sum_count(m, n):
    """Burnside's count as a divisor sum, independent of the package:
    sum over a | m, b | n of phi(a) phi(b) 2^(mn / lcm(a, b)), over mn."""
    def phi(k):
        return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)

    total = sum(phi(a) * phi(b) << (m * n // lcm(a, b))
                for a in range(1, m + 1) if m % a == 0
                for b in range(1, n + 1) if n % b == 0)
    assert total % (m * n) == 0
    return total // (m * n)


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=120)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def spawn(runner, call, out_path):
    fields = runner.spawn([sys.executable, "-m", "torus_orbits.cli",
                           *call.argv(str(out_path))])
    return CallResult(out_path=str(out_path), **fields)


def test_reference_counts_match_divisor_sum():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        calls = [c for w in WORKLOADS.values() for c in w
                 if isinstance(c, CountCall)]
        for call in calls:
            assert call.check_decimal(
                str(divisor_sum_count(call.m, call.n))) is None, call.label
    finally:
        sys.set_int_max_str_digits(limit)
    assert A179043 == tuple(divisor_sum_count(k, k) for k in range(1, 13))


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(MEASURED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS)
    measured_calls = [c for w in MEASURED for c in WORKLOADS[w]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **layer_metrics(measured_calls), **CLI_METRICS}


def test_smoke_run_verifies_every_call_kind():
    line = result_line(bench("--workload", "smoke", "--seed", "3",
                             "--seconds", "0"))
    assert line["correct"] is True
    assert (line["attempted"], line["failed"]) == (4, 0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == (
        run.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced_run_reports_every_layer():
    line = result_line(bench("--workload", "smoke", "--seed", "4",
                             "--seconds", "0", "--trace", "1"))
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["torus.reps"] == 64
    assert metrics["torus.store_bytes"] == 64
    assert metrics["canonical.codes_tested"] == 64
    assert metrics["canonical.accept_ratio"] == 14 / 64
    assert metrics["formats.bytes_out"] == 3648
    assert metrics["counting.burnside_s.3x3"] > 0


def test_flipped_byte_fails_the_call(tmp_path):
    runner = run.Runner(tmp_path)
    out = tmp_path / "out"
    result = spawn(runner, SMOKE_ENUMERATE, out)
    assert SMOKE_ENUMERATE.check(result) is None
    data = bytearray(out.read_bytes())
    data[10] ^= 1
    out.write_bytes(bytes(data))
    assert "differs" in SMOKE_ENUMERATE.check(result)

    count = spawn(runner, SMOKE_FILTER, out)
    assert SMOKE_FILTER.check(count) is None
    flipped = count.stdout.replace("14", "15")
    assert SMOKE_FILTER.check(
        CallResult(**{**count.__dict__, "stdout": flipped})) is not None

    oeis = spawn(runner, SMOKE_OEIS, out)
    assert SMOKE_OEIS.check(oeis) is None
    flipped = oeis.stdout.replace("64", "65")
    assert SMOKE_OEIS.check(
        CallResult(**{**oeis.__dict__, "stdout": flipped})) is not None


def test_nonzero_exit_or_traceback_fails_the_call(tmp_path):
    runner = run.Runner(tmp_path)
    too_big = CountCall.of_value(9, 9, "sieve", 1)  # exits 3: capacity
    result = spawn(runner, too_big, tmp_path / "out")
    assert result.returncode == 3
    assert too_big.check(result).startswith("exit 3")

    fine = spawn(runner, SMOKE_BURNSIDE, tmp_path / "out")
    crashed = CallResult(**{**fine.__dict__,
                            "stderr": "Traceback (most recent call last):"})
    assert SMOKE_BURNSIDE.check(crashed) == "traceback on stderr"


def test_failures_are_counted_and_wrong_answers_make_the_run_incorrect(
        tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "mixed", (
        CountCall.of_value(9, 9, "sieve", 1),      # crashes
        CountCall.of_value(2, 3, "filter", 15),    # wrong answer
        SMOKE_BURNSIDE,                            # right
    ))
    outcome = run.run_workload("mixed", run.Runner(tmp_path),
                               run.random.Random(0), 0, False)
    assert (outcome["attempted"], outcome["failed"]) == (3, 2)
    assert len(outcome["wrong"]) == 1 and "2x3" in outcome["wrong"][0]
    assert process_failure(CallResult(0, "", "", None, 0, 0, 0)) is None


def test_trace_reports_a_removed_function_as_absent(tmp_path, monkeypatch):
    from torus_orbits import formats

    monkeypatch.delattr(formats, "write_stream")
    tracer = Tracer(tmp_path)
    tracer.trace(EnumerateCall(2, 2, "jsonl", 7, "unused"))
    report = tracer.report()
    assert report["absent"] == ["formats.write_stream"]
    assert report["failures"] == []
    assert report["metrics"]["torus.reps"] == 7
    assert "codec.decode_s" in report["metrics"]
    assert not any(k.startswith("formats.") for k in report["metrics"])


def test_without_the_package_the_benchmark_fails(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oeis_call_expects_one_pass_line_per_n():
    assert OeisCall(2).check(CallResult(
        0, "n= 1 PASS 2\nn= 2 PASS 7\n", "", None, 0, 0, 0)) is None


def test_launcher_kills_its_command_on_timeout_and_on_sigterm(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]

    def launch(timeout, probe):
        return subprocess.Popen(
            [sys.executable, "-S", str(run.BENCH / "launch.py"), timeout,
             probe, str(tmp_path / "o"), str(tmp_path / "e"), *sleeper],
            stdout=subprocess.PIPE, text=True)

    for probe in ("none", "rotate", "start"):
        timed_out = launch("0.2", probe)
        out = timed_out.communicate(timeout=30)[0]
        assert json.loads(out)["returncode"] == -9

        terminated = launch("60", probe)
        time.sleep(1.2)  # with a probe: while it runs or stops the sleeper
        terminated.terminate()
        out = terminated.communicate(timeout=30)[0]
        assert json.loads(out)["returncode"] == -9


def test_launcher_probes_while_the_command_is_stopped(tmp_path):
    busy = [sys.executable, "-c",
            "import time\n"
            "end = time.process_time() + 1.2\n"
            "while time.process_time() < end: pass\n"
            "print('done')"]
    out = subprocess.run(
        [sys.executable, "-S", str(run.BENCH / "launch.py"), "30", "bigint",
         str(tmp_path / "o"), str(tmp_path / "e"), *busy],
        capture_output=True, text=True, timeout=60).stdout
    fields = json.loads(out)
    assert fields["returncode"] == 0
    assert (tmp_path / "o").read_text() == "done\n"
    # one probe before, one after, and one per half second of the run
    assert fields["probes"] >= 4
    assert 0 < fields["speed"] < 100
    # stopped spells are left out: the command's own 1.2 s CPU remains
    assert fields["cpu_s"] >= 1.2 and fields["wall_s"] >= 1.1
    result = CallResult(0, "", "", None, fields["wall_s"], fields["cpu_s"],
                        fields["maxrss_kib"], fields["speed"])
    assert result.norm_s > 0
