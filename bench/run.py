"""Benchmark of the torus-orbits CLI, end to end and layer by layer.

Runs each workload's calls as real CLI processes (`python3 -m
torus_orbits.cli` on this checkout's src/), one at a time, and checks
every call's output against the references in workloads.py. Run from
the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N]
                         [--seconds S] [--trace 0|1]

A run repeats whole passes over the workload's calls while the next
pass is expected to end within --seconds; there is always one pass.
The seed only shuffles the order of workloads and of calls in a pass:
no input is random.

--trace 0 reports, per workload:
  norm_wall_s   wall time of one pass (median over passes), rescaled to
                the probe's reference speed, s
  setup_s       median rescaled wall time of a fresh `count 1 1`, s
  peak_rss_mib  largest ru_maxrss of the workload's CLI processes, MiB
and prints the raw wall_s and failed_ratio (failed calls / calls
attempted) beside them. --trace 1 also runs each call once more through
bench/tracing.py and reports the per-layer metrics; layers a workload
never reaches read 0.

The host's core speed drifts by about 20% over minutes, so each call's
wall time is rescaled by a probe timed on the same core before, during
and after the call (see probe.py and launch.py). The benchmark and
every process it starts run on one core, the last one it may use.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A call fails on a non-zero exit, a
traceback on stderr, or output that differs from the reference.
`correct` is false when a call exited 0 with a wrong output, a set-up
probe failed, or a traced pass disagreed with the references; a call
that merely crashed counts only in `failed`. The line before it is a
JSON report with the environment, every failure and the traced spans.
Exit code 2 means nothing was measured.
"""

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import CLI_METRICS, layer_metrics
from workloads import (
    MEASURED, SETUP_CALL, WORKLOADS, CallResult, process_failure)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# A single-workload run ends within 180 s: a call still going this long
# after its workload started is killed.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
UNITS = {**END_TO_END_UNITS, **CLI_METRICS,
         **layer_metrics(c for w in WORKLOADS.values() for c in w)}


class Runner:
    """Runs processes one at a time, each measured on its own."""

    def __init__(self, tmpdir):
        self.tmpdir = Path(tmpdir)
        self.start = perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def spawn(self, argv, probe="none"):
        """Run argv to completion through bench/launch.py.

        Returns the launcher's measurements, taken with the given probe
        kind, plus the command's stdout and stderr text.
        """
        stdout_path = self.tmpdir / "stdout"
        stderr_path = self.tmpdir / "stderr"
        timeout = max(1.0, RUN_DEADLINE_S - (perf_counter() - self.start))
        launcher = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launch.py"), str(timeout),
             probe, str(stdout_path), str(stderr_path), *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=self.env)
        try:
            out, _ = launcher.communicate()
        except BaseException:
            launcher.terminate()  # the launcher kills its command first
            launcher.wait()
            raise
        if launcher.returncode != 0:
            raise subprocess.CalledProcessError(launcher.returncode,
                                                launcher.args)
        fields = json.loads(out)
        fields["stdout"] = stdout_path.read_text(errors="replace")
        fields["stderr"] = stderr_path.read_text(errors="replace")
        return fields

    def cli(self, call):
        """Run one CLI call; returns (result, failure or None)."""
        out_path = self.tmpdir / "out"
        fields = self.spawn([sys.executable, "-m", "torus_orbits.cli",
                             *call.argv(str(out_path))], call.probe)
        result = CallResult(out_path=str(out_path), **fields)
        try:
            return result, call.check(result)
        finally:
            out_path.unlink(missing_ok=True)

    def trace(self, workload, index):
        """Run one call through bench/tracing.py; returns (wall_s, report)."""
        fields = self.spawn([sys.executable, str(BENCH / "tracing.py"),
                             workload, str(index), str(self.tmpdir)])
        failure = process_failure(CallResult(out_path=None, **fields))
        if failure:
            return fields["wall_s"], {"failures": [f"trace: {failure}"]}
        return fields["wall_s"], json.loads(fields["stdout"].splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values):
    return {"median": statistics.median(values),
            "p90": percentile(values, 0.9), "n": len(values)}


def run_workload(name, runner, rng, seconds, trace):
    calls = WORKLOADS[name]
    wrong = []  # wrong answers and unmeasurable runs: correct is false
    failures = []
    setup = []
    if not trace:
        runner.cli(SETUP_CALL)  # warm-up: bytecode caches filled once
        for _ in range(SETUP_PROBES):
            result, failure = runner.cli(SETUP_CALL)
            setup.append(result.norm_s)
            if failure:
                wrong.append(f"set-up probe {SETUP_CALL.label}: {failure}")

    passes = []
    attempted = 0
    peak_kib = 0
    start = perf_counter()
    while True:
        order = list(enumerate(calls))
        rng.shuffle(order)
        wall = norm = cpu = 0.0
        for _, call in order:
            result, failure = runner.cli(call)
            attempted += 1
            wall += result.wall_s
            norm += result.norm_s
            cpu += result.cpu_s
            peak_kib = max(peak_kib, result.maxrss_kib)
            if failure:
                failures.append(f"{call.label}: {failure}")
                if not process_failure(result):
                    wrong.append(f"{call.label}: {failure}")
        passes.append({"wall_s": wall, "norm_wall_s": norm, "cpu_s": cpu,
                       "order": order})
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break

    outcome = {
        "workload": name,
        "passes": len(passes),
        "order": [call.label for _, call in passes[0]["order"]],
        **{key: summary([p[key] for p in passes])
           for key in ("norm_wall_s", "wall_s")},
        "peak_rss_mib": peak_kib / 1024,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if setup:
        outcome["setup_s"] = {"median": statistics.median(setup),
                              "n": len(setup)}
    if trace:
        outcome["layers"] = trace_workload(name, runner, passes[-1]["order"],
                                           outcome, wrong)
    outcome["wrong"] = wrong
    return outcome


def trace_workload(name, runner, order, outcome, wrong):
    """One traced pass, in the order of the last untraced pass."""
    metrics = dict.fromkeys(
        layer_metrics(c for w in MEASURED for c in WORKLOADS[w]), 0.0)
    metrics.update(dict.fromkeys(CLI_METRICS, 0.0))
    spans, absent = {}, set()
    traced_wall = layer_s = 0.0
    for index, call in order:
        wall, report = runner.trace(name, index)
        traced_wall += wall
        layer_s += report.get("layer_s", 0.0)
        metrics.update(report.get("metrics", {}))
        spans.update(report.get("spans", {}))
        absent.update(report.get("absent", ()))
        wrong.extend(report["failures"])
    untraced = outcome["wall_s"]["median"]
    metrics["cli.other_s"] = untraced - layer_s
    metrics["cli.cpu_s"] = outcome["cpu_s"]
    metrics["trace.overhead_s"] = traced_wall - untraced
    return {"metrics": metrics, "spans": spans, "absent": sorted(absent),
            "traced_wall_s": traced_wall}


def result_metrics(outcome, trace):
    if trace:
        values = outcome["layers"]["metrics"]
    else:
        values = {"norm_wall_s": outcome["norm_wall_s"]["median"],
                  "setup_s": outcome["setup_s"]["median"],
                  "peak_rss_mib": outcome["peak_rss_mib"]}
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def print_table(outcome, trace):
    print(f"== {outcome['workload']}: {outcome['passes']} pass(es), "
          f"calls in order {outcome['order']}")
    for key in ("norm_wall_s", "wall_s"):
        wall = outcome[key]
        print(f"  {key:13s} {wall['median']:.4f} s  "
              f"(median of {wall['n']}; p90 {wall['p90']:.4f} s)")
    if "setup_s" in outcome:
        print(f"  setup_s       {outcome['setup_s']['median']:.4f} s  "
              f"(median of {outcome['setup_s']['n']})")
    print(f"  peak_rss_mib  {outcome['peak_rss_mib']:.2f} MiB")
    print(f"  failed_ratio  {outcome['failed']}/{outcome['attempted']} = "
          f"{outcome['failed'] / outcome['attempted']:.4f} ratio")
    for failure, times in Counter(outcome["failures"]).items():
        print(f"  FAILED {times}x {failure}")
    for wrong in outcome["wrong"]:
        print(f"  WRONG {wrong}")
    if trace:
        layers = outcome["layers"]
        for name, value in layers["metrics"].items():
            print(f"  {name:32s} {value:.6g} {UNITS[name]}")
        if layers["absent"]:
            print(f"  absent (reported as 0): {', '.join(layers['absent'])}")


def pin_to_one_core():
    """Run here, and in every process started from here, on one core.

    Returns the core's number. The probes must time the core the CLI
    runs on.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def environment(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error: the running command is stopped and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "torus_orbits" / "cli.py").is_file():
        print(f"bench: no torus_orbits package under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    env["core"] = pin_to_one_core()
    rng = random.Random(args.seed)
    names = list(MEASURED) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmpdir:
        outcomes = [run_workload(name, Runner(tmpdir), rng, args.seconds,
                                 bool(args.trace))
                    for name in names]

    for outcome in outcomes:
        print_table(outcome, args.trace)
    print(json.dumps({"env": env, "workloads": outcomes}))

    if len(outcomes) == 1:
        metrics = result_metrics(outcomes[0], args.trace)
    else:
        metrics = {f"{o['workload']}.{name}": value for o in outcomes
                   for name, value in result_metrics(o, args.trace).items()}
    print(json.dumps({
        "correct": not any(o["wrong"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
