"""Traced pass: the work of one CLI call, split by the layer doing it.

Calls the public functions of the torus_orbits modules on the same
inputs as the CLI call and times them from outside. Spans cover whole
batches, not single representatives, and are kept in memory, summed
per layer, and printed as one JSON line when the call is done.

Run from the repository root:

    python3 bench/tracing.py WORKLOAD INDEX TMPDIR

where INDEX picks the call of the workload and TMPDIR takes the output
file of an enumerate call.
"""

import importlib
import itertools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from workloads import (
    WORKLOADS, CountCall, EnumerateCall, OeisCall, sha256_file)

ROOT = Path(__file__).resolve().parent.parent
BATCH = 8192

ENUMERATE_METRICS = {
    "torus.scan_s": "s",
    "torus.ns_per_code": "ns",
    "torus.reps": "count",
    "torus.store_bytes": "bytes",
    "torus.mark_useful_ratio": "ratio",
    "codec.decode_s": "s",
    "codec.decode_us_per_rep": "us",
    "formats.record_s": "s",
    "formats.record_us_per_rep": "us",
    "formats.write_s": "s",
    "formats.bytes_out": "bytes",
}
FILTER_METRICS = {
    "canonical.test_s": "s",
    "canonical.ns_per_code": "ns",
    "canonical.codes_tested": "count",
    "canonical.accept_ratio": "ratio",
}
CLI_METRICS = {"cli.other_s": "s", "cli.cpu_s": "s", "trace.overhead_s": "s"}


def layer_metrics(calls):
    """Name -> unit of every per-layer metric the traced calls report."""
    metrics = {}
    for call in calls:
        if isinstance(call, EnumerateCall):
            metrics.update(ENUMERATE_METRICS)
        elif isinstance(call, CountCall) and call.method == "filter":
            metrics.update(FILTER_METRICS)
        elif isinstance(call, CountCall) and call.method == "burnside":
            metrics[f"counting.burnside_s.{call.m}x{call.n}"] = "s"
            metrics[f"cli.decimal_s.{call.m}x{call.n}"] = "s"
    return metrics


class Spans:
    """Busy time and span count per layer."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.count = defaultdict(int)

    @contextmanager
    def span(self, layer):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += perf_counter() - start
            self.count[layer] += 1


class TimedWriter:
    """A text sink that times each write, apart from record formatting."""

    def __init__(self, f):
        self.f = f
        self.seconds = 0.0

    def write(self, text):
        start = perf_counter()
        self.f.write(text)
        self.seconds += perf_counter() - start


class Tracer:
    """Traces calls and collects their layer metrics."""

    def __init__(self, tmpdir):
        self.tmpdir = Path(tmpdir)
        self.spans = Spans()
        self.metrics = {}
        self.absent = set()
        self.failures = []

    def public(self, module, name):
        """module.name, or None (layer reported absent) once it is gone."""
        try:
            found = getattr(importlib.import_module(f"torus_orbits.{module}"),
                            name, None)
        except ImportError:
            found = None
        if found is None:
            self.absent.add(f"{module}.{name}")
        return found

    def shape(self, call):
        return self.public("codec", "MatrixShape")(call.m, call.n)

    def trace(self, call):
        if isinstance(call, EnumerateCall):
            self.enumerate(call)
        elif isinstance(call, CountCall) and call.method == "filter":
            self.count_filter(call)
        elif isinstance(call, CountCall) and call.method == "burnside":
            self.count_burnside(call)
        elif not isinstance(call, OeisCall):  # its Burnside takes ~1 ms
            raise ValueError(f"no traced form of {call.label}")

    def layer_s(self):
        """Busy time of all layers: the part of the call they explain."""
        return sum(self.spans.seconds.values())

    def enumerate(self, call):
        shape = self.shape(call)
        scan = self.public("torus", "iter_representative_indices")
        decode = self.public("torus", "code_at_index")
        write_stream = self.public("formats", "write_stream")
        store = self.public("torus", "VisitedStore")
        if scan is None:
            return
        spans = self.spans
        indices = scan(shape)
        reps = 0

        def batches():
            nonlocal reps
            while True:
                with spans.span("torus.scan"):
                    batch = list(itertools.islice(indices, BATCH))
                if not batch:
                    return
                reps += len(batch)
                yield batch

        def codes():
            for batch in batches():
                with spans.span("codec.decode"):
                    decoded = [decode(shape, w) for w in batch]
                yield from decoded

        out_path = self.tmpdir / "trace.out"
        formatted = decode is not None and write_stream is not None
        if formatted:
            # write_stream's own time is the records: its span, minus the
            # scan and decode it pulls through and the writes it makes.
            with open(out_path, "w") as f:
                sink = TimedWriter(f)
                with spans.span("formats.write_stream"):
                    write_stream(codes(), call.fmt, sink)
                with spans.span("formats.close"):
                    f.close()
            stream_s = spans.seconds.pop("formats.write_stream")
            inner_s = (spans.seconds["torus.scan"]
                       + spans.seconds["codec.decode"] + sink.seconds)
            spans.seconds["formats.record"] = stream_s - inner_s
            spans.count["formats.record"] = spans.count.pop(
                "formats.write_stream")
            spans.seconds["formats.write"] = (
                sink.seconds + spans.seconds.pop("formats.close"))
            spans.count["formats.write"] = spans.count.pop("formats.close")
        elif decode is not None:
            for _ in codes():
                pass
        else:
            for _ in batches():
                pass

        codes_total = 1 << (call.m * call.n)
        scan_s = spans.seconds["torus.scan"]
        self.metrics.update({
            "torus.scan_s": scan_s,
            "torus.ns_per_code": scan_s * 1e9 / codes_total,
            "torus.reps": reps,
            "torus.store_bytes": store(shape).nbytes if store else 0,
            "torus.mark_useful_ratio":
                codes_total / (call.m * call.n * reps) if reps else 0.0,
        })
        if decode is not None:
            decode_s = spans.seconds["codec.decode"]
            self.metrics["codec.decode_s"] = decode_s
            self.metrics["codec.decode_us_per_rep"] = decode_s * 1e6 / reps
        if reps != call.classes:
            self.failures.append(f"{call.label}: traced {reps} classes")
        if formatted:
            record_s = spans.seconds["formats.record"]
            self.metrics.update({
                "formats.record_s": record_s,
                "formats.record_us_per_rep": record_s * 1e6 / reps,
                "formats.write_s": spans.seconds["formats.write"],
                "formats.bytes_out": os.path.getsize(out_path),
            })
            if sha256_file(out_path) != call.out_sha256:
                self.failures.append(f"{call.label}: traced output differs")
            out_path.unlink()

    def count_filter(self, call):
        shape = self.shape(call)
        canonical = self.public("canonical", "iter_canonical_indices")
        if canonical is None:
            return
        with self.spans.span("canonical.test"):
            reps = sum(1 for _ in canonical(shape))
        tested = 1 << (call.m * call.n)
        test_s = self.spans.seconds["canonical.test"]
        self.metrics.update({
            "canonical.test_s": test_s,
            "canonical.ns_per_code": test_s * 1e9 / tested,
            "canonical.codes_tested": tested,
            "canonical.accept_ratio": reps / tested,
        })
        self._check_count(call, str(reps))

    def count_burnside(self, call):
        shape = self.shape(call)
        count_burnside = self.public("counting", "count_burnside")
        if count_burnside is None:
            return
        suffix = f"{call.m}x{call.n}"
        with self.spans.span(f"counting.burnside.{suffix}"):
            value = count_burnside(shape).value
        # The CLI's print(value) is str() plus a write; str() is timed
        # with the 4300-digit limit lifted here only, never in the CLI.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with self.spans.span(f"cli.decimal.{suffix}"):
                text = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        self.metrics[f"counting.burnside_s.{suffix}"] = (
            self.spans.seconds[f"counting.burnside.{suffix}"])
        self.metrics[f"cli.decimal_s.{suffix}"] = (
            self.spans.seconds[f"cli.decimal.{suffix}"])
        self._check_count(call, text)

    def _check_count(self, call, text):
        failure = call.check_decimal(text)
        if failure:
            self.failures.append(f"{call.label}: traced {failure}")

    def report(self):
        return {
            "metrics": self.metrics,
            "layer_s": self.layer_s(),
            "spans": {layer: {"s": s, "n": self.spans.count[layer]}
                      for layer, s in self.spans.seconds.items()},
            "absent": sorted(self.absent),
            "failures": self.failures,
        }


def main(argv):
    workload, index, tmpdir = argv
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(tmpdir)
    tracer.trace(WORKLOADS[workload][int(index)])
    print(json.dumps(tracer.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
