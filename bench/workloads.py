"""The benchmark's workloads: CLI calls with the references that check them.

Each call is one `torus-orbits` process. Every reference is held here,
independent of the package under test: class counts as the SHA-256 of
their decimal text, enumerate output as the SHA-256 of the file. The
divisor-sum formula in test_bench.py re-derives the counts.
"""

import hashlib
from dataclasses import dataclass


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        # chunked: an enumerate output can exceed 100 MB
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class CallResult:
    """What one CLI process left behind."""

    returncode: int
    stdout: str
    stderr: str
    out_path: str | None
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    speed: float | None = None  # of the core, by a probe; see probe.py
    probes: int = 0

    @property
    def norm_s(self):
        """wall_s in seconds at the probe's reference speed."""
        return self.wall_s * self.speed


def process_failure(result):
    """Why the process itself failed (exit code, traceback), or None."""
    if result.returncode != 0:
        last = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {result.returncode}: {last[0][:200]}"
    if "Traceback" in result.stderr:
        return "traceback on stderr"
    return None


@dataclass(frozen=True)
class EnumerateCall:
    """`enumerate m n --method sieve --format fmt --out <file>`."""

    m: int
    n: int
    fmt: str
    classes: int
    out_sha256: str

    probe = "rotate"

    @property
    def label(self):
        return f"enumerate {self.m}x{self.n} {self.fmt}"

    def argv(self, out_path):
        return ["enumerate", str(self.m), str(self.n), "--method", "sieve",
                "--format", self.fmt, "--out", out_path]

    def check(self, result):
        """None if the call succeeded with the reference output, else why."""
        failure = process_failure(result)
        if failure:
            return failure
        if f"classes={self.classes}" not in result.stderr.splitlines():
            return f"stderr lacks classes={self.classes}"
        if sha256_file(result.out_path) != self.out_sha256:
            return "--out file differs from the reference"
        return None


@dataclass(frozen=True)
class CountCall:
    """`count m n --method method`; the count is checked by its digest."""

    m: int
    n: int
    method: str
    digits: int
    decimal_sha256: str
    probe: str = "rotate"  # "bigint" where Burnside's sum dominates

    @classmethod
    def of_value(cls, m, n, method, value, probe="rotate"):
        text = str(value)
        return cls(m, n, method, len(text), sha256_text(text), probe)

    @property
    def label(self):
        return f"count {self.m}x{self.n} {self.method}"

    def argv(self, out_path):
        return ["count", str(self.m), str(self.n), "--method", self.method]

    def check_decimal(self, text):
        if len(text) != self.digits or sha256_text(text) != self.decimal_sha256:
            return f"count {text[:20]}... ({len(text)} digits) is wrong"
        return None

    def check(self, result):
        return process_failure(result) or self.check_decimal(
            result.stdout.strip())


# OEIS A179043, k = 1..12
A179043 = (
    2,
    7,
    64,
    4156,
    1342208,
    1908897152,
    11488774559744,
    288230376353050816,
    29850020237398264483840,
    12676506002282327791964489728,
    21970710674130840874443091905462272,
    154866286100907105149651981766316633972736,
)


@dataclass(frozen=True)
class OeisCall:
    """`oeis --max-n k`: one `n=i PASS <A179043(i)>` line per i <= k."""

    max_n: int

    probe = "start"  # A179043 up to 12 takes ~1 ms: this is start-up

    @property
    def label(self):
        return f"oeis {self.max_n}"

    def argv(self, out_path):
        return ["oeis", "--max-n", str(self.max_n)]

    def check(self, result):
        failure = process_failure(result)
        if failure:
            return failure
        expected = [f"n={k:2d} PASS {A179043[k - 1]}"
                    for k in range(1, self.max_n + 1)]
        if result.stdout.splitlines() != expected:
            return f"stdout is not the {self.max_n} expected PASS lines"
        return None


SETUP_CALL = CountCall.of_value(1, 1, "burnside", 2, "start")

# Why each workload exists is in BENCHMARK.json; the smoke workload runs
# every call kind on small shapes, for the benchmark's own tests.
WORKLOADS = {
    "enumerate-5x5": (
        EnumerateCall(
            5, 5, "jsonl", 1342208,
            "c6095364028b510645c9c399d1ac0a2e7a0e9d684a14a44a5c7ba0eda1a0093d"),
    ),
    "count-filter-4x6": (
        CountCall.of_value(4, 6, "filter", 699600),
    ),
    # 300x300 and larger exit 1 at the seed: Python refuses str() of an
    # int above 4300 digits. They stay, so the defect shows as failures.
    "count-burnside": (
        OeisCall(12),
        CountCall(
            64, 64, "burnside", 1230,
            "a860930c7e06bf3f72acf093ebef7831d7e0ddcaebf17f6db1bd7508fd326bbc",
            "bigint"),
        CountCall(
            300, 300, "burnside", 27088,
            "e6e78b069384ccad6defe56ab3ef864e9e8b09040431471eb73490634ba7cb7e",
            "bigint"),
        CountCall(
            509, 521, "burnside", 79825,
            "56693aaac47c03ac97fef3fba4701e615180a0275a642a1b36278612718c4e2e",
            "bigint"),
        CountCall(
            720, 720, "burnside", 156049,
            "cd19f2579a41403566d5d6098815d07775dcd0f766257fbc319f1eadcccd3546",
            "bigint"),
    ),
    "smoke": (
        EnumerateCall(
            3, 3, "jsonl", 64,
            "d1679fdff6a7a90a212b02a0bc28dcd9b3a4d244f33f007d23706e22e327f18c"),
        CountCall.of_value(2, 3, "filter", 14),
        CountCall.of_value(3, 3, "burnside", 64),
        OeisCall(3),
    ),
}

MEASURED = ("enumerate-5x5", "count-filter-4x6", "count-burnside")
