"""Fixed reference work that measures how fast the core is right now.

The host's single-core speed drifts by about 20% over minutes, so the
raw wall time of a 20-second CLI call says as much about the host as
about the program. The launcher runs a probe on the same core before,
during (with the command stopped) and after each call, and the
benchmark rescales the call's wall time by the probe's:

    speed  = REFERENCE_S[kind] / mean probe time
    norm_s = wall_s * speed

The probes never import torus_orbits, so a change to the package moves
the call's time but not the probe's. Each kind resembles the work of
the calls it rescales, because the host's slow spells slow interpreter
start-up, pure bytecode and big-integer arithmetic by different amounts:

    rotate  small-int shifts, masks and compares in bytecode, like the
            sieve, filter and decode loops
    bigint  multiplying ints of ~50 000 bits, like Burnside's sum
    start   starting a bare interpreter that imports the standard
            modules the CLI imports, like a CLI call on a tiny shape
"""

import os
import sys
from time import perf_counter

# What each probe takes on a 2-vCPU KVM host running Python 3.11 at its
# faster speed; norm_s is in seconds at that speed.
REFERENCE_S = {"rotate": 0.010, "bigint": 0.010, "start": 0.060}


def rotate():
    """Is each of 700 codes the least of its rotations on a 4x5 torus?"""
    m, n = 4, 5
    row_mask = (1 << n) - 1
    least = 0
    for code in range(1000, 1700):
        rows = [(code >> (n * r)) & row_mask for r in range(m)]
        is_least = True
        for dr in range(m):
            shifted = rows[dr:] + rows[:dr]
            for dc in range(n):
                value = 0
                for row in shifted:
                    value = (value << n) | (
                        ((row >> dc) | (row << (n - dc))) & row_mask)
                if value < code:
                    is_least = False
        least += is_least
    return least


BASE = 3 ** 31000  # 49 134 bits


def bigint():
    """Ten products of ~50 000-bit ints, reduced to a small residue."""
    residue = 0
    for k in range(1, 11):
        residue ^= (BASE * (BASE + k)) % 1_000_003
    return residue


STANDARD_IMPORTS = "import argparse, dataclasses, itertools, json, math"


def start():
    """Start and wait for a bare interpreter importing the CLI's stdlib."""
    argv = [sys.executable, "-c", STANDARD_IMPORTS]
    os.waitpid(os.posix_spawn(sys.executable, argv, os.environ), 0)


KINDS = {"rotate": rotate, "bigint": bigint, "start": start}


def timed(kind):
    """Wall seconds of one probe of the given kind."""
    work = KINDS[kind]
    begin = perf_counter()
    work()
    return perf_counter() - begin
