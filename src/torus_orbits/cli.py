"""Command-line front end: count, enumerate, check, oeis.

Exit codes: 0 success/agreement, 1 verification mismatch or I/O
failure, 2 invalid arguments, 3 resource limit exceeded, 130
interrupted (SIGINT, as from Ctrl-C).
"""

import argparse
import itertools
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress

from .canonical import iter_canonical_indices
from .codec import MatrixShape
from .counting import A179043, count_burnside
from .errors import CapacityError
from .formats import FORMATS, write_words
from .torus import (
    check_exhaustive,
    code_at_index,
    iter_representative_indices,
)

EXIT_OK = 0
EXIT_MISMATCH_OR_IO = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# At most 617 digits, under the least nonzero int-to-str digit limit
# Python accepts (640), so str() never refuses such a value.
_STR_BITS = 2048
# Pieces this small go straight to a Decimal.
_BASE_BITS = 128


def _positive_int(text):
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text} is not a positive integer")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torus-orbits",
        description="Enumerate and count binary matrices up to cyclic "
                    "row/column rotation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_args(p):
        p.add_argument("m", type=_positive_int, help="row count")
        p.add_argument("n", type=_positive_int, help="column count")

    p_count = sub.add_parser("count", help="print the exact class count")
    add_shape_args(p_count)
    p_count.add_argument("--method", choices=("burnside", "sieve", "filter"),
                         default="burnside")

    p_enum = sub.add_parser("enumerate",
                            help="stream one representative per class")
    add_shape_args(p_enum)
    p_enum.add_argument("--method", choices=("sieve", "filter"),
                        default="filter", help="default: filter")
    p_enum.add_argument("--format", choices=FORMATS, default="lines",
                        dest="fmt")
    p_enum.add_argument("--out", default=None,
                        help="output path (default: standard output)")
    p_enum.add_argument("--limit", type=_positive_int, default=None,
                        help="emit at most this many representatives")

    p_check = sub.add_parser("check",
                             help="cross-verify all counting methods")
    add_shape_args(p_check)

    p_oeis = sub.add_parser("oeis",
                            help="check diagonal counts against A179043")
    p_oeis.add_argument("--max-n", type=int, default=len(A179043),
                        dest="max_n")
    return parser


def _representative_indices(shape, method, limit=None):
    # refuse before --out is opened, which for a FIFO waits for a reader
    if method == "sieve" or limit is None:  # --limit bounds the filter's work
        check_exhaustive(shape)
    if method == "sieve":
        return iter_representative_indices(shape)
    return iter_canonical_indices(shape)


def _decimal(value):
    """The decimal digits of a count (an int >= 0) of any size.

    Before Python 3.12, str() of an int is quadratic in its length, and
    it refuses an int beyond the process's int-to-str digit limit. So a
    value above _STR_BITS is built up as a decimal.Decimal from its
    binary halves, lo + hi * 2**w, whose products libmpdec forms by a
    number-theoretic transform, and the Decimal, which has no digit
    limit, is printed. This is CPython 3.12's
    _pylong.int_to_decimal_string.
    """
    if value.bit_length() <= _STR_BITS:
        return str(value)
    import decimal  # here, so small counts never load it

    D = decimal.Decimal
    powers = {}  # w -> D(2)**w, for this call only

    def power(w):
        if w not in powers:
            half = w >> 1
            powers[w] = (D(2) ** w if w <= _BASE_BITS
                         else power(half) * power(w - half))
        return powers[w]

    def convert(n, w):  # n < 2**w
        if w <= _BASE_BITS:
            return D(n)
        half = w >> 1
        hi = n >> half
        return (convert(n - (hi << half), half)
                + convert(hi, w - half) * power(half))

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True  # every step must be exact
        return str(convert(value, value.bit_length()))


@contextmanager
def _output(path):
    """Open the --out path for writing, as a context manager.

    A FIFO, a device or anything else but a regular file is written
    straight into, as standard output is ("" too: open() refuses it). A
    regular file, or a symlink's target, is written as path + ".part" and
    moved onto it only if the block succeeds, so a failed run leaves no
    partial file and an existing file untouched. The new file takes the
    permission bits of the one it replaces, but not its hard links:
    other names of the old file keep the old content.
    """
    if not path or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w") as out:
            yield out
        return
    if os.path.islink(path):
        path = os.path.realpath(path)
    part = path + ".part"
    out = open(part, "w")
    try:
        with out:
            if os.path.isfile(path):
                os.fchmod(out.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            yield out
        os.replace(part, path)
    except BaseException:
        with suppress(OSError):
            os.remove(part)
        raise


def cmd_count(args):
    shape = MatrixShape(args.m, args.n)
    if args.method == "burnside":
        value = count_burnside(shape).value
    else:
        value = sum(1 for _ in _representative_indices(shape, args.method))
    print(_decimal(value))
    return EXIT_OK


def cmd_enumerate(args):
    shape = MatrixShape(args.m, args.n)
    indices = _representative_indices(shape, args.method, args.limit)
    sink = nullcontext(sys.stdout) if args.out is None else _output(args.out)
    # any positive limit, where islice refuses one above sys.maxsize;
    # the range goes first, so zip pulls no word past the limit
    taken = indices if args.limit is None else (
        w for _, w in zip(range(args.limit), indices))
    with sink as out:
        emitted = write_words(shape, taken, args.fmt, out)
        exhausted = next(indices, None) is None
    summary = f"classes={emitted}" if exhausted else f"emitted={emitted}"
    print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_check(args):
    import heapq  # here, so count and enumerate never load it

    shape = MatrixShape(args.m, args.n)
    # both guards before Burnside, so a huge shape fails with the hint
    routes = {method: _representative_indices(shape, method)
              for method in ("sieve", "filter")}
    counts = dict(burnside=count_burnside(shape).value, sieve=0, filter=0)
    # one ascending merge, where each word should come once from each route
    merged = heapq.merge(*(zip(words, itertools.repeat(method))
                           for method, words in routes.items()))
    extra = []  # the first 20 words that do not
    for w, group in itertools.groupby(merged, lambda pair: pair[0]):
        hits = [method for _, method in group]
        for method in hits:
            counts[method] += 1
        if hits != ["filter", "sieve"] and len(extra) < 20:
            extra.append((w, hits))
    ok = len(set(counts.values())) == 1
    for method, value in counts.items():
        print(f"{method}: {value}")
    if not extra:
        print("representative sequences: identical")
    else:
        ok = False
        print("representative sequences: MISMATCH")
        for w, hits in extra:
            where = ("only in " if len(hits) == 1 else "in ") + ", ".join(hits)
            print(f"  {where}: {code_at_index(shape, w).rows}")
    if not ok:
        print("MISMATCH", file=sys.stderr)
        return EXIT_MISMATCH_OR_IO
    print("all methods agree")
    return EXIT_OK


def cmd_oeis(args):
    if not 1 <= args.max_n <= len(A179043):
        print(f"--max-n must be in 1..{len(A179043)} "
              f"(embedded golden values)", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for k in range(1, args.max_n + 1):
        got = count_burnside(MatrixShape(k, k)).value
        expected = A179043[k - 1]
        status = "PASS" if got == expected else "FAIL"
        failures += status == "FAIL"
        print(f"n={k:2d} {status} {got}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH_OR_IO


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handler = {
        "count": cmd_count,
        "enumerate": cmd_enumerate,
        "check": cmd_check,
        "oeis": cmd_oeis,
    }[args.command]
    try:
        return handler(args)
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}\n"
              f"hint: `count --method burnside` counts any shape; "
              f"`enumerate --method filter --limit K` lists the first K "
              f"classes of any shape",
              file=sys.stderr)
        return EXIT_CAPACITY
    except (MemoryError, OverflowError) as exc:
        # an integer the host cannot hold; Burnside fails too, so no hint
        detail = f": {exc}" if str(exc) else ""
        print(f"capacity exceeded: {type(exc).__name__}{detail}",
              file=sys.stderr)
        return EXIT_CAPACITY
    except BrokenPipeError:
        return EXIT_MISMATCH_OR_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, the shell's code for a Ctrl-C death
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH_OR_IO


if __name__ == "__main__":
    sys.exit(main())
