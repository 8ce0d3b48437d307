"""Exact class counts for the torus rotation action.

An analytic orbit count over the translation group of the m x n torus
(exact big integers, any shape). The diagonal values match OEIS
A179043.
"""

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InternalError

# |classes| for shape (k, k), k = 1..12 (OEIS A179043)
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
class OrbitCount:
    value: int
    m: int
    n: int


def translation_cycle_count(i, j, m, n):
    """Number of cell cycles of the translation (i, j) on the m x n torus."""
    return m * n // lcm(m // gcd(i, m), n // gcd(j, n))


def count_burnside(shape):
    """Average fixed-point count over all m*n torus translations.

    Translation (i, j) fixes exactly 2^cycles matrices, one free bit per
    cell cycle. All arithmetic is exact; the divisibility of the sum by
    m*n is asserted rather than assumed.
    """
    m, n = shape.m, shape.n
    total = 0
    for i in range(m):
        for j in range(n):
            total += 1 << translation_cycle_count(i, j, m, n)
    if total % (m * n):
        raise InternalError(
            f"fixed-point sum {total} not divisible by {m * n}"
        )
    return OrbitCount(total // (m * n), m, n)

