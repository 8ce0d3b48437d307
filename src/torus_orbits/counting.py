"""Exact class counts for the torus rotation action.

An analytic orbit count over the translation group of the m x n torus
(exact big integers, any shape). The diagonal values match OEIS
A179043.
"""

from dataclasses import dataclass
from math import lcm

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


def _divisor_totients(k):
    """Each divisor d of k with Euler's phi(d), (1, 1) first.

    Built from one trial-division factorization of k: O(sqrt(k))
    divisions, no scan of 1..k.
    """
    pairs = [(1, 1)]
    p = 2
    while k > 1:
        if p * p > k:
            p = k  # what is left is prime
        if k % p == 0:
            powers = []
            q, phi_q = p, p - 1
            while k % p == 0:
                k //= p
                powers.append((q, phi_q))
                q, phi_q = q * p, phi_q * p
            pairs += [(d * e, t * u) for d, t in pairs for e, u in powers]
        p += 1
    return pairs


def count_burnside(shape):
    """Average fixed-point count over all m*n torus translations.

    A translation of order (a, b), a | m and b | n, has mn / lcm(a, b)
    cell cycles, so it fixes 2^(mn / lcm(a, b)) matrices, one free bit
    per cycle; phi(a) * phi(b) translations have that order. The sum
    therefore has d(m) * d(n) terms, not m * n. The identity's term,
    2^(mn), comes before any factoring, so a shape too large for the
    host fails on its first shift. All arithmetic is exact; the
    divisibility of the sum by m*n is asserted rather than assumed.
    """
    m, n = shape.m, shape.n
    total = 1 << (m * n)  # the identity's term
    col_orders = _divisor_totients(n)
    for a, phi_a in _divisor_totients(m):
        for b, phi_b in col_orders[a == 1:]:  # (1, 1) is counted
            total += phi_a * phi_b << (m * n // lcm(a, b))
    if total % (m * n):
        raise InternalError(
            f"fixed-point sum {total} not divisible by {m * n}"
        )
    return OrbitCount(total // (m * n))
