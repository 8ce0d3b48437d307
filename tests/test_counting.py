import pytest

from torus_orbits import A179043, MatrixShape, count_burnside
from torus_orbits.counting import _divisor_totients

import oracles


class TestBurnside:
    @pytest.mark.parametrize("k,expected", [
        (1, 2), (2, 7), (3, 64), (4, 4156),
        (10, 12676506002282327791964489728),
    ])
    def test_diagonal_values(self, k, expected):
        assert count_burnside(MatrixShape(k, k)).value == expected

    def test_embedded_table_matches(self):
        for k, expected in enumerate(A179043, start=1):
            assert count_burnside(MatrixShape(k, k)).value == expected

    def test_2x3(self):
        assert count_burnside(MatrixShape(2, 3)).value == 14

    def test_symmetry(self):
        for m in range(1, 13):
            for n in range(1, 13):
                assert count_burnside(MatrixShape(m, n)).value == \
                    count_burnside(MatrixShape(n, m)).value

    def test_necklace_marginal(self):
        for n in range(1, 17):
            assert count_burnside(MatrixShape(1, n)).value == \
                oracles.necklace_count(n)

    def test_orbit_size_bounds(self):
        for m, n in [(1, 1), (3, 5), (6, 6)]:
            value = count_burnside(MatrixShape(m, n)).value
            assert value <= 1 << (m * n)
            assert value * m * n >= 1 << (m * n)

    def test_identity_translation_fixes_everything(self):
        assert oracles.translation_cycle_count(0, 0, 5, 7) == 35

    def test_cycle_counts_bounded(self):
        for m, n in [(4, 6), (5, 5)]:
            for i in range(m):
                for j in range(n):
                    c = oracles.translation_cycle_count(i, j, m, n)
                    assert 1 <= c <= m * n

    def test_matches_translation_loop(self):
        # the divisor-pair sum against the literal m*n translation loop
        for m in range(1, 41):
            for n in range(1, 41):
                assert count_burnside(MatrixShape(m, n)).value == \
                    oracles.translation_burnside_count(m, n), (m, n)

    @pytest.mark.parametrize("p,q", [(509, 521), (1009, 1013), (1009, 1009)])
    def test_prime_sides_closed_form(self, p, q):
        # translations of order (1, 1), (p, 1), (1, q) and (p, q); for
        # p == q the last three merge into p^2 - 1 translations of order p
        if p == q:
            total = (1 << p * p) + (p * p - 1) * (1 << p)
        else:
            total = ((1 << p * q) + (p - 1) * (1 << q) + (q - 1) * (1 << p)
                     + 2 * (p - 1) * (q - 1))
        assert total % (p * q) == 0
        assert count_burnside(MatrixShape(p, q)).value == total // (p * q)


class TestDivisorTotients:
    def test_small(self):
        for k in range(1, 2001):
            pairs = _divisor_totients(k)
            assert pairs[0] == (1, 1)
            assert sorted(d for d, _ in pairs) == \
                [d for d in range(1, k + 1) if k % d == 0]
            assert sum(phi for _, phi in pairs) == k
            # phi(d) as listed for k agrees with phi(d) listed for d
            for d, phi in pairs:
                assert dict(_divisor_totients(d))[d] == phi

    @pytest.mark.parametrize("k,count", [
        (1 << 31, 32), ((1 << 31) - 1, 2), (10 ** 11, 144),
        (1000003 * 1000033, 4),
    ])
    def test_large_k_by_factorization(self, k, count):
        # trial division to sqrt(k): a scan of 1..k would not finish
        pairs = _divisor_totients(k)
        divisors = [d for d, _ in pairs]
        assert len(set(divisors)) == len(divisors) == count
        assert all(k % d == 0 for d in divisors)
        assert sum(phi for _, phi in pairs) == k


class TestBruteforce:
    # the exhaustive oracle that criterion 6 checks Burnside against
    @pytest.mark.parametrize("m,n,expected", [
        (1, 1, 2), (1, 4, 6), (2, 2, 7), (2, 3, 14), (3, 3, 64),
    ])
    def test_small_counts(self, m, n, expected):
        assert oracles.orbit_partition_count(m, n) == expected

    def test_low_digits_by_modular_sum(self):
        # the oracle for the last digits of counts too long to sum here
        for m in range(1, 25):
            for n in range(1, 25):
                assert oracles.burnside_count_mod(m, n, 10 ** 20) == \
                    oracles.translation_burnside_count(m, n) % 10 ** 20
