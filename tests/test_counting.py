import pytest

from torus_orbits import A179043, MatrixShape, count_burnside
from torus_orbits.counting import translation_cycle_count

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
        assert translation_cycle_count(0, 0, 5, 7) == 35

    def test_cycle_counts_bounded(self):
        for m, n in [(4, 6), (5, 5)]:
            for i in range(m):
                for j in range(n):
                    c = translation_cycle_count(i, j, m, n)
                    assert 1 <= c <= m * n



class TestBruteforce:
    # the exhaustive oracle that criterion 6 checks Burnside against
    @pytest.mark.parametrize("m,n,expected", [
        (1, 1, 2), (1, 4, 6), (2, 2, 7), (2, 3, 14), (3, 3, 64),
    ])
    def test_small_counts(self, m, n, expected):
        assert oracles.orbit_partition_count(m, n) == expected
