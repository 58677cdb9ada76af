import pytest
from hypothesis import given
from hypothesis import strategies as st

from petdom import ParameterError, f_one_two, g_one_two_total, gamma_ref, gamma_t_ref


class TestFOneTwo:
    @pytest.mark.parametrize(
        "n,expected",
        [(5, 4), (6, 4), (7, 5), (8, 6), (9, 6), (10, 8), (11, 8), (12, 8), (13, 9)],
    )
    def test_values(self, n, expected):
        assert f_one_two(n) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError, match="n >= 5"):
            f_one_two(4)

    @given(n=st.integers(11, 4000))
    def test_recurrence(self, n):
        assert f_one_two(n) == f_one_two(n - 6) + 4


class TestGOneTwoTotal:
    @pytest.mark.parametrize("n,expected", [(5, 5), (6, 4), (9, 6), (13, 10)])
    def test_values(self, n, expected):
        assert g_one_two_total(n) == expected

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError, match="n >= 5"):
            g_one_two_total(4)

    @given(n=st.integers(5, 4000))
    def test_equality_pattern(self, n):
        # g equals f except at n = 5 and n = 1 (mod 6)
        if n == 5 or n % 6 == 1:
            assert g_one_two_total(n) == f_one_two(n) + 1
        else:
            assert g_one_two_total(n) == f_one_two(n)


class TestReferenceFormulas:
    @pytest.mark.parametrize("n,expected", [(5, 3), (10, 6), (20, 12)])
    def test_gamma(self, n, expected):
        assert gamma_ref(n) == expected

    @pytest.mark.parametrize("n,expected", [(6, 4), (7, 6), (9, 6)])
    def test_gamma_t(self, n, expected):
        assert gamma_t_ref(n) == expected

    def test_reject_below_3(self):
        with pytest.raises(ParameterError):
            gamma_ref(2)
        with pytest.raises(ParameterError):
            gamma_t_ref(2)


class TestRelations:
    @given(n=st.integers(5, 4000))
    def test_sandwich(self, n):
        assert gamma_ref(n) <= f_one_two(n) <= g_one_two_total(n)

    def test_paper_statements_and_total_domination(self):
        # the paper's piecewise statements, and g's relation to the total
        # domination number
        for n in range(5, 10**4 + 1):
            r = n % 6
            if r in (0, 3):
                f = g = 2 * n // 3
            else:
                f, g = 2 * (n // 3) + (1 if r == 1 else 2), 2 * (n // 3) + 2
            if n == 5:
                g = 5
            assert (f_one_two(n), g_one_two_total(n)) == (f, g), n
            assert n == 5 or g_one_two_total(n) == gamma_t_ref(n), n

    def test_ratio_approaches_ten_ninths(self):
        n = 600
        ratio = f_one_two(n) / gamma_ref(n)
        assert abs(ratio - 10 / 9) < 0.01
