import tracemalloc

import pytest

from petdom import (
    DominationKind,
    ParameterError,
    SizeLimitError,
    SolveMethod,
    brute_force_min,
    build_petersen,
    dp_min,
    dp_minima,
    f_one_two,
    g_one_two_total,
    gamma_ref,
    gamma_t_ref,
    is_valid,
)

K = DominationKind


class TestDpExamples:
    @pytest.mark.parametrize(
        "n,kind,expected",
        [
            (12, K.ONE_TWO, 8),
            (13, K.ONE_TWO, 9),
            (13, K.ONE_TWO_TOTAL, 10),
            (20, K.PLAIN, 12),
            (9, K.TOTAL, 6),
        ],
    )
    def test_examples(self, n, kind, expected):
        result = dp_min(n, kind)
        assert result.minimum == expected
        assert result.method is SolveMethod.TRANSFER_DP
        assert result.k == 2

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError, match="n >= 5"):
            dp_min(4, K.ONE_TWO)


class TestWitness:
    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("kind", list(K))
    def test_matches_brute_force_exactly(self, n, kind):
        # same minimum and the same lexicographically-smallest witness
        rb = brute_force_min(build_petersen(n, 2), kind)
        rd = dp_min(n, kind)
        assert rd.minimum == rb.minimum
        assert rd.witness.members == rb.witness.members

    @pytest.mark.parametrize("n", [17, 40, 97])
    @pytest.mark.parametrize("kind", list(K))
    def test_witness_sound_at_larger_n(self, n, kind):
        result = dp_min(n, kind)
        assert len(result.witness) == result.minimum
        assert is_valid(build_petersen(n, 2), result.witness, kind).valid


class TestFormulaAgreement:
    # short ranges here; the full 5..200 sweep lives in the acceptance suite
    @pytest.mark.parametrize("n", range(5, 41))
    def test_window(self, n):
        assert dp_min(n, K.ONE_TWO).minimum == f_one_two(n)
        assert dp_min(n, K.ONE_TWO_TOTAL).minimum == g_one_two_total(n)
        assert dp_min(n, K.PLAIN).minimum == gamma_ref(n)
        assert dp_min(n, K.TOTAL).minimum == gamma_t_ref(n)

    def test_large_n(self):
        assert dp_min(601, K.ONE_TWO).minimum == f_one_two(601)
        assert dp_min(601, K.ONE_TWO_TOTAL).minimum == g_one_two_total(601)


FORMULAS = {
    K.PLAIN: gamma_ref,
    K.TOTAL: gamma_t_ref,
    K.ONE_TWO: f_one_two,
    K.ONE_TWO_TOTAL: g_one_two_total,
}


class TestDpMinima:
    @pytest.mark.parametrize("kind", list(K))
    def test_equals_dp_min(self, kind):
        assert dp_minima(5, 60, kind) == [dp_min(n, kind).minimum for n in range(5, 61)]

    @pytest.mark.parametrize("kind", list(K))
    def test_equals_formulas_to_5000(self, kind):
        formula = FORMULAS[kind]
        assert dp_minima(5, 5000, kind) == [formula(n) for n in range(5, 5001)]

    @pytest.mark.parametrize("kind", list(K))
    def test_suffix_of_full_range(self, kind):
        full = dp_minima(5, 90, kind)
        for lo in (5, 6, 11, 47, 90):
            assert dp_minima(lo, 90, kind) == full[lo - 5:]

    def test_single_row(self):
        assert dp_minima(13, 13, K.ONE_TWO_TOTAL) == [10]

    def test_rejects_lo_below_5(self):
        with pytest.raises(ParameterError, match="lo >= 5"):
            dp_minima(4, 10, K.PLAIN)

    def test_rejects_empty_range(self):
        with pytest.raises(ParameterError, match="lo <= hi"):
            dp_minima(10, 9, K.PLAIN)


class TestExactnessGuard:
    # float32 costs are exact up to 2^24 and a column costs at most 2
    @pytest.mark.parametrize(
        "call",
        [
            lambda: dp_min(2**23 + 1, K.ONE_TWO),
            lambda: dp_minima(5, 2**23 + 1, K.ONE_TWO),
            lambda: dp_minima(2**23 + 1, 2**23 + 1, K.ONE_TWO),
        ],
        ids=["dp_min", "dp_minima", "dp_minima_single"],
    )
    def test_refused_before_allocating(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=r"n <= 2\^23 = 8388608"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # one 64x64 float32 table is 16 KiB

    def test_bound_is_inclusive(self, monkeypatch):
        # a lowered bound shows the guard refuses n > bound, not n >= bound
        import petdom.transfer as transfer

        monkeypatch.setattr(transfer, "_MAX_N", 20)
        assert dp_minima(5, 20, K.ONE_TWO) == [f_one_two(n) for n in range(5, 21)]
        assert dp_min(20, K.ONE_TWO).minimum == f_one_two(20)
        with pytest.raises(SizeLimitError):
            dp_minima(5, 21, K.ONE_TWO)
        with pytest.raises(SizeLimitError):
            dp_min(21, K.ONE_TWO)
