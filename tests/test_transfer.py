import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import petdom.transfer as transfer
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

    # sha256 of "\n".join(witness.names()), recorded from an implementation
    # that stored every backward table, with no periodicity or row pruning
    WITNESS_SHA256 = {
        (601, K.PLAIN): "02ed5c153806a1548c6fddbe40785a92daf57ac015689db3a3a6c14af27518cd",
        (601, K.TOTAL): "35b58306b9b12a46d2f29f9ddeb8f5560fdce6d7b82eb5503ee91bd1b89efd08",
        (601, K.ONE_TWO): "b60f327d9caa65019219f3b9cbfbe2b2508704428724413376af3148f5da8d16",
        (601, K.ONE_TWO_TOTAL): "c4721d3a0522ad5cc84c66a1a2e9585f099f70f21733ecd93f4c0367c2c1c2f5",
        (1000, K.PLAIN): "99fd715895a6bf0673f610cf383028333b8dd14a89bf6278e65d7bcd321eadc0",
        (1000, K.TOTAL): "6e690712b7bffc5cb25c6e0fbfac926de63fe7776dc61debf9620308b4286b42",
        (1000, K.ONE_TWO): "124fc66d5d7a71b5432adddc8fff8a70d4874ae9c1e6404f5b0c8d7aa4d03d5b",
        (1000, K.ONE_TWO_TOTAL): "4ae91610791e3af4d5012d6d790f475f9a2c4d826dc1bf6fbfc5abfa8bbb1d50",
        (2000, K.PLAIN): "dbca00c68bab351281ff9a7afa6aa914f5a76b4c96860e9cfd16a5f24c3d3ffd",
        (2000, K.TOTAL): "5c56af11da7f5ce4878d458f206a53b0981b9db21e6d333f0ca901ea8fd4be0c",
        (2000, K.ONE_TWO): "6250054e7e3b39b4ae568bfc6480b860e9df9748d97cc0c0fb3b5ba7fd8a3baa",
        (2000, K.ONE_TWO_TOTAL): "5c56af11da7f5ce4878d458f206a53b0981b9db21e6d333f0ca901ea8fd4be0c",
    }

    @pytest.mark.parametrize("n,kind", list(WITNESS_SHA256), ids=str)
    def test_large_witness_pinned(self, n, kind):
        names = dp_min(n, kind).witness.names()
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert digest == self.WITNESS_SHA256[n, kind]

    @pytest.mark.parametrize("kind", list(K))
    def test_tracemalloc_peak_at_2000(self, kind, monkeypatch):
        # includes building the chain; n + 1 stored 64x64 float32 tables
        # would need 33 MiB
        monkeypatch.setattr(transfer, "_CHAINS", {})
        tracemalloc.start()
        try:
            dp_min(2000, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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


class TestPeriodicChain:
    # (N, p, lam): M^(N+p) = M^N + lam, with N and p the smallest such
    @pytest.mark.parametrize(
        "kind,cycle",
        [
            (K.PLAIN, (17, 5, 3)),
            (K.TOTAL, (18, 3, 2)),
            (K.ONE_TWO, (12, 6, 4)),
            (K.ONE_TWO_TOTAL, (18, 3, 2)),
        ],
    )
    def test_cycle(self, kind, cycle):
        chain = transfer._Chain(kind)
        chain.power(100)
        assert chain.cycle == cycle
        assert len(chain.tables) == cycle[0] + cycle[1]

    @pytest.mark.parametrize("kind", list(K))
    def test_powers_equal_repeated_steps(self, kind):
        chain = transfer._Chain(kind)
        table = chain.tables[0]
        for length in range(80):
            periodic, offset = chain.power(length)
            np.testing.assert_array_equal(periodic + offset, table)
            table = transfer._column_step(table, transfer._ALL_CHOICES, chain)

    def test_extended_only_as_far_as_needed(self):
        chain = transfer._Chain(K.PLAIN)
        chain.power(7)
        assert len(chain.tables) == 8
        assert chain.cycle is None

    def test_concurrent_callers_extend_once(self):
        reference = transfer._Chain(K.ONE_TWO)
        expected = [reference.power(length) for length in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                chain = transfer._Chain(K.ONE_TWO)
                results: dict[int, list] = {}

                def worker(w):
                    results[w] = [chain.power(length) for length in range(w % 3, 40)]

                threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == 8
                assert chain.cycle == reference.cycle
                for w, got in results.items():
                    for (table, offset), (want, base) in zip(got, expected[w % 3:]):
                        np.testing.assert_array_equal(table + offset, want + base)
        finally:
            sys.setswitchinterval(interval)


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
    def test_refused_before_allocating(self, call, monkeypatch):
        # with no cached chain, a guard placed after the chain is built
        # would exceed the bound below
        monkeypatch.setattr(transfer, "_CHAINS", {})
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
        monkeypatch.setattr(transfer, "_MAX_N", 20)
        assert dp_minima(5, 20, K.ONE_TWO) == [f_one_two(n) for n in range(5, 21)]
        assert dp_min(20, K.ONE_TWO).minimum == f_one_two(20)
        with pytest.raises(SizeLimitError):
            dp_minima(5, 21, K.ONE_TWO)
        with pytest.raises(SizeLimitError):
            dp_min(21, K.ONE_TWO)
