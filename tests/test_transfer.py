import hashlib
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petdom.errors as errors
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
from petdom.constructions import build_construction
from petdom.graph import ColumnForm, VertexSet

K = DominationKind


def column_step(table, choices, m):
    """One backward column under choices, as the suffix tables step it."""
    return transfer._step(table, m.succ[choices], m.cost[choices])


def unpruned_walk(n, kind):
    """dp_min's minimum and witness by a greedy walk that keeps every start
    interface and every interface at every column and skips no period.

    F[t, r] is the cheapest committed prefix from start interface r to
    interface t and T[t, r] the cost of the columns after j from t back
    to r, so a column's bit is set when F stepped under the set option's
    choices plus T reaches the minimum anywhere."""
    chain = transfer._chain(kind)
    identity = np.full((64, 64), np.inf, dtype=np.float32)
    np.fill_diagonal(identity, 0.0)

    def suffixes(choices):
        tables = [identity]
        for length in range(n):
            tables.append(column_step(tables[-1], choices(length), chain))
        return tables

    def forward(table, choices):
        # F'[t, r] = min over s with succ[c, s] = t of F[s, r] + cost[c, s],
        # c the choice named by bits 1 and 5 of t, if it is in choices: c
        # reaches each of its 16 targets from the 4 interfaces that differ
        # in the two bits t drops
        stepped = np.full_like(table, np.inf)
        for c in choices:
            order = np.argsort(chain.succ[c], kind="stable")
            targets = chain.succ[c, order].reshape(16, 4)
            assert (targets == targets[:, :1]).all()
            rows = (table + chain.cost[c])[order].reshape(16, 4, 64).min(axis=1)
            stepped[targets[:, 0]] = rows
        return stepped

    def walk(options, tables):
        table, bits = identity, 0
        for j in range(n):
            yes, no = options(j)
            stepped = forward(table, yes)
            if (stepped + tables[n - 1 - j]).min() == minimum:
                table, bits = stepped, bits | 1 << j
            else:
                table = forward(table, no)
        return bits

    free = suffixes(lambda length: [0, 1, 2, 3])
    minimum = int(np.diagonal(free[n]).min())
    u = walk(lambda j: ([1, 3], [0, 2]), free)
    fixed = suffixes(lambda length: [[0, 2], [1, 3]][u >> n - 1 - length & 1])
    v = walk(lambda j: ([u >> j & 1 | 2], [u >> j & 1]), fixed)
    return minimum, VertexSet(u, v)


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

    # sha256 of "\n\n".join of the texts above over n = lo..hi, and of the
    # one text at n = 10^5, recorded from an implementation that stepped
    # every column of both greedy phases
    RANGE_SHA256 = {
        (5, 150, K.PLAIN): "9800d1a181cd2d69a8524a6a41c5547f326367b844b301d4cdd49eb830677aff",
        (5, 150, K.TOTAL): "60222b28afc3ad6cf4ff7c72174a1f97750509bbd68cca888b3cd08c545d6e5f",
        (5, 150, K.ONE_TWO): "32fac23d0f7235fd1bbe6d68afd2e5f2820b07edd221bc529b53f1645a2d581d",
        (5, 150, K.ONE_TWO_TOTAL): "a43ef7acdfc32175099b68dbf68f5e1f7da07b1f068410c716da36f23b8c344e",
        (9990, 10005, K.PLAIN): "bede48a3d0f94798cb650becad1ba720abf33013f3d3bb2e529006135ba4cce5",
        (9990, 10005, K.TOTAL): "833f4f3d09a1114270302382f410dfff4cb2089e62cfd058418462e69c6dda95",
        (9990, 10005, K.ONE_TWO): "a85e06617d547308db11adf6f0ef37f6ba64b23d6e06e672c3db47c8f08ffc5b",
        (9990, 10005, K.ONE_TWO_TOTAL): "e863bc34fffcc65545d17df67963b9ff8decb80c8c0f7a3ef2a1dda0f2e98b68",
        (10**5, 10**5, K.PLAIN): "7c5120a2cab1134e8d2c431163f60fd043087fbddeef57061e23cc391cca13fe",
        (10**5, 10**5, K.TOTAL): "39899d6df964ca3d53d0d3249692e71a3f613352ebf20440de5dc27669dbad51",
        (10**5, 10**5, K.ONE_TWO): "18397be76de3c82bf8f5dd531af0d0a0bbd45bf688166640c0530e888f08b852",
        (10**5, 10**5, K.ONE_TWO_TOTAL): "dc90342dcc5c9c4a01f58fa6ecaab48a1c14698082a5a148d69dd0e9923025a5",
    }

    @pytest.mark.parametrize("lo,hi,kind", list(RANGE_SHA256), ids=str)
    def test_witness_range_pinned(self, lo, hi, kind):
        texts = ("\n".join(dp_min(n, kind).witness.names()) for n in range(lo, hi + 1))
        digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
        assert digest == self.RANGE_SHA256[lo, hi, kind]

    # sha256 of "\n\n".join of witness.text() over n = 5..60, 997 and 9997,
    # recorded before the minima were read from the closed-tour table
    TEXT_SHA256 = {
        K.PLAIN: "5b51caf89b4aaa6dc338aa21f6a65638634b3a7792129d7d37d25756a45eeb57",
        K.TOTAL: "96dbc5873db56cb5d2c7db4ba67923fee7acad41591cf1109308e20248ef5fbc",
        K.ONE_TWO: "a1a67f0dbde6486430c50ac06509675b3ace92206dc8de70c955bf7634d844f1",
        K.ONE_TWO_TOTAL: "c748638b882b63d3554c207498c4669ecb8d53da17a81910e5e3dc82e476456b",
    }

    @pytest.mark.parametrize("kind", list(K))
    def test_witness_texts_pinned(self, kind):
        texts = [dp_min(n, kind).witness.text() for n in [*range(5, 61), 997, 9997]]
        digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
        assert digest == self.TEXT_SHA256[kind]

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
    def test_cycle(self, kind, cycle, monkeypatch):
        # the whole chain exists on construction: reading a power steps
        # no column
        chain = transfer._Chain(kind)
        assert chain.cycle == cycle
        calls = []
        step = transfer._step
        monkeypatch.setattr(transfer, "_step", lambda *args: calls.append(1) or step(*args))
        assert all(chain.power(length)[0].shape == (64, 64) for length in range(200))
        assert calls == []

    @pytest.mark.parametrize("kind", list(K))
    def test_powers_equal_repeated_steps(self, kind):
        chain = transfer._Chain(kind)
        table, _ = chain.power(0)
        for length in range(80):
            periodic, offset = chain.power(length)
            np.testing.assert_array_equal(periodic + offset, table)
            table = column_step(table, transfer._ALL_CHOICES, chain)

    @pytest.mark.parametrize("kind", list(K))
    def test_one_column_matrix(self, kind):
        # M^1 enumerated from the module docstring: interface bits
        # (u_{j-2}, u_{j-1}, v_{j-4}, v_{j-3}, v_{j-2}, v_{j-1}), choice (a, b)
        expected = np.full((64, 64), np.inf, dtype=np.float32)
        for s in range(64):
            bit = [(s >> i) & 1 for i in range(6)]
            for a in (0, 1):
                for b in (0, 1):
                    if not kind.accepts(bit[0] + a + bit[5], bit[1]):
                        continue  # u_{j-1}
                    if not kind.accepts(bit[2] + b + bit[0], bit[4]):
                        continue  # v_{j-2}
                    out = [bit[1], a, bit[3], bit[4], bit[5], b]
                    t = sum(x << i for i, x in enumerate(out))
                    expected[s, t] = min(expected[s, t], a + b)
        table, offset = transfer._Chain(kind).power(1)
        np.testing.assert_array_equal(table + offset, expected)

    def test_concurrent_callers_match_serial(self, monkeypatch):
        cases = [(kind, n) for kind in K for n in (5, 13)]
        expected = [dp_min(n, kind) for kind, n in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(transfer, "_CHAINS", {})
                results: dict[int, list] = {}

                def worker(w):
                    results[w] = [dp_min(n, kind) for kind, n in cases[w % 3:]]

                threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(results) == 8
                for w, got in results.items():
                    for result, want in zip(got, expected[w % 3:], strict=True):
                        assert result.minimum == want.minimum
                        assert result.witness == want.witness
        finally:
            sys.setswitchinterval(interval)


class TestClosedTours:
    @pytest.mark.parametrize("kind", list(K))
    def test_matches_stepped_tables(self, kind):
        # minimum and live rows of every n against M^n stepped one column at
        # a time from the identity, through four periods past the stored ones
        chain = transfer._Chain(kind)
        N, p, _ = chain.cycle
        table = np.full((64, 64), np.inf, dtype=np.float32)
        np.fill_diagonal(table, 0.0)
        for n in range(N + p + 4 * p + 1):
            diagonal = np.diagonal(table)
            minimum, rows = chain.closed(n)
            assert minimum == int(diagonal.min()), n
            np.testing.assert_array_equal(rows, np.flatnonzero(diagonal == diagonal.min()))
            table = column_step(table, transfer._ALL_CHOICES, chain)

    @pytest.mark.parametrize("kind", list(K))
    def test_dp_minima_steps_no_column(self, kind, monkeypatch):
        # once the chain exists, a range of minima is read off its table:
        # no column step and no power per n
        chain = transfer._chain(kind)
        calls = []
        step, power = transfer._step, chain.power
        monkeypatch.setattr(transfer, "_step", lambda *args: calls.append("step") or step(*args))
        monkeypatch.setattr(chain, "power", lambda L: calls.append("power") or power(L))
        minima = dp_minima(5, 10**5, kind)
        assert calls == []
        assert len(minima) == 10**5 - 4 and minima[-1] == FORMULAS[kind](10**5)


def counting_steps(monkeypatch) -> list[int]:
    """Records every backward column step, as the suffix tables make them."""
    calls = []
    step = transfer._step
    monkeypatch.setattr(transfer, "_step", lambda *args: calls.append(1) or step(*args))
    return calls


def walk_states(monkeypatch) -> list[dict]:
    """Records the live entries leaving every column either greedy walk
    steps: one state per walk column."""
    states = []
    until_repeat = transfer._until_repeat

    def recording(first, step, key):
        walk, start = until_repeat(first, step, key)
        if isinstance(first, dict):
            states.extend(walk[1:])
        return walk, start

    monkeypatch.setattr(transfer, "_until_repeat", recording)
    return states


class TestPeriodicWalk:
    # the greedy phases skip whole periods, so their work does not grow with n
    @pytest.mark.parametrize("kind", list(K))
    def test_column_steps_bounded(self, kind, monkeypatch):
        transfer._chain(kind)
        calls, states = counting_steps(monkeypatch), walk_states(monkeypatch)
        for n in (10**3, 10**4, 10**5):
            calls.clear()
            states.clear()
            dp_min(n, kind)
            assert len(calls) + len(states) < 1000, n

    # deterministic work gates.  At n = 13, 38 column steps in all: phase
    # 2's 12 backward suffix steps and the two walks' 26 columns (a walk
    # that also stepped each option backward took 53/38/38/40 backward
    # steps on top of its columns).  A walk column costs a few Python
    # operations per live entry, and the walks keep these many entries
    # over all their columns
    ENTRIES_AT_13 = {K.PLAIN: 57, K.TOTAL: 52, K.ONE_TWO: 46, K.ONE_TWO_TOTAL: 66}

    @pytest.mark.parametrize(
        "kind,steps",
        [(K.PLAIN, 38), (K.TOTAL, 38), (K.ONE_TWO, 38), (K.ONE_TWO_TOTAL, 38)],
    )
    def test_column_steps_at_13(self, kind, steps, monkeypatch):
        transfer._chain(kind)
        calls, states = counting_steps(monkeypatch), walk_states(monkeypatch)
        dp_min(13, kind)
        assert len(calls) <= 12
        assert len(states) <= steps - 12
        assert sum(map(len, states)) <= self.ENTRIES_AT_13[kind]

    # at n = 9996..9999, where phase 1 skips up to where its live starts'
    # columns repeat, backward steps plus walk columns; skipping up to its
    # start rows' own repeat took 44/101/86/44 (total), 89/74/95/80
    # (one-two) and 53/101/86/53 (one-two-total), and the
    # backward-and-forward walk with phase 1 skipping only from the chain's
    # N took 77/80/119/145, 80/101/97/80, 105/92/95/98 and 80/103/97/80
    # backward steps on top of its columns
    ENTRIES_NEAR_10000 = {
        K.PLAIN: (47, 63, 80, 158),
        K.TOTAL: (24, 64, 42, 24),
        K.ONE_TWO: (60, 58, 96, 84),
        K.ONE_TWO_TOTAL: (30, 84, 48, 30),
    }

    @pytest.mark.parametrize(
        "kind,steps",
        [
            (K.PLAIN, (47, 50, 53, 71)),
            (K.TOTAL, (44, 65, 59, 44)),
            (K.ONE_TWO, (71, 74, 77, 80)),
            (K.ONE_TWO_TOTAL, (53, 74, 68, 53)),
        ],
    )
    def test_column_steps_near_10000(self, kind, steps, monkeypatch):
        transfer._chain(kind)
        calls, states = counting_steps(monkeypatch), walk_states(monkeypatch)
        entries = self.ENTRIES_NEAR_10000[kind]
        for n, bound, most in zip(range(9996, 10000), steps, entries, strict=True):
            calls.clear()
            states.clear()
            dp_min(n, kind)
            assert len(calls) + len(states) <= bound, n
            assert sum(map(len, states)) <= most, n

    @pytest.mark.parametrize("kind", list(K))
    def test_tracemalloc_peak_at_100000(self, kind):
        # the chain is built; storing phase 2's backward family for every
        # column would take 24 MiB per live start row
        transfer._chain(kind)
        tracemalloc.start()
        try:
            dp_min(10**5, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("kind", list(K))
    def test_suffixes_match_stepped_tables(self, kind, monkeypatch):
        # each caller's claimed stretch holds for its choices, and every
        # served table plus its shift equals the table stepped per column:
        # the chain's to L = 200, which phase 1 of dp_min reads, then
        # phase 2's
        suffixes = transfer._suffixes
        calls = []

        def recording(*args):
            calls.append((args, suffixes(*args)))
            return calls[-1][1]

        def check(m, first, choices, top, stretch, served):
            lo, hi, P = stretch
            if top == np.inf:
                top = 200
            for length in range(lo, min(hi, top + 1) - P):
                np.testing.assert_array_equal(choices(length), choices(length + P))
            table = first
            for length in range(top + 1):
                got, offset = served(length)
                np.testing.assert_array_equal(got + offset, table)
                table = column_step(table, choices(length), m)

        monkeypatch.setattr(transfer, "_suffixes", recording)
        monkeypatch.setattr(transfer, "_CHAINS", {})
        chain = transfer._chain(kind)
        [(args, (served, cycle))] = calls
        assert cycle == chain.cycle
        check(*args, served)
        for n in (13, 157, 1000, 1003):
            calls.clear()
            dp_min(n, kind)
            [(inner, (inner_served, inner_cycle))] = calls
            assert inner[3] == n - 1
            if n == 13:
                assert inner_cycle is None
            else:
                # phase 2 repeats inside u's period and steps the columns
                # before it
                lo, hi, _ = inner[4]
                assert lo < 50 and n - 20 < hi < n - 1
                assert inner_cycle is not None
            check(*inner, inner_served)

    @pytest.mark.parametrize("kind", list(K))
    @pytest.mark.parametrize("late", [0, 1])
    def test_suffixes_repeat_at_stretch_end(self, kind, late):
        # the chain's repeat T_(N+p) = T_N + d falls on the stretch's last
        # length, or one past it, where it must not be taken
        chain = transfer._chain(kind)
        N, p, _ = chain.cycle
        hi = N + p - late
        table, _ = chain.power(0)
        served, cycle = transfer._suffixes(
            chain, table, lambda L: transfer._ALL_CHOICES, hi + 12, (0, hi, 1)
        )
        assert cycle == (None if late else chain.cycle)
        for length in range(hi + 13):
            got, offset = served(length)
            np.testing.assert_array_equal(got + offset, table)
            table = column_step(table, transfer._ALL_CHOICES, chain)

    @pytest.mark.parametrize("kind", list(K))
    def test_matches_unskipped_walk(self, kind, monkeypatch):
        # with keys that never repeat, both phases step every column and
        # phase 2 stores its whole backward family
        expected = {n: dp_min(n, kind).witness for n in (157, 311, 1000, 1001, 1002, 1003)}
        until_repeat = transfer._until_repeat
        monkeypatch.setattr(
            transfer,
            "_until_repeat",
            lambda first, step, key: until_repeat(first, step, lambda state, i: i),
        )
        for n, witness in expected.items():
            assert dp_min(n, kind).witness == witness, n

    # the same at any n, so at every residue of each phase's skip bound;
    # the chains are built before the patch, which would never end theirs
    @settings(max_examples=30)
    @given(n=st.integers(5, 400))
    def test_matches_unskipped_walk_at_any_n(self, n):
        expected = [dp_min(n, kind).witness for kind in K]
        until_repeat = transfer._until_repeat
        with mock.patch.object(
            transfer,
            "_until_repeat",
            lambda first, step, key: until_repeat(first, step, lambda state, i: i),
        ):
            assert [dp_min(n, kind).witness for kind in K] == expected

    # the walk keeps only entries that can still close at the minimum: it
    # returns the witness of a walk that prunes nothing
    @pytest.mark.parametrize("kind", list(K))
    def test_matches_unpruned_walk(self, kind):
        for n in range(5, 61):
            result = dp_min(n, kind)
            assert (result.minimum, result.witness) == unpruned_walk(n, kind), n

    @settings(max_examples=20)
    @given(n=st.integers(5, 400))
    def test_matches_unpruned_walk_at_any_n(self, n):
        for kind in K:
            result = dp_min(n, kind)
            assert (result.minimum, result.witness) == unpruned_walk(n, kind), kind

    @staticmethod
    def repeat_bound(kind, n, rows=None):
        """The earliest L_r <= N from which the columns rows of M^L (by
        default n's start rows) repeat, M^(L+p)[:, rows] = M^L[:, rows] + d,
        read off the served powers one length at a time."""
        chain = transfer._chain(kind)
        N, p, d = chain.cycle
        if rows is None:
            _, rows = chain.closed(n)

        def column(L):
            table, offset = chain.power(L)
            return table[:, rows] + offset

        repeats = [np.array_equal(column(L + p), column(L) + d) for L in range(N + 1)]
        assert repeats[N]
        return min(L for L in range(N + 1) if all(repeats[L:]))

    @pytest.mark.parametrize("kind", list(K))
    def test_since_is_each_columns_repeat_bound(self, kind):
        # one length per column holds only because a column that repeats
        # from L repeats from every longer L
        chain = transfer._chain(kind)
        bounds = [self.repeat_bound(kind, 0, [t]) for t in range(64)]
        assert chain.since.tolist() == bounds

    # phase 1's repeat walk may step column j only while the suffix table
    # read a period later, T_(n-1-j-P), is where the start rows' columns
    # repeat, n - 1 - j - P >= L_r; at these n it finds no repeat and runs
    # to that bound, which is below the chain's N for plain and one-two
    @pytest.mark.parametrize(
        "kind,n", [(K.PLAIN, 24), (K.TOTAL, 22), (K.ONE_TWO, 19), (K.ONE_TWO_TOTAL, 22)]
    )
    def test_phase1_walk_stops_at_its_bound(self, kind, n, monkeypatch):
        N, P, _ = transfer._chain(kind).cycle
        bound = self.repeat_bound(kind, n)
        assert (bound < N) == (kind in (K.PLAIN, K.ONE_TWO))
        walks = []
        until_repeat = transfer._until_repeat

        def recording(first, step, key):
            if not isinstance(first, dict):
                return until_repeat(first, step, key)
            walks.append(columns := [])

            def stepping(walk, i):
                state = step(walk, i)
                if state is not None:
                    columns.append(i)
                return state

            return until_repeat(first, stepping, key)

        monkeypatch.setattr(transfer, "_until_repeat", recording)
        dp_min(n, kind)
        phase1 = walks[0]  # it starts at column 0, so step i is column i
        assert min(n - 1 - j - P for j in phase1) == bound

    # where phase 1 repeats, it tiles whole periods up to n - L_r of the
    # starts still live at its repeat: its stretch (a, b, q) ends within
    # one period q of that bound
    @pytest.mark.parametrize("n", [9996, 9997, 1001])
    @pytest.mark.parametrize("kind", list(K))
    def test_phase1_skip_reaches_its_bound(self, kind, n, monkeypatch):
        stretches, walks = [], []
        greedy_bits, until_repeat = transfer._greedy_bits, transfer._until_repeat

        def recording(*args):
            result = greedy_bits(*args)
            stretches.append(result[2])
            return result

        def repeats(first, step, key):
            result = until_repeat(first, step, key)
            if isinstance(first, dict):
                walks.append(result)
            return result

        monkeypatch.setattr(transfer, "_greedy_bits", recording)
        monkeypatch.setattr(transfer, "_until_repeat", repeats)
        dp_min(n, kind)
        (*_, repeat), start = walks[0]
        assert start is not None
        _, b, q = stretches[0]
        live = sorted({r for r, _ in repeat})
        hi = n - self.repeat_bound(kind, n, live)
        assert b <= hi < b + q


class TestIntegerMinimum:
    @pytest.mark.parametrize("kind", list(K))
    def test_dp_minima_past_float_precision(self, kind):
        # float32 holds integers exactly only to 2^24 and float64 to 2^53
        formula = FORMULAS[kind]
        for lo in (2**25, 10**12, 10**18):
            assert dp_minima(lo, lo + 12, kind) == [formula(n) for n in range(lo, lo + 13)]


class TestSizeGuard:
    # dp_min materialises O(n) bits, witness and validation arrays,
    # dp_minima one int per n in lo..hi, and build_construction O(n)
    # membership arrays
    @pytest.mark.parametrize(
        "call",
        [
            lambda: dp_min(2**23 + 1, K.ONE_TWO),
            lambda: dp_minima(10, 10 + 2**23, K.ONE_TWO),
            lambda: build_construction(2**23 + 1, K.ONE_TWO),
            lambda: build_construction(2**23 + 1, K.ONE_TWO_TOTAL),
        ],
        ids=["dp_min", "dp_minima", "construction", "construction-total"],
    )
    def test_refused_before_allocating(self, call, monkeypatch):
        # with no cached chain, a guard placed after the chain is built
        # would exceed the bound below
        monkeypatch.setattr(transfer, "_CHAINS", {})
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=r"at most 2\^23 = 8388608 columns"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # one 64x64 float32 table is 16 KiB

    def test_bound_is_inclusive(self, monkeypatch):
        # a lowered bound shows the guard refuses more than bound columns,
        # not bound or more
        monkeypatch.setattr(errors, "MAX_COLUMNS", 20)
        assert dp_minima(5, 24, K.ONE_TWO) == [f_one_two(n) for n in range(5, 25)]
        assert dp_min(20, K.ONE_TWO).minimum == f_one_two(20)
        assert build_construction(20, K.ONE_TWO).size == f_one_two(20)
        with pytest.raises(SizeLimitError):
            dp_minima(5, 25, K.ONE_TWO)
        with pytest.raises(SizeLimitError):
            dp_min(21, K.ONE_TWO)
        with pytest.raises(SizeLimitError):
            build_construction(21, K.ONE_TWO)

    # per-column tables and sets of the graph and of a column form, each
    # refused before any of it is built
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: build_petersen(n, 2).neighbor_table(),
            lambda n: build_petersen(n, 2).vertex_set(),
            lambda n: ColumnForm((0, 0, 0), (1, 1, 1), n, (0, 0, 0)).vertex_set(),
        ],
        ids=["neighbor_table", "graph-vertex_set", "form-vertex_set"],
    )
    def test_per_column_calls_guarded(self, call, monkeypatch):
        monkeypatch.setattr(errors, "MAX_COLUMNS", 20)
        call(20)
        with pytest.raises(SizeLimitError):
            call(21)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                call(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
