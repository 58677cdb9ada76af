from itertools import product

import numpy as np
import pytest

import petdom.solver as solver
import petdom.transfer as transfer
from petdom import (
    DominationKind,
    InfeasibleError,
    InternalError,
    PairProfile,
    ParameterError,
    Ring,
    SizeLimitError,
    SolveMethod,
    SolveResult,
    Vertex,
    VertexSet,
    blocks_by_count,
    brute_force_min,
    build_petersen,
    check_eq1,
    dp_min,
    dp_minima,
    enumerate_eq1,
    f_one_two,
    pair_profile,
)
from petdom.domination import counts

K = DominationKind


class TestBruteForce:
    @pytest.mark.parametrize(
        "n,kind,expected",
        [
            (5, K.ONE_TWO, 4),
            (5, K.ONE_TWO_TOTAL, 5),
            (7, K.ONE_TWO, 5),
            (6, K.PLAIN, 4),
        ],
    )
    def test_examples(self, n, kind, expected):
        result = brute_force_min(build_petersen(n, 2), kind)
        assert result.minimum == expected
        assert result.method is SolveMethod.BRUTE_FORCE

    def test_size_limit(self):
        with pytest.raises(SizeLimitError, match="2n <= 26"):
            brute_force_min(build_petersen(14, 2), K.ONE_TWO)

    def test_budget_infeasible(self):
        g = build_petersen(6, 2)
        with pytest.raises(InfeasibleError):
            brute_force_min(g, K.ONE_TWO, budget=3)

    def test_budget_attainable(self):
        g = build_petersen(6, 2)
        assert brute_force_min(g, K.ONE_TWO, budget=4).minimum == 4

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError, match=r"^budget must satisfy budget >= 0, got budget=-1$"):
            brute_force_min(build_petersen(6, 2), K.ONE_TWO, budget=-1)

    @pytest.mark.parametrize("budget", [True, False, 3.5, 4.0, "4"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ParameterError, match=r"^budget must be an integer, got "):
            brute_force_min(build_petersen(6, 2), K.ONE_TWO, budget=budget)

    def test_numpy_integer_budget(self):
        g = build_petersen(6, 2)
        assert brute_force_min(g, K.ONE_TWO, budget=np.int64(4)).minimum == 4
        with pytest.raises(InfeasibleError, match=r"size <= 3 exists"):
            brute_force_min(g, K.ONE_TWO, budget=np.uint8(3))

    def test_witness_is_lex_smallest(self):
        # exhaustive oracle over all 4-subsets of P(5,2)
        from itertools import combinations

        from petdom import is_valid

        g = build_petersen(5, 2)
        verts = list(g.vertices())
        valid_sets = [
            combo
            for combo in combinations(range(10), 4)
            if is_valid(g, VertexSet.of(verts[i] for i in combo), K.ONE_TWO).valid
        ]
        best = VertexSet.of(verts[i] for i in min(valid_sets))
        got = brute_force_min(g, K.ONE_TWO).witness
        assert got.members == best.members

    def test_witnesses_pinned(self):
        # sha256 of "\n".join of "{n} {k} {kind} {minimum} {witness.text()}"
        # over n = 5..13, every 1 <= k < n/2 and every kind, recorded while
        # a second, canonical-order search picked the witness
        import hashlib

        lines = []
        for n in range(5, 14):
            for k in range(1, (n + 1) // 2):
                g = build_petersen(n, k)
                for kind in K:
                    r = brute_force_min(g, kind)
                    lines.append(f"{n} {k} {kind.value} {r.minimum} {r.witness.text()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d12a56f6073966e0d694fb35564d7937214fc4e7f17b0d599f471d0d93f9f2a9"

    def test_works_on_other_k(self):
        g = build_petersen(7, 3)
        result = brute_force_min(g, K.PLAIN)
        assert result.k == 3
        assert result.minimum >= 1


class TestExactSearch:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_enumeration(self, n):
        # every subset of every size, no search: row x of bits is the set
        # whose rank r (u_0..u_{n-1}, then v_0..v_{n-1}) is bit r of x
        x = np.arange(1 << 2 * n)
        bits = (x[:, None] >> np.arange(2 * n)) & 1
        outer, inner = bits[:, :n].T, bits[:, n:].T
        sizes = bits.sum(axis=1)
        # search masks are over positions: u_i is at 2i, v_i at 2i + 1
        at = [2 * (r % n) + r // n for r in range(2 * n)]

        def ranks(mask):
            return sum(1 << r for r, p in enumerate(at) if mask >> p & 1)

        # (inside, outside) position masks; inside holds u_0's position 0
        forced = [(1, 0), (0b100001, 0b100), (1 | 1 << 2 * n - 1, 0b10010), (0b111, 0b11000)]
        gaps, outcomes = 0, set()
        for k in range(1, (n + 1) // 2):
            g = build_petersen(n, k)
            cu, cv = counts(n, k, outer, inner)
            for kind in K:
                valid = (kind.accepts(cu, outer) & kind.accepts(cv, inner)).all(axis=0)
                search = solver._ExactSearch(g, kind)
                for m in range(2 * n + 1):
                    rows = np.flatnonzero(valid & (sizes == m))
                    expected = None
                    if len(rows):
                        # the valid m-set with the smallest sorted rank list
                        members = np.nonzero(bits[rows])[1].reshape(len(rows), m)
                        row = int(rows[np.lexsort(members.T[::-1])[0]])
                        expected = VertexSet(row & (1 << n) - 1, row >> n)
                    elif valid[sizes < m].any():
                        # above the minimum, the search that includes u_0
                        # runs to the end without a find
                        gaps += 1
                    assert search.smallest(m) == expected, (k, kind, m)
                    assert (search.search(m) is None) == (expected is None), (k, kind, m)
                    for inside, outside in forced:
                        want = valid & (sizes == m)
                        want &= (x & ranks(inside) == ranks(inside)) & (x & ranks(outside) == 0)
                        found = search.search(m, inside, outside)
                        outcomes.add(found is None)
                        if found is None:
                            assert not want.any(), (k, kind, m, inside, outside)
                        else:
                            assert want[ranks(found)], (k, kind, m, inside, outside)
        assert gaps and outcomes == {True, False}

    def test_outer_ring_is_valid_of_every_kind(self):
        # why search only includes u_0: a valid set with no outer vertex is
        # the inner ring, at m = n, where the outer ring (holding u_0) is
        # valid too, since each u_i has two outer neighbours and v_i has u_i
        from petdom import is_valid

        for n in range(3, 41):
            for k in range(1, (n + 1) // 2):
                g = build_petersen(n, k)
                ring = VertexSet((1 << n) - 1, 0)
                for kind in K:
                    assert is_valid(g, ring, kind).valid, (n, k, kind)

    def test_node_count(self, monkeypatch):
        # a deterministic work gate: the plain call, which proves m = 7 and
        # m = 8 infeasible and then fixes the smallest 9-set rank by rank,
        # and the budget call, which only proves, enter _dfs 6,085 times in
        # all, 1,912 of them in the budget call (7,935 when a second,
        # canonical-order search picked the witness; a canonical search of
        # every size took about 39,000 calls, about 100,000 without the
        # rotation cut)
        calls = []
        dfs = solver._ExactSearch._dfs

        def counting(self, *args):
            calls.append(1)
            return dfs(self, *args)

        monkeypatch.setattr(solver._ExactSearch, "_dfs", counting)
        g = build_petersen(13, 2)
        assert brute_force_min(g, K.ONE_TWO).minimum == f_one_two(13)
        plain = len(calls)
        with pytest.raises(InfeasibleError):
            brute_force_min(g, K.ONE_TWO, budget=f_one_two(13) - 1)
        assert len(calls) - plain <= 2_200
        assert len(calls) <= 6_500

    @pytest.mark.parametrize("kind", list(K))
    def test_matches_dp_over_base_range(self, kind, monkeypatch):
        # the closed forms for all n rest on the DP's minima for n = 5..N+p,
        # (N, p) the chain's cycle: the search, which shares no code with the
        # transfer matrix, confirms each minimum and witness, past 2n = 26
        N, p, _ = transfer._chain(kind).cycle
        monkeypatch.setattr(solver, "BRUTE_FORCE_VERTEX_LIMIT", 2 * (N + p))
        minima = dp_minima(5, N + p, kind)
        for n, minimum in zip(range(5, N + p + 1), minima, strict=True):
            result = brute_force_min(build_petersen(n, 2), kind)
            assert result.minimum == minimum, n
            assert result.witness == dp_min(n, kind).witness, n


class TestSolveResultInvariant:
    def test_rejects_wrong_size(self):
        g = build_petersen(5, 2)
        witness = brute_force_min(g, K.ONE_TWO).witness
        with pytest.raises(InternalError, match="size"):
            SolveResult(5, 2, K.ONE_TWO, 5, witness, SolveMethod.BRUTE_FORCE)

    def test_rejects_invalid_witness(self):
        bad = VertexSet.from_names("u0,u1,u2,u3", 5)
        with pytest.raises(InternalError, match="validation"):
            SolveResult(5, 2, K.ONE_TWO, 4, bad, SolveMethod.BRUTE_FORCE)


class TestPairProfile:
    def test_s6(self):
        g = build_petersen(6, 2)
        S = VertexSet.from_names("u1,v1,u4,v4", 6)
        assert pair_profile(g, S).values == (0, 2, 0, 0, 2, 0)

    def test_empty(self):
        g = build_petersen(6, 2)
        assert pair_profile(g, VertexSet.of([])).values == (0,) * 6

    def test_full(self):
        g = build_petersen(6, 2)
        assert pair_profile(g, g.vertex_set()).values == (2,) * 6

    def test_rejects_negative_index(self):
        g = build_petersen(5, 2)
        with pytest.raises(ParameterError, match="u-1"):
            pair_profile(g, VertexSet.of([Vertex(Ring.OUTER, -1)]))

    def test_rejects_index_outside_n(self):
        g = build_petersen(5, 2)
        S = VertexSet.of([Vertex(Ring.OUTER, 7)])
        with pytest.raises(ParameterError, match=r"vertex u7 has index outside \[0, 5\)"):
            pair_profile(g, S)


class TestCheckEq1:
    def test_rotation_pattern_n10(self):
        x = PairProfile((1, 1, 0, 1, 1, 0, 1, 1, 0, 1))
        report = check_eq1(x, 10)
        assert report.bounds_ok and report.window_ok and report.sum_ok
        assert sum(x.values) == 7 < f_one_two(10)

    def test_s6_profile_sum_not_below_minimum(self):
        report = check_eq1(PairProfile((0, 2, 0, 0, 2, 0)), 6)
        assert report.window_ok
        assert not report.sum_ok

    def test_all_zero(self):
        report = check_eq1(PairProfile((0,) * 8), 8)
        assert not report.window_ok

    def test_bounds(self):
        report = check_eq1(PairProfile((3, 0, 0, 0, 0, 0)), 6)
        assert not report.bounds_ok

    @pytest.mark.parametrize(
        "entry", [0.5, 1.0, -1, 3, True, np.float64(1), np.bool_(True)]
    )
    def test_bounds_refuse_non_integers(self, entry):
        # profile entries are member counts: only int and numpy integers
        # in [0, 2] are in bounds
        values = (1, 1, 0) * 3 + (entry,)
        assert not check_eq1(PairProfile(values), 10).bounds_ok

    @pytest.mark.parametrize("entry", [1, np.int64(1), np.uint8(1)])
    def test_bounds_take_numpy_integers(self, entry):
        report = check_eq1(PairProfile((1, 1, 0) * 3 + (entry,)), 10)
        assert report.bounds_ok and report.window_ok and report.sum_ok

    @pytest.mark.parametrize("entry", ["1", None, 1.0, 0.5])
    def test_non_numbers_fail_every_check(self, entry):
        # a profile that is not made of counts has no windows or sum to check
        report = check_eq1(PairProfile((entry,) * 10), 10)
        assert (report.bounds_ok, report.window_ok, report.sum_ok) == (False,) * 3
        mixed = check_eq1(PairProfile((1, 1, 0) * 3 + (entry,)), 10)
        assert (mixed.bounds_ok, mixed.window_ok, mixed.sum_ok) == (False,) * 3

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            check_eq1(PairProfile((1, 1)), 6)


def exhaustive_eq1(n):
    """Independent oracle: test every sequence in {0,1,2}^n directly."""
    target = f_one_two(n)
    out = []
    for vals in product(range(3), repeat=n):
        if sum(vals) >= target:
            continue
        if all(vals[i] + vals[(i + 1) % n] + vals[(i + 2) % n] >= 2 for i in range(n)):
            out.append(vals)
    return out


def rotations(vals):
    n = len(vals)
    return {tuple(vals[(i + r) % n] for i in range(n)) for r in range(n)}


class TestEnumerateEq1:
    def test_matches_exhaustive_oracle_n10(self):
        got = [x.values for x in enumerate_eq1(10)]
        assert got == sorted(exhaustive_eq1(10))

    def test_n10_is_rotation_class(self):
        got = {x.values for x in enumerate_eq1(10)}
        assert got == rotations((1, 1, 0, 1, 1, 0, 1, 1, 0, 1))
        assert len(got) == 10

    @pytest.mark.parametrize("n", [12, 13])
    def test_empty_matches_oracle(self, n):
        assert enumerate_eq1(n) == []
        assert exhaustive_eq1(n) == []

    def test_n16_rotations(self):
        got = {x.values for x in enumerate_eq1(16)}
        assert got == rotations((1, 1, 0) * 5 + (1,))
        assert len(got) == 16

    def test_guards(self):
        with pytest.raises(ParameterError):
            enumerate_eq1(21)
        with pytest.raises(ParameterError):
            enumerate_eq1(4)

    def test_lexicographic_order(self):
        got = [x.values for x in enumerate_eq1(10)]
        assert got == sorted(got)


class TestProfileConsistency:
    def test_one_two_witnesses(self):
        # when no block holds exactly one member, every 3-column window of
        # the profile carries at least 2; the sum is never below f(n)
        for n in range(5, 13):
            g = build_petersen(n, 2)
            S = brute_force_min(g, K.ONE_TWO).witness
            if blocks_by_count(g, S)[1]:
                continue
            report = check_eq1(pair_profile(g, S), n)
            assert report.bounds_ok
            assert report.window_ok
            assert not report.sum_ok
