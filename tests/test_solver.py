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
from petdom.graph import PetersenGraph

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
        with pytest.raises(SizeLimitError, match="2n <= 44, got 2n=46"):
            brute_force_min(build_petersen(23, 2), K.ONE_TWO)
        with pytest.raises(SizeLimitError, match="2n <= 26, got 2n=28"):
            brute_force_min(build_petersen(14, 3), K.ONE_TWO)

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
        gaps = 0
        for k in range(1, (n + 1) // 2):
            g = build_petersen(n, k)
            cu, cv = counts(k, outer, inner)
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
                        # above the minimum, the search over necklace
                        # outer strings runs to the end without a find
                        gaps += 1
                    assert search.smallest(m) == expected, (k, kind, m)
        assert gaps

    @pytest.mark.parametrize("n", range(3, 14))
    def test_tables_match_neighbor_ranks(self, n):
        # masks are over ranks, bit r for rank r; positions are the decision
        # order, column by column.  rank[p]: the rank decided at position p;
        # nb[p]: the neighbour ranks of rank[p]; fin[p]: the ranks whose
        # closed neighbourhood is decided below p; undecided[p]: the ranks
        # decided at p and later.  None depends on the kind
        for k in range(1, (n + 1) // 2):
            g = build_petersen(n, k)
            search = solver._ExactSearch(g, K.PLAIN)
            columns = sorted(g.vertices(), key=lambda v: (v.index, v.ring is Ring.INNER))
            rank = [g.rank(v) for v in columns]
            at = {r: p for p, r in enumerate(rank)}
            last = {r: max(at[w] for w in (r, *g.neighbor_ranks(r))) for r in rank}
            assert search.rank == rank, k
            assert search.nb == [sum(1 << w for w in g.neighbor_ranks(r)) for r in rank], k
            assert search.fin == [
                sum(1 << r for r in rank if last[r] < p) for p in range(2 * n + 1)
            ], k
            assert search.undecided == [
                sum(1 << r for r in rank[p:]) for p in range(2 * n + 1)
            ], k

    def test_tables_built_once_per_graph(self, monkeypatch):
        # the kind-independent tables are shared per (n, k): from an empty
        # cache, four kinds with their budget calls read the neighbour
        # table once (eight times when each search built its own)
        reads = []
        table = PetersenGraph.neighbor_table
        monkeypatch.setattr(PetersenGraph, "neighbor_table", lambda g: reads.append(g) or table(g))
        solver._search_tables.cache_clear()
        g = build_petersen(11, 3)
        for kind in K:
            minimum = brute_force_min(g, kind).minimum
            with pytest.raises(InfeasibleError):
                brute_force_min(g, kind, budget=minimum - 1)
        assert reads == [g]

    def test_outer_ring_is_valid_of_every_kind(self):
        # why the search starts with u_0 in S: a valid set with no outer
        # vertex is the inner ring, at m = n, where the outer ring (holding
        # u_0) is valid too, since each u_i has two outer neighbours and v_i
        # has u_i
        from petdom import is_valid

        for n in range(3, 41):
            for k in range(1, (n + 1) // 2):
                g = build_petersen(n, k)
                ring = VertexSet((1 << n) - 1, 0)
                for kind in K:
                    assert is_valid(g, ring, kind).valid, (n, k, kind)

    def test_witness_ranks_first_in_its_orbit(self):
        # the symmetry the necklace cut rests on, checked without the search:
        # each rotation i -> i + j of the witness W, on both rings, is valid
        # too, and no rotation and no reflection i -> j - i of W ranks
        # before it, so W's outer string is a necklace
        from petdom import is_valid

        for n in range(5, 14):
            for k in range(1, (n + 1) // 2):
                g = build_petersen(n, k)
                for kind in K:
                    w = brute_force_min(g, kind).witness
                    ranks = [g.rank(v) for v in w]
                    for j in range(n):
                        rotated = VertexSet.of(Vertex(v.ring, (v.index + j) % n) for v in w)
                        reflected = VertexSet.of(Vertex(v.ring, (j - v.index) % n) for v in w)
                        assert is_valid(g, rotated, kind).valid, (n, k, kind, j)
                        for image in rotated, reflected:
                            assert ranks <= [g.rank(v) for v in image], (n, k, kind, j)

    def test_node_count(self, monkeypatch):
        # a deterministic work gate: the plain call, which proves m = 7 and
        # m = 8 infeasible and then finds the smallest 9-set in one
        # branch-and-bound search, and the budget call, which only proves,
        # enter _dfs 3,186 times in all, 959 of them in the budget call
        # (5,169 and 1,912 when the search only required u_0 in S; 6,085
        # when the 9-set was fixed rank by rank, one search per rank; 7,935
        # when a second, canonical-order search picked the witness; a
        # canonical search of every size took about 39,000 calls, about
        # 100,000 without requiring u_0 in S)
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
        assert len(calls) - plain <= 1_030
        assert len(calls) <= 3_400

    @pytest.mark.parametrize("kind", list(K))
    def test_matches_dp_over_base_range(self, kind, monkeypatch):
        # the closed forms for all n rest on the DP's minima for n = 5..N+p,
        # (N, p) the chain's cycle: the search, which shares no code with the
        # transfer matrix, confirms each minimum and witness, past 2n = 26.
        # A work gate too, about 7% above the range's _dfs calls: 103,816,
        # 4,102, 100,283 and 4,102 (178,705, 4,965, 219,993 and 4,981 when
        # the search only required u_0 in S; 219,445, 10,140, 235,775 and
        # 9,781 when the witness was fixed rank by rank)
        nodes = {K.PLAIN: 111_000, K.TOTAL: 4_400, K.ONE_TWO: 107_300,
                 K.ONE_TWO_TOTAL: 4_400}[kind]
        calls = []
        dfs = solver._ExactSearch._dfs

        def counting(self, *args):
            calls.append(1)
            return dfs(self, *args)

        monkeypatch.setattr(solver._ExactSearch, "_dfs", counting)
        N, p, _ = transfer._chain(kind).cycle
        minima = dp_minima(5, N + p, kind)
        for n, minimum in zip(range(5, N + p + 1), minima, strict=True):
            result = brute_force_min(build_petersen(n, 2), kind)
            assert result.minimum == minimum, n
            assert result.witness == dp_min(n, kind).witness, n
        assert len(calls) <= nodes


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
        "entry",
        [0.5, 1.0, -1, 3, True, np.float64(1), np.bool_(True)],
        ids=["0.5", "1.0", "-1", "3", "True", "np.float64(1)", "np.bool_(True)"],
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

    def test_numpy_profile_reports_python_bools(self):
        import dataclasses
        import json

        x = PairProfile(tuple(np.array([1, 1, 0] * 3 + [1])))
        report = check_eq1(x, 10)
        flags = (report.bounds_ok, report.window_ok, report.sum_ok, report.all_ok)
        assert [type(flag) for flag in flags] == [bool] * 4
        assert json.loads(json.dumps(dataclasses.asdict(report))) == {
            "bounds_ok": True, "window_ok": True, "sum_ok": True
        }


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

    def test_characterization_for_every_n(self):
        # the window system as a 9-state min-plus matrix over pairs (a, b)
        # of consecutive entries: entry v steps (a, b) to (b, v) at cost v
        # when a + b + v >= 2.  A closed walk of n steps is a cyclic profile
        # of length n costing its sum, so the least diagonal entry of M^n is
        # the least sum of any profile at n
        M = np.full((9, 9), np.inf)
        for a, b, v in product(range(3), repeat=3):
            if a + b + v >= 2:
                M[3 * a + b, 3 * b + v] = v
        powers, seen = [np.where(np.eye(9) == 1, 0.0, np.inf)], {}
        while True:
            # M^L less its minimum repeats first at L = N + p
            key = (powers[-1] - powers[-1].min()).tobytes()
            if key in seen:
                break
            seen[key] = len(powers) - 1
            powers.append((powers[-1][:, :, None] + M).min(axis=1))
        N = seen[key]
        p = len(powers) - 1 - N
        lam = powers[N + p].min() - powers[N].min()
        assert (N, p, lam) == (3, 3, 2)
        while len(powers) <= 20:
            powers.append((powers[-1][:, :, None] + M).min(axis=1))
        closed = {n: int(powers[n].diagonal().min()) for n in range(5, 21)}
        # M^(n+p) = M^n + lam from n = N on, so the least sum grows by 4
        # every 6, and so does f(n) at every residue: n = 5..10 settles all n
        for n in range(5, 11):
            assert (closed[n] < f_one_two(n)) == (n % 6 == 4), n
            assert closed[n + 6] - closed[n] == 4 == f_one_two(n + 6) - f_one_two(n), n
        for n in range(5, 21):
            sums = {sum(x.values) for x in enumerate_eq1(n)}
            assert sums == ({closed[n]} if n % 6 == 4 else set()), n

    def test_output_pinned(self):
        # sha256 of the repr of every profile list over the guarded range,
        # recorded from the search with a min-completion table
        import hashlib

        got = repr([[x.values for x in enumerate_eq1(n)] for n in range(5, 21)])
        digest = hashlib.sha256(got.encode()).hexdigest()
        assert digest == "76d61b70096ccfc0e111464866e66676136b06da40851ec1b3cba2c79a0eede6"


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
