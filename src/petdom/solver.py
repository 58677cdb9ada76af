"""Exact minimizers and the pair-profile system for P(n,2).

Two independent solvers compute minimum dominating sets of all four
kinds:

* ``brute_force_min`` enumerates subsets in increasing cardinality with
  early pruning (hard limit 2n <= 26);
* ``dp_min`` (in :mod:`petdom.transfer`) runs a transfer-matrix dynamic
  program over columns and scales to very large n.

Both return the lexicographically smallest minimum witness under the
canonical vertex order (all outer vertices by ascending index, then all
inner ones), so their outputs are directly comparable.

The pair-profile system: for S a subset, x_i = |{u_i, v_i} & S| gives a
sequence over {0,1,2}; when no block contains fewer than two members of
S, every cyclic window of three consecutive profile entries sums to at
least 2.  ``enumerate_eq1`` lists all integer sequences satisfying the
window inequalities together with sum(x) < f(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .domination import DominationKind, is_valid
from .errors import InfeasibleError, InternalError, ParameterError, SizeLimitError
from .formulas import f_one_two
from .graph import PetersenGraph, Ring, Vertex, VertexSet

__all__ = [
    "SolveMethod",
    "SolveResult",
    "brute_force_min",
    "PairProfile",
    "pair_profile",
    "Eq1Check",
    "check_eq1",
    "enumerate_eq1",
]

BRUTE_FORCE_VERTEX_LIMIT = 26


class SolveMethod(Enum):
    BRUTE_FORCE = "brute-force"
    TRANSFER_DP = "transfer-dp"


@dataclass(frozen=True)
class SolveResult:
    """An exact minimum together with one witness.

    The witness is checked at construction time: it must be valid for
    the kind and have cardinality exactly ``minimum``.
    """

    n: int
    k: int
    kind: DominationKind
    minimum: int
    witness: VertexSet
    method: SolveMethod

    def __post_init__(self) -> None:
        if len(self.witness) != self.minimum:
            raise InternalError(
                f"witness has size {len(self.witness)}, claimed minimum "
                f"{self.minimum}"
            )
        report = is_valid(PetersenGraph(self.n, self.k), self.witness, self.kind)
        if not report.valid:
            raise InternalError(
                f"witness fails {self.kind.value} validation: "
                f"{[w.as_dict() for w in report.violations]}"
            )

    def as_dict(self, include_witness: bool = True) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "kind": self.kind.value,
            "minimum": self.minimum,
            "method": self.method.value,
        }
        if include_witness:
            out["witness"] = self.witness.names()
        return out


class _ExactSearch:
    """Depth-first search over subsets of exactly m vertices.

    Vertices are decided in canonical rank order with the include branch
    explored first, so the first complete valid set found for a given m
    is the lexicographically smallest one.  All pruning rules only cut
    branches that cannot lead to a valid set of the target size.
    """

    def __init__(self, g: PetersenGraph, kind: DominationKind):
        n = g.n
        self.order = 2 * n
        self.covers_members = kind.covers_members
        # one pick satisfies at most this many vertices still lacking a
        # dominator (3 neighbors, plus itself unless members also need one)
        self.cover = 3 if self.covers_members else 4

        def rank(v: Vertex) -> int:
            return v.index if v.ring is Ring.OUTER else n + v.index

        verts = list(g.vertices())
        self.nbrs = [tuple(rank(w) for w in g.neighbors(v)) for v in verts]
        # a vertex's constraint is fully determined once it and all its
        # neighbors are decided
        self.finalize: list[list[int]] = [[] for _ in range(self.order)]
        for r in range(self.order):
            self.finalize[max(r, *self.nbrs[r])].append(r)
        # ok[member][count]: kind.accepts tabulated once, since the
        # search consults it at every node
        self.ok = [[kind.accepts(c, m) for c in range(4)] for m in (0, 1)]
        self.counts = [0] * self.order
        self.in_set = 0
        self.zeromask = (1 << self.order) - 1
        self.m = 0

    def search(self, m: int) -> int | None:
        """Return the bitmask of the lexicographically smallest valid set
        of size exactly m, or None."""
        self.m = m
        return self._dfs(0, 0)

    def _dfs(self, p: int, picked: int) -> int | None:
        if picked == self.m:
            if self.zeromask:
                return None
            for w in range(self.order):
                if not self.ok[(self.in_set >> w) & 1][self.counts[w]]:
                    return None
            return self.in_set
        if p == self.order or self.m - picked > self.order - p:
            return None
        res = self._include(p, picked)
        if res is not None:
            return res
        return self._exclude(p, picked)

    def _include(self, p: int, picked: int) -> int | None:
        counts = self.counts
        self.in_set |= 1 << p
        undo = 0
        if not self.covers_members and (self.zeromask >> p) & 1:
            undo |= 1 << p
        ok = True
        for w in self.nbrs[p]:
            c = counts[w] + 1
            counts[w] = c
            if c == 1:
                if (self.zeromask >> w) & 1:
                    undo |= 1 << w
            elif c == 3:
                # counts only grow, so a vertex refused at 3 can never
                # recover; an undecided one is judged as a member, its
                # best case
                if not self.ok[(self.in_set >> w) & 1 if w < p else 1][3]:
                    ok = False
        self.zeromask &= ~undo
        if ok:
            for w in self.finalize[p]:
                if not self.ok[(self.in_set >> w) & 1][counts[w]]:
                    ok = False
                    break
        if ok and self.zeromask.bit_count() > self.cover * (self.m - picked - 1):
            ok = False
        res = self._dfs(p + 1, picked + 1) if ok else None
        for w in self.nbrs[p]:
            counts[w] -= 1
        self.zeromask |= undo
        self.in_set &= ~(1 << p)
        return res

    def _exclude(self, p: int, picked: int) -> int | None:
        if self.counts[p] == 3 and not self.ok[0][3]:
            return None
        for w in self.finalize[p]:
            if not self.ok[(self.in_set >> w) & 1][self.counts[w]]:
                return None
        if self.zeromask.bit_count() > self.cover * (self.m - picked):
            return None
        return self._dfs(p + 1, picked)


def brute_force_min(
    g: PetersenGraph, kind: DominationKind, budget: int | None = None
) -> SolveResult:
    """Exact minimum by cardinality-ordered exhaustive search.

    Limited to 2n <= 26 vertices.  When ``budget`` is given, only sets of
    at most that cardinality are searched and InfeasibleError is raised
    if none is valid.
    """
    order = 2 * g.n
    if order > BRUTE_FORCE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"brute force requires 2n <= {BRUTE_FORCE_VERTEX_LIMIT}, got 2n={order}"
        )
    if budget is not None and budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    search = _ExactSearch(g, kind)
    lower = -(-order // search.cover)
    upper = order if budget is None else min(budget, order)
    for m in range(min(lower, upper + 1), upper + 1):
        mask = search.search(m)
        if mask is not None:
            witness = VertexSet(mask & ((1 << g.n) - 1), mask >> g.n)
            return SolveResult(g.n, g.k, kind, m, witness, SolveMethod.BRUTE_FORCE)
    if budget is not None:
        raise InfeasibleError(
            f"no valid {kind.value} set of size <= {budget} exists in "
            f"P({g.n},{g.k})"
        )
    raise InfeasibleError(f"no valid {kind.value} set exists in P({g.n},{g.k})")


@dataclass(frozen=True)
class PairProfile:
    """Per-column member counts x_i = |{u_i, v_i} & S|.

    Profiles derived from a vertex set always have entries in [0, 2];
    hand-built profiles may not, which check_eq1 reports via bounds_ok.
    """

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def pair_profile(g: PetersenGraph, S: VertexSet) -> PairProfile:
    """The profile of S over the n column pairs of P(n,2)."""
    g._require_k2("pair_profile")
    outer, inner = S.arrays(g.n)
    return PairProfile(tuple((outer + inner).tolist()))


@dataclass(frozen=True)
class Eq1Check:
    """Predicate report for the window system over a profile.

    bounds_ok: every entry lies in [0, 2];
    window_ok: every cyclic window of three consecutive entries sums to >= 2;
    sum_ok:    the total is strictly below f(n).
    """

    bounds_ok: bool
    window_ok: bool
    sum_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and self.window_ok and self.sum_ok


def check_eq1(x: PairProfile, n: int) -> Eq1Check:
    if len(x) != n:
        raise ParameterError(f"profile length {len(x)} does not match n={n}")
    vals = x.values
    bounds_ok = all(0 <= v <= 2 for v in vals)
    window_ok = all(
        vals[i] + vals[(i + 1) % n] + vals[(i + 2) % n] >= 2 for i in range(n)
    )
    sum_ok = sum(vals) < f_one_two(n)
    return Eq1Check(bounds_ok, window_ok, sum_ok)


def enumerate_eq1(n: int) -> list[PairProfile]:
    """All profiles satisfying check_eq1 completely, in lexicographic order.

    Backtracking over {0,1,2}^n with the window constraint checked
    incrementally and a minimum-completion bound pruning on the running
    sum; cyclic windows are validated at closure.  Guarded to
    5 <= n <= 20.
    """
    if not 5 <= n <= 20:
        raise ParameterError(f"enumerate_eq1 requires 5 <= n <= 20, got n={n}")
    target = f_one_two(n)

    # min_rest[k][a][b]: minimal total of k further entries when the two
    # previous entries are (a, b), ignoring the cyclic closure
    min_rest = [[[0] * 3 for _ in range(3)] for _ in range(n + 1)]
    for k in range(1, n + 1):
        for a in range(3):
            for b in range(3):
                best = None
                for v in range(3):
                    if a + b + v < 2:
                        continue
                    cand = v + min_rest[k - 1][b][v]
                    if best is None or cand < best:
                        best = cand
                min_rest[k][a][b] = best if best is not None else 10 ** 9

    out: list[PairProfile] = []
    prefix: list[int] = []

    def extend(total: int) -> None:
        p = len(prefix)
        if p == n:
            if (
                prefix[n - 2] + prefix[n - 1] + prefix[0] >= 2
                and prefix[n - 1] + prefix[0] + prefix[1] >= 2
            ):
                out.append(PairProfile(tuple(prefix)))
            return
        a = prefix[p - 2] if p >= 2 else 2
        b = prefix[p - 1] if p >= 1 else 2
        for v in range(3):
            if p >= 2 and a + b + v < 2:
                continue
            new_total = total + v
            if new_total + min_rest[n - p - 1][b][v] >= target:
                continue
            prefix.append(v)
            extend(new_total)
            prefix.pop()

    extend(0)
    return out
