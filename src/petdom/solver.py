"""Exact minimizers and the pair-profile system for P(n,2).

Two independent solvers compute minimum dominating sets of all four
kinds:

* ``brute_force_min`` searches subsets of each cardinality in turn, in
  increasing order, depth first over the vertices in column order
  (u_0, v_0, u_1, v_1, ...), where its cuts act early, and only sets
  holding u_0, by rotational symmetry (hard limit 2n <= 26).  At the
  first feasible size it fixes the smallest set rank by rank;
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
from .errors import (
    InfeasibleError,
    InternalError,
    ParameterError,
    SizeLimitError,
    is_int,
    require_int,
)
from .formulas import f_one_two
from .graph import PetersenGraph, VertexSet

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

    Vertices are decided in column order, include branch first: u_i at
    position 2i, v_i at 2i + 1, so a vertex's closed neighbourhood is
    decided about two columns after its own and the cuts below act early.

    A branch is four int masks over positions, passed down and never
    undone: S, its members, and ge1, ge2, ge3, the vertices with at least
    1, 2 or 3 members among their neighbours.  Including p with neighbour
    mask nb sets ge3 |= ge2 & nb, ge2 |= ge1 & nb and ge1 |= nb.
    Excluding p moves on to p + 1 in the same call, so ``_dfs`` runs once
    per include branch.  With positions below p decided, a branch is cut
    when

    * a vertex of fin[p], whose closed neighbourhood lies below p, lacks
      a dominator it needs;
    * a vertex has 3 member neighbours where the kind allows at most 2
      (counts only grow; an undecided vertex is judged as a member, its
      best case);
    * more vertices lack a dominator they need than the picks left can
      reach, at most ``cover`` each;
    * fewer positions remain than picks left.

    Once no pick is left, every vertex is checked with the undecided ones
    outside S.

    Rotation cut: i -> i + 1 on both rings is an automorphism of P(n,k),
    so if no valid m-set contains u_0, none contains any outer vertex.
    A set with no outer vertex holds v_i, u_i's only inner neighbour, for
    every i: it is the inner ring, at m = n, where the outer ring is valid
    of every kind (each u_i has two outer neighbours, each v_i has u_i)
    and holds u_0.  So ``search`` only includes u_0.
    """

    def __init__(self, g: PetersenGraph, kind: DominationKind):
        self.order = 2 * g.n
        self.full = (1 << self.order) - 1
        # kind.accepts on masks: a vertex passes when it is in ge1 and not
        # in ge3 & cap, or when it is in S & exempt
        self.exempt = self.full if kind.accepts(0, 1) else 0
        self.cap = 0 if kind.accepts(3, 0) else self.full
        # one pick satisfies at most this many vertices still lacking a
        # dominator (3 neighbors, plus itself unless members also need one)
        self.cover = 3 if kind.covers_members else 4

        self.at = [2 * (r % g.n) + r // g.n for r in range(self.order)]
        self.nb = [0] * self.order
        self.fin = [0] * (self.order + 1)
        for r, p in enumerate(self.at):
            nbrs = [self.at[w] for w in g.neighbor_ranks(r)]
            self.nb[p] = sum(1 << w for w in nbrs)
            self.fin[max(p, *nbrs) + 1] |= 1 << p
        for p in range(self.order):
            self.fin[p + 1] |= self.fin[p]

    def search(self, m: int, inside: int = 1, outside: int = 0) -> int | None:
        """The position mask of a valid m-set holding every position in
        ``inside`` (u_0's, bit 0, among them) and none in ``outside``, or None."""
        self.inside, self.outside = inside, outside
        return self._dfs(1, m - 1, 1, self.nb[0], 0, 0)

    def smallest(self, m: int) -> VertexSet | None:
        """The valid m-set with the smallest sorted rank list, or None.

        Ranks are decided in canonical order, each kept when a valid m-set
        holds it with the ranks kept before, which gives the smallest
        sorted rank list.  The last set found holds exactly the kept ranks
        among those done, so a rank it holds is kept at once; any other is
        kept only if a search forcing it and the kept ranks in, and the
        refused ranks out, finds a set.  Forcing refused ranks out loses
        nothing: no m-set holds one with the kept ranks.  Rank 0 is u_0,
        which the first set holds (see the rotation cut).
        """
        found, done = self.search(m), 1
        if found is None:
            return None
        for p in self.at[1:]:
            if not found >> p & 1:
                # a set found holds u_0, so its mask is never 0
                found = self.search(m, found & done | 1 << p, done & ~found) or found
            done |= 1 << p
        mask = sum(1 << r for r, p in enumerate(self.at) if found >> p & 1)
        # the low n rank bits are the outer ring, the next n the inner
        return VertexSet(mask & (1 << self.order // 2) - 1, mask >> self.order // 2)

    def _dfs(self, p: int, left: int, S: int, ge1: int, ge2: int, ge3: int) -> int | None:
        # positions below p are decided; left more members are to be picked
        if not left:
            bad = (self.full & ~ge1 | ge3 & self.cap) & ~(S & self.exempt)
            return None if bad or self.inside & ~S else S
        while True:
            # members, and positions from p on at best, may be exempt
            maybe = (S | self.full >> p << p) & self.exempt
            if (self.fin[p] & ~ge1 | ge3 & self.cap) & ~maybe:
                return None
            need = self.full ^ (ge1 | S & self.exempt)
            if need.bit_count() > self.cover * left or left > self.order - p:
                return None
            if not self.outside >> p & 1:
                nb = self.nb[p]
                found = self._dfs(
                    p + 1, left - 1, S | 1 << p, ge1 | nb, ge2 | ge1 & nb, ge3 | ge2 & nb
                )
                if found is not None:
                    return found
            if self.inside >> p & 1:
                return None
            p += 1


def brute_force_min(
    g: PetersenGraph, kind: DominationKind, budget: int | None = None
) -> SolveResult:
    """Exact minimum by cardinality-ordered exhaustive search.

    Limited to 2n <= 26 vertices.  Each size is decided in column order;
    at the first feasible size ``_ExactSearch.smallest`` fixes the
    lexicographically smallest witness rank by rank.  When ``budget`` is
    given, only sets of at most that cardinality are searched and
    InfeasibleError is raised if none is valid.
    """
    kind = DominationKind.require(kind, "brute_force_min")
    order = 2 * g.n
    if order > BRUTE_FORCE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"brute force requires 2n <= {BRUTE_FORCE_VERTEX_LIMIT}, got 2n={order}"
        )
    if budget is not None:
        budget = require_int("budget", budget, 0)
    search = _ExactSearch(g, kind)
    lower = -(-order // search.cover)
    # the outer ring, n members, is valid of every kind
    upper = g.n if budget is None else min(budget, g.n)
    for m in range(min(lower, upper + 1), upper + 1):
        if (witness := search.smallest(m)) is not None:
            return SolveResult(g.n, g.k, kind, m, witness, SolveMethod.BRUTE_FORCE)
    raise InfeasibleError(
        f"no valid {kind.value} set of size <= {budget} exists in P({g.n},{g.k})"
    )


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

    bounds_ok: every entry is an integer in [0, 2];
    window_ok: every cyclic window of three consecutive entries sums to >= 2;
    sum_ok:    the total is strictly below f(n).
    The last two are False whenever bounds_ok is.
    """

    bounds_ok: bool
    window_ok: bool
    sum_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.bounds_ok and self.window_ok and self.sum_ok


def check_eq1(x: PairProfile, n: int) -> Eq1Check:
    """The window system's report on x; a profile with an entry that is
    not an integer in [0, 2] fails all three checks."""
    n = require_int("n", n)
    if len(x) != n:
        raise ParameterError(f"profile length {len(x)} does not match n={n}")
    target = f_one_two(n)  # refuses n < 5
    vals = x.values
    if not all(is_int(v) and 0 <= v <= 2 for v in vals):
        return Eq1Check(False, False, False)
    window_ok = all(
        vals[i] + vals[(i + 1) % n] + vals[(i + 2) % n] >= 2 for i in range(n)
    )
    return Eq1Check(True, window_ok, bool(sum(vals) < target))


def enumerate_eq1(n: int) -> list[PairProfile]:
    """All profiles satisfying check_eq1 completely, in lexicographic order.

    Depth first over {0,1,2}^n: each window is checked when its third
    entry is placed, and the two wrap-around windows when the profile is
    complete.  With p entries placed, an entry v is tried only while
    total + v + 2 * ((n - p - 1) // 3) < f(n): the entries still to place
    split into disjoint consecutive triples, each summing to at least 2.
    Guarded to 5 <= n <= 20.
    """
    n = require_int("n", n, 5, 20, "enumerate_eq1")
    target = f_one_two(n)
    out: list[PairProfile] = []
    x: list[int] = []

    def extend(total: int) -> None:
        p = len(x)
        if p == n:
            if x[-2] + x[-1] + x[0] >= 2 and x[-1] + x[0] + x[1] >= 2:
                out.append(PairProfile(tuple(x)))
            return
        rest = 2 * ((n - p - 1) // 3)
        for v in range(3):
            if total + v + rest >= target:
                return
            if p < 2 or x[-2] + x[-1] + v >= 2:
                x.append(v)
                extend(total + v)
                x.pop()

    extend(0)
    return out
