"""Exact minimizers and the pair-profile system for P(n,2).

Two independent solvers compute minimum dominating sets of all four
kinds:

* ``brute_force_min`` searches subsets of each cardinality in turn, in
  increasing order, depth first over the vertices in column order
  (u_0, v_0, u_1, v_1, ...), where its cuts act early, and, by
  rotational symmetry, only sets whose outer string x_i = [u_i in S] is a
  necklace: a decided outer prefix is extended only while it passes the
  Fredricksen-Kessler-Maiorana prenecklace test, one O(1) step per outer
  position (hard limit 2n <= 44 for k = 2, else 2n <= 26).  Each size
  is one branch-and-bound search that keeps the smallest set found and
  cuts branches already ranked after it;
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
from functools import cache

from .domination import _EXEMPT_CAP, DominationKind, is_valid
from .errors import (
    InfeasibleError,
    InternalError,
    ParameterError,
    SizeLimitError,
    is_int,
    require_int,
    require_type,
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


@cache
def _search_tables(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """``_ExactSearch``'s kind-independent tables of P(n,k), as tuples, which
    each search copies to lists of its own."""
    order = 2 * n
    # position p decides rank[p]: u_i at 2i, v_i at 2i + 1
    rank = [p // 2 + n * (p & 1) for p in range(order)]
    at = [*range(0, order, 2), *range(1, order, 2)]  # rank -> position
    rows = PetersenGraph(n, k).neighbor_table().tolist()
    nb = [sum(1 << w for w in rows[r]) for r in rank]
    fin = [0] * (order + 1)
    for r, row in enumerate(rows):
        fin[max(at[r], *(at[w] for w in row)) + 1] |= 1 << r
    # undecided[p]: the ranks decided at positions p and later
    undecided = [(1 << order) - 1] * (order + 1)
    for p in range(order):
        fin[p + 1] |= fin[p]
        undecided[p + 1] = undecided[p] ^ 1 << rank[p]
    prefix = [(1 << (p + 1) // 2) - 1 for p in range(order + 1)]  # outer ranks below p
    return tuple(map(tuple, (rank, nb, fin, undecided, prefix)))


class _ExactSearch:
    """Depth-first search over subsets of exactly m vertices.

    Vertices are decided in column order, include branch first: u_i at
    position 2i, v_i at 2i + 1, so a vertex's closed neighbourhood is
    decided about two columns after its own and the cuts below act early.

    A branch is four int masks over ranks, bit r for rank r as in
    ``VertexSet`` (u_i is rank i, v_i rank n + i), passed down and never
    undone: S, its members, and ge1, ge2, ge3, the vertices with at least
    1, 2 or 3 members among their neighbours.  Positions are only the
    decision order: position p decides rank[p].  Including it with
    neighbour mask nb sets ge3 |= ge2 & nb, ge2 |= ge1 & nb and
    ge1 |= nb.  Excluding it moves on to p + 1 in the same call, so
    ``_dfs`` runs once per include branch.  The tables rank, nb, fin,
    undecided and prefix depend only on the graph, so all searches of
    P(n,k) share one build (``_search_tables``).  With positions below p
    decided, a branch is cut when

    * a vertex of fin[p], whose closed neighbourhood lies below p, lacks
      a dominator it needs;
    * a vertex has 3 member neighbours where the kind allows at most 2
      (counts only grow; an undecided vertex is judged as a member, its
      best case);
    * more vertices lack a dominator they need than the picks left can
      reach, at most ``cover`` each (checked once per pick: S and its
      counts hold until the next one);
    * fewer positions remain than picks left (the position loop's bound);
    * the decided outer ranks already rank S after ``best``, the
      smallest valid m-set found so far (see ``smallest``).

    Including an outer position is also cut when the outer prefix it
    would make fails the necklace cut below.

    Once no pick is left, every vertex is checked with the undecided ones
    outside S, and a valid S smaller than ``best`` replaces it.

    Necklace cut: i -> i + j on both rings is an automorphism of P(n,k),
    so the smallest valid m-set W ranks no later than any of its
    rotations.  Of two sets, the one holding the lowest bit of their
    symmetric difference ranks first, and the outer ring is the low n
    bits, so of two sets whose outer vertices first differ at index i, the
    one holding u_i ranks first.  So W's outer string x_i = [u_i in W] is
    the smallest of its n rotations over the alphabet 1 < 0: a necklace,
    the low n bits of W read from bit 0.  Every prefix of a necklace is a
    prenecklace, which the Fredricksen-Kessler-Maiorana test checks one
    position at a time with the prefix's period per: x_i may be 1 only
    when x_(i - per) is 1, and x_i = 0 after x_(i - per) = 1 sets
    per = i + 1; otherwise per is kept.  The search cuts every other
    branch, so it never cuts W.  W holds an outer vertex, so its necklace
    starts with x_0 = 1: a set with none holds v_i, u_i's only inner
    neighbour, for every i, so it is the inner ring, at m = n, where the
    outer ring is valid of every kind (each u_i has two outer neighbours,
    each v_i has u_i) and ranks first.  So the search starts with x_0 = 1
    and per = 1.
    """

    def __init__(self, g: PetersenGraph, kind: DominationKind):
        self.order = 2 * g.n
        self.full = (1 << self.order) - 1
        # kind.accepts on masks (see domination._EXEMPT_CAP)
        self.exempt, self.cap = _EXEMPT_CAP[kind]
        # one pick satisfies at most this many vertices still lacking a
        # dominator (3 neighbors, plus itself unless members also need one)
        self.cover = 3 if kind.covers_members else 4
        self.rank, self.nb, self.fin, self.undecided, self.prefix = map(
            list, _search_tables(g.n, g.k))

    def smallest(self, m: int) -> VertexSet | None:
        """The valid m-set with the smallest sorted rank list, or None.

        One branch-and-bound search: ``best``, the smallest valid m-set
        found so far as a rank mask, is replaced by each smaller one found.
        Outer ranks come before inner ones, and the search decides u_0,
        u_1, ... in turn, so a branch whose lowest decided outer rank in
        S ^ best lies in best ranks after best and is cut.
        """
        self.best = 0
        # x_0 = 1, a prenecklace of period 1 (see the necklace cut)
        self._dfs(1, m - 1, 1, self.nb[0], 0, 0, 1)
        best, n = self.best, self.order // 2
        return VertexSet(best & (1 << n) - 1, best >> n) if best else None

    def _dfs(self, p: int, left: int, S: int, ge1: int, ge2: int, ge3: int, per: int) -> None:
        # positions below p are decided; left more members are to be picked;
        # per is the period of the decided outer prefix (see the necklace cut)
        best, exempt = self.best, self.exempt
        if not left:
            if (self.full & ~ge1 | ge3 & self.cap) & ~(S & exempt):
                return
            # S ranks first when the lowest rank in S ^ best is in S
            diff = S ^ best
            if not best & diff & -diff:
                self.best = S
            return
        # S and ge1 hold until the next pick; past order - left, too few positions remain
        if (self.full ^ (ge1 | S & exempt)).bit_count() > self.cover * left:
            return
        over = ge3 & self.cap
        fin, undecided, prefix = self.fin, self.undecided, self.prefix
        for p in range(p, self.order - left + 1):
            if best:
                diff = (S ^ best) & prefix[p]
                if best & diff & -diff:
                    return
            # members, and ranks decided from p on at best, may be exempt
            if (fin[p] & ~ge1 | over) & ~((S | undecided[p]) & exempt):
                return
            # u_i, at p = 2i, may join S only when u_(i - per) is in S
            if p & 1 or S >> p // 2 - per & 1:
                nb = self.nb[p]
                self._dfs(p + 1, left - 1, S | 1 << self.rank[p], ge1 | nb,
                          ge2 | ge1 & nb, ge3 | ge2 & nb, per)
                best = self.best
                if not p & 1:  # and leaving it out makes the prefix its own period
                    per = p // 2 + 1


def brute_force_min(
    g: PetersenGraph, kind: DominationKind, budget: int | None = None
) -> SolveResult:
    """Exact minimum by cardinality-ordered exhaustive search.

    Limited to 2n <= 44 vertices for k = 2 and 2n <= 26 otherwise.  Each
    size is one branch-and-bound search, ``_ExactSearch.smallest``, so the
    first feasible size gives the lexicographically smallest witness.
    When ``budget`` is given, only sets of at most that cardinality are
    searched and InfeasibleError is raised if none is valid.
    """
    kind = require_type(kind, DominationKind, "brute_force_min")
    order = 2 * g.n
    limit = 44 if g.k == 2 else 26  # for k = 2, past each kind's base range 5..N+p
    if order > limit:
        raise SizeLimitError(f"brute force requires 2n <= {limit}, got 2n={order}")
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
    outer, inner = require_type(S, VertexSet, "pair_profile").arrays(g.n)
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
