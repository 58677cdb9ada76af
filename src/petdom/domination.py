"""Domination predicates and proof artifacts for P(n,k).

Four predicates over a vertex subset S, stated via c(v) = |N(v) & S|:

* PLAIN:          c(v) >= 1        for every v not in S,
* TOTAL:          c(v) >= 1        for every v,
* ONE_TWO:        1 <= c(v) <= 2   for every v not in S,
* ONE_TWO_TOTAL:  1 <= c(v) <= 2   for every v.

Every layer states them through ``DominationKind.accepts(count, member)``
(on ints or numpy arrays).  ``is_valid`` reads S's bitmasks, whose ring
rotations give each vertex's neighbours in S, and states ``accepts`` on
masks in ``_exempt_cap``, as the brute force does; ``form_is_valid`` and
the proof artifacts count with the kernel ``counts(k, outer, inner)`` on
membership arrays; the transfer DP states it once per kind, in
``transfer._Chain.__init__``, on the two counts each column finalizes
for every interface and choice.

``is_valid`` reports every offending vertex (never just the first), so
tests can assert exact violation sets.  Nothing is cached.

On top of the validators sit the proof artifacts for P(n,2): the
bucketing of blocks by |block & S|, the classification of blocks
containing exactly one member of S, and the path/cycle census of the
subgraph induced by a [1,2]-total dominating set together with its
counting inequalities.  These get c from ``counts`` too, walk G[S] by rank
and return blocks and components of ints, whose ``vertices`` come on demand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import (CensusError, ClassificationImpossibleError, ParameterError,
                     check_columns, require_int)
from .graph import Block, ColumnForm, PetersenGraph, Ring, Vertex, VertexSet, _indices

__all__ = [
    "DominationKind",
    "Bound",
    "Violation",
    "ValidationReport",
    "counts",
    "is_valid",
    "form_is_valid",
    "blocks_by_count",
    "BlockType",
    "classify_singleton_block",
    "Component",
    "induced_components",
    "ComponentCensus",
    "component_census",
    "InequalityCheck",
    "CensusChecks",
    "census_inequalities",
]


class DominationKind(Enum):
    PLAIN = "plain"
    TOTAL = "total"
    ONE_TWO = "one-two"
    ONE_TWO_TOTAL = "one-two-total"

    # members are singletons, so equality is identity; Enum's own hash
    # hashes the name in Python on every dict lookup
    __hash__ = object.__hash__

    @property
    def covers_members(self) -> bool:
        """Whether members of S are themselves subject to the condition."""
        return self in (DominationKind.TOTAL, DominationKind.ONE_TWO_TOTAL)

    @property
    def upper_bounded(self) -> bool:
        """Whether the condition caps the count at two."""
        return self in (DominationKind.ONE_TWO, DominationKind.ONE_TWO_TOTAL)

    def accepts(self, count, member):
        """Whether a vertex with ``count`` neighbours in S, itself in S when
        ``member`` is nonzero, satisfies this kind; elementwise on arrays."""
        ok = count >= 1
        if self.upper_bounded:
            ok = ok & (count <= 2)
        if not self.covers_members:
            ok = ok | (member != 0)
        return ok

    @classmethod
    def require(cls, value, caller: str) -> "DominationKind":
        """``value`` if it is a DominationKind, else ParameterError naming caller."""
        if not isinstance(value, cls):
            raise ParameterError(f"{caller} requires a DominationKind, got {value!r}")
        return value

    @classmethod
    def from_text(cls, text: str) -> "DominationKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ParameterError(
            f"kind must be one of {[k.value for k in cls]}, got {text!r}"
        )


class Bound(Enum):
    TOO_FEW = "TooFew"
    TOO_MANY = "TooMany"


@dataclass(frozen=True)
class Violation:
    vertex: Vertex
    count: int
    bound: Bound

    def as_dict(self) -> dict:
        return {
            "vertex": self.vertex.name,
            "count": self.count,
            "bound": self.bound.value,
        }


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def counts(k: int, outer: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|N(u_i) & S| and |N(v_i) & S| for all columns i of P(n,k), given
    the length-n 0/1 membership arrays of S on each ring."""

    # each ring once, padded with its wrapped neighbours, and sliced: not
    # np.roll, whose per-call overhead dominates at small n
    po = np.concatenate((outer[-1:], outer, outer[:1]))
    pi = np.concatenate((inner[-k:], inner, inner[:k]))
    return po[:-2] + po[2:] + inner, pi[:-2 * k] + pi[2 * k:] + outer


def _exempt_cap(kind: DominationKind, full: int) -> tuple[int, int]:
    """``kind.accepts`` on masks, as (exempt, cap), each 0 or ``full``: a vertex
    passes in ge1 & ~(ge3 & cap) | S & exempt (ge_j: j or more neighbours in S)."""
    return full if kind.accepts(0, 1) else 0, 0 if kind.accepts(3, 0) else full


def is_valid(g: PetersenGraph, S: VertexSet, kind: DominationKind) -> ValidationReport:
    """Check the domination predicate, listing every offending vertex."""
    kind = DominationKind.require(kind, "is_valid")
    n, k = g.n, g.k
    check_columns(n)
    S.require_below(n)
    ring = (1 << n) - 1

    def rot(x: int, s: int) -> int:  # bit i is bit (i + s) % n of x
        return (x >> s | x << n - s) & ring

    U, V, (exempt, cap) = S.outer, S.inner, _exempt_cap(kind, ring)
    violations: list[Violation] = []
    # bit i of a, b, c: whether u_(i+1), u_(i-1), v_i are in S, for u_i's
    # ring, and v_(i+k), v_(i-k), u_i for v_i's
    for side, member, a, b, c in ((Ring.OUTER, U, rot(U, 1), rot(U, n - 1), V),
                                  (Ring.INNER, V, rot(V, k), rot(V, n - k), U)):
        ge1 = a | b | c
        if bad := ring ^ (ge1 & ~(a & b & c & cap) | member & exempt):
            # by the rule, a violator is outside ge1 (no neighbour in S) or
            # in ge3 & cap (all three)
            many = set(_indices(bad & ge1))
            for i in _indices(bad):
                v = Vertex(side, i)
                violations.append(Violation(v, 3, Bound.TOO_MANY) if i in many
                                  else Violation(v, 0, Bound.TOO_FEW))
    return ValidationReport(not violations, tuple(violations))


def form_is_valid(form: ColumnForm, kind: DominationKind) -> bool:
    """Whether ``form``'s set is valid of the kind in P(form.n, 2), n >= 5.

    Column i's vertices pass or fail by the five columns i-2..i+2.  In the
    cyclic word T H M^r, the rest of a window that meets T or H is a
    suffix and a prefix of M^r, at most 4 columns in all, so it does not
    change with r once qr >= 4.  The windows inside M^r start at its first
    qr - 4 columns, so from r = R0 = ``form.settled`` on (qr >= q + 4)
    they show every phase of the motif.  Every r >= R0 thus has exactly
    the windows of R0: the form is checked once, at min(r, R0) repeats.
    """
    kind = DominationKind.require(kind, "form_is_valid")
    form = form.require("form_is_valid", 5)
    outer, inner = form._replace(repeats=min(form.repeats, form.settled)).arrays()
    cu, cv = counts(2, outer, inner)
    return bool(kind.accepts(cu, outer).all() and kind.accepts(cv, inner).all())


def blocks_by_count(g: PetersenGraph, S: VertexSet) -> dict[int, list[Block]]:
    """Bucket the n blocks of P(n,2) by |block & S|.

    Every block lands in exactly one of the buckets 0..6; bucket 0 is
    empty whenever S is a dominating set.
    """
    g._require_k2("blocks_by_count")
    x = np.add(*S.arrays(g.n))  # members per column
    # block i holds x_{i-1} + x_i + x_{i+1}: u_i's count on C_n with x on both rings
    window, _ = counts(1, x, x)
    buckets: dict[int, list[Block]] = {c: [] for c in range(7)}
    for b, c in zip(g.blocks(), window.tolist()):
        buckets[c].append(b)
    return buckets


class BlockType(Enum):
    """The four possible placements of the single S-member of a block b
    with |b & S| = 1.

    The central outer vertex u_i of the block is adjacent only to
    vertices inside the block, so the unique member must lie in its
    closed neighborhood {v_i, u_i, u_{i-1}, u_{i+1}}; the classification
    is total for every valid [1,2]-dominating set and applies uniformly
    to positive and negative blocks.
    """

    CENTER_INNER = "center-inner"   # v_i in S
    CENTER_OUTER = "center-outer"   # u_i in S
    LEFT_OUTER = "left-outer"       # u_{i-1} in S
    RIGHT_OUTER = "right-outer"     # u_{i+1} in S


# the placement of a singleton block's member by (ring, column - center)
_PLACEMENTS = {
    (Ring.INNER, 0): BlockType.CENTER_INNER,
    (Ring.OUTER, 0): BlockType.CENTER_OUTER,
    (Ring.OUTER, -1): BlockType.LEFT_OUTER,
    (Ring.OUTER, 1): BlockType.RIGHT_OUTER,
}


def classify_singleton_block(g: PetersenGraph, S: VertexSet, b: Block) -> BlockType:
    """Classify a block of g with exactly one member of S.

    Raises ParameterError when g has k != 2, b is a block of another n or
    centered outside [0, n), S has a member outside [0, n), or
    |b & S| != 1, and
    ClassificationImpossibleError when the unique member is v_{i-1} or
    v_{i+1}, which would leave the block's central vertex undominated and
    therefore contradicts S being a valid [1,2]-dominating set.
    """
    g._require_k2("classify_singleton_block")
    if b.n != g.n:
        raise ParameterError(f"block of P({b.n},2) given for P({g.n},2)")
    if not 0 <= b.center < g.n:
        raise ParameterError(f"block center {b.center} is not a column of P({g.n},2)")
    S.require_below(g.n)
    n, i = g.n, b.center
    hit = [(ring, d) for ring, mask in zip(Ring, (S.outer, S.inner))
           for d in (-1, 0, 1) if mask >> (i + d) % n & 1]
    if len(hit) != 1:
        raise ParameterError(
            f"block centered at {i} has gamma_S = {len(hit)}, expected 1"
        )
    ((ring, d),) = hit
    placement = _PLACEMENTS.get((ring, d))
    if placement is not None:
        return placement
    raise ClassificationImpossibleError(
        f"singleton block centered at {i} holds only {ring.value}{(i + d) % n}, "
        f"which cannot dominate the central vertex u{i}; S is not a valid "
        f"[1,2]-dominating set"
    )


@dataclass(frozen=True, repr=False)
class Component:
    """A connected component of the induced subgraph G[S] of a graph on
    n columns, as the ranks of its members (see PetersenGraph.rank).

    kind is "path" or "cycle".  Path vertices run end to end starting
    from the canonically smaller endpoint; cycle vertices start at the
    canonically smallest member and proceed toward its smaller neighbor.
    """

    kind: str
    ranks: tuple[int, ...]
    n: int

    @property
    def order(self) -> int:
        return len(self.ranks)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        n = self.n
        return tuple(Vertex(Ring.OUTER, r) if r < n else Vertex(Ring.INNER, r - n)
                     for r in self.ranks)

    def __repr__(self) -> str:
        return f"Component(kind={self.kind!r}, vertices={self.vertices})"


def induced_components(g: PetersenGraph, S: VertexSet) -> list[Component]:
    """Path/cycle decomposition of G[S], ordered by smallest member.

    Raises CensusError if any member has induced degree 0 or 3.
    """
    n = g.n
    outer, inner = S.arrays(n)
    member = np.concatenate((outer, inner))  # by rank
    degree = np.concatenate(counts(g.k, outer, inner))
    bad = np.flatnonzero(member & ~DominationKind.ONE_TWO_TOTAL.accepts(degree, member))
    if bad.size:
        r = int(bad[0])
        ring, i = (Ring.OUTER, r) if r < n else (Ring.INNER, r - n)
        raise CensusError(
            f"vertex {ring.value}{i} has induced degree {degree[r]}; the "
            f"input set is not [1,2]-total dominating"
        )
    # each rank's neighbors in S ascending, then ``end`` for the ones outside
    end, table = 2 * n, g.neighbor_table()
    near = np.sort(np.where(member[table] != 0, table, end), axis=1)
    first, second = near[:, 0].tolist(), near[:, 1].tolist()
    # the path ends (degree 1) in rank order, so each path is walked from
    # its smaller end; then the cycles, each from its smallest member
    # toward its smaller neighbor
    ranks = np.flatnonzero(member)
    seen: set[int] = set()
    found: dict[int, Component] = {}
    for start in ranks[np.argsort(degree[ranks], kind="stable")].tolist():
        if start in seen:
            continue
        walk, prev, cur = [start], start, first[start]
        while cur != end and cur != start:
            walk.append(cur)
            prev, cur = cur, second[cur] if first[cur] == prev else first[cur]
        seen.update(walk)
        found[min(walk)] = Component("cycle" if cur == start else "path", tuple(walk), n)
    return [found[r] for r in sorted(found)]


@dataclass(frozen=True)
class ComponentCensus:
    """Counts x[l] of path components P_l and y[l] of cycle components
    C_l in G[S].  Satisfies sum(l * (x_l + y_l)) = |S|."""

    x: dict[int, int] = field(default_factory=dict)
    y: dict[int, int] = field(default_factory=dict)

    @property
    def total_vertices(self) -> int:
        return sum(l * c for l, c in self.x.items()) + sum(
            l * c for l, c in self.y.items()
        )

    def as_dict(self) -> dict:
        return {
            "x": {str(l): self.x[l] for l in sorted(self.x)},
            "y": {str(l): self.y[l] for l in sorted(self.y)},
        }


def component_census(g: PetersenGraph, S: VertexSet) -> ComponentCensus:
    """Census of G[S] for a valid [1,2]-total dominating set S.

    Every component must be a path (two degree-1 ends) or a cycle (all
    degree 2); induced degree 0 or 3 raises CensusError.
    """
    x: dict[int, int] = {}
    y: dict[int, int] = {}
    for comp in induced_components(g, S):
        counter = x if comp.kind == "path" else y
        counter[comp.order] = counter.get(comp.order, 0) + 1
    return ComponentCensus(x, y)


@dataclass(frozen=True)
class InequalityCheck:
    ok: bool
    lhs: int
    rhs: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CensusChecks:
    """The four counting checks tying a census to n and s = |S|.

    eq2: sum((2l+2) x_l + 2l y_l) >= 2n   (coverage of all 2n vertices)
    eq3: sum(l (x_l + y_l)) == s          (components partition S)
    eq4: s + sum(x_l) >= n                (derived from eq2 and eq3)
    eq5: sum(l x_l) >= 2 sum(x_l)         (paths have order >= 2)
    """

    eq2: InequalityCheck
    eq3: InequalityCheck
    eq4: InequalityCheck
    eq5: InequalityCheck

    @property
    def all_ok(self) -> bool:
        return self.eq2.ok and self.eq3.ok and self.eq4.ok and self.eq5.ok

    def as_dict(self) -> dict:
        return asdict(self)


def census_inequalities(c: ComponentCensus, n: int, s: int) -> CensusChecks:
    """Evaluate the four counting checks for a census of P(n,2)."""
    n, s = require_int("n", n), require_int("s", s)
    lhs2 = sum((2 * l + 2) * cnt for l, cnt in c.x.items()) + sum(
        2 * l * cnt for l, cnt in c.y.items()
    )
    lhs3 = c.total_vertices
    paths = sum(c.x.values())
    path_vertices = sum(l * cnt for l, cnt in c.x.items())
    return CensusChecks(
        eq2=InequalityCheck(lhs2 >= 2 * n, lhs2, 2 * n),
        eq3=InequalityCheck(lhs3 == s, lhs3, s),
        eq4=InequalityCheck(s + paths >= n, s + paths, n),
        eq5=InequalityCheck(path_vertices >= 2 * paths, path_vertices, 2 * paths),
    )
