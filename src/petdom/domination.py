"""Domination predicates and proof artifacts for P(n,k).

Four predicates over a vertex subset S, stated via c(v) = |N(v) & S|:

* PLAIN:          c(v) >= 1        for every v not in S,
* TOTAL:          c(v) >= 1        for every v,
* ONE_TWO:        1 <= c(v) <= 2   for every v not in S,
* ONE_TWO_TOTAL:  1 <= c(v) <= 2   for every v.

Every layer states them through ``DominationKind.accepts(count, member)``
(on ints or numpy arrays).  This module reads S's two bitmasks in
``_members`` alone, which checks S first, and c in ``_degrees``: rotated
by the amounts ``PetersenGraph._adjacency`` gives column 0, each ring's
neighbour masks say which of a vertex's three neighbours are in S, and
their or, bitwise majority and and are ge1, ge2 and ge3, the vertices
with at least 1, 2 or 3 neighbours in S.
``is_valid`` states ``accepts`` on those masks in ``_EXEMPT_CAP``, as the
brute force does, and ``form_is_valid`` is its verdict on a form's set;
the transfer DP states it once per kind, in ``transfer._Chain.__init__``,
on the two counts each column finalizes for every interface and choice.

``is_valid`` reports every offending vertex (never just the first), so
tests can assert exact violation sets.  Nothing is cached.

On top of the validators sit the proof artifacts for P(n,2): the
bucketing of blocks by |block & S|, the classification of blocks
containing exactly one member of S, and the path/cycle census of the
subgraph induced by a [1,2]-total dominating set together with its
counting inequalities.  These read the same masks: a block's member count
is a column sum of S's masks and their rotations, unpacked at once, and a
member of G[S] has induced degree 0 or 3 outside ge1 or inside ge3, and
ends a path outside ge2.  They walk G[S] by rank and return blocks and
components of ints, whose ``vertices`` come on demand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import (CensusError, ClassificationImpossibleError, ParameterError,
                     check_columns, require_int, require_type)
from .graph import Block, ColumnForm, PetersenGraph, Ring, Vertex, VertexSet, _indices, _unpack

__all__ = [
    "DominationKind",
    "Bound",
    "Violation",
    "ValidationReport",
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


_VALID = ValidationReport(True, ())  # immutable, so one report serves every valid set


def _members(S: VertexSet, n: int, caller: str) -> tuple[int, int]:
    """S's outer and inner masks in P(n,k): SizeLimitError for n above 2^23,
    ParameterError naming caller unless S is a VertexSet, and naming S's
    first member with index >= n."""
    check_columns(n)
    S = require_type(S, VertexSet, caller)
    if S.outer >> n or S.inner >> n:  # a member at index n or past, which it names
        S.require_below(n)
    return S.outer, S.inner


def _rotate(x: int, s: int, n: int) -> int:
    """The n-bit x rotated so that bit i is bit (i + s) % n of x, 0 <= s < n,
    with at most one shift of x at its full width: bits s.. move down and
    the rest up past them, whichever part is the larger."""
    if 2 * s > n:
        return (x << n - s ^ x >> s << n) | x >> s
    return x >> s | (x & (1 << s) - 1) << n - s if s else x


def _degrees(g: PetersenGraph, S: VertexSet, caller: str) -> list[tuple[int, int, int, int]]:
    """Per ring, outer then inner: (S's members, ge1, ge2, ge3), bit i of
    ge_j set when the ring's vertex i has j or more neighbours in S.

    Column i's neighbours are column 0's, as ``g._adjacency(0)`` lists
    them, moved on by i; so the neighbour masks are S's masks rotated by
    those ranks mod n.  Refuses g and S as ``_members`` does.
    """
    n = g.n
    masks = _members(S, n, caller)
    rings = []
    for member, ranks in zip(masks, g._adjacency(0)):
        a, b, c = [_rotate(masks[t // n], t % n, n) for t in ranks]
        either, both = a | b, a & b
        rings.append((member, either | c, both | either & c, both & c))
    return rings


# kind.accepts on masks, as (exempt, cap), each 0 or -1 (every bit): a vertex
# passes in ge1 & ~(ge3 & cap) | S & exempt (ge_j: j or more neighbours in S)
_EXEMPT_CAP = {kind: (-kind.accepts(0, 1), -(not kind.accepts(3, 0))) for kind in DominationKind}


def is_valid(g: PetersenGraph, S: VertexSet, kind: DominationKind) -> ValidationReport:
    """Check the domination predicate, listing every offending vertex."""
    kind = require_type(kind, DominationKind, "is_valid")
    rings = _degrees(g, S, "is_valid")
    ring = (1 << g.n) - 1
    exempt, cap = _EXEMPT_CAP[kind]
    violations: list[Violation] = []
    for side, (member, ge1, _, ge3) in zip((Ring.OUTER, Ring.INNER), rings):
        if bad := ring ^ (ge1 & ~(ge3 & cap) | member & exempt):
            # by the rule, a violator is outside ge1 (no neighbour in S) or
            # in ge3 & cap (all three)
            many = set(_indices(bad & ge1))
            for i in _indices(bad):
                count, bound = (3, Bound.TOO_MANY) if i in many else (0, Bound.TOO_FEW)
                violations.append(Violation(Vertex(side, i), count, bound))
    return ValidationReport(False, tuple(violations)) if violations else _VALID


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
    kind = require_type(kind, DominationKind, "form_is_valid")
    form = require_type(form, ColumnForm, "form_is_valid").require("form_is_valid", 5)
    form = form._replace(repeats=min(form.repeats, form.settled))
    return is_valid(PetersenGraph(form.n), form.vertex_set(), kind).valid


def blocks_by_count(g: PetersenGraph, S: VertexSet) -> dict[int, list[Block]]:
    """Bucket the n blocks of P(n,2) by |block & S|.

    Every block lands in exactly one of the buckets 0..6; bucket 0 is
    empty whenever S is a dominating set.
    """
    g._require_k2("blocks_by_count")
    n = g.n
    masks = _members(S, n, "blocks_by_count")
    # block i holds columns i and those of u_i's two ring neighbours: its
    # count is column i's sum over the six masks, unpacked in one piece
    six = (*masks, *[_rotate(m, t, n) for m in masks for t in g._adjacency(0)[0] if t < n])
    window = _unpack(sum(m << j * n for j, m in enumerate(six)), 6 * n).reshape(6, n).sum(0)
    buckets: dict[int, list[Block]] = {c: [] for c in range(7)}
    for i, c in enumerate(window.tolist()):
        buckets[c].append(Block(n, i))
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
    centered outside [0, n), S is not a VertexSet or has a member outside
    [0, n), or |b & S| != 1, SizeLimitError for n above 2^23, and
    ClassificationImpossibleError when the unique member is v_{i-1} or
    v_{i+1}, which would leave the block's central vertex undominated and
    therefore contradicts S being a valid [1,2]-dominating set.
    """
    g._require_k2("classify_singleton_block")
    if b.n != g.n:
        raise ParameterError(f"block of P({b.n},2) given for P({g.n},2)")
    if not 0 <= b.center < g.n:
        raise ParameterError(f"block center {b.center} is not a column of P({g.n},2)")
    n, i = g.n, b.center
    hit = [(ring, d) for ring, mask in zip(Ring, _members(S, n, "classify_singleton_block"))
           for d in (-1, 0, 1) if mask >> (i + d) % n & 1]
    if len(hit) != 1:
        raise ParameterError(
            f"block centered at {i} has gamma_S = {len(hit)}, expected 1"
        )
    ((ring, d),) = hit
    if (ring, d) in _PLACEMENTS:
        return _PLACEMENTS[ring, d]
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
    # by rank, as VertexSet's bits: u_i is bit i, v_i bit n + i
    member, ge1, ge2, ge3 = (u | v << n for u, v in zip(*_degrees(g, S, "induced_components")))
    if bad := member & (~ge1 | ge3):
        r = (bad & -bad).bit_length() - 1
        raise CensusError(
            f"vertex {tuple(Ring)[r // n].value}{r % n} has induced degree "
            f"{3 * (ge1 >> r & 1)}; the input set is not [1,2]-total dominating"
        )
    # each rank's neighbors in S ascending, then ``end`` for the ones outside
    end, table = 2 * n, g.neighbor_table()
    near = np.sort(np.where(_unpack(member, end)[table] != 0, table, end), axis=1)
    first, second = near[:, 0].tolist(), near[:, 1].tolist()
    # the path ends (degree 1) in rank order, so each path is walked from
    # its smaller end; then the cycles, each from its smallest member
    # toward its smaller neighbor
    seen: set[int] = set()
    found: dict[int, Component] = {}
    for start in _indices(member & ~ge2) + _indices(member & ge2):
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
