"""Explicit minimum witness constructions for P(n,2).

For every n >= 5 these produce a [1,2]-dominating set of size exactly
f_one_two(n) and a [1,2]-total dominating set of size exactly
g_one_two_total(n).  Each is a ``ColumnForm``: a head, a motif repeated,
and a tail.  One table of forms, ``_FORMS``, holds every recipe; both
kinds read its stride rows, keyed by n mod 3 (the residues mod 6 pair
up): the middle pair {u_i, v_i} of every third column, i = 1 (mod 3),
then a tail.

* 0, 3: pairs on every third column, no tail.
* 1, 4: pairs up to column n-3, then the pair {u_{n-2}, v_{n-2}}: one
  recipe, for [1,2]-domination at residue 4 and the total variant at 1.
* 2, 5: pairs up to column n-4, then the tail {v_{n-2}, v_{n-1}}.

These sets are total dominating as emitted.  Special cases come first;
their exceptional windows sit at the highest columns:

* n = 7, [1,2]-domination: {u_0, u_4, v_1, v_2, v_3}.
* n = 5, total variant: the outer five-cycle, the exact-solver witness.
* n = 1 (mod 6), n >= 13, [1,2]-domination: a period-6 motif
  {v_j, v_{j+1}, u_{j+1}, u_{j+4}} on columns 0..n-8 followed by the
  seven-column exceptional window {v_{n-7}, v_{n-6}, u_{n-4}, u_{n-3},
  u_{n-2}}.  Stride-3 pair cores provably cannot be completed to a
  minimum set in this residue (no valid minimum set of P(13,2) contains
  two middle pairs three columns apart), so the motif was extracted
  from exact-solver witnesses.

Every construction is checked at emit time against its target size and
its predicate; a failure raises ConstructionError because these sets
serve as acceptance oracles elsewhere.  ``form_is_valid`` decides each
table entry once per repeat count below R0 = 1 + ceil(4/q) (n <= 18),
and once for every n it serves with at least R0 motif repeats.  So each
construction is proved for every n >= 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .domination import DominationKind, form_is_valid
from .errors import ConstructionError, ParameterError, check_columns, require_int
from .formulas import BY_KIND
from .graph import ColumnForm, VertexSet

__all__ = [
    "ConstructionSource",
    "Construction",
    "build_construction",
    "small_case_set",
    "construct_one_two",
    "construct_one_two_total",
]

class ConstructionSource(Enum):
    SMALL_CASE_TABLE = "small-case-table"
    PERIODIC_PATTERN = "periodic-pattern"
    SPLICED_PATTERN = "spliced-pattern"
    SOLVER_DERIVED = "solver-derived"


_NONE = (0, 0, 0)
_PAIRS = (0b010, 0b010, 3)  # the pair {u_1, v_1} of three columns
# (kind, m, r) -> head, motif, tail and source of the recipe for the n with
# n = r (mod m), or n = r when m = 0 (a head with no motif repeats); see
# the module docstring
_FORMS = {
    (kind, 3, r): (_NONE, _PAIRS, tail, source)
    for kind in (DominationKind.ONE_TWO, DominationKind.ONE_TWO_TOTAL)
    for r, tail, source in (
        (0, _NONE, ConstructionSource.PERIODIC_PATTERN),
        (1, (0b0110, 0b0110, 4), ConstructionSource.SPLICED_PATTERN),
        (2, (0, 0b11, 2), ConstructionSource.SPLICED_PATTERN),
    )
} | {
    (DominationKind.ONE_TWO_TOTAL, 0, 5):
        ((0b11111, 0, 5), _PAIRS, _NONE, ConstructionSource.SOLVER_DERIVED),
    (DominationKind.ONE_TWO, 0, 7):
        ((0b10001, 0b1110, 7), _PAIRS, _NONE, ConstructionSource.SMALL_CASE_TABLE),
    (DominationKind.ONE_TWO, 6, 1): (
        _NONE, (0b010010, 0b000011, 6), (0b0111000, 0b0000011, 7),
        ConstructionSource.SPLICED_PATTERN,
    ),
}
# the caller named when build_construction refuses n
_CALLERS = {kind: f"construct_{kind.name.lower()}" for kind in DominationKind}
# (kind, head, motif, tail, min(repeats, settled)) -> form_is_valid at that count
_SOUND: dict[tuple, bool] = {}


@dataclass(frozen=True)
class Construction:
    """A validated witness set together with the recipe that produced it."""

    n: int
    kind: DominationKind
    source: ConstructionSource
    vertex_set: VertexSet

    @property
    def size(self) -> int:
        return len(self.vertex_set)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind.value,
            "size": self.size,
            "set": self.vertex_set.names(),
            "source": self.source.value,
        }


def small_case_set(n: int) -> VertexSet:
    """The minimum [1,2]-dominating set for 5 <= n <= 11: the construction's."""
    n = require_int("n", n, 5, 11, "small_case_set")
    return build_construction(n, DominationKind.ONE_TWO).vertex_set


def _checked(form: ColumnForm, kind: DominationKind, size: int) -> VertexSet:
    """The form's set, checked against the target size and the kind, which is
    decided once per table entry and repeat count, all from settled on as one."""
    S = form.vertex_set()
    if len(S) != size:
        raise ConstructionError(
            f"{kind.value} construction for n={form.n} has size {len(S)}, expected {size}"
        )
    key = kind, form.head, form.motif, form.tail, min(form.repeats, form.settled)
    if (sound := _SOUND.get(key)) is None:
        sound = _SOUND[key] = form_is_valid(form._replace(repeats=key[-1]), kind)
    if not sound:
        raise ConstructionError(
            f"{kind.value} construction for n={form.n} failed validation"
        )
    return S


def build_construction(n: int, kind: DominationKind) -> Construction:
    """Validated witness construction for ONE_TWO or ONE_TWO_TOTAL; n above
    2^23 is refused with SizeLimitError."""
    kind = DominationKind.require(kind, "build_construction")
    if not kind.upper_bounded:
        raise ParameterError(
            f"constructions exist for one-two and one-two-total only, "
            f"got {kind.value}"
        )
    n = require_int("n", n, 5, caller=_CALLERS[kind])
    check_columns(n)
    # the most specific entry: for n itself, else for n mod 6, else n mod 3
    entry = _FORMS.get((kind, 0, n)) or _FORMS.get((kind, 6, n % 6))
    head, motif, tail, source = entry or _FORMS[kind, 3, n % 3]
    form = ColumnForm(head, motif, (n - head[2] - tail[2]) // motif[2], tail)
    return Construction(n, kind, source, _checked(form, kind, BY_KIND[kind](n)))


def construct_one_two(n: int) -> VertexSet:
    """A [1,2]-dominating set of P(n,2) of size exactly f_one_two(n)."""
    return build_construction(n, DominationKind.ONE_TWO).vertex_set


def construct_one_two_total(n: int) -> VertexSet:
    """A [1,2]-total dominating set of P(n,2) of size g_one_two_total(n)."""
    return build_construction(n, DominationKind.ONE_TWO_TOTAL).vertex_set
