"""Explicit minimum witness constructions for P(n,2).

For every n >= 5 these produce a [1,2]-dominating set of size exactly
f_one_two(n) and a [1,2]-total dominating set of size exactly
g_one_two_total(n).  Both kinds read one recipe table keyed by n mod 3
(the residues mod 6 pair up): the middle pair {u_i, v_i} of every third
column, i = 1 (mod 3), up to a stop column, then a tail.

* 0, 3: pairs on every third column, no tail.
* 1, 4: pairs up to column n-3, then the pair {u_{n-2}, v_{n-2}}: one
  recipe, for [1,2]-domination at residue 4 and the total variant at 1.
* 2, 5: pairs up to column n-4, then the tail {v_{n-2}, v_{n-1}}.

These sets are total dominating as emitted.  Special cases come first;
their exceptional windows sit at the highest columns:

* n = 7, [1,2]-domination: the small-case table's set.
* n = 5, total variant: the outer five-cycle, the exact-solver witness.
* n = 1 (mod 6), n >= 13, [1,2]-domination: a period-6 motif
  {v_j, v_{j+1}, u_{j+1}, u_{j+4}} on columns 0..n-8 followed by the
  seven-column exceptional window {v_{n-7}, v_{n-6}, u_{n-4}, u_{n-3},
  u_{n-2}}.  Stride-3 pair cores provably cannot be completed to a
  minimum set in this residue (no valid minimum set of P(13,2) contains
  two middle pairs three columns apart), so the motif was extracted
  from exact-solver witnesses and machine-validated across the residue
  class.

Every construction is validated at emit time against its predicate and
its target cardinality, on the same membership arrays it is emitted
from; a failure raises ConstructionError because these sets serve as
acceptance oracles elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domination import DominationKind, counts
from .errors import ConstructionError, ParameterError, check_columns, require_int
from .formulas import BY_KIND, f_one_two
from .graph import VertexSet

__all__ = [
    "ConstructionSource",
    "Construction",
    "build_construction",
    "small_case_set",
    "construct_one_two",
    "construct_one_two_total",
]

# minimum [1,2]-dominating sets for 5 <= n <= 11, (outer indices, inner indices);
# lists, since a tuple used as an index selects dimensions
_SMALL_CASES: dict[int, tuple[list[int], list[int]]] = {
    5: ([1], [1, 3, 4]),
    6: ([1, 4], [1, 4]),
    7: ([0, 4], [1, 2, 3]),
    8: ([1, 4], [1, 4, 6, 7]),
    9: ([1, 4, 7], [1, 4, 7]),
    10: ([1, 4, 7, 8], [1, 4, 7, 8]),
    11: ([1, 4, 7], [1, 4, 7, 9, 10]),
}


class ConstructionSource(Enum):
    SMALL_CASE_TABLE = "small-case-table"
    PERIODIC_PATTERN = "periodic-pattern"
    SPLICED_PATTERN = "spliced-pattern"
    SOLVER_DERIVED = "solver-derived"


_NO_TAIL = np.array([], dtype=np.int64)
# n mod 3 -> (pairs end below column n - stop, outer and inner tail columns
# counted back from n, source); see the module docstring
_STRIDE_RECIPES = {
    0: (0, _NO_TAIL, _NO_TAIL, ConstructionSource.PERIODIC_PATTERN),
    1: (2, np.array([2]), np.array([2]), ConstructionSource.SPLICED_PATTERN),
    2: (3, _NO_TAIL, np.array([2, 1]), ConstructionSource.SPLICED_PATTERN),
}


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
    """The tabulated minimum [1,2]-dominating set for 5 <= n <= 11."""
    n = require_int("n", n, 5, 11, "small_case_set")
    U, V = _validate(n, *_SMALL_CASES[n], DominationKind.ONE_TWO, f_one_two(n))
    return VertexSet.from_arrays(U, V)


def _recipe(
    n: int, kind: DominationKind
) -> tuple[np.ndarray, np.ndarray, ConstructionSource]:
    """Column index arrays (outer, inner) and source of the recipe for n >= 5."""
    if kind is DominationKind.ONE_TWO_TOTAL and n == 5:
        return np.arange(5), np.arange(0), ConstructionSource.SOLVER_DERIVED
    if kind is DominationKind.ONE_TWO and n == 7:
        return *map(np.array, _SMALL_CASES[7]), ConstructionSource.SMALL_CASE_TABLE
    if kind is DominationKind.ONE_TWO and n % 6 == 1:
        # period-6 motif on columns 0..n-8, then the seven-column window
        j = np.arange(0, n - 12, 6)
        outer = np.r_[j + 1, j + 4, n - 4 : n - 1]
        return outer, np.r_[j, j + 1, n - 7, n - 6], ConstructionSource.SPLICED_PATTERN
    stop, outer_tail, inner_tail, source = _STRIDE_RECIPES[n % 3]
    pairs = np.arange(1, n - stop, 3)
    return np.r_[pairs, n - outer_tail], np.r_[pairs, n - inner_tail], source


def _validate(
    n: int, outer, inner, kind: DominationKind, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Membership arrays of the set with the given column indices (arrays
    or lists), checked against the kind and the target size."""
    U = np.zeros(n, dtype=np.uint8)
    V = np.zeros(n, dtype=np.uint8)
    U[outer] = 1
    V[inner] = 1
    got = int(U.sum() + V.sum())
    if got != size:
        raise ConstructionError(
            f"{kind.value} construction for n={n} has size {got}, expected {size}"
        )
    cu, cv = counts(n, 2, U, V)
    if not (kind.accepts(cu, U).all() and kind.accepts(cv, V).all()):
        raise ConstructionError(
            f"{kind.value} construction for n={n} failed validation"
        )
    return U, V


def build_construction(n: int, kind: DominationKind) -> Construction:
    """Validated witness construction for ONE_TWO or ONE_TWO_TOTAL; n above
    2^23 is refused with SizeLimitError."""
    if not kind.upper_bounded:
        raise ParameterError(
            f"constructions exist for one-two and one-two-total only, "
            f"got {kind.value}"
        )
    n = require_int("n", n, 5, caller=f"construct_{kind.name.lower()}")
    check_columns(n)
    outer, inner, source = _recipe(n, kind)
    U, V = _validate(n, outer, inner, kind, BY_KIND[kind](n))
    return Construction(n, kind, source, VertexSet.from_arrays(U, V))


def construct_one_two(n: int) -> VertexSet:
    """A [1,2]-dominating set of P(n,2) of size exactly f_one_two(n)."""
    return build_construction(n, DominationKind.ONE_TWO).vertex_set


def construct_one_two_total(n: int) -> VertexSet:
    """A [1,2]-total dominating set of P(n,2) of size g_one_two_total(n)."""
    return build_construction(n, DominationKind.ONE_TWO_TOTAL).vertex_set
