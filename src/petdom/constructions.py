"""Explicit minimum witness constructions for P(n,2).

For every n >= 5 these produce a [1,2]-dominating set of size exactly
f_one_two(n) and a [1,2]-total dominating set of size exactly
g_one_two_total(n).  The recipes, by residue of n mod 6:

* 0, 3: the middle pair {u_i, v_i} of every third column, i = 1 (mod 3).
* 2, 5: the same stride-3 pairs up to column n-4, then the tail
  {v_{n-2}, v_{n-1}}.
* 4:    stride-3 pairs up to column n-3, then the tail {u_{n-2}, v_{n-2}}.
* 1, [1,2]-domination: a period-6 motif {v_j, v_{j+1}, u_{j+1}, u_{j+4}}
  on columns 0..n-8 followed by the seven-column exceptional window
  {v_{n-7}, v_{n-6}, u_{n-4}, u_{n-3}, u_{n-2}}.  Stride-3 pair cores
  provably cannot be completed to a minimum set in this residue (no
  valid minimum set of P(13,2) contains two middle pairs three columns
  apart), so the motif was extracted from exact-solver witnesses and
  machine-validated across the residue class.
* 1, total variant: stride-3 pairs up to column n-3 plus the doubled
  pair at column n-2.
* n = 5, total variant: the outer five-cycle {u_0..u_4}, the
  exact-solver witness.

The stride-3 sets for residues != 1 are total dominating as emitted, so
the total variant reuses them.  Exceptional windows always sit at the
highest column indices, matching the small-case layout.

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
from .errors import ConstructionError, ParameterError
from .formulas import f_one_two, g_one_two_total
from .graph import VertexSet

__all__ = [
    "ConstructionSource",
    "Construction",
    "build_construction",
    "small_case_set",
    "construct_one_two",
    "construct_one_two_total",
]

# minimum [1,2]-dominating sets for 5 <= n <= 11, (outer indices, inner indices)
_SMALL_CASES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    5: ((1,), (1, 3, 4)),
    6: ((1, 4), (1, 4)),
    7: ((0, 4), (1, 2, 3)),
    8: ((1, 4), (1, 4, 6, 7)),
    9: ((1, 4, 7), (1, 4, 7)),
    10: ((1, 4, 7, 8), (1, 4, 7, 8)),
    11: ((1, 4, 7), (1, 4, 7, 9, 10)),
}


class ConstructionSource(Enum):
    SMALL_CASE_TABLE = "small-case-table"
    PERIODIC_PATTERN = "periodic-pattern"
    SPLICED_PATTERN = "spliced-pattern"
    SOLVER_DERIVED = "solver-derived"


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
    if n not in _SMALL_CASES:
        raise ParameterError(f"small_case_set requires 5 <= n <= 11, got n={n}")
    U, V = _validate(n, *_SMALL_CASES[n], DominationKind.ONE_TWO, f_one_two(n))
    return VertexSet.from_arrays(U, V)


def _pattern_one_two(n: int) -> tuple[list[int], list[int], ConstructionSource]:
    """Column index lists (outer, inner) for the [1,2]-domination recipe."""
    r = n % 6
    if r in (0, 3):
        cols = list(range(1, n, 3))
        return cols, list(cols), ConstructionSource.PERIODIC_PATTERN
    if r in (2, 5):
        cols = list(range(1, n - 3, 3))
        return cols, cols + [n - 2, n - 1], ConstructionSource.SPLICED_PATTERN
    if r == 4:
        cols = list(range(1, n - 2, 3))
        return cols + [n - 2], cols + [n - 2], ConstructionSource.SPLICED_PATTERN
    # r == 1, n >= 13: period-6 motif plus the seven-column window
    outer: list[int] = []
    inner: list[int] = []
    for t in range((n - 7) // 6):
        j = 6 * t
        inner += [j, j + 1]
        outer += [j + 1, j + 4]
    inner += [n - 7, n - 6]
    outer += [n - 4, n - 3, n - 2]
    return outer, inner, ConstructionSource.SPLICED_PATTERN


def _pattern_one_two_total(n: int) -> tuple[list[int], list[int], ConstructionSource]:
    if n == 5:
        return [0, 1, 2, 3, 4], [], ConstructionSource.SOLVER_DERIVED
    if n % 6 == 1:
        cols = list(range(1, n - 2, 3)) + [n - 2]
        return cols, list(cols), ConstructionSource.SPLICED_PATTERN
    return _pattern_one_two(n)


def _validate(
    n: int, outer, inner, kind: DominationKind, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Membership arrays of the set with the given column index lists,
    checked against the kind and the target size."""
    U = np.zeros(n, dtype=np.uint8)
    V = np.zeros(n, dtype=np.uint8)
    U[list(outer)] = 1
    V[list(inner)] = 1
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
    """Validated witness construction for ONE_TWO or ONE_TWO_TOTAL."""
    if kind is DominationKind.ONE_TWO:
        if n < 5:
            raise ParameterError(f"construct_one_two requires n >= 5, got n={n}")
        if n == 7:
            outer, inner = _SMALL_CASES[7]
            source = ConstructionSource.SMALL_CASE_TABLE
        else:
            outer, inner, source = _pattern_one_two(n)
        size = f_one_two(n)
    elif kind is DominationKind.ONE_TWO_TOTAL:
        if n < 5:
            raise ParameterError(
                f"construct_one_two_total requires n >= 5, got n={n}"
            )
        outer, inner, source = _pattern_one_two_total(n)
        size = g_one_two_total(n)
    else:
        raise ParameterError(
            f"constructions exist for one-two and one-two-total only, "
            f"got {kind.value}"
        )
    U, V = _validate(n, outer, inner, kind, size)
    return Construction(n, kind, source, VertexSet.from_arrays(U, V))


def construct_one_two(n: int) -> VertexSet:
    """A [1,2]-dominating set of P(n,2) of size exactly f_one_two(n)."""
    return build_construction(n, DominationKind.ONE_TWO).vertex_set


def construct_one_two_total(n: int) -> VertexSet:
    """A [1,2]-total dominating set of P(n,2) of size g_one_two_total(n)."""
    return build_construction(n, DominationKind.ONE_TWO_TOTAL).vertex_set
