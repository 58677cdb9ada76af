"""Transfer-matrix dynamic program for minimum dominating sets of P(n,2).

Exactness rests on locality: writing column j for the pair (u_j, v_j),
every adjacency of P(n,2) stays within a window of at most four
consecutive columns (the outer cycle links neighboring columns, spokes
stay inside a column, and the inner ring skips two columns).  Columns
are decided left to right and each vertex's constraint is checked at the
first column by which its whole neighborhood is decided, using
``DominationKind.accepts``.

State (the "interface" entering column j) is six membership bits:

    bit 0: u_{j-2}    bit 1: u_{j-1}
    bit 2: v_{j-4}    bit 3: v_{j-3}    bit 4: v_{j-2}    bit 5: v_{j-1}

Deciding column j means choosing (a, b) = (u_j in S, v_j in S), which
costs a + b and finalizes exactly two vertices, whose constraints are
checked against the kind:

    u_{j-1}: count = bit0 + a + bit5,  member flag = bit1
    v_{j-2}: count = bit2 + b + bit0,  member flag = bit4

The outgoing interface is (bit1, a, bit3, bit4, bit5, b).  Over columns
0..n-1 this checks every vertex exactly once and counts every chosen
vertex exactly once.

The cycle is closed by running the chain from every one of the 64
possible interfaces and requiring the interface exiting column n-1 to
equal the entering one; the entering bits play the role of the (not yet
decided) memberships of u_{n-2}, u_{n-1}, v_{n-4}..v_{n-1}, and the
equality check at the end forces the assumed values to match the actual
decisions.  The minimum over all interfaces of the closed-tour cost is
therefore exactly the minimum cardinality, for every n >= 5.

Witness reconstruction is a greedy walk over the vertices in canonical
order (u_0..u_{n-1}, then v_0..v_{n-1}): a vertex is kept in the witness
exactly when some minimum-size valid set contains it together with all
commitments made so far.  Feasibility of each trial commitment is read
off forward tables (cost of the committed prefix per interface/state)
combined with backward tables (cost to finish per state/interface), so
the returned witness is the lexicographically smallest minimum set, the
same tie-break the brute-force solver uses.  Memory for the backward
tables is O(n) 64x64 matrices.

Range sweep.  With no forced u-choices, the backward table of a suffix
of L columns is M^L, the L-th min-plus power of the 64x64 one-column
matrix M (the four choices merged), whatever n is: the same column step
is applied L times to the min-plus identity.  So the minimum for n is
the smallest diagonal entry of M^n, and ``dp_minima(lo, hi, kind)``
reads every minimum in lo..hi off one forward chain of hi column steps
holding a single table, where calling ``dp_min`` per n costs two O(n)
families and a witness each.

Exactness bound.  Costs are float32, whose integers are exact only up
to 2^24.  A column costs at most 2, so every table entry of an n-column
chain is an integer at most 2n, and n <= 2^23 keeps all of them exact.
``dp_min`` and ``dp_minima`` refuse larger n with ``SizeLimitError``
before allocating anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domination import DominationKind
from .errors import InfeasibleError, InternalError, ParameterError, SizeLimitError
from .graph import VertexSet
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_DUMMY = _N_STATES  # index of the infinite-cost padding row/column
_INF = np.float32(np.inf)
_ALL_CHOICES = (0, 1, 2, 3)
_MAX_N = 2**23  # costs stay <= 2 * _MAX_N = 2^24, where float32 is still exact


def _check_exact(n: int) -> None:
    if n > _MAX_N:
        raise SizeLimitError(
            f"float32 costs are exact only for n <= 2^23 = {_MAX_N}, got n={n}"
        )


@dataclass(frozen=True)
class _Machine:
    """Precomputed transition tables for one domination kind.

    succ[c, s]: successor state of s under choice c, or _DUMMY when the
    transition is infeasible.  pre[c, t] lists the up-to-four states s
    with succ[c, s] == t (padded with _DUMMY).  cost[c] = popcount(c).
    """

    succ: np.ndarray
    pre: np.ndarray
    cost: np.ndarray


def _build_machine(kind: DominationKind) -> _Machine:
    succ = np.full((4, _N_STATES), _DUMMY, dtype=np.int64)
    cost = np.zeros(4, dtype=np.float32)
    for c in range(4):
        a, b = c & 1, (c >> 1) & 1
        cost[c] = a + b
        for s in range(_N_STATES):
            u2, u1 = s & 1, (s >> 1) & 1
            v4, v3, v2, v1 = (s >> 2) & 1, (s >> 3) & 1, (s >> 4) & 1, (s >> 5) & 1
            if kind.accepts(u2 + a + v1, u1) and kind.accepts(v4 + b + u2, v2):
                succ[c, s] = u1 | (a << 1) | (v3 << 2) | (v2 << 3) | (v1 << 4) | (b << 5)
    pre = np.full((4, _N_STATES, 4), _DUMMY, dtype=np.int64)
    for c in range(4):
        fill = [0] * _N_STATES
        for s in range(_N_STATES):
            t = succ[c, s]
            if t != _DUMMY:
                pre[c, t, fill[t]] = s
                fill[t] += 1
    return _Machine(succ, pre, cost)


_MACHINES: dict[DominationKind, _Machine] = {}


def _machine(kind: DominationKind) -> _Machine:
    if kind not in _MACHINES:
        _MACHINES[kind] = _build_machine(kind)
    return _MACHINES[kind]


def _identity() -> np.ndarray:
    table = np.full((_N_STATES, _N_STATES), _INF, dtype=np.float32)
    np.fill_diagonal(table, 0.0)
    return table


def _pad_rows(table: np.ndarray) -> np.ndarray:
    """Append an all-infinite row so _DUMMY indexes cost infinity."""
    out = np.full((_N_STATES + 1, table.shape[1]), _INF, dtype=np.float32)
    out[:_N_STATES] = table
    return out


def _pad_cols(table: np.ndarray) -> np.ndarray:
    out = np.full((table.shape[0], _N_STATES + 1), _INF, dtype=np.float32)
    out[:, :_N_STATES] = table
    return out


def _column_step(
    table: np.ndarray, choices: tuple[int, ...], m: _Machine
) -> np.ndarray:
    """One backward column: T'[s, i] = min over c in choices of
    T[succ[c, s], i] + cost(c)."""
    padded = _pad_rows(table)
    best: np.ndarray | None = None
    for c in choices:
        cand = padded[m.succ[c]] + m.cost[c]
        best = cand if best is None else np.minimum(best, cand)
    return best


def _backward_family(
    n: int, m: _Machine, allowed_u: list[int] | None
) -> list[np.ndarray]:
    """B[j][s, i] = min cost of columns j..n-1 from interface s ending at
    interface i.  When allowed_u is given, the u-choice of column j is
    forced to allowed_u[j]."""
    family: list[np.ndarray] = [np.empty(0)] * (n + 1)
    family[n] = _identity()
    for j in range(n - 1, -1, -1):
        if allowed_u is None:
            choices = _ALL_CHOICES
        else:
            choices = (allowed_u[j], allowed_u[j] | 2)
        family[j] = _column_step(family[j + 1], choices, m)
    return family


def _closed_minimum(table: np.ndarray, n: int, kind: DominationKind) -> int:
    """Smallest closed-tour cost (diagonal entry) of an n-column table."""
    minimum = float(np.diagonal(table).min())
    if not np.isfinite(minimum):
        raise InfeasibleError(f"no valid {kind.value} set exists in P({n},2)")
    return int(minimum)


def _forward_step(
    table: np.ndarray, choices: tuple[int, ...], m: _Machine
) -> np.ndarray:
    """One forward column: F'[i, t] = min over allowed c and preimages s
    of F[i, s] + cost(c)."""
    padded = _pad_cols(table)
    best: np.ndarray | None = None
    for c in choices:
        cand = padded[:, m.pre[c]].min(axis=2) + m.cost[c]
        best = cand if best is None else np.minimum(best, cand)
    return best


def _combine(
    forward: np.ndarray,
    backward_next: np.ndarray,
    choices: tuple[int, ...],
    m: _Machine,
) -> float:
    """Min total cost over interfaces of prefix + one column + suffix."""
    padded = _pad_rows(backward_next)
    best = np.float32(np.inf)
    for c in choices:
        suffix = padded[m.succ[c]]
        total = forward + suffix.T
        cand = total.min() + m.cost[c]
        if cand < best:
            best = cand
    return float(best)


def dp_min(n: int, kind: DominationKind) -> SolveResult:
    """Exact minimum dominating set of P(n,2) of the given kind.

    Exhaustive over all subsets by the transfer-matrix argument above;
    the witness is the lexicographically smallest minimum set under the
    canonical vertex order.
    """
    if n < 5:
        raise ParameterError(f"dp_min requires n >= 5, got n={n}")
    _check_exact(n)
    m = _machine(kind)

    backward = _backward_family(n, m, None)
    minimum = _closed_minimum(backward[0], n, kind)

    # phase 1: fix outer memberships greedily, inner choices left free
    u_bits: list[int] = []
    forward = _identity()
    for j in range(n):
        val = _combine(forward, backward[j + 1], (1, 3), m)
        bit = 1 if val == minimum else 0
        u_bits.append(bit)
        forward = _forward_step(forward, (1, 3) if bit else (0, 2), m)

    # phase 2: outer memberships frozen, fix inner memberships greedily
    backward = _backward_family(n, m, u_bits)
    v_bits: list[int] = []
    forward = _identity()
    for j in range(n):
        val = _combine(forward, backward[j + 1], (u_bits[j] | 2,), m)
        bit = 1 if val == minimum else 0
        v_bits.append(bit)
        forward = _forward_step(forward, (u_bits[j] | (bit << 1),), m)

    witness = VertexSet.from_arrays(u_bits, v_bits)
    if len(witness) != minimum:
        raise InternalError(
            f"reconstructed witness has size {len(witness)}, expected {minimum}"
        )
    return SolveResult(n, 2, kind, minimum, witness, SolveMethod.TRANSFER_DP)


def dp_minima(lo: int, hi: int, kind: DominationKind) -> list[int]:
    """Exact minimum of the given kind for every n in lo..hi, in order.

    Equal to ``[dp_min(n, kind).minimum for n in range(lo, hi + 1)]``,
    from one chain of hi column steps (see the range sweep above).
    """
    if lo < 5:
        raise ParameterError(f"dp_minima requires lo >= 5, got lo={lo}")
    if lo > hi:
        raise ParameterError(f"dp_minima requires lo <= hi, got lo={lo}, hi={hi}")
    _check_exact(hi)
    m = _machine(kind)
    table = _identity()
    minima: list[int] = []
    for n in range(1, hi + 1):
        table = _column_step(table, _ALL_CHOICES, m)
        if n >= lo:
            minima.append(_closed_minimum(table, n, kind))
    return minima
