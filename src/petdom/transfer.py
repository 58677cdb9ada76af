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
same tie-break the brute-force solver uses.  The outer bits are fixed
first with the inner choices free (phase 1), then the inner bits with
the outer ones frozen (phase 2).

Periodic free suffix tables.  With no forced choices, the backward table
of a suffix of L columns is M^L, the L-th min-plus power of the 64x64
one-column matrix M (the four choices merged), whatever n is.  These
powers are eventually periodic: once M^L minus its smallest entry equals
an earlier M^N minus its own, byte for byte, M^(N+p+L') = M^(N+L') + lam
for every L' >= 0, where p = L - N and lam is the difference of the two
smallest entries.  So one chain per kind, built once on first use, holds
only M^0..M^(N+p-1), at most 24 tables, and gives M^L for any L as
M^(N + (L-N) % p) + lam * ((L-N) // p).  The minimum for n is the
smallest diagonal entry of M^n; ``dp_minima`` reads it off the chain for
every n in a range, and phase 1 reads its suffix tables from it.  Only
phase 2, whose suffixes depend on the fixed outer bits, builds a backward
family of its own.

Live start interfaces.  Each row of the forward table is one start
interface of the closed tour.  A row whose best closed total under the
commitments made so far exceeds the minimum is dropped: a further
commitment only removes tours, so its total can never fall back to the
minimum, and the test "some row attains the minimum" reads the same
without it.  In practice one to three rows are left after a few
columns, so phase 2's backward family has one column per live row, not 64.

Exactness bound.  Costs are float32, whose integers are exact only up
to 2^24.  A column costs at most 2, so every table entry of an n-column
chain is an integer at most 2n, and n <= 2^23 keeps all of them exact.
``dp_min`` and ``dp_minima`` refuse larger n with ``SizeLimitError``
before allocating anything.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .domination import DominationKind
from .errors import InfeasibleError, InternalError, ParameterError, SizeLimitError
from .graph import VertexSet
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_INF = np.float32(np.inf)
_ALL_CHOICES = np.arange(4)
_MAX_N = 2**23  # costs stay <= 2 * _MAX_N = 2^24, where float32 is still exact


def _check_exact(n: int) -> None:
    if n > _MAX_N:
        raise SizeLimitError(
            f"float32 costs are exact only for n <= 2^23 = {_MAX_N}, got n={n}"
        )


class _Chain:
    """Transition tables of one kind and its free suffix tables M^L.

    succ[c, s] is the successor interface of s under choice c and
    cost[c, s, 0] its cost a + b, or INF where the kind refuses it;
    pre[c, t] lists the four states s with succ[c, s] == t, or none, and
    pre_cost[c, t] their costs (INF where none is feasible).  Built whole:
    tables holds M^0..M^(N+p-1), stepped from the identity until a power
    less its minimum repeats, and cycle = (N, p, lam) as described above.
    """

    def __init__(self, kind: DominationKind) -> None:
        self.succ = np.empty((4, _N_STATES), dtype=np.int64)
        self.cost = np.empty((4, _N_STATES, 1), dtype=np.float32)
        self.pre = np.zeros((4, _N_STATES, 4), dtype=np.int64)
        self.pre_cost = np.full((4, _N_STATES, 4), _INF, dtype=np.float32)
        for c in range(4):
            a, b = c & 1, (c >> 1) & 1
            for s in range(_N_STATES):
                u2, u1 = s & 1, (s >> 1) & 1
                v4, v3, v2, v1 = (s >> 2) & 1, (s >> 3) & 1, (s >> 4) & 1, (s >> 5) & 1
                t = u1 | (a << 1) | (v3 << 2) | (v2 << 3) | (v1 << 4) | (b << 5)
                ok = kind.accepts(u2 + a + v1, u1) and kind.accepts(v4 + b + u2, v2)
                cost = a + b if ok else _INF
                i = u2 | (v4 << 1)  # t drops u2 and v4: they number its predecessors
                self.succ[c, s], self.cost[c, s] = t, cost
                self.pre[c, t, i], self.pre_cost[c, t, i] = s, cost
        identity = np.full((_N_STATES, _N_STATES), _INF, dtype=np.float32)
        np.fill_diagonal(identity, 0.0)
        self.tables = [identity]
        seen = {identity.tobytes(): 0}  # table minus its minimum -> L
        while True:
            table = _column_step(self.tables[-1], _ALL_CHOICES, self)
            low = table.min()
            start = seen.setdefault((table - low).tobytes(), len(self.tables))
            if start < len(self.tables):
                break
            self.tables.append(table)
        lam = int(low - self.tables[start].min())
        self.cycle = (start, len(self.tables) - start, lam)

    def power(self, length: int) -> tuple[np.ndarray, int]:
        """(table, offset) with M^length = table + offset."""
        start, period, lam = self.cycle
        if length < start:
            return self.tables[length], 0
        periods, rest = divmod(length - start, period)
        return self.tables[start + rest], lam * periods


_CHAINS: dict[DominationKind, _Chain] = {}


def _chain(kind: DominationKind) -> _Chain:
    if kind not in _CHAINS:
        _CHAINS[kind] = _Chain(kind)
    return _CHAINS[kind]


def _column_step(
    table: np.ndarray, choices: np.ndarray, m: _Chain, out: np.ndarray | None = None
) -> np.ndarray:
    """One backward column: T'[s, i] = min over c in choices of
    T[succ[c, s], i] + cost[c, s]."""
    return np.minimum.reduce(table[m.succ[choices]] + m.cost[choices], axis=0, out=out)


def _closed_minimum(table: np.ndarray, offset: int, n: int, kind: DominationKind) -> int:
    """Smallest closed-tour cost (diagonal entry) of an n-column table."""
    minimum = float(np.diagonal(table).min()) + offset
    if not np.isfinite(minimum):
        raise InfeasibleError(f"no valid {kind.value} set exists in P({n},2)")
    return int(minimum)


def _greedy_bits(
    m: _Chain,
    minimum: int,
    rows: np.ndarray,
    cols: np.ndarray,
    suffix: Callable[[int], tuple[np.ndarray, int]],
    options: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Fix one membership bit per column, left to right: set it exactly
    when some closed tour of cost minimum extends the commitments so far.

    rows are the live start interfaces and cols their columns in
    suffix(j), the (table, offset) of columns j..n-1; options[j] holds
    the choices of column j with the bit set and with it unset.  Returns
    the bits and the start interfaces still live after the last column.
    """
    forward = np.full((len(rows), _N_STATES), _INF, dtype=np.float32)
    forward[np.arange(len(rows)), rows] = 0.0  # F[r, t]: prefix cost from rows[r]
    bits: list[int] = []
    for j, (yes, no) in enumerate(options):
        table, offset = suffix(j + 1)
        table = table[:, cols] + offset
        totals = np.minimum.reduce(forward + _column_step(table, yes, m).T, axis=1)
        bit = int(np.minimum.reduce(totals) == minimum)
        if len(rows) > 1:
            if not bit:
                totals = np.minimum.reduce(forward + _column_step(table, no, m).T, axis=1)
            live = totals <= minimum
            forward, rows, cols = forward[live], rows[live], cols[live]
        chosen = yes if bit else no
        gathered = forward[:, m.pre[chosen]] + m.pre_cost[chosen]
        forward = np.minimum.reduce(gathered, axis=(1, 3))
        bits.append(bit)
    return bits, rows


def dp_min(n: int, kind: DominationKind) -> SolveResult:
    """Exact minimum dominating set of P(n,2) of the given kind.

    Exhaustive over all subsets by the transfer-matrix argument above;
    the witness is the lexicographically smallest minimum set under the
    canonical vertex order.
    """
    if n < 5:
        raise ParameterError(f"dp_min requires n >= 5, got n={n}")
    _check_exact(n)
    m = _chain(kind)
    table, offset = m.power(n)
    minimum = _closed_minimum(table, offset, n, kind)
    rows = np.flatnonzero(np.diagonal(table) + offset == minimum)

    # phase 1: fix outer memberships greedily, inner choices left free
    outer = np.broadcast_to([[1, 3], [0, 2]], (n, 2, 2))
    u_bits, rows = _greedy_bits(m, minimum, rows, rows, lambda j: m.power(n - j), outer)

    # phase 2: outer memberships frozen, fix inner memberships greedily
    u = np.array(u_bits)
    inner = np.stack([u | 2, u], axis=1)[:, :, None]
    family = np.full((n + 1, _N_STATES, len(rows)), _INF, dtype=np.float32)
    family[n, rows, np.arange(len(rows))] = 0.0
    for j in range(n - 1, -1, -1):
        _column_step(family[j + 1], inner[j, :, 0], m, out=family[j])
    cols = np.arange(len(rows))
    v_bits, _ = _greedy_bits(m, minimum, rows, cols, lambda j: (family[j], 0), inner)

    witness = VertexSet.from_arrays(u_bits, v_bits)
    if len(witness) != minimum:
        raise InternalError(
            f"reconstructed witness has size {len(witness)}, expected {minimum}"
        )
    return SolveResult(n, 2, kind, minimum, witness, SolveMethod.TRANSFER_DP)


def dp_minima(lo: int, hi: int, kind: DominationKind) -> list[int]:
    """Exact minimum of the given kind for every n in lo..hi, in order.

    Equal to ``[dp_min(n, kind).minimum for n in range(lo, hi + 1)]``,
    read off the kind's cached chain of free suffix tables (see above).
    """
    if lo < 5:
        raise ParameterError(f"dp_minima requires lo >= 5, got lo={lo}")
    if lo > hi:
        raise ParameterError(f"dp_minima requires lo <= hi, got lo={lo}, hi={hi}")
    _check_exact(hi)
    m = _chain(kind)
    return [_closed_minimum(*m.power(n), n, kind) for n in range(lo, hi + 1)]
