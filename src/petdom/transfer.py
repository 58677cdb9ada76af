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
every n in a range, and phase 1 reads its suffix tables from it.  Phase
2's suffixes depend on the fixed outer bits, so it steps a backward
family of its own, which is periodic too (below).

Live start interfaces.  Each row of the forward table is one start
interface of the closed tour.  A row whose best closed total under the
commitments made so far exceeds the minimum is dropped: a further
commitment only removes tours, so its total can never fall back to the
minimum, and the test "some row attains the minimum" reads the same
without it.  In practice one to three rows are left after a few
columns, so phase 2's backward family has one column per live row, not 64.

Periodic witness reconstruction.  A greedy walk is a deterministic
process whose state entering column j is the live rows and the forward
table less its minimum (the minimum is carried as an int, base).  Its
step at column j reads only that state, the column's options and the
suffix table of columns j+1..n-1, and it is unchanged when the suffix
table moves by a constant: by the greedy invariant the best total equals
the minimum, so the target minimum - base - offset moves with it.  Where
options and suffix tables repeat with period P, a state that repeats
(same rows and forward table at the same phase mod P, found with a dict)
therefore repeats every q columns from there on: the walk tiles that
stretch's bits, adds its cost to base per period, and jumps ahead,
stepping again only near the end.  In phase 1 the suffix tables are the
chain's, periodic while at least N columns remain, and the state repeats
within about 20 columns.  The outer bits it returns are a prefix, a
periodic stretch and a tail, so phase 2's backward family, stepped from
the tail, repeats up to a constant inside the periodic stretch; only the
tables from the tail to that repeat are stored, the rest are one of them
plus a shift, and the tables before the stretch are stepped from it.
Phase 2's walk then skips periods the same way.  Each phase runs a
number of column steps independent of n; only the bit arrays, the
witness and its validation are O(n).

Exactness bound.  Table entries are float32, whose integers are exact
only up to 2^24, and offsets and bases are Python ints.  The chain's
tables and the walks' forward and stored suffix tables only hold costs
of a bounded number of columns (all n of them only when n is too short
to show a period), so every entry stays small; the minimum
is int(smallest diagonal entry) + offset.  ``dp_min`` and ``dp_minima``
still refuse n > 2^23 with ``SizeLimitError`` before allocating
anything.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple, TypeVar

import numpy as np

from .domination import DominationKind
from .errors import InfeasibleError, InternalError, ParameterError, SizeLimitError
from .graph import VertexSet
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_INF = np.float32(np.inf)
_ALL_CHOICES = np.arange(4)
_OUTER = np.array([[1, 3], [0, 2]])  # choices with u_j in S, and without
_INNER = np.array([[[2], [0]], [[3], [1]]])  # [u_j]: with v_j in S, and without
_MAX_N = 2**23  # costs stay <= 2 * _MAX_N = 2^24, where float32 is still exact
_NO_PERIOD = (0, 0, 1)  # a (lo, hi, P) period that holds for no column

_State = TypeVar("_State")
_Suffix = Callable[[int], tuple[np.ndarray, int]]


def _check_exact(n: int) -> None:
    if n > _MAX_N:
        raise SizeLimitError(
            f"float32 costs are exact only for n <= 2^23 = {_MAX_N}, got n={n}"
        )


def _until_repeat(
    first: _State,
    step: Callable[[_State, int], _State | None],
    key: Callable[[_State, int], Hashable],
) -> tuple[list[_State], int | None]:
    """Walk x_0 = first, x_(i+1) = step(x_i, i) until key(x_i, i) equals
    key(x_s, s) for some s < i, or step returns None.

    Returns x_0..x_i and s, or None for s if step ended the walk.
    """
    walk, seen = [first], {key(first, 0): 0}
    while (state := step(walk[-1], len(walk) - 1)) is not None:
        walk.append(state)
        start = seen.setdefault(key(state, len(walk) - 1), len(walk) - 1)
        if start < len(walk) - 1:
            return walk, start
    return walk, None


def _less_min(table: np.ndarray) -> bytes:
    """The bytes of a table less its minimum, equal for tables equal up to
    a constant."""
    return (table - table.min()).tobytes()


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
        tables, start = _until_repeat(
            identity,
            lambda table, _: _column_step(table, _ALL_CHOICES, self),
            lambda table, _: _less_min(table),
        )
        self.tables = tables[:-1]
        lam = int(tables[-1].min() - tables[start].min())
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


def _column_step(table: np.ndarray, choices: np.ndarray, m: _Chain) -> np.ndarray:
    """One backward column: T'[s, i] = min over c in choices of
    T[succ[c, s], i] + cost[c, s]."""
    return np.minimum.reduce(table[m.succ[choices]] + m.cost[choices], axis=0)


def _closed_minimum(table: np.ndarray, offset: int, n: int, kind: DominationKind) -> int:
    """Smallest closed-tour cost (diagonal entry) of an n-column table."""
    low = np.diagonal(table).min()
    if not np.isfinite(low):
        raise InfeasibleError(f"no valid {kind.value} set exists in P({n},2)")
    return int(low) + offset


class _Walk(NamedTuple):
    """A greedy walk entering a column: forward[r, t] + base is the
    cheapest committed prefix from start interface rows[r] to interface
    t, with forward's minimum 0; cols[r] is rows[r]'s column in the suffix
    tables, and bit the bit fixed at the column before."""

    forward: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    base: int
    bit: int = 0


def _greedy_bits(
    m: _Chain,
    minimum: int,
    rows: np.ndarray,
    cols: np.ndarray,
    suffix: _Suffix,
    options: Callable[[int], np.ndarray],
    n: int,
    period: tuple[int, int, int],
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Fix one membership bit per column, left to right: set it exactly
    when some closed tour of cost minimum extends the commitments so far.

    rows are the live start interfaces and cols their columns in
    suffix(j), the (table, offset) of columns j..n-1; options(j) holds
    the choices of column j with the bit set and with it unset.  period
    (lo, hi, P) says that columns x and x + P have the same options and
    suffix tables equal up to a constant whenever lo <= x and x + P < hi;
    there a repeated walk state is skipped ahead by whole periods.
    Returns the bits, the start interfaces still live after the last
    column and (a, b, q): bit x equals bit x + q whenever a <= x and
    x + q < b.
    """

    def step(walk: _Walk, j: int) -> _Walk:
        forward, rows, cols = walk.forward, walk.rows, walk.cols
        yes, no = options(j)
        table, offset = suffix(j + 1)
        table = table[:, cols]
        goal = minimum - walk.base - offset
        totals = np.minimum.reduce(forward + _column_step(table, yes, m).T, axis=1)
        bit = int(np.minimum.reduce(totals) == goal)
        if len(rows) > 1:
            if not bit:
                totals = np.minimum.reduce(forward + _column_step(table, no, m).T, axis=1)
            live = totals <= goal
            forward, rows, cols = forward[live], rows[live], cols[live]
        chosen = yes if bit else no
        gathered = forward[:, m.pre[chosen]] + m.pre_cost[chosen]
        forward = np.minimum.reduce(gathered, axis=(1, 3))
        low = forward.min()
        return _Walk(forward - low, rows, cols, walk.base + int(low), bit)

    bits = np.empty(n, dtype=np.uint8)

    def run(walk: _Walk, start: int, stop: int) -> _Walk:
        for j in range(start, stop):
            walk = step(walk, j)
            bits[j] = walk.bit
        return walk

    lo, hi, P = period
    forward = np.full((len(rows), _N_STATES), _INF, dtype=np.float32)
    forward[np.arange(len(rows)), rows] = 0.0  # F[r, t]: prefix cost from rows[r]
    walks, start = _until_repeat(
        run(_Walk(forward, rows, cols, 0), 0, lo),
        lambda walk, i: step(walk, lo + i) if lo + i + P < hi else None,
        lambda walk, i: (i % P, walk.rows.tobytes(), walk.forward.tobytes()),
    )
    j = lo + len(walks) - 1
    bits[lo:j] = [walk.bit for walk in walks[1:]]
    walk, skip = walks[-1], _NO_PERIOD
    if start is not None:
        q = len(walks) - 1 - start
        periods = (hi - j) // q
        bits[j:j + periods * q] = np.tile(bits[j - q:j], periods)
        walk = walk._replace(base=walk.base + periods * (walk.base - walks[start].base))
        skip = (j - q, j + periods * q, q)
        j += periods * q
    return bits, run(walk, j, n).rows, skip


def _family(
    m: _Chain, u: np.ndarray, rows: np.ndarray, period: tuple[int, int, int]
) -> tuple[_Suffix, tuple[int, int, int]]:
    """Phase 2's suffix tables: family(j) = (table, offset) of columns
    j..n-1 with the outer bits u fixed, one column per live start row,
    and the period of family(j + 1) as ``_greedy_bits`` takes it.

    u repeats with period q on a..b-1, period = (a, b, q).  Stepped back
    from column n until, inside that stretch, a table less its minimum
    repeats the one P columns later at the same phase mod q; below that
    column r, family(j) = family(j + s*P) + s*d down to a, and the tables
    before a are stepped from family(a).
    """
    n = len(u)
    a, b, q = period
    last = np.full((_N_STATES, len(rows)), _INF, dtype=np.float32)
    last[rows, np.arange(len(rows))] = 0.0

    def step(table: np.ndarray, i: int) -> np.ndarray | None:
        j = n - 1 - i  # tables[i] is family(n - i), and this is family(j)
        return _column_step(table, _INNER[u[j]][:, 0], m) if j >= 0 else None

    def key(table: np.ndarray, i: int) -> Hashable:
        j = n - i  # only tables inside u's periodic stretch may match
        return ((j - a) % q, _less_min(table)) if a <= j <= b else j

    tables, start = _until_repeat(last, step, key)
    if start is None:
        return (lambda j: (tables[n - j], 0)), _NO_PERIOD
    r, P = n - len(tables) + 1, len(tables) - 1 - start
    d = int(tables[-1].min() - tables[start].min())

    def shifted(j: int) -> tuple[np.ndarray, int]:
        s = max(0, -(-(r - j) // P))
        return tables[n - j - s * P], s * d

    head, offset = shifted(a)
    heads = [head]  # heads[i] + offset is family(a - i)
    for j in range(a - 1, -1, -1):
        heads.append(_column_step(heads[-1], _INNER[u[j]][:, 0], m))
    return (lambda j: (heads[a - j], offset) if j < a else shifted(j)), (a, r + P, P)


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
    rows = np.flatnonzero(np.diagonal(table) == minimum - offset)

    # phase 1: fix outer memberships greedily, inner choices left free;
    # its suffix tables repeat with period p while N columns remain
    start, period, _ = m.cycle
    u, rows, u_period = _greedy_bits(
        m, minimum, rows, rows, lambda j: m.power(n - j), lambda j: _OUTER,
        n, (0, n - start, period),
    )

    # phase 2: outer memberships frozen, fix inner memberships greedily
    family, family_period = _family(m, u, rows, u_period)
    cols = np.arange(len(rows))
    v, _, _ = _greedy_bits(
        m, minimum, rows, cols, family, lambda j: _INNER[u[j]], n, family_period
    )

    witness = VertexSet.from_arrays(u, v)
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
