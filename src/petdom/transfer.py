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

Periodic suffix tables.  Every backward table is a suffix table T_L:
the cost of the last L columns from each entering interface to each
target, with T_0 the identity on the targets.  One builder,
``_suffixes``, steps it back one column at a time.  Where the columns'
choices repeat with period P over a stretch of lengths L, it stops once
T_(N+p) less its smallest entry equals T_N less its own, byte for byte,
at the same phase mod P; then T_(L+p) = T_L + d for every L >= N in the
stretch, so each later T_L is a stored table plus an int shift, and the
few tables past the stretch are stepped from its last one.  With all 64
targets and no forced choices T_L is M^L, the L-th min-plus power of the
64x64 one-column matrix M (the four choices merged), whatever n is: one
chain per kind, built once on first use, stores at most 24 tables, and
the minimum for n is the smallest diagonal entry of M^n (``dp_minima``
reads it for every n in a range).  Greedy phase 1 reads these tables;
phase 2 builds its own with one target per live start interface (below).

Live start interfaces.  Each row of the forward table is one start
interface of the closed tour.  A row whose best closed total under the
commitments made so far exceeds the minimum is dropped: a further
commitment only removes tours, so its total can never fall back to the
minimum, and the test "some row attains the minimum" reads the same
without it.  In practice one to three rows are left after a few
columns, so phase 2's suffix tables have one column per row live when
it starts, not 64.

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
stepping again only near the end.  Phase 1's options are the same at
every column, and its state repeats within about 20 columns.  The outer
bits it returns are a prefix, a periodic stretch and a tail, so phase
2's options repeat over that stretch and its walk skips periods the same
way.  Each phase runs a number of column steps independent of n; only
the bit arrays, the witness and its validation are O(n).

Size bound.  Table entries are float32 but only ever hold costs of a
bounded number of columns (all n only when n is too short to show a
period); offsets, bases and minima are Python ints, so the minimum,
int(smallest diagonal entry) + offset, is exact for every n.  Memory
grows with n: ``dp_min``'s bits, witness and validation are O(n) and
``dp_minima`` returns one int per n.  Both refuse to materialise more
than 2^23 columns (n, or hi - lo + 1) with ``SizeLimitError`` before
allocating anything.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple, TypeVar

import numpy as np

from .domination import DominationKind
from .errors import InfeasibleError, ParameterError, SizeLimitError
from .graph import VertexSet
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_INF = np.float32(np.inf)
_ALL_CHOICES = np.arange(4)
_OUTER = np.array([[1, 3], [0, 2]])  # choices with u_j in S, and without
_INNER = np.array([[[2], [0]], [[3], [1]]])  # [u_j]: with v_j in S, and without
_MAX_N = 2**23  # most columns one call materialises (see "Size bound")
_NO_PERIOD = (0, 0, 1)  # a (lo, hi, P) period that holds for no column

_State = TypeVar("_State")
_Suffix = Callable[[int], tuple[np.ndarray, int]]


def _check_size(columns: int) -> None:
    if columns > _MAX_N:
        raise SizeLimitError(
            f"a call materialises at most 2^23 = {_MAX_N} columns, got {columns}"
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
    power(L) = (table, offset) with M^L = table + offset, and
    cycle = (N, p, d) as described above.
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
        self.power, self.cycle = _suffixes(
            self, identity, lambda L: _ALL_CHOICES, np.inf, (0, np.inf, 1)
        )


_CHAINS: dict[DominationKind, _Chain] = {}


def _chain(kind: DominationKind) -> _Chain:
    if kind not in _CHAINS:
        _CHAINS[kind] = _Chain(kind)
    return _CHAINS[kind]


def _column_step(table: np.ndarray, choices: np.ndarray, m: _Chain) -> np.ndarray:
    """One backward column: T'[s, i] = min over c in choices of
    T[succ[c, s], i] + cost[c, s]."""
    return np.minimum.reduce(table[m.succ[choices]] + m.cost[choices], axis=0)


def _suffixes(
    m: _Chain,
    first: np.ndarray,
    choices: Callable[[int], np.ndarray],
    top: float,
    stretch: tuple[float, float, int],
) -> tuple[_Suffix, tuple[int, int, int] | None]:
    """Suffix tables T_0 = first and T_(L+1) = T_L stepped back one column
    under choices(L), for L = 0..top.

    stretch (lo, hi, P) says choices(L) == choices(L + P) whenever lo <= L
    and L + P < hi.  Stepped until T_(N+p) = T_N + d with lo <= N,
    N + p <= hi and p a multiple of P; then T_(L+p) = T_L + d for N <= L
    and L + p <= hi, and the tables past hi are stepped from T_hi.
    Returns suffix(L) = (table, offset) with T_L = table + offset, and
    (N, p, d), or None if no table repeated.
    """
    lo, hi, P = stretch

    def step(table: np.ndarray, L: int) -> np.ndarray | None:
        return _column_step(table, choices(L), m) if L < top else None

    def key(table: np.ndarray, L: int) -> Hashable:
        return ((L - lo) % P, _less_min(table)) if lo <= L <= hi else L

    tables, start = _until_repeat(first, step, key)
    if start is None:
        return (lambda L: (tables[L], 0)), None
    period = len(tables) - 1 - start
    d = int(tables[-1].min() - tables[start].min())

    def suffix(L: int) -> tuple[np.ndarray, int]:
        if L > hi:
            return heads[L - hi], shift
        if L < start:
            return tables[L], 0
        periods, rest = divmod(L - start, period)
        return tables[start + rest], d * periods

    heads, shift = [], 0
    if hi < top:  # heads[i] + shift is T_(hi+i)
        head, shift = suffix(hi)
        heads, _ = _until_repeat(
            head, lambda table, i: step(table, hi + i), lambda _, i: i
        )
    return suffix, (start, period, d)


def _closed_minimum(table: np.ndarray, offset: int, n: int, kind: DominationKind) -> int:
    """Smallest closed-tour cost (diagonal entry) of an n-column table."""
    low = np.diagonal(table).min()
    if not np.isfinite(low):
        raise InfeasibleError(f"no valid {kind.value} set exists in P({n},2)")
    return int(low) + offset


class _Walk(NamedTuple):
    """A greedy walk entering a column: forward[r, t] + base is the
    cheapest committed prefix from the start interface of suffix table
    column cols[r] to interface t, with forward's minimum 0, and bit the
    bit fixed at the column before."""

    forward: np.ndarray
    cols: np.ndarray
    base: int
    bit: int = 0


def _greedy_bits(
    m: _Chain,
    minimum: int,
    cols: np.ndarray,
    options: Callable[[int], np.ndarray],
    n: int,
    suffix: _Suffix,
    cycle: tuple[int, int, int] | None,
    lo: int,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Fix one membership bit per column, left to right: set it exactly
    when some closed tour of cost minimum extends the commitments so far.

    options(j) holds the choices of column j with the bit set and with it
    unset.  suffix and cycle serve their suffix tables as ``_suffixes``
    returns them, T_0's columns cols being the live start interfaces;
    from column lo on, options repeat wherever the tables do, and a
    repeated walk state there is skipped ahead by whole periods.
    Returns the bits, the columns of the start interfaces still live
    after the last column and (a, b, q): bit x equals bit x + q whenever
    a <= x and x + q < b.
    """
    # walk states repeat where options do and suffix(n - 1 - j) is periodic
    hi, P = (n - cycle[0], cycle[1]) if cycle else _NO_PERIOD[1:]

    def step(walk: _Walk, j: int) -> _Walk:
        forward, cols = walk.forward, walk.cols
        yes, no = options(j)
        table, offset = suffix(n - 1 - j)
        table = table[:, cols]
        goal = minimum - walk.base - offset
        totals = np.minimum.reduce(forward + _column_step(table, yes, m).T, axis=1)
        bit = int(np.minimum.reduce(totals) == goal)
        if len(cols) > 1:
            if not bit:
                totals = np.minimum.reduce(forward + _column_step(table, no, m).T, axis=1)
            live = totals <= goal
            forward, cols = forward[live], cols[live]
        chosen = yes if bit else no
        gathered = forward[:, m.pre[chosen]] + m.pre_cost[chosen]
        forward = np.minimum.reduce(gathered, axis=(1, 3))
        low = forward.min()
        return _Walk(forward - low, cols, walk.base + int(low), bit)

    bits = np.empty(n, dtype=np.uint8)

    def run(walk: _Walk, start: int, stop: int) -> _Walk:
        for j in range(start, stop):
            walk = step(walk, j)
            bits[j] = walk.bit
        return walk

    # F[r, t]: prefix cost from T_0's column cols[r], the transpose of T_0
    walks, start = _until_repeat(
        run(_Walk(suffix(0)[0][:, cols].T, cols, 0), 0, lo),
        lambda walk, i: step(walk, lo + i) if lo + i + P < hi else None,
        lambda walk, i: (i % P, walk.cols.tobytes(), walk.forward.tobytes()),
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
    return bits, run(walk, j, n).cols, skip


def dp_min(n: int, kind: DominationKind) -> SolveResult:
    """Exact minimum dominating set of P(n,2) of the given kind.

    Exhaustive over all subsets by the transfer-matrix argument above;
    the witness is the lexicographically smallest minimum set under the
    canonical vertex order.
    """
    if n < 5:
        raise ParameterError(f"dp_min requires n >= 5, got n={n}")
    _check_size(n)
    m = _chain(kind)
    table, offset = m.power(n)
    minimum = _closed_minimum(table, offset, n, kind)
    rows = np.flatnonzero(np.diagonal(table) == minimum - offset)

    # phase 1: fix outer memberships greedily, inner choices left free
    u, rows, (a, b, q) = _greedy_bits(
        m, minimum, rows, lambda j: _OUTER, n, m.power, m.cycle, 0
    )
    # phase 2: outer memberships frozen, fix inner memberships greedily
    suffix, cycle = _suffixes(
        m, m.power(0)[0][:, rows], lambda L: _INNER[u[n - 1 - L]].ravel(),
        n - 1, (n - b, n - a, q),
    )
    v, _, _ = _greedy_bits(
        m, minimum, np.arange(len(rows)), lambda j: _INNER[u[j]], n, suffix, cycle, a
    )
    witness = VertexSet.from_arrays(u, v)
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
    _check_size(hi - lo + 1)
    m = _chain(kind)
    return [_closed_minimum(*m.power(n), n, kind) for n in range(lo, hi + 1)]
