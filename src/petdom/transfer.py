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
commitments made so far, so the returned witness is the
lexicographically smallest minimum set, the same tie-break the
brute-force solver uses.  The outer bits are fixed first with the inner
choices free (phase 1), then the inner bits with the outer ones frozen
(phase 2).  The walk only steps forward.  Its table F[t, r] is the
cheapest committed prefix from start interface r to interface t, and
one gather per column steps it through all four choices at once: the
interface t leaving column j fixes its own choice, a = bit 1 of t and
b = bit 5.  So each option of a column is a set of targets (phase 1
splits them on bit 1; phase 2 fixes bit 1 to u_j and splits on bit 5),
and one sum of the gathered table and the suffix table of the columns
after j (cost to finish from each target back to each start interface)
gives both options' best closed totals.  The gathered table on the
chosen option's targets is the next forward table.

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
chain per kind, built once on first use, stores at most 24 tables.
Greedy phase 1 reads these tables; phase 2 builds its own with one
target per live start interface (below).  These are the only backward
steps: the walks step no column backward.

Closed tours.  The minimum for n is the smallest diagonal entry of M^n,
and the start interfaces of the walk below are the rows that attain it.
The chain reads both off its N + p stored tables once, in one pass; for
n >= N they are those of L = N + (n - N) mod p, the minimum plus
d * floor((n - N) / p), so no caller does array work per n.

Live start interfaces.  Each column of the forward table is one start
interface of the closed tour.  A column whose best closed total under
the commitments made so far exceeds the minimum is dropped: a further
commitment only removes tours, so its total can never fall back to the
minimum, and the test "some start attains the minimum" reads the same
without it.  In practice one to three are left after a few columns, so
phase 2's suffix tables have one column per start live when it starts,
not 64.

Periodic witness reconstruction.  A greedy walk is a deterministic
process whose state entering column j is the live starts and the forward
table less its minimum (the minimum is carried as an int, base).  Its
step at column j reads only that state, the column's options and the
suffix table of columns j+1..n-1, and it is unchanged when the suffix
table moves by a constant: by the greedy invariant the best total equals
the minimum, so the target minimum - base - offset moves with it.  Where
options and suffix tables repeat with period P, a state that repeats
(same starts and forward table at the same phase mod P, found with a
dict) therefore repeats every q columns from there on: the walk repeats
that stretch's bits, adds its cost to base per period, and jumps ahead,
stepping again only near the end.  Phase 1's options are the same at
every column, and its state repeats within about 20 columns.  It reads
only its live starts' columns of M^L, and those repeat from some L_r <= N
on: M^(L+p)[:, rows] = M^L[:, rows] + d.  Restricting columns commutes
with M (x) ., so once this holds at one L it holds at every longer one,
and fewer columns repeat no later.  So the chain keeps one length per
column t, since[t] <= N, from which column t repeats: N less the number
of L < N at which it repeats a period later.  L_r is the largest since[r]
over the rows.  Phase 1 looks for a repeat while its start rows' columns
repeat, and skips periods up to column n - L_r of the starts still live
at the repeat, not only n - N (one-two-total: L_r = 9 there, against
10-18 for the start rows and N = 18).  The outer bits it returns are a
prefix, a periodic stretch and a tail, so phase 2's options repeat over
that stretch and its walk skips periods the same way; its columns before
the stretch are keyed by their index alone, as ``_suffixes`` keys
lengths outside its own.  Each phase runs a number of column steps
independent of n; only the witness, whose bits each walk ORs straight
into one of ``VertexSet``'s two int masks, and its validation are O(n).

Size bound.  Table entries are float32 but only ever hold costs of a
bounded number of columns (all n only when n is too short to show a
period); offsets, bases and minima are Python ints, so the minimum, a
stored closed-tour int plus d per period, is exact for every n.  Memory
grows with n: ``dp_min``'s witness masks and validation are O(n) and
``dp_minima`` returns one int per n.  Both refuse to materialise more
than 2^23 columns (n, or hi - lo + 1) with ``SizeLimitError`` before
allocating anything.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple, TypeVar

import numpy as np

from .domination import DominationKind
from .errors import ParameterError, check_columns, require_int
from .graph import VertexSet, _repeat
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_INF = np.float32(np.inf)
_ALL_CHOICES = np.arange(4)  # c = a | b << 1 for (a, b) = (u_j in S, v_j in S)
_TARGET = np.arange(_N_STATES)
_A, _B = (_TARGET >> 1) & 1, _TARGET >> 5  # the choice (a, b) reaching each t


def _targets(*sets: np.ndarray) -> np.ndarray:
    """Each set of interfaces as a min-plus column: 0 on it, INF off it."""
    return np.where(np.stack(sets), 0.0, _INF).astype(np.float32)[..., None]


_OUTER = _targets(_A == 1, _A == 0)  # targets with u_j in S, and without
# [u_j]: targets with v_j in S, and without; a min-plus sum of sets is
# their intersection
_INNER = _OUTER[::-1, None] + _targets(_B == 1, _B == 0)
_FIXED_A = np.array([[0, 2], [1, 3]])  # [u_j]: the choices with a = u_j
_NO_PERIOD = (0, 0, 1)  # a (lo, hi, P) period that holds for no column

_State = TypeVar("_State")
_Suffix = Callable[[int], tuple[np.ndarray, int]]


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


class _Chain:
    """Transition tables of one kind and its free suffix tables M^L.

    succ[c, s] is the successor interface of s under choice c and
    cost[c, s, 0] its cost a + b, or INF where the kind refuses it;
    pre[i, t] is the state s that t's own choice (a, b) = (bit 1, bit 5)
    takes to t, one of four numbered by the bits i = u2 | v4 << 1 that t
    drops, and pre_cost[i, t, 0] its cost.  Built whole: power(L) =
    (table, offset) with M^L = table + offset, cycle = (N, p, d),
    tours[L] = (minimum, rows) for L < N + p, each minimum finite since
    every kind accepts the whole outer ring at every length, and
    since[t] <= N, the earliest length from which column t of M^(L+p) is
    column t of M^L + d (see above).
    """

    def __init__(self, kind: DominationKind) -> None:
        u2, u1, v4, v3, v2, v1 = (_TARGET >> np.arange(6)[:, None]) & 1  # bits of s
        a, b = _ALL_CHOICES[:, None] & 1, _ALL_CHOICES[:, None] >> 1
        self.succ = u1 | a << 1 | v3 << 2 | v2 << 3 | v1 << 4 | b << 5
        ok = kind.accepts(u2 + a + v1, u1) & kind.accepts(v4 + b + u2, v2)
        self.cost = np.where(ok, a + b, _INF).astype(np.float32)[..., None]
        i = np.arange(4)[:, None]  # u2 | v4 << 1 of t's predecessors
        self.pre = i & 1 | (_TARGET & 1) << 1 | (i >> 1) << 2 | (_TARGET & 0b11100) << 1
        self.pre_cost = self.cost[_A | _B << 1, self.pre]
        identity = np.full((_N_STATES, _N_STATES), _INF, dtype=np.float32)
        np.fill_diagonal(identity, 0.0)
        self.power, self.cycle = _suffixes(
            self, identity, lambda L: _ALL_CHOICES, np.inf, (0, np.inf, 1)
        )
        N, p, d = self.cycle
        stored = np.stack([self.power(L)[0] for L in range(N + p)])
        # one length at a time: a whole-stack comparison's temporaries
        # would raise the build's peak memory by about a fifth
        self.since = N - sum((stored[L + p] == stored[L] + d).all(0) for L in range(N))
        diagonals = np.diagonal(stored, axis1=1, axis2=2)
        lows = diagonals.min(axis=1, keepdims=True)
        self.tours = [
            (int(low), live.nonzero()[0])
            for low, live in zip(lows.ravel().tolist(), diagonals == lows)
        ]

    def closed(self, n: int) -> tuple[int, np.ndarray]:
        """The minimum of n columns and the start interfaces attaining it."""
        N, p, d = self.cycle
        periods, rest = divmod(n - N, p) if n >= N else (0, n - N)
        low, rows = self.tours[N + rest]
        return low + d * periods, rows

    def cycle_of(self, rows: np.ndarray) -> tuple[int, int, int]:
        """The cycle (L_r, p, d) of the columns rows of M^L: L_r <= N is the
        earliest length from which M^(L+p)[:, rows] = M^L[:, rows] + d."""
        _, p, d = self.cycle
        return int(self.since[rows].max()), p, d


_CHAINS: dict[DominationKind, _Chain] = {}


def _chain(kind: DominationKind) -> _Chain:
    if kind not in _CHAINS:
        _CHAINS[kind] = _Chain(kind)
    return _CHAINS[kind]


def _step(table: np.ndarray, index: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """One min-plus column: T'[s, i] = min over c of T[index[c, s], i] +
    cost[c, s, 0].  Backward (suffix tables) it takes succ and cost at the
    allowed choices, forward (walks) pre and pre_cost."""
    return np.minimum.reduce(table.take(index, axis=0) + cost, axis=0)


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
        if L >= top:
            return None
        c = choices(L)
        return _step(table, m.succ[c], m.cost[c])

    def key(table: np.ndarray, L: int) -> Hashable:
        # a table less its minimum: equal for tables equal up to a constant
        return ((L - lo) % P, (table - table.min()).tobytes()) if lo <= L <= hi else L

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


class _Walk(NamedTuple):
    """A greedy walk entering a column: forward[t, r] + base is the
    cheapest committed prefix from the start interface of suffix table
    column cols[r] to interface t, with forward's minimum 0."""

    forward: np.ndarray
    cols: np.ndarray
    base: int


def _greedy_bits(
    m: _Chain,
    minimum: int,
    cols: np.ndarray,
    options: Callable[[int], np.ndarray],
    n: int,
    suffix: _Suffix,
    cycle: Callable[[np.ndarray], tuple[int, int, int] | None],
    lo: int,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Fix one membership bit per column, left to right: set it exactly
    when some closed tour of cost minimum extends the commitments so far.

    options(j) holds two sets of the interfaces leaving column j, as
    min-plus columns: those with the bit set and those with it unset.
    suffix serves their suffix tables as ``_suffixes`` returns them,
    T_0's columns cols being the live start interfaces, and cycle(cols)
    is the cycle of those columns; from column lo on, options repeat
    wherever the tables do, and a repeated walk state there is skipped
    ahead by whole periods, up to where its own live columns repeat.
    Returns the bits as an int, bit j for column j, the columns of the
    start interfaces still live after the last column and (a, b, q): bit
    x equals bit x + q whenever a <= x and x + q < b.
    """
    # walk states repeat where options do and suffix(n - 1 - j) is periodic
    # on the live columns, and fewer of them repeat no later
    def bound(cols: np.ndarray) -> tuple[int, int]:
        cyc = cycle(cols)
        return (n - cyc[0], cyc[1]) if cyc else _NO_PERIOD[1:]

    hi, P = bound(cols)
    bits = 0

    def step(walk: _Walk, j: int) -> _Walk:
        nonlocal bits
        yes, no = options(j)
        table, offset = suffix(n - 1 - j)
        goal = minimum - walk.base - offset
        forward, cols = _step(walk.forward, m.pre, m.pre_cost), walk.cols
        totals = forward + table.take(cols, axis=1)  # best closed tour via each target
        bit = np.minimum.reduce(totals + yes, axis=None) == goal
        bits |= int(bit) << j
        chosen = yes if bit else no
        forward = forward + chosen
        if len(cols) > 1:
            live = np.minimum.reduce(totals + chosen) <= goal
            forward, cols = forward[:, live], cols[live]
        low = np.minimum.reduce(forward, axis=None)
        return _Walk(forward - low, cols, walk.base + int(low))

    # F[t, r]: prefix cost from T_0's column cols[r], which is T_0 itself;
    # the columns before lo are keyed by their index alone
    walks, start = _until_repeat(
        _Walk(suffix(0)[0][:, cols], cols, 0),
        lambda walk, j: step(walk, j) if j + P < hi else None,
        lambda walk, j: j if j < lo else (
            (j - lo) % P, walk.cols.tobytes(), walk.forward.tobytes()
        ),
    )
    walk, skip, j = walks[-1], _NO_PERIOD, len(walks) - 1
    if start is not None:
        hi, _ = bound(walk.cols)
        q = j - start
        periods = (hi - j) // q
        bits |= _repeat(bits >> j - q, q, periods) << j  # no bit from j on is set
        walk = walk._replace(base=walk.base + periods * (walk.base - walks[start].base))
        skip = (j - q, j + periods * q, q)
        j += periods * q
    for j in range(j, n):
        walk = step(walk, j)
    return bits, walk.cols, skip


def dp_min(n: int, kind: DominationKind) -> SolveResult:
    """Exact minimum dominating set of P(n,2) of the given kind.

    Exhaustive over all subsets by the transfer-matrix argument above;
    the witness is the lexicographically smallest minimum set under the
    canonical vertex order.
    """
    kind = DominationKind.require(kind, "dp_min")
    n = require_int("n", n, 5, caller="dp_min")
    check_columns(n)
    m = _chain(kind)
    minimum, rows = m.closed(n)

    # phase 1: fix outer memberships greedily, inner choices left free
    u, rows, (a, b, q) = _greedy_bits(
        m, minimum, rows, lambda j: _OUTER, n, m.power, m.cycle_of, 0
    )
    # phase 2: outer memberships frozen, fix inner memberships greedily
    suffix, cycle = _suffixes(
        m, m.power(0)[0][:, rows], lambda L: _FIXED_A[u >> n - 1 - L & 1],
        n - 1, (n - b, n - a, q),
    )
    v, _, _ = _greedy_bits(
        m, minimum, np.arange(len(rows)), lambda j: _INNER[u >> j & 1], n, suffix,
        lambda cols: cycle, a,
    )
    return SolveResult(n, 2, kind, minimum, VertexSet(u, v), SolveMethod.TRANSFER_DP)


def dp_minima(lo: int, hi: int, kind: DominationKind) -> list[int]:
    """Exact minimum of the given kind for every n in lo..hi, in order.

    Equal to ``[dp_min(n, kind).minimum for n in range(lo, hi + 1)]``,
    read off the kind's cached closed-tour table (see above).
    """
    kind = DominationKind.require(kind, "dp_minima")
    lo = require_int("lo", lo, 5, caller="dp_minima")
    hi = require_int("hi", hi)
    if lo > hi:
        raise ParameterError(f"dp_minima requires lo <= hi, got lo={lo}, hi={hi}")
    check_columns(hi - lo + 1)
    m = _chain(kind)
    return [m.closed(n)[0] for n in range(lo, hi + 1)]
