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
(phase 2).  The walk only steps forward, over live entries (r, s, paid):
r is a start interface, named by its column of the suffix tables, s the
interface entering column j and paid the int cost of the committed
prefix from r to s.  Column j tries the option with its bit set first:
each entry and each choice c of the option give t = succ[c][s] and q =
paid + cost[c][s], and (r, t) is kept with q when q plus T[t, r], the
cost of the columns after j from t back to r (below), is the minimum.
If nothing is kept, the bit stays unset and the other option's entries
are kept; the greedy invariant, that the commitments so far extend to a
closed tour of minimum cost, guarantees that one of the two keeps
something.  Phase 1's options are the choices {1, 3} (u_j in S) and
{0, 2}, phase 2's {u_j | 2} (v_j in S) and {u_j}.  Two paths kept to the
same (r, t) have paid the same, the minimum less T[t, r], so an entry is
keyed by (r, t).

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
target per live start interface (below).  These are the only column
steps on tables: the walks step their live entries one at a time.

Closed tours.  The minimum for n is the smallest diagonal entry of M^n,
and the start interfaces of the walk below are the rows that attain it.
The chain reads both off its N + p stored tables once, in one pass; for
n >= N they are those of L = N + (n - N) mod p, the minimum plus
d * floor((n - N) / p), so no caller does array work per n.

Live entries.  An entry whose best closed tour under the commitments
made so far costs more than the minimum lies on no minimum tour, and
every decision only asks whether something attains the minimum, so the
walk drops it: a further commitment only removes tours, so its total
never falls back.  Each column costs a few Python operations per live
entry, and a mean of about two are live, against the 64 x k tables a
walk over every interface would step.  The start interfaces still live
after phase 1 are one to four, so phase 2's suffix tables have one
column per start, not 64.

Periodic witness reconstruction.  A greedy walk is a deterministic
process whose state entering column j is its live entries, with paid
less its minimum (the minimum itself is carried in paid).  Its step at
column j reads only that state, the column's options and the suffix
table of columns j+1..n-1 at the live starts' columns, and it is
unchanged when those paid or that table move by a constant: by the
greedy invariant the best total equals the minimum, so the kept entries
move with it.  Where options and suffix tables repeat with period P, a
state that repeats (the same entries less their minimum at the same
phase mod P, found with a dict) therefore repeats every q columns from
there on: the walk repeats that stretch's bits, adds its rise in paid
per period, and jumps ahead, stepping again only near the end.  Phase
1's options are the same at every column, and its state repeats within
about 15 columns.  It reads only its live starts' columns of M^L, and
those repeat from some L_r <= N on: M^(L+p)[:, rows] = M^L[:, rows] + d.
Restricting columns commutes with M (x) ., so once this holds at one L it
holds at every longer one, and fewer columns repeat no later.  So the
chain keeps one length per column t, since[t] <= N, from which column t
repeats: N less the number of L < N at which it repeats a period later.
L_r is the largest since[r] over the rows.  Phase 1 looks for a repeat
while its start rows' columns repeat, and skips periods up to column
n - L_r of the starts still live at the repeat, not only n - N
(one-two-total: L_r = 9 there, against 10-18 for the start rows and
N = 18).  The outer bits it returns are a prefix, a periodic stretch and
a tail, so phase 2's options repeat over that stretch and its walk skips
periods the same way; its columns before the stretch are keyed by their
index alone, as ``_suffixes`` keys lengths outside its own.  Each phase
steps a number of columns independent of n; only the witness, whose bits
each walk ORs straight into one of ``VertexSet``'s two int masks, and
its validation are O(n).

Size bound.  Table entries are float32 but only ever hold costs of a
bounded number of columns (all n only when n is too short to show a
period); offsets, paid costs and minima are Python ints, so the minimum, a
stored closed-tour int plus d per period, is exact for every n.  Memory
grows with n: ``dp_min``'s witness masks and validation are O(n) and
``dp_minima`` returns one int per n.  Both refuse to materialise more
than 2^23 columns (n, or hi - lo + 1) with ``SizeLimitError`` before
allocating anything.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

import numpy as np

from .domination import DominationKind
from .errors import ParameterError, check_columns, require_int
from .graph import VertexSet, _repeat
from .solver import SolveMethod, SolveResult

__all__ = ["dp_min", "dp_minima"]

_N_STATES = 64
_INF = np.float32(np.inf)
_ALL_CHOICES = np.arange(4)  # c = a | b << 1 for (a, b) = (u_j in S, v_j in S)
_FIXED_A = np.array([[0, 2], [1, 3]])  # [u_j]: the choices with a = u_j
_NO_PERIOD = (0, 0, 1)  # a (lo, hi, P) period that holds for no column

_State = TypeVar("_State")
_Suffix = Callable[[int], tuple[np.ndarray, int]]
_Moves = list[list[tuple[int, int]]]  # [s]: (t, cost) of each allowed choice
_Entries = dict[tuple[int, int], int]  # a walk's live entries, (r, s): paid


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
    cost[c, s, 0] its cost a + b, or INF where the kind refuses it.  The
    walks read them as Python lists built here: each of outer and
    inner[u] is a pair of moves (the bit set, the bit unset), moves[s]
    listing (succ[c, s], a + b) for each choice c of the option that the
    kind allows from s; outer's options are u_j in S or not, inner[u]'s
    v_j in S or not with u_j = u.  Built whole: power(L) = (table,
    offset) with M^L = table + offset, cycle = (N, p, d), tours[L] =
    (minimum, rows) for L < N + p, each minimum finite since every kind
    accepts the whole outer ring at every length, and since[t] <= N, the
    earliest length from which column t of M^(L+p) is column t of M^L + d
    (see above).
    """

    def __init__(self, kind: DominationKind) -> None:
        u2, u1, v4, v3, v2, v1 = (np.arange(_N_STATES) >> np.arange(6)[:, None]) & 1
        a, b = _ALL_CHOICES[:, None] & 1, _ALL_CHOICES[:, None] >> 1
        self.succ = u1 | a << 1 | v3 << 2 | v2 << 3 | v1 << 4 | b << 5
        ok = kind.accepts(u2 + a + v1, u1) & kind.accepts(v4 + b + u2, v2)
        self.cost = np.where(ok, a + b, _INF).astype(np.float32)[..., None]
        succ, price = self.succ.tolist(), np.where(ok, a + b, -1).tolist()

        def moves(*choices: int) -> _Moves:
            return [
                [(succ[c][s], price[c][s]) for c in choices if price[c][s] >= 0]
                for s in range(_N_STATES)
            ]

        self.outer = moves(1, 3), moves(0, 2)
        self.inner = [(moves(u | 2), moves(u)) for u in (0, 1)]
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
            (int(low), live.nonzero()[0].tolist())
            for low, live in zip(lows.ravel().tolist(), diagonals == lows)
        ]

    def closed(self, n: int) -> tuple[int, list[int]]:
        """The minimum of n columns and the start interfaces attaining it."""
        N, p, d = self.cycle
        periods, rest = divmod(n - N, p) if n >= N else (0, n - N)
        low, rows = self.tours[N + rest]
        return low + d * periods, rows

    def cycle_of(self, rows: list[int]) -> tuple[int, int, int]:
        """The cycle (L_r, p, d) of the columns rows of M^L: L_r <= N is the
        earliest length from which M^(L+p)[:, rows] = M^L[:, rows] + d."""
        _, p, d = self.cycle
        return int(self.since[rows].max()), p, d


_CHAINS: dict[DominationKind, _Chain] = {}


def _chain(kind: DominationKind) -> _Chain:
    if kind not in _CHAINS:
        _CHAINS[kind] = _Chain(kind)
    return _CHAINS[kind]


def _step(table: np.ndarray, succ: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """One min-plus column back: T'[s, i] = min over c of T[succ[c, s], i]
    + cost[c, s, 0], for succ and cost at the allowed choices c."""
    return np.minimum.reduce(table.take(succ, axis=0) + cost, axis=0)


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


def _greedy_bits(
    minimum: int,
    entries: _Entries,
    options: Callable[[int], tuple[_Moves, _Moves]],
    n: int,
    suffix: _Suffix,
    cycle: Callable[[list[int]], tuple[int, int, int] | None],
    lo: int,
) -> tuple[int, list[int], tuple[int, int, int]]:
    """Fix one membership bit per column, left to right: set it exactly
    when some closed tour of cost minimum extends the commitments so far.

    entries are the live entries entering column 0, (r, s): paid with r a
    column of the suffix tables, which suffix serves as ``_suffixes``
    returns them, and options(j) is column j's pair of moves, the bit set
    and the bit unset.  cycle(rows) is the cycle of the suffix tables'
    columns rows; from column lo on, options repeat wherever the tables
    do, and a repeated walk state there is skipped ahead by whole
    periods, up to where its own live columns repeat.  Returns the bits
    as an int, bit j for column j, the columns still live after the last
    column and (a, b, q): bit x equals bit x + q whenever a <= x and
    x + q < b.
    """
    # walk states repeat where options do and suffix(n - 1 - j) is periodic
    # on the live columns, and fewer of them repeat no later
    def bound(entries: _Entries) -> tuple[int, int]:
        cyc = cycle(sorted({r for r, _ in entries}))
        return (n - cyc[0], cyc[1]) if cyc else _NO_PERIOD[1:]

    hi, P = bound(entries)
    bits = 0

    def step(entries: _Entries, j: int) -> _Entries:
        nonlocal bits
        table, offset = suffix(n - 1 - j)
        goal = minimum - offset
        for bit, moves in zip((1, 0), options(j)):
            # (r, t) closes at the minimum: paid + cost + T[t, r] = goal;
            # every path kept to it has paid the same
            kept = {
                (r, t): paid + cost
                for (r, s), paid in entries.items()
                for t, cost in moves[s]
                if table.item(t, r) == goal - paid - cost
            }
            if kept:  # by the greedy invariant, at the latest when bit = 0
                break
        bits |= bit << j
        return kept

    def key(entries: _Entries, j: int) -> Hashable:
        if j < lo:  # the columns before lo are keyed by their index alone
            return j
        low = min(entries.values())
        return (j - lo) % P, frozenset(
            (r, s, paid - low) for (r, s), paid in entries.items()
        )

    walk, start = _until_repeat(
        entries, lambda entries, j: step(entries, j) if j + P < hi else None, key
    )
    entries, skip, j = walk[-1], _NO_PERIOD, len(walk) - 1
    if start is not None:
        hi, _ = bound(entries)
        q = j - start
        periods = (hi - j) // q
        bits |= _repeat(bits >> j - q, q, periods) << j  # no bit from j on is set
        rise = periods * (min(entries.values()) - min(walk[start].values()))
        entries = {entry: paid + rise for entry, paid in entries.items()}
        skip = (j - q, j + periods * q, q)
        j += periods * q
    tail, _ = _until_repeat(
        entries,
        lambda entries, i: step(entries, j + i) if j + i < n else None,
        lambda _, i: i,
    )
    return bits, sorted({r for r, _ in tail[-1]}), skip


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
        minimum, {(r, r): 0 for r in rows}, lambda j: m.outer, n, m.power, m.cycle_of, 0
    )
    # phase 2: outer memberships frozen, fix inner memberships greedily
    suffix, cycle = _suffixes(
        m, m.power(0)[0][:, rows], lambda L: _FIXED_A[u >> n - 1 - L & 1],
        n - 1, (n - b, n - a, q),
    )
    v, _, _ = _greedy_bits(
        minimum, {(i, r): 0 for i, r in enumerate(rows)}, lambda j: m.inner[u >> j & 1],
        n, suffix, lambda rows: cycle, a,
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
