"""Generalized Petersen graphs P(n,k) and their structural partitions.

The graph P(n,k) has outer vertices u_0..u_{n-1} forming a cycle, inner
vertices v_0..v_{n-1}, spokes u_i-v_i and inner skip edges v_i-v_{i+k}
(all indices modulo n).  A graph is just the pair (n, k): vertices are
numbered by rank in canonical order (u_i is rank i, v_i rank n + i).  The
adjacency is written once, in ``PetersenGraph._adjacency``, for one column
or all of them; ``neighbor_ranks`` (all ranks at once: ``neighbor_table``)
sorts it.

Every layer shares one vertex-set representation, two bitmasks (see
``VertexSet``), and walks ranks; ``Vertex`` objects are built only at the
edges: parsing a single name, the results of queries and the derived
views of a set.  Names are rendered from one byte matrix; well-formed names
are read back by numpy's text parser, with no Python step per name, and any
other names one by one by ``parse_vertex``.

The proof-oriented blocks of P(n,2) are six-vertex windows
{v_{i-1}, v_i, v_{i+1}, u_{i-1}, u_i, u_{i+1}} centered at each column i,
signed by the parity of their inner indices.  A block is just (n, i); its
sign and vertices are derived when asked.

Everything here is immutable after construction and safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ParameterError, check_columns, require_int

__all__ = [
    "Ring",
    "Vertex",
    "VertexSet",
    "ColumnForm",
    "BlockSign",
    "Block",
    "PetersenGraph",
    "build_petersen",
    "parse_vertex",
]


class Ring(Enum):
    """Which of the two n-cycles a vertex belongs to."""

    OUTER = "u"
    INNER = "v"

    __hash__ = object.__hash__  # identity, as for DominationKind


_VERTEX_RE = re.compile(r"[uv]\d+")
# names of at most 18 ASCII digits, which int64 holds, joined by commas; the
# possessive repeat keeps no backtracking state per name
_NAMES_RE = re.compile(r"[uv]\d{1,18}(?:,[uv]\d{1,18})*+", re.ASCII)
_BLANK_LETTERS = bytes.maketrans(b"uv", b"  ")
# per width w, a name's row "u<w digits>," with each byte less ord("0") (wrapping)
_FRAMES = [np.array([[ord("u"), *b"0" * w, ord(",")]], np.uint8) - 48 for w in range(20)]


@dataclass(frozen=True)
class Vertex:
    """A vertex u_i or v_i with its index stored reduced modulo n."""

    ring: Ring
    index: int

    @property
    def name(self) -> str:
        return f"{self.ring.value}{self.index}"

    def __repr__(self) -> str:
        return f"Vertex({self.name})"


def parse_vertex(name: str, n: int) -> Vertex:
    """Parse "u<i>" / "v<i>", blanks around it stripped, into a Vertex,
    reducing the index mod n."""
    n = require_int("n", n, 1)
    s = name.strip() if isinstance(name, str) else ""
    if not _VERTEX_RE.fullmatch(s):
        raise ParameterError(f"vertex name must match u<i> or v<i>, got {name!r}")
    return Vertex(Ring(s[0]), int(s[1:]) % n)


def _unpack(mask: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of a non-negative int below 2^n, as a uint8 array."""
    raw = mask.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")


def _mask(indices: list[int] | np.ndarray) -> int:
    """The int whose bit i is set exactly when i is in indices (all >= 0);
    SizeLimitError for more than 2^23 bits."""
    top = int(np.max(indices, initial=-1))
    check_columns(top + 1)
    bits = np.zeros(top + 1, dtype=bool)
    bits[indices] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _repeat(bits: int, width: int, times: int) -> int:
    """A width-bit motif repeated times times, copy i at bit width * i."""
    return bits * (((1 << width * times) - 1) // ((1 << width) - 1))


def _indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    return np.flatnonzero(_unpack(mask, mask.bit_length())).tolist()


@dataclass(frozen=True)
class VertexSet:
    """An immutable subset S of the vertices, stored as two bitmasks.

    Bit i of ``outer`` is set when u_i is in S, bit i of ``inner`` when
    v_i is, so equality, hashing, ``|``, ``&`` and ``len`` are those of
    ints.  S does not know n: validators go through ``require_below(n)``
    or ``arrays(n)``, which reject indices >= n.  ``members``, iteration
    and ``sorted()`` build ``Vertex`` objects on demand.  Its text is the
    names in canonical order joined by commas, e.g. "u1,u4,v1,v4".
    """

    outer: int = 0
    inner: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", require_int("outer", self.outer, 0))
        object.__setattr__(self, "inner", require_int("inner", self.inner, 0))

    @classmethod
    def of(cls, vertices: Iterable[Vertex]) -> "VertexSet":
        # indices are gathered per ring and each ring's mask packed once
        indices: dict[Ring, list[int]] = {Ring.OUTER: [], Ring.INNER: []}
        for v in vertices:
            if require_int("index", v.index) < 0:
                raise ParameterError(f"vertex {v.name} has a negative index")
            indices[v.ring].append(v.index)
        return cls(_mask(indices[Ring.OUTER]), _mask(indices[Ring.INNER]))

    @classmethod
    def from_names(cls, names: Iterable[str] | str, n: int) -> "VertexSet":
        """The named vertices, indices reduced mod n; duplicates allowed.

        A str is split on commas and its blank pieces dropped.  Each name
        is "u<i>" or "v<i>", i decimal digits, with blanks around it
        stripped.  The first bad name, or n < 1, raises ParameterError, and
        an index mod n of 2^23 or more SizeLimitError.
        """
        n = require_int("n", n, 1)
        text = names  # a str is matched whole and split only on the slow path
        if not isinstance(names, str):
            names = list(names)
            try:
                text = ",".join(names)
            except TypeError:  # a name that is not a str, which parse_vertex refuses
                text = ""
        # padded or bad names, and i or n past int64, are left to parse_vertex
        if _NAMES_RE.fullmatch(text) and n < 2**63:
            raw = text.encode()
            index = np.fromstring(raw.translate(_BLANK_LETTERS), np.int64, sep=",")
            if isinstance(names, str) or index.size == len(names):  # one name per item
                letters = raw.translate(None, b"0123456789,")  # each name's letter
                inner = np.frombuffer(letters, np.uint8) == ord("v")
                index %= n
                return cls(_mask(index[~inner]), _mask(index[inner]))
        if isinstance(names, str):
            names = [s for s in names.split(",") if s.strip()]
        return cls.of(parse_vertex(name, n) for name in names)

    def require_below(self, n: int) -> None:
        """Raise ParameterError naming the first member with index >= n,
        read from the masks' high bits without building arrays."""
        n = require_int("n", n, 0)
        for ring, mask in ((Ring.OUTER, self.outer), (Ring.INNER, self.inner)):
            if high := mask >> n:
                v = Vertex(ring, n + (high & -high).bit_length() - 1)
                raise ParameterError(f"vertex {v.name} has index outside [0, {n})")

    def arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Length-n uint8 membership arrays (outer, inner) of S; raises
        ParameterError naming the first member with index >= n (see
        ``require_below``), and SizeLimitError for n above 2^23."""
        n = require_int("n", n, 0)
        check_columns(n)
        self.require_below(n)
        return _unpack(self.outer, n), _unpack(self.inner, n)

    @property
    def members(self) -> frozenset[Vertex]:
        return frozenset(self.sorted())

    def __contains__(self, v: Vertex) -> bool:
        mask = self.outer if v.ring is Ring.OUTER else self.inner
        return v.index >= 0 and (mask >> v.index) & 1 == 1

    def __len__(self) -> int:
        return self.outer.bit_count() + self.inner.bit_count()

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.sorted())

    def __or__(self, other: "VertexSet") -> "VertexSet":
        if not isinstance(other, VertexSet):
            return NotImplemented
        return VertexSet(self.outer | other.outer, self.inner | other.inner)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        if not isinstance(other, VertexSet):
            return NotImplemented
        return VertexSet(self.outer & other.outer, self.inner & other.inner)

    def sorted(self) -> list[Vertex]:
        return [Vertex(Ring.OUTER, i) for i in _indices(self.outer)] + [
            Vertex(Ring.INNER, i) for i in _indices(self.inner)
        ]

    def names(self) -> list[str]:
        return self.text().split(",") if self else []

    def text(self) -> str:
        """The names from one byte matrix: per member its letter, digits at
        the widest index's width and a comma, less its leading zeros."""
        low = self.outer.bit_length()  # v_i is bit low + i
        both = self.outer | self.inner << low
        index = _unpack(both, both.bit_length()).view(bool).nonzero()[0]
        index[self.outer.bit_count():] -= low
        width = len(str(max(low, self.inner.bit_length()) - 1))
        keep = np.ones((index.size, width + 2), dtype=bool)
        rows = _FRAMES[width].repeat(index.size, 0)
        rows[self.outer.bit_count():, 0] += 1  # "u" + 1 is "v"
        for column in range(width, 1, -1):  # one pass per digit position
            quotient = index // 10
            np.subtract(index, quotient * 10, out=rows[:, column], casting="unsafe")
            np.greater(quotient, 0, out=keep[:, column - 1])  # else a leading zero
            index = quotient
        rows[:, 1] = index
        return (rows[keep][:-1] + ord("0")).tobytes().decode("ascii")


class ColumnForm(NamedTuple):
    """A set of P(n,2) as columns from 0 on: head, motif ``repeats`` times,
    tail.  Each part is (outer bits, inner bits, width), bit i for its
    column i, and the motif's width is >= 1; the set is int arithmetic."""

    head: tuple[int, int, int]
    motif: tuple[int, int, int]
    repeats: int
    tail: tuple[int, int, int]

    @property
    def n(self) -> int:
        return self.head[2] + self.repeats * self.motif[2] + self.tail[2]

    @property
    def settled(self) -> int:
        """R0 = 1 + ceil(4/q): from R0 repeats on, the five columns around
        any column are ones seen at R0 (see domination.form_is_valid)."""
        return 1 + -(-4 // self.motif[2])

    @property
    def size(self) -> int:
        """|head| + repeats * |motif| + |tail|, from the int fields' bits."""
        (ho, hi, _), (mo, mi, _), (to, ti, _) = self.head, self.motif, self.tail
        return (ho.bit_count() + hi.bit_count() + to.bit_count() + ti.bit_count()
                + self.repeats * (mo.bit_count() + mi.bit_count()))

    def require(self, caller: str, min_n: int = 0) -> "ColumnForm":
        """The form with Python int fields; ParameterError unless the motif
        width is >= 1, widths and repeats >= 0, each part's bits below its
        width and n >= min_n (named in the message when it is not 0)."""
        fields = "outer bits", "inner bits", "width"
        parts = head, motif, tail = [
            tuple(require_int(f"{name} {field}", x) for field, x in zip(fields, part))
            for name, part in zip(("head", "motif", "tail"), (self.head, self.motif, self.tail))
        ]
        form = ColumnForm(head, motif, require_int("repeats", self.repeats), tail)
        bad = motif[2] < 1 or form.repeats < 0 or form.n < min_n
        if bad or any(w < 0 or o >> w or i >> w for o, i, w in parts):
            least_n = f" and n >= {min_n}" if min_n else ""
            raise ParameterError(
                f"{caller} requires motif width >= 1, widths and repeats >= 0, "
                f"each part's bits below its width{least_n}, got {form}"
            )
        return form

    def vertex_set(self) -> VertexSet:
        """The form's set; ParameterError for a malformed form (see
        ``require``), SizeLimitError for n above 2^23."""
        form = self.require("ColumnForm.vertex_set")
        check_columns(form.n)
        (ho, hi, h), (mo, mi, q), (to, ti, _) = form.head, form.motif, form.tail
        r = form.repeats
        return VertexSet(
            ho | _repeat(mo, q, r) << h | to << h + q * r,
            hi | _repeat(mi, q, r) << h | ti << h + q * r,
        )


class BlockSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True, repr=False)
class Block:
    """The six-vertex window centered at column ``center`` in [0, n) of P(n,2).

    sign is POSITIVE exactly when two of the residues {i-1, i, i+1}
    (representatives in [0, n)) are odd.  Blocks overlap, and blocks of
    different graphs are never equal.
    """

    n: int
    center: int

    @property
    def sign(self) -> BlockSign:
        n, i = self.n, self.center
        odd = (i - 1) % n % 2 + i % 2 + (i + 1) % n % 2
        return BlockSign.POSITIVE if odd == 2 else BlockSign.NEGATIVE

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The outer then the inner vertices, each by ascending index."""
        n, i = self.n, self.center
        columns = sorted(((i - 1) % n, i, (i + 1) % n))
        return tuple(Vertex(ring, c) for ring in Ring for c in columns)

    def __repr__(self) -> str:
        return f"Block(center={self.center}, vertices={self.vertices}, sign={self.sign!r})"


@dataclass(frozen=True)
class PetersenGraph:
    """The generalized Petersen graph P(n,k).

    Vertices: 2n, edges: 3n, every vertex has degree exactly 3.
    Requires n >= 3 and 1 <= k < n/2.
    """

    n: int
    k: int = 2

    def __post_init__(self) -> None:
        # stored as Python ints, whatever integer type was passed
        object.__setattr__(self, "n", require_int("n", self.n, 3))
        object.__setattr__(self, "k", require_int("k", self.k, 1))
        if not 2 * self.k < self.n:
            raise ParameterError(
                f"k must satisfy k < n/2, got k={self.k} for n={self.n}"
            )

    # -- basic structure ------------------------------------------------

    def vertices(self) -> Iterator[Vertex]:
        """All 2n vertices in canonical order, which is rank order."""
        return (Vertex(ring, i) for ring in Ring for i in range(self.n))

    def vertex_set(self) -> VertexSet:
        check_columns(self.n)
        full = (1 << self.n) - 1
        return VertexSet(full, full)

    def rank(self, v: Vertex) -> int:
        """v's position in canonical order: u_i has rank i, v_i rank n + i."""
        if not 0 <= v.index < self.n:
            raise ParameterError(f"vertex {v.name} has index outside [0, {self.n})")
        return v.index if v.ring is Ring.OUTER else self.n + v.index

    def vertex(self, r: int) -> Vertex:
        """The vertex of rank r (see ``rank``)."""
        r = require_int("r", r, 0, 2 * self.n - 1)
        return Vertex(Ring.OUTER, r) if r < self.n else Vertex(Ring.INNER, r - self.n)

    def _adjacency(self, i):
        """The neighbour ranks of u_i, then of v_i, unsorted, for an int i in
        [0, n) or an index array: u_{i-1}, u_{i+1}, v_i and u_i, v_{i-k},
        v_{i+k}."""
        n, k = self.n, self.k
        return ((i - 1) % n, (i + 1) % n, n + i), (i, n + (i - k) % n, n + (i + k) % n)

    def neighbor_ranks(self, r: int) -> tuple[int, int, int]:
        """The ranks of the three neighbors of rank r, ascending (see
        ``_adjacency``)."""
        ring, i = divmod(require_int("r", r, 0, 2 * self.n - 1), self.n)
        return tuple(sorted(self._adjacency(i)[ring]))

    def neighbor_table(self) -> np.ndarray:
        """The (2n, 3) array whose row r is ``neighbor_ranks(r)``."""
        check_columns(self.n)
        rings = self._adjacency(np.arange(self.n))
        return np.sort(np.concatenate([np.stack(ring, axis=1) for ring in rings]), axis=1)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """The three neighbors of v, canonically sorted."""
        return [self.vertex(r) for r in self.neighbor_ranks(self.rank(v))]

    # -- proof partitions (k = 2 only) ----------------------------------

    def _require_k2(self, what: str) -> None:
        if self.k != 2:
            raise ParameterError(f"{what} requires k = 2, got k={self.k}")

    def block_at(self, i: int) -> Block:
        """The block centered at column i (reduced mod n); needs k=2."""
        self._require_k2("block_at")
        return Block(self.n, require_int("i", i) % self.n)

    def blocks(self) -> Iterator[Block]:
        """All n (overlapping) blocks, by ascending center; needs k=2."""
        self._require_k2("blocks")
        return (Block(self.n, i) for i in range(self.n))


def build_petersen(n: int, k: int) -> PetersenGraph:
    """Construct P(n,k), rejecting parameters with n < 3 or k >= n/2."""
    return PetersenGraph(n, k)
