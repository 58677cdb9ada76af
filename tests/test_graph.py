import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from petdom import (
    BlockSign,
    DominationKind,
    ParameterError,
    Ring,
    SizeLimitError,
    Vertex,
    VertexSet,
    build_petersen,
    dp_min,
    graph,
    parse_vertex,
)
from petdom.constructions import construct_one_two


def names(vertices):
    return [v.name for v in vertices]


def edges(g):
    return {frozenset((v, w)) for v in g.vertices() for w in g.neighbors(v)}


class TestBuild:
    def test_counts_5_2(self):
        g = build_petersen(5, 2)
        assert len(list(g.vertices())) == 10
        assert len(edges(g)) == 15

    def test_counts_6_2(self):
        g = build_petersen(6, 2)
        assert len(list(g.vertices())) == 12
        assert len(edges(g)) == 18

    def test_rejects_k_too_large(self):
        with pytest.raises(ParameterError, match="k < n/2"):
            build_petersen(5, 3)

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError, match="n >= 3"):
            build_petersen(2, 1)

    def test_rejects_k_zero(self):
        with pytest.raises(ParameterError, match="k >= 1"):
            build_petersen(5, 0)


class TestNeighbors:
    def test_outer_p52(self):
        g = build_petersen(5, 2)
        assert names(g.neighbors(Vertex(Ring.OUTER, 0))) == ["u1", "u4", "v0"]

    def test_inner_p52(self):
        g = build_petersen(5, 2)
        assert names(g.neighbors(Vertex(Ring.INNER, 0))) == ["u0", "v2", "v3"]

    def test_inner_p82(self):
        g = build_petersen(8, 2)
        assert set(names(g.neighbors(Vertex(Ring.INNER, 7)))) == {"v1", "v5", "u7"}

    def test_invalid_vertex(self):
        g = build_petersen(5, 2)
        with pytest.raises(ParameterError):
            g.neighbors(Vertex(Ring.OUTER, 7))

    @given(
        n=st.integers(3, 40),
        k=st.integers(1, 19),
    )
    def test_three_regular_and_symmetric(self, n, k):
        if not 2 * k < n:
            return
        g = build_petersen(n, k)
        for v in g.vertices():
            nbrs = g.neighbors(v)
            assert len(nbrs) == 3
            assert len(set(nbrs)) == 3
            for w in nbrs:
                assert v in g.neighbors(w)


class TestBlocks:
    def test_sign_positive(self):
        g = build_petersen(12, 2)
        assert g.block_at(2).sign is BlockSign.POSITIVE

    def test_sign_negative(self):
        g = build_petersen(12, 2)
        assert g.block_at(1).sign is BlockSign.NEGATIVE

    def test_wraparound_vertices(self):
        g = build_petersen(12, 2)
        got = set(names(g.block_at(0).vertices))
        assert got == {"v11", "v0", "v1", "u11", "u0", "u1"}

    def test_requires_k2(self):
        g = build_petersen(9, 3)
        with pytest.raises(ParameterError, match="k = 2"):
            g.block_at(0)

    def test_blocks_names_itself(self):
        with pytest.raises(ParameterError, match=r"^blocks requires k = 2, got k=3$"):
            build_petersen(9, 3).blocks()

    @given(n=st.integers(6, 30).filter(lambda n: n % 2 == 0))
    def test_sign_alternation_even_n(self, n):
        g = build_petersen(n, 2)
        signs = [g.block_at(i).sign for i in range(n)]
        for i in range(n):
            assert signs[i] != signs[(i + 1) % n]
        positives = sum(1 for s in signs if s is BlockSign.POSITIVE)
        assert positives == -(-n // 2)

    @given(n=st.integers(7, 30), i=st.integers(0, 29))
    def test_block_window_edges(self, n, i):
        # induced edges inside any block for n >= 7: two outer path edges,
        # three spokes, and the single inner skip edge v_{i-1}-v_{i+1}
        g = build_petersen(n, 2)
        b = g.block_at(i % n)
        vs = set(b.vertices)
        induced = {
            frozenset((a, w))
            for a in vs
            for w in g.neighbors(a)
            if w in vs
        }
        u = {d: Vertex(Ring.OUTER, (b.center + d) % n) for d in (-1, 0, 1)}
        v = {d: Vertex(Ring.INNER, (b.center + d) % n) for d in (-1, 0, 1)}
        expected = {
            frozenset((u[-1], u[0])),
            frozenset((u[0], u[1])),
            frozenset((u[-1], v[-1])),
            frozenset((u[0], v[0])),
            frozenset((u[1], v[1])),
            frozenset((v[-1], v[1])),
        }
        assert induced == expected

    @given(n=st.integers(5, 30), i=st.integers(0, 29))
    def test_central_vertex_locality(self, n, i):
        # N[u_i] lies inside the block centered at i
        g = build_petersen(n, 2)
        b = g.block_at(i % n)
        center = Vertex(Ring.OUTER, b.center)
        closed = set(g.neighbors(center)) | {center}
        assert closed <= set(b.vertices)


class TestTextForms:
    def test_vertex_names(self):
        assert Vertex(Ring.OUTER, 0).name == "u0"
        assert Vertex(Ring.INNER, 11).name == "v11"

    def test_parse_round_trip(self):
        assert parse_vertex("v11", 20).name == "v11"
        assert parse_vertex("u7", 5).name == "u2"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_vertex("w3", 5)

    def test_set_text_canonical(self):
        s = VertexSet.from_names("v4,u1,v1,v3", 5)
        assert s.text() == "u1,v1,v3,v4"
        assert s.names() == ["u1", "v1", "v3", "v4"]

    def test_set_ops(self):
        s = VertexSet.from_names("u1,v1", 5)
        t = VertexSet.from_names("v1,v3", 5)
        assert (s | t).text() == "u1,v1,v3"
        assert (s & t).text() == "v1"
        assert parse_vertex("u1", 5) in s
        assert len(s) == 2


vertices_below_70 = st.builds(Vertex, st.sampled_from(list(Ring)), st.integers(0, 69))
plain_names = st.builds("{}{}".format, st.sampled_from("uv"), st.integers(0, 200))
blanks = st.sampled_from(["", " ", "\t", "\n"])
# indices of 19 or more digits (some >= 2^63), long zero runs and non-ASCII
# decimal digits, which int() reads like ASCII ones
odd_indices = st.one_of(
    st.integers(0, 200).map(str),
    st.integers(10**18, 2**70).map(str),
    st.sampled_from(["0" * 20 + "7", "\u0661", "\u0663\u0667"]),
)
odd_names = st.builds("{}{}{}{}".format, blanks, st.sampled_from("uv"), odd_indices, blanks)
# every digit-count boundary up to 10^6: 0, 1, 9, 10, 99, 100, ..., 999999, 10^6
boundaries = sorted({0} | {10**k + d for k in range(7) for d in (-1, 0)} - {-1})
codec_indices = st.one_of(st.sampled_from(boundaries), st.integers(0, 10**6))


class TestVertexSetModel:
    """VertexSet against a frozenset of Vertex objects as the model."""

    @given(
        a=st.frozensets(vertices_below_70, max_size=40),
        b=st.frozensets(vertices_below_70, max_size=40),
    )
    def test_matches_frozenset(self, a, b):
        A, B = VertexSet.of(a), VertexSet.of(b)
        assert len(A) == len(a)
        assert A.members == a
        assert (A | B).members == a | b
        assert (A & B).members == a & b
        assert (A == B) == (a == b)
        canonical = sorted(a, key=lambda v: (v.ring is Ring.INNER, v.index))
        assert A.names() == [v.name for v in canonical]
        assert list(A) == A.sorted() == canonical
        for ring in Ring:
            for i in range(70):
                assert (Vertex(ring, i) in A) == (Vertex(ring, i) in a)

    def test_names_round_trip_large(self):
        from petdom.constructions import construct_one_two_total

        S = construct_one_two_total(9997)
        T = VertexSet.from_names(S.names(), 9997)
        assert T == S
        assert hash(T) == hash(S)

    @given(
        pieces=st.one_of(
            st.lists(plain_names, max_size=40),
            st.lists(st.one_of(plain_names, odd_names, blanks), max_size=40),
        ),
        n=st.integers(1, 70),
    )
    @example(pieces=[" u1 ", "", "v\u0661", "u" + "9" * 19, f"v{2**63}", "u3", "u8"], n=5)
    @example(pieces=["u" + "9" * 19, f"v{2**63}", "u" + "0" * 20 + "7", "v3"], n=5)
    @example(pieces=["u\u0661", "v\u0663\u0667", "u3"], n=7)
    @example(pieces=["u3", "v5", "v5"], n=2**64)
    # well-formed names with n just past int64: the per-name path, not numpy's
    @example(pieces=["u1", "v5"], n=2**63)
    @example(pieces=["u1", "v5"], n=2**64 - 1)
    @example(pieces=["u" + "9" * 19, "v3"], n=5)  # well-formed, one digit past 18
    def test_from_names_matches_parsed_vertices(self, pieces, n):
        # blanks stripped, blank pieces of a str dropped, indices reduced
        # mod n, duplicates and order immaterial
        names = [s for s in pieces if s.strip()]
        S = VertexSet.from_names(names, n)
        assert S == VertexSet.of(parse_vertex(name, n) for name in names)
        assert S.members == frozenset(parse_vertex(name, n) for name in names)
        assert VertexSet.from_names(",".join(pieces), n) == S

    @given(
        outer=st.frozensets(codec_indices, max_size=12),
        inner=st.frozensets(codec_indices, max_size=12),
    )
    @example(outer=frozenset(), inner=frozenset())
    @example(outer=frozenset(boundaries), inner=frozenset())
    @example(outer=frozenset(), inner=frozenset(boundaries))
    @example(outer=frozenset({0}), inner=frozenset({10**6}))
    def test_names_match_fstring_rendering(self, outer, inner):
        S = VertexSet(sum(1 << i for i in outer), sum(1 << i for i in inner))
        want = [f"u{i}" for i in sorted(outer)] + [f"v{i}" for i in sorted(inner)]
        assert S.names() == want
        assert S.text() == ",".join(want)

    @pytest.mark.parametrize(
        "names,n",
        [
            (["u007", "v" + "9" * 18, "u" + "1" * 15, "v0", "u" + "9" * 17], 999_983),
            (["v123456789012345678", "v" + "0" * 17 + "5", "u000", "u99"], 1000),
            (["u007", "v" + "0" * 17 + "7", "u" + "0" * 15 + "42"], 2**63 - 1),
            (["v0", "u1", "v1"], 2**63 - 2),
            ([f"u{2**23 - 1}", "v0"], 10**18),  # the largest index the masks take
        ],
    )
    def test_from_names_long_indices_on_fast_path(self, names, n, monkeypatch):
        # 15 to 18 digits and leading zeros are read from the bytes; n may
        # be as large as int64 allows
        model = VertexSet.of(parse_vertex(name, n) for name in names)
        calls = []
        parse = graph.parse_vertex
        monkeypatch.setattr(graph, "parse_vertex", lambda *args: calls.append(1) or parse(*args))
        assert VertexSet.from_names(names, n) == model
        assert VertexSet.from_names(",".join(names), n) == model
        assert calls == []

    @pytest.mark.parametrize(
        "names,n,top",
        [
            ("u" + "9" * 17, 10**18, 10**17 - 1),
            (["v" + "9" * 17, "u1"], 10**18, 10**17 - 1),
            (f" u{2**23} ", 2**64, 2**23),  # padded and n past int64: per name
            (f"v{2**23}", 2**23 + 1, 2**23),
        ],
    )
    def test_from_names_refuses_index_past_size_limit(self, names, n, top):
        # the masks would hold top + 1 bits; refused before allocating them
        with pytest.raises(SizeLimitError) as info:
            VertexSet.from_names(names, n)
        assert str(info.value) == (
            f"a call materialises at most 2^23 = 8388608 columns, got {top + 1}"
        )

    def test_from_names_rejects_bad_name(self):
        with pytest.raises(ParameterError, match="must match u<i> or v<i>, got 'w3'"):
            VertexSet.from_names(["u1", "w3"], 5)

    # messages recorded before names were parsed as a whole; the first
    # bad name is the one reported
    @pytest.mark.parametrize(
        "names,message",
        [
            (["u1,v2"], "got 'u1,v2'"),
            ("w3", "got 'w3'"),
            ("u", "got 'u'"),
            ("u-1", "got 'u-1'"),
            ("u1x", "got 'u1x'"),
            (["v2", "u", "w3"], "got 'u'"),
            ("u1, w3 ,x", "got ' w3 '"),
        ],
    )
    def test_from_names_rejection_messages(self, names, message):
        with pytest.raises(ParameterError) as info:
            VertexSet.from_names(names, 5)
        assert str(info.value) == f"vertex name must match u<i> or v<i>, {message}"

    @pytest.mark.parametrize("n", [0, -5])
    def test_modulus_below_one_refused(self, n):
        for call in (
            lambda: VertexSet.from_names(["u1"], n),
            lambda: VertexSet.from_names("u1,v2", n),
            lambda: VertexSet.from_names([], n),
            lambda: parse_vertex("u1", n),
        ):
            with pytest.raises(ParameterError, match=f"n must satisfy n >= 1, got n={n}"):
                call()

    def test_name_not_str_refused(self):
        for names, bad in (([1, 2], "1"), (["u1", None], "None"), (["w3", 4], "'w3'")):
            with pytest.raises(ParameterError, match=f"u<i> or v<i>, got {bad}$"):
                VertexSet.from_names(names, 7)
        with pytest.raises(ParameterError, match="u<i> or v<i>, got 1$"):
            parse_vertex(1, 7)

    def test_witness_names_parsed_whole(self, monkeypatch):
        n = 10**5
        S = dp_min(n, DominationKind.ONE_TWO).witness
        calls = []
        parse = graph.parse_vertex
        monkeypatch.setattr(graph, "parse_vertex", lambda *args: calls.append(1) or parse(*args))
        assert VertexSet.from_names(S.names(), n) == S
        assert VertexSet.from_names(S.text(), n) == S
        assert calls == []

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_str_form_no_larger_than_list_form(self):
        # 66,668 names: the [1,2] witness at n = 10^5; the str is matched
        # whole, not split into a list of names first
        n = 10**5
        S = construct_one_two(n)
        names, text = S.names(), S.text()
        assert len(names) == 66_668
        text_peak = self._peak(lambda: VertexSet.from_names(text, n))
        assert text_peak <= self._peak(lambda: VertexSet.from_names(names, n))

    @pytest.mark.parametrize("form,bound", [("text", 4), ("names", 6)])
    def test_rendering_peak(self, form, bound):
        # 66,668 names render from byte matrices of about 0.5 MB each (an
        # int64 one would take 3.7 MB); the list of names takes about 4 MiB
        S = construct_one_two(10**5)
        assert self._peak(getattr(S, form)) < bound * 2**20

    def test_names_match_keeps_no_state_per_name(self):
        # a backtracking repeat saves about 130 bytes per name (8 MiB here)
        text = construct_one_two(10**5).text()
        assert self._peak(lambda: graph._NAMES_RE.fullmatch(text)) < 64 * 2**10

    def test_of_rejects_negative_index(self):
        with pytest.raises(ParameterError, match="vertex u-1 has a negative index"):
            VertexSet.of([Vertex(Ring.OUTER, -1)])

    @pytest.mark.parametrize("index", [2.5, 3.0, "3", None, True])
    def test_of_refuses_non_integer_index(self, index):
        with pytest.raises(ParameterError) as info:
            VertexSet.of([Vertex(Ring.OUTER, 1), Vertex(Ring.OUTER, index)])
        assert str(info.value) == f"index must be an integer, got {index!r}"

    def test_arrays_reject_index_outside_n(self):
        S = VertexSet.of([Vertex(Ring.INNER, 2), Vertex(Ring.INNER, 9)])
        with pytest.raises(ParameterError, match=r"vertex v9 has index outside \[0, 5\)"):
            S.arrays(5)
        assert S.arrays(10)[1].tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 0, 1]

    def test_require_below_names_first_member_past_n(self):
        # outer ring first, lowest index first; no arrays, so any n is taken
        S = VertexSet(1 << 9 | 1 << 40, 1 << 7)
        with pytest.raises(ParameterError, match=r"vertex u9 has index outside \[0, 6\)"):
            S.require_below(6)
        with pytest.raises(ParameterError, match=r"vertex v7 has index outside \[0, 7\)"):
            VertexSet(0, S.inner).require_below(7)
        with pytest.raises(ParameterError, match=r"vertex u40 has index outside \[0, 10\)"):
            S.require_below(10)
        assert S.require_below(10**18) is None


class TestColumnForm:
    @given(
        parts=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 6)),
            min_size=3, max_size=3,
        ),
        repeats=st.integers(0, 7),
    )
    def test_vertex_set_is_the_columns_laid_end_to_end(self, parts, repeats):
        head, motif, tail = [(o % (1 << w), i % (1 << w), w) for o, i, w in parts]
        motif = motif if motif[2] else (motif[0], motif[1], 1)
        form = graph.ColumnForm(head, motif, repeats, tail)
        vertices, start = set(), 0
        for o, i, w in [head, *[motif] * repeats, tail]:
            vertices |= {Vertex(Ring.OUTER, start + j) for j in range(w) if o >> j & 1}
            vertices |= {Vertex(Ring.INNER, start + j) for j in range(w) if i >> j & 1}
            start += w
        assert form.n == start
        assert form.vertex_set() == VertexSet.of(vertices)
        assert form.size == len(form.vertex_set())
        assert [a.tolist() for a in form.arrays()] == [
            a.tolist() for a in VertexSet.of(vertices).arrays(start)
        ]

    @pytest.mark.parametrize(
        "form",
        [
            graph.ColumnForm((0, 0, 0), (0b010, 0b010, 3), -1, (0, 0, 0)),  # repeats -1
            graph.ColumnForm((0b1, 0, 1), (0, 0, 0), 2, (0, 0, 0)),  # motif width 0
            # bits past the motif's width: the copies would overlap and carry
            graph.ColumnForm((0, 0, 0), (0b111, 0, 2), 3, (0, 0, 0)),
        ],
    )
    def test_malformed_forms_are_refused(self, form):
        message = (
            "ColumnForm.vertex_set requires motif width >= 1, widths and repeats >= 0, "
            "each part's bits below its width, got "
        )
        for build in (form.vertex_set, form.arrays):
            with pytest.raises(ParameterError) as info:
                build()
            assert str(info.value) == message + repr(form)


class TestRanks:
    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (9, 2), (10, 3), (13, 4), (14, 6)])
    def test_numbering_and_neighbor_ranks(self, n, k):
        g = build_petersen(n, k)
        assert [g.rank(v) for v in g.vertices()] == list(range(2 * n))
        for r, v in enumerate(g.vertices()):
            assert g.vertex(r) == v
            i = v.index
            if v.ring is Ring.OUTER:
                expected = {(i - 1) % n, (i + 1) % n, n + i}
            else:
                expected = {i, n + (i - k) % n, n + (i + k) % n}
            got = g.neighbor_ranks(r)
            assert list(got) == sorted(expected)
            assert [g.rank(w) for w in g.neighbors(v)] == list(got)
            assert g.neighbor_table()[r].tolist() == list(got)

    @pytest.mark.parametrize("r", [-1, 18, 2**70])
    def test_rank_bounds(self, r):
        g = build_petersen(9, 2)
        for method in (g.vertex, g.neighbor_ranks):
            with pytest.raises(ParameterError) as info:
                method(r)
            assert str(info.value) == f"r must satisfy 0 <= r <= 17, got r={r}"

    def test_rank_refuses_vertex_outside_n(self):
        with pytest.raises(ParameterError, match=r"vertex v9 has index outside \[0, 9\)"):
            build_petersen(9, 2).rank(Vertex(Ring.INNER, 9))
