import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petdom import (
    BlockType,
    Bound,
    CensusError,
    ClassificationImpossibleError,
    ComponentCensus,
    DominationKind,
    ParameterError,
    Ring,
    Vertex,
    VertexSet,
    blocks_by_count,
    brute_force_min,
    build_petersen,
    census_inequalities,
    classify_singleton_block,
    component_census,
    induced_components,
    is_valid,
)
from petdom.constructions import build_construction
from petdom.domination import counts, form_is_valid
from petdom.graph import Block, ColumnForm

K = DominationKind

S5 = VertexSet.from_names("u1,v1,v3,v4", 5)
S6 = VertexSet.from_names("u1,v1,u4,v4", 6)
S7 = VertexSet.from_names("u0,v1,v2,v3,u4", 7)
S9 = VertexSet.from_names("u1,v1,u4,v4,u7,v7", 9)


def recount_violations(g, S, kind):
    """Independent validity oracle using only neighbors()."""
    out = []
    for v in g.vertices():
        member = v in S
        if member and not kind.covers_members:
            continue
        c = sum(1 for w in g.neighbors(v) if w in S)
        if c < 1:
            out.append((v.name, c, "TooFew"))
        elif kind.upper_bounded and c > 2:
            out.append((v.name, c, "TooMany"))
    return out


def random_subset(n, seed_bits):
    g = build_petersen(n, 2)
    verts = list(g.vertices())
    return g, VertexSet.of(v for v, b in zip(verts, seed_bits) if b)


def domination_count(g, S, v):
    """|N(v) & S| read off the neighbour-count kernel."""
    return int(counts(g.n, g.k, *S.arrays(g.n))[v.ring is Ring.INNER][v.index])


class TestDominationCount:
    def test_s5_u0(self):
        g = build_petersen(5, 2)
        assert domination_count(g, S5, Vertex(Ring.OUTER, 0)) == 1

    def test_empty_set(self):
        g = build_petersen(8, 2)
        empty = VertexSet.of([])
        for v in g.vertices():
            assert domination_count(g, empty, v) == 0

    def test_full_set(self):
        g = build_petersen(8, 2)
        full = g.vertex_set()
        for v in g.vertices():
            assert domination_count(g, full, v) == 3


# the four predicates of the domination module docstring, for a vertex
# with c neighbours in S that is (m = 1) or is not (m = 0) itself in S
DOCSTRING_PREDICATES = {
    K.PLAIN: lambda c, m: m == 1 or c >= 1,
    K.TOTAL: lambda c, m: c >= 1,
    K.ONE_TWO: lambda c, m: m == 1 or 1 <= c <= 2,
    K.ONE_TWO_TOTAL: lambda c, m: 1 <= c <= 2,
}


class TestAccepts:
    @pytest.mark.parametrize("kind", list(K))
    def test_scalar_matches_docstring(self, kind):
        for c in range(4):
            for m in (0, 1):
                assert kind.accepts(c, m) is DOCSTRING_PREDICATES[kind](c, m)

    @pytest.mark.parametrize("kind", list(K))
    def test_array_form_is_elementwise(self, kind):
        c = np.repeat(np.arange(4, dtype=np.uint8), 2)
        m = np.tile(np.array([0, 1], dtype=np.uint8), 4)
        got = kind.accepts(c, m)
        assert got.dtype == np.bool_
        assert got.tolist() == [kind.accepts(int(x), int(y)) for x, y in zip(c, m)]


class TestFromText:
    @pytest.mark.parametrize("kind", list(K))
    def test_round_trip(self, kind):
        assert K.from_text(kind.value) is kind

    @pytest.mark.parametrize("text", ["bogus", "", "One-Two", "one_two", " plain"])
    def test_refused(self, text):
        values = [k.value for k in K]
        message = f"kind must be one of {values}, got {text!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            K.from_text(text)


class TestIsValid:
    def test_s5_one_two_valid(self):
        g = build_petersen(5, 2)
        assert is_valid(g, S5, K.ONE_TWO).valid

    def test_full_set_one_two_vacuous(self):
        g = build_petersen(7, 2)
        assert is_valid(g, g.vertex_set(), K.ONE_TWO).valid

    def test_full_set_one_two_total_all_too_many(self):
        g = build_petersen(7, 2)
        report = is_valid(g, g.vertex_set(), K.ONE_TWO_TOTAL)
        assert not report.valid
        assert len(report.violations) == 2 * g.n
        assert all(
            w.count == 3 and w.bound is Bound.TOO_MANY for w in report.violations
        )

    def test_s5_not_one_two_total(self):
        g = build_petersen(5, 2)
        report = is_valid(g, S5, K.ONE_TWO_TOTAL)
        assert not report.valid
        # v1 sits in S with all three neighbors u1, v3, v4 in S
        offenders = {w.vertex.name: w for w in report.violations}
        assert offenders["v1"].count == 3
        assert offenders["v1"].bound is Bound.TOO_MANY

    def test_rejects_index_outside_n(self):
        g = build_petersen(5, 2)
        S = VertexSet.of([Vertex(Ring.OUTER, 1), Vertex(Ring.OUTER, 5)])
        with pytest.raises(ParameterError, match=r"vertex u5 has index outside \[0, 5\)"):
            is_valid(g, S, K.PLAIN)

    def test_violations_sorted_canonically(self):
        g = build_petersen(6, 2)
        report = is_valid(g, VertexSet.of([]), K.PLAIN)
        assert [w.vertex.name for w in report.violations] == [
            v.name for v in g.vertices()
        ]

    @given(
        n=st.integers(5, 10),
        bits=st.lists(st.booleans(), min_size=20, max_size=20),
        kind=st.sampled_from(list(K)),
    )
    def test_matches_recount_oracle(self, n, bits, kind):
        g, S = random_subset(n, bits)
        report = is_valid(g, S, kind)
        expected = recount_violations(g, S, kind)
        got = [(w.vertex.name, w.count, w.bound.value) for w in report.violations]
        assert got == expected
        assert report.valid == (not expected)

    @given(
        n=st.integers(5, 24),
        v_pick=st.integers(0, 10 ** 6),
        w_pick=st.integers(0, 10 ** 6),
    )
    def test_monotone_vacuity(self, n, v_pick, w_pick):
        # adding a vertex not adjacent to v never turns a 1-dominated
        # outsider v into a violation; the validator recomputes counts
        from petdom.constructions import construct_one_two

        g = build_petersen(n, 2)
        S = construct_one_two(n)
        outside = [
            v
            for v in g.vertices()
            if v not in S and sum(w in S for w in g.neighbors(v)) == 1
        ]
        if not outside:
            return
        v = outside[v_pick % len(outside)]
        candidates = [
            w
            for w in g.vertices()
            if w not in S and w != v and w not in g.neighbors(v)
        ]
        if not candidates:
            return
        w = candidates[w_pick % len(candidates)]
        report = is_valid(g, S | VertexSet.of([w]), K.ONE_TWO)
        assert v.name not in {x.vertex.name for x in report.violations}


@st.composite
def column_parts(draw, lo, hi):
    """(outer bits, inner bits, width): each ring's bits one draw, or the
    union or intersection of two, so dense and sparse sets both occur."""
    width = draw(st.integers(lo, hi))
    mix = draw(st.sampled_from([lambda a, b: a, int.__or__, int.__and__]))
    bits = st.integers(0, (1 << width) - 1)
    return mix(draw(bits), draw(bits)), mix(draw(bits), draw(bits)), width


@st.composite
def column_forms(draw):
    form = ColumnForm(draw(column_parts(0, 6)), draw(column_parts(1, 6)), 0,
                      draw(column_parts(0, 6)))
    return form._replace(repeats=draw(st.integers(0, form.settled + 3)))


PAIRS = ColumnForm((0, 0, 0), (0b010, 0b010, 3), 5, (0, 0, 0))  # valid for every kind


class TestFormIsValid:
    """The form's verdict, read at R0 and R0 + 1 from R0 repeats on, is
    is_valid's on the form's own set, whatever the repeat count."""

    @settings(max_examples=400)
    @given(form=column_forms(), kind=st.sampled_from(K))
    @example(form=PAIRS, kind=K.ONE_TWO_TOTAL)
    @example(form=PAIRS._replace(tail=(0, 0b11, 2)), kind=K.ONE_TWO_TOTAL)
    @example(form=PAIRS._replace(tail=(0, 0b01, 2)), kind=K.ONE_TWO_TOTAL)
    @example(form=PAIRS._replace(tail=(0b11, 0b11, 2)), kind=K.ONE_TWO)
    @example(form=PAIRS._replace(tail=(0b111, 0b111, 3)), kind=K.ONE_TWO_TOTAL)
    # valid at one repeat, not from R0 = 2 on: one motif phase shows only then
    @example(form=ColumnForm((0, 0, 0), (0, 0b0110, 4), 2, (1, 0, 1)), kind=K.PLAIN)
    def test_matches_is_valid(self, form, kind):
        if form.n < 5:
            return
        g = build_petersen(form.n, 2)
        assert form_is_valid(form, kind) == is_valid(g, form.vertex_set(), kind).valid

    @pytest.mark.parametrize(
        "form",
        [
            ColumnForm((0, 0, 0), (0b1, 0b1, 1), 4, (0, 0, 0)),  # n = 4
            ColumnForm((0b11111, 0, 5), (0, 0, 0), 3, (0, 0, 0)),  # motif width 0
            ColumnForm((0, 0, 0), (0b010, 0b1010, 3), 3, (0, 0, 0)),  # v_3 in a motif of 3
            ColumnForm((0, 0, 0), (0b010, 0b010, 3), 3, (0b100, 0, 2)),  # u_2 in a tail of 2
            ColumnForm((0, 0, 8), (0b010, 0b010, 3), -1, (0, 0, 0)),  # repeats -1, n = 5
            ColumnForm((0, 0, -1), (0b010, 0b010, 3), 2, (0, 0, 0)),  # head width -1, n = 5
        ],
    )
    def test_refuses_forms_outside_the_argument(self, form):
        with pytest.raises(ParameterError, match="form_is_valid requires motif width"):
            form_is_valid(form, K.PLAIN)

    MOTIF = (0b010, 0b010, 3)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"repeats": 2.0}, "repeats must be an integer, got 2.0"),
            ({"repeats": True}, "repeats must be an integer, got True"),
            ({"motif": (0b010, 0b010, 3.0)}, "motif width must be an integer, got 3.0"),
            ({"head": (0, 0, 2.0)}, "head width must be an integer, got 2.0"),
            ({"tail": (0, 0.5, 1)}, "tail inner bits must be an integer, got 0.5"),
        ],
    )
    def test_refuses_non_integer_fields(self, change, message):
        form = ColumnForm((0, 0, 0), self.MOTIF, 2, (0, 0, 0))._replace(**change)
        with pytest.raises(ParameterError) as info:
            form_is_valid(form, K.PLAIN)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", list(K))
    def test_numpy_integer_fields(self, kind):
        form = ColumnForm((0, 0, 0), self.MOTIF, 3, (0b01, 0b01, 2))
        wide = ColumnForm(
            (np.int64(0), np.int64(0), np.int64(0)),
            tuple(np.int32(x) for x in self.MOTIF),
            np.int64(3),
            (np.uint8(1), np.uint8(1), np.int16(2)),
        )
        assert form_is_valid(wide, kind) == form_is_valid(form, kind)

    @pytest.mark.parametrize("kind", list(K))
    def test_table_forms_at_every_repeat_count(self, kind):
        # valid and invalid verdicts both occur, at repeats below, at and past R0
        seen = set()
        for tail in [(0, 0, 0), (0, 0b11, 2), (0, 0b01, 2), (0b0110, 0b0110, 4)]:
            for r in range(1, 9):
                form = PAIRS._replace(repeats=r, tail=tail)
                if form.n >= 5:
                    want = is_valid(build_petersen(form.n, 2), form.vertex_set(), kind)
                    assert form_is_valid(form, kind) == want.valid
                    seen.add(want.valid)
        assert seen == {True, False}


class TestBlocksByCount:
    def test_s6_all_blocks_two(self):
        g = build_petersen(6, 2)
        buckets = blocks_by_count(g, S6)
        assert len(buckets[2]) == 6
        assert all(not buckets[c] for c in (0, 1, 3, 4, 5, 6))

    def test_full_set(self):
        g = build_petersen(8, 2)
        buckets = blocks_by_count(g, g.vertex_set())
        assert len(buckets[6]) == 8

    def test_empty_set(self):
        g = build_petersen(8, 2)
        buckets = blocks_by_count(g, VertexSet.of([]))
        assert len(buckets[0]) == 8

    @given(n=st.integers(5, 16), bits=st.lists(st.booleans(), min_size=32, max_size=32))
    def test_partition(self, n, bits):
        g, S = random_subset(n, bits)
        buckets = blocks_by_count(g, S)
        assert sum(len(v) for v in buckets.values()) == n

    @given(n=st.integers(5, 16), bits=st.lists(st.booleans(), min_size=32, max_size=32))
    def test_buckets_match_block_intersections(self, n, bits):
        # oracle: direct set intersection of each block's vertices with S
        g, S = random_subset(n, bits)
        got = {b.center: c for c, bucket in blocks_by_count(g, S).items() for b in bucket}
        assert got == {b.center: len(set(b.vertices) & S.members) for b in g.blocks()}

    def test_bucket0_empty_for_valid_sets(self):
        from petdom.constructions import construct_one_two

        for n in range(5, 30):
            g = build_petersen(n, 2)
            S = construct_one_two(n)
            assert is_valid(g, S, K.PLAIN).valid
            assert not blocks_by_count(g, S)[0]


class TestClassifySingletonBlock:
    def test_left_outer_example(self):
        g = build_petersen(7, 2)
        b = g.block_at(5)
        assert set(b.vertices) & S7.members == {Vertex(Ring.OUTER, 4)}
        assert classify_singleton_block(g, S7, b) is BlockType.LEFT_OUTER

    def test_center_outer(self):
        g = build_petersen(7, 2)
        b = g.block_at(6)
        # S7 & block 6 = {u0} = u_{i+1}: right outer
        assert set(b.vertices) & S7.members == {Vertex(Ring.OUTER, 0)}
        assert classify_singleton_block(g, S7, b) is BlockType.RIGHT_OUTER

    def test_all_four_types_reachable(self):
        g = build_petersen(9, 2)
        cases = {
            "v4": BlockType.CENTER_INNER,
            "u4": BlockType.CENTER_OUTER,
            "u3": BlockType.LEFT_OUTER,
            "u5": BlockType.RIGHT_OUTER,
        }
        for name, expected in cases.items():
            S = VertexSet.from_names(name, 9)
            assert classify_singleton_block(g, S, g.block_at(4)) is expected

    def test_rejects_wrong_gamma(self):
        g = build_petersen(6, 2)
        with pytest.raises(ParameterError, match="expected 1"):
            classify_singleton_block(g, S6, g.block_at(1))

    def test_impossible_member_aborts(self):
        g = build_petersen(9, 2)
        S = VertexSet.from_names("v3", 9)  # v_{i-1} of the block at 4
        with pytest.raises(ClassificationImpossibleError):
            classify_singleton_block(g, S, g.block_at(4))

    def test_rejects_block_of_another_graph(self):
        # centre 12 is not a column of P(12,2)
        g = build_petersen(12, 2)
        S = VertexSet.from_names("u11", 12)
        with pytest.raises(ParameterError, match=r"block of P\(28,2\) given for P\(12,2\)"):
            classify_singleton_block(g, S, build_petersen(28, 2).block_at(12))

    def test_rejects_center_outside_graph(self):
        # u2 would be the one member of a block centered at 50 % 12 = 2
        g = build_petersen(12, 2)
        S = VertexSet.from_names("u2", 12)
        with pytest.raises(ParameterError, match=r"^block center 50 is not a column of P\(12,2\)$"):
            classify_singleton_block(g, S, Block(12, 50))
        with pytest.raises(ParameterError, match="block center -1"):
            classify_singleton_block(g, S, Block(12, -1))
        assert classify_singleton_block(g, S, Block(12, 2)) is BlockType.CENTER_OUTER

    @given(n=st.integers(5, 14), m=st.integers(5, 30), i=st.integers(0, 29),
           bits=st.lists(st.booleans(), min_size=32, max_size=32))
    def test_foreign_blocks_refused(self, n, m, i, bits):
        g, S = random_subset(n, bits)
        b = build_petersen(m, 2).block_at(i)
        if m == n:
            assert b == g.block_at(i)
        else:
            assert b != g.block_at(i)
            with pytest.raises(ParameterError, match="given for"):
                classify_singleton_block(g, S, b)

    def test_requires_k2(self):
        # u4 is the one member of the block at 4, but P(11,3) has no blocks
        S = VertexSet.from_names("u4", 11)
        block = build_petersen(11, 2).block_at(4)
        assert classify_singleton_block(build_petersen(11, 2), S, block) is BlockType.CENTER_OUTER
        with pytest.raises(ParameterError, match="k = 2"):
            classify_singleton_block(build_petersen(11, 3), S, block)

    def test_total_over_brute_witnesses(self):
        from petdom import brute_force_min

        for n in range(5, 13):
            g = build_petersen(n, 2)
            S = brute_force_min(g, K.ONE_TWO).witness
            for b in blocks_by_count(g, S)[1]:
                classify_singleton_block(g, S, b)  # must not raise


class TestComponentCensus:
    def test_s9_three_p2(self):
        g = build_petersen(9, 2)
        # oracle: each chosen pair spans one spoke edge and no edges join
        # distinct pairs
        members = S9.sorted()
        for v in members:
            nbrs_in = [w for w in g.neighbors(v) if w in S9]
            assert len(nbrs_in) == 1
        census = component_census(g, S9)
        assert census.x == {2: 3}
        assert census.y == {}

    def test_p5_minimum_total_witness(self):
        from petdom import brute_force_min

        g = build_petersen(5, 2)
        result = brute_force_min(g, K.ONE_TWO_TOTAL)
        census = component_census(g, result.witness)
        assert census.total_vertices == 5

    def test_full_set_errors(self):
        g = build_petersen(6, 2)
        with pytest.raises(CensusError, match="degree 3"):
            component_census(g, g.vertex_set())

    def test_isolated_member_errors(self):
        g = build_petersen(9, 2)
        with pytest.raises(CensusError, match="degree 0"):
            component_census(g, VertexSet.from_names("u0,u4", 9))

    def test_cycle_component(self):
        # the inner ring of P(5,2) is a single 5-cycle
        g = build_petersen(5, 2)
        S = VertexSet.from_names("v0,v1,v2,v3,v4", 5)
        comps = induced_components(g, S)
        assert len(comps) == 1
        assert comps[0].kind == "cycle"
        assert comps[0].order == 5
        census = component_census(g, S)
        assert census.y == {5: 1}

    def test_path_walk_order_deterministic(self):
        g = build_petersen(9, 2)
        comps = induced_components(g, S9)
        assert [c.kind for c in comps] == ["path"] * 3
        assert [v.name for v in comps[0].vertices] == ["u1", "v1"]

    def test_census_json_shape(self):
        g = build_petersen(9, 2)
        assert component_census(g, S9).as_dict() == {"x": {"2": 3}, "y": {}}


class TestMembersOutsideN:
    # S does not know n: the artifacts refuse what is_valid refuses, with
    # the message of VertexSet.arrays
    S = VertexSet.from_names("u1,u50", 60)
    MESSAGE = "vertex u50 has index outside [0, 10)"

    def test_blocks_by_count(self):
        with pytest.raises(ParameterError) as info:
            blocks_by_count(build_petersen(10, 2), self.S)
        assert str(info.value) == self.MESSAGE

    def test_classify_singleton_block(self):
        # the block at 1 holds u1 alone; u50 lies outside P(10,2)
        g = build_petersen(10, 2)
        with pytest.raises(ParameterError) as info:
            classify_singleton_block(g, self.S, g.block_at(1))
        assert str(info.value) == self.MESSAGE

    def test_induced_components_before_census_error(self):
        # u1 alone in P(10,2) has induced degree 0, but u50 is refused first
        for artifact in (induced_components, component_census):
            with pytest.raises(ParameterError) as info:
                artifact(build_petersen(10, 2), self.S)
            assert str(info.value) == self.MESSAGE


class TestCensusInequalities:
    def test_s9_census(self):
        checks = census_inequalities(ComponentCensus({2: 3}, {}), 9, 6)
        assert checks.eq2.ok and (checks.eq2.lhs, checks.eq2.rhs) == (18, 18)
        assert checks.eq3.ok and (checks.eq3.lhs, checks.eq3.rhs) == (6, 6)
        assert checks.eq4.ok and (checks.eq4.lhs, checks.eq4.rhs) == (9, 9)
        assert checks.eq5.ok
        assert checks.all_ok

    def test_empty_census_fails_eq2(self):
        checks = census_inequalities(ComponentCensus({}, {}), 9, 0)
        assert not checks.eq2.ok
        assert (checks.eq2.lhs, checks.eq2.rhs) == (0, 18)

    @given(counts=st.dictionaries(st.just(2), st.integers(1, 30), min_size=1))
    def test_all_p2_eq5_tight(self, counts):
        census = ComponentCensus(dict(counts), {})
        checks = census_inequalities(census, 5, census.total_vertices)
        assert checks.eq5.ok
        assert checks.eq5.lhs == checks.eq5.rhs


class TestCensusProperties:
    def test_degrees_and_neighborhood_bounds(self):
        from petdom.constructions import construct_one_two_total

        for n in range(5, 40):
            g = build_petersen(n, 2)
            S = construct_one_two_total(n)
            comps = induced_components(g, S)
            for comp in comps:
                for v in comp.vertices:
                    deg = sum(1 for w in g.neighbors(v) if w in S)
                    assert deg in (1, 2)
                closed = set()
                for v in comp.vertices:
                    closed.add(v)
                    closed.update(g.neighbors(v))
                bound = (
                    2 * comp.order + 2 if comp.kind == "path" else 2 * comp.order
                )
                assert len(closed) <= bound


def _block_lines(g, S):
    """The bucket centres of S's blocks, then each singleton block's
    placement or the text of the error classifying it raises."""
    buckets = blocks_by_count(g, S)
    for c in range(7):
        yield f"{c}: {','.join(str(b.center) for b in buckets[c])}"
    for b in buckets[1]:
        try:
            yield f"{b.center} {classify_singleton_block(g, S, b).value}"
        except ClassificationImpossibleError as exc:
            yield f"{b.center} {exc}"


def _walk_lines(g, S):
    """Each component of G[S] as its kind and vertex names, in discovery
    order, or the text of the CensusError raised instead."""
    try:
        for comp in induced_components(g, S):
            yield f"{comp.kind} {','.join(v.name for v in comp.vertices)}"
    except CensusError as exc:
        yield str(exc)


def _digest(cases, *lines):
    h = hashlib.sha256()
    for tag, g, S in cases:
        for line_of in lines:
            for line in line_of(g, S):
                h.update(f"{tag} {line}\n".encode())
    return h.hexdigest()


def _constructions(kind):
    for n in range(5, 2001):
        yield n, build_petersen(n, 2), build_construction(n, kind).vertex_set


def _random_sets(count=600, seed=14):
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(5, 30)
        S = VertexSet(rng.getrandbits(n), rng.getrandbits(n))
        yield t, build_petersen(n, 2), S


class TestPinned:
    # sha256 over the artifacts' results and error texts, recorded while
    # blocks and components were still built from Vertex objects and
    # g.neighbors: a change of bucket, placement, walk order or message
    # fails here
    @pytest.mark.parametrize(
        "kind,digest",
        [
            (K.ONE_TWO, "e304f5bd3e236814ea2095d06db42f5d35f58a8e050bf93ea5a6f001d4d21588"),
            (K.ONE_TWO_TOTAL, "8515403e80fd2ca49da52fcefebb9d5b9652980856165e4af060b8b4ab75c846"),
        ],
    )
    def test_construction_blocks(self, kind, digest):
        assert _digest(_constructions(kind), _block_lines) == digest

    @pytest.mark.parametrize(
        "kind,digest",
        [
            (K.ONE_TWO, "8b1af15243c15a0dcb04a9d437c6d5c61cb33128c9df1d375d5e5fe803f42a02"),
            (K.ONE_TWO_TOTAL, "dca1dac7d90ed1f27f89db9d739de1ad489d6b6aa2bb17692d2c855455d56677"),
        ],
    )
    def test_construction_walks(self, kind, digest):
        assert _digest(_constructions(kind), _walk_lines) == digest

    def test_brute_force_witnesses(self):
        cases = [
            (f"{n} {kind.value}", g, brute_force_min(g, kind).witness)
            for n in range(5, 14)
            for g in [build_petersen(n, 2)]
            for kind in K
        ]
        digest = _digest(cases, _block_lines, _walk_lines)
        assert digest == "ca6c0502577c05f337c0904f757bfb82dd494a6a757f1749c4881cc4188552f3"

    def test_random_sets(self):
        digest = _digest(_random_sets(), _block_lines, _walk_lines)
        assert digest == "720bf40feb2e181735d2c82918cf22b0e77c51f6fffa755bb01f511b2e99dd7c"


class TestObjectsPinned:
    # recorded while blocks and components held Vertex tuples: a change of
    # repr, vertex order, sign or block equality fails here
    def test_block_repr(self):
        g = build_petersen(12, 2)
        assert repr(g.block_at(0)) == (
            "Block(center=0, vertices=(Vertex(u0), Vertex(u1), Vertex(u11), "
            "Vertex(v0), Vertex(v1), Vertex(v11)), sign=<BlockSign.POSITIVE: 'positive'>)"
        )
        assert repr(g.block_at(7)) == (
            "Block(center=7, vertices=(Vertex(u6), Vertex(u7), Vertex(u8), "
            "Vertex(v6), Vertex(v7), Vertex(v8)), sign=<BlockSign.NEGATIVE: 'negative'>)"
        )

    def test_component_repr(self):
        from petdom.constructions import construct_one_two_total

        g = build_petersen(13, 2)
        got = [repr(c) for c in induced_components(g, construct_one_two_total(13))]
        assert got == [
            "Component(kind='path', vertices=(Vertex(u1), Vertex(v1)))",
            "Component(kind='path', vertices=(Vertex(u4), Vertex(v4)))",
            "Component(kind='path', vertices=(Vertex(u7), Vertex(v7)))",
            "Component(kind='path', vertices=(Vertex(v10), Vertex(u10), "
            "Vertex(u11), Vertex(v11)))",
        ]

    @pytest.mark.parametrize("n", range(5, 21))
    def test_blocks_are_block_at(self, n):
        g = build_petersen(n, 2)
        assert list(g.blocks()) == [g.block_at(i) for i in range(n)]
