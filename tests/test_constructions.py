import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petdom import (
    ConstructionError,
    DominationKind,
    ParameterError,
    Ring,
    Vertex,
    build_petersen,
    f_one_two,
    g_one_two_total,
    is_valid,
)
from petdom.constructions import (
    Construction,
    ConstructionSource,
    build_construction,
    construct_one_two,
    construct_one_two_total,
)
from petdom.formulas import BY_KIND
from petdom.graph import ColumnForm
from petdom import domination
from petdom.cli import main
import petdom.constructions as constructions

K = DominationKind

# the minimum [1,2]-dominating sets of the paper's small cases, 5 <= n <= 11
SMALL_CASES = {
    5: "u1,v1,v3,v4",
    6: "u1,u4,v1,v4",
    7: "u0,u4,v1,v2,v3",
    8: "u1,u4,v1,v4,v6,v7",
    9: "u1,u4,u7,v1,v4,v7",
    10: "u1,u4,u7,u8,v1,v4,v7,v8",
    11: "u1,u4,u7,v1,v4,v7,v9,v10",
}


class TestSmallCases:
    @pytest.mark.parametrize("n,expected", list(SMALL_CASES.items()))
    def test_table(self, n, expected):
        assert build_construction(n, K.ONE_TWO).vertex_set.text() == expected

    @pytest.mark.parametrize("n", range(5, 12))
    def test_all_valid_one_two(self, n):
        g = build_petersen(n, 2)
        S = build_construction(n, K.ONE_TWO).vertex_set
        assert is_valid(g, S, K.ONE_TWO).valid
        assert len(S) == f_one_two(n)


class TestConstructOneTwo:
    def test_n9_periodic(self):
        assert construct_one_two(9).text() == "u1,u4,u7,v1,v4,v7"

    def test_n12_extends_stride(self):
        S = construct_one_two(12)
        assert S.text() == "u1,u4,u7,u10,v1,v4,v7,v10"
        assert len(S) == 8
        assert is_valid(build_petersen(12, 2), S, K.ONE_TWO).valid

    def test_n13_spliced(self):
        S = construct_one_two(13)
        assert len(S) == 9 == f_one_two(13)
        assert is_valid(build_petersen(13, 2), S, K.ONE_TWO).valid

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError, match="n >= 5"):
            construct_one_two(4)

    @pytest.mark.parametrize("n", range(5, 12))
    def test_agreement_with_small_cases(self, n):
        assert construct_one_two(n).text() == SMALL_CASES[n]

    @pytest.mark.parametrize("n", [6, 9, 12, 18, 21, 600])
    def test_periodicity_residues_0_3(self, n):
        expected = {Vertex(ring, i) for ring in Ring for i in range(1, n, 3)}
        assert construct_one_two(n).members == frozenset(expected)

    @pytest.mark.parametrize("n", range(5, 120))
    def test_size_and_validity_window(self, n):
        S = construct_one_two(n)
        assert len(S) == f_one_two(n)
        assert is_valid(build_petersen(n, 2), S, K.ONE_TWO).valid


class TestConstructOneTwoTotal:
    def test_n6_reuses_pairs(self):
        assert construct_one_two_total(6).text() == "u1,u4,v1,v4"

    def test_n5_special(self):
        S = construct_one_two_total(5)
        assert len(S) == 5 == g_one_two_total(5)
        assert is_valid(build_petersen(5, 2), S, K.ONE_TWO_TOTAL).valid

    def test_n13_spliced(self):
        S = construct_one_two_total(13)
        assert len(S) == 10 == g_one_two_total(13)
        assert is_valid(build_petersen(13, 2), S, K.ONE_TWO_TOTAL).valid

    @pytest.mark.parametrize("n", range(5, 120))
    def test_size_and_validity_window(self, n):
        S = construct_one_two_total(n)
        assert len(S) == g_one_two_total(n)
        assert is_valid(build_petersen(n, 2), S, K.ONE_TWO_TOTAL).valid


class TestRecipes:
    @pytest.mark.parametrize(
        "n,kind,source",
        [
            (9, K.ONE_TWO, ConstructionSource.PERIODIC_PATTERN),
            (8, K.ONE_TWO, ConstructionSource.SPLICED_PATTERN),
            (7, K.ONE_TWO, ConstructionSource.SMALL_CASE_TABLE),
            (13, K.ONE_TWO, ConstructionSource.SPLICED_PATTERN),
            (13, K.ONE_TWO_TOTAL, ConstructionSource.SPLICED_PATTERN),
            (5, K.ONE_TWO_TOTAL, ConstructionSource.SOLVER_DERIVED),
            (12, K.ONE_TWO_TOTAL, ConstructionSource.PERIODIC_PATTERN),
        ],
    )
    def test_source_tags(self, n, kind, source):
        assert build_construction(n, kind).source is source

    def test_as_dict_shape(self):
        doc = build_construction(13, K.ONE_TWO).as_dict()
        assert doc["n"] == 13
        assert doc["kind"] == "one-two"
        assert doc["size"] == 9
        assert doc["source"] == "spliced-pattern"
        assert doc["set"] == sorted(doc["set"], key=lambda s: (s[0], int(s[1:])))

    def test_rejects_non_witness_kinds(self):
        with pytest.raises(ParameterError, match="one-two"):
            build_construction(9, K.PLAIN)


class TestFormTable:
    # each mutation, at a small n (the form below R0, checked at its own
    # repeat count) and near 10^4 (the form checked at R0, once)
    @pytest.mark.parametrize(
        "key,parts,ns,message",
        [
            # drop a tail vertex, v_{n-1}
            ((K.ONE_TWO, 3, 2), {"tail": (0, 0b01, 2)}, [8, 9998], "has size"),
            ((K.ONE_TWO_TOTAL, 3, 2), {"tail": (0, 0b01, 2)}, [8, 9998], "has size"),
            # drop a motif bit, v_{j+1}
            ((K.ONE_TWO, 6, 1), {"motif": (0b010010, 0b000001, 6)}, [13, 9997], "has size"),
            # move a tail vertex: v_{n-1} to u_{n-2}, or to u_{n-1}
            ((K.ONE_TWO, 3, 2), {"tail": (0b01, 0b01, 2)}, [8, 9998], "failed validation"),
            ((K.ONE_TWO_TOTAL, 3, 2), {"tail": (0b10, 0b01, 2)}, [8, 9998],
             "failed validation"),
            # move a motif bit: v_{j+1} to v_{j+2}, or u_{j+1} to u_{j+2}
            ((K.ONE_TWO, 6, 1), {"motif": (0b010010, 0b000101, 6)}, [13, 9997],
             "failed validation"),
            ((K.ONE_TWO_TOTAL, 3, 0), {"motif": (0b100, 0b010, 3)}, [6, 9999],
             "failed validation"),
        ],
    )
    def test_mutated_entry_is_refused(self, monkeypatch, key, parts, ns, message):
        entry = dict(zip(("head", "motif", "tail", "source"), constructions._FORMS[key]))
        forms = {**constructions._FORMS, key: tuple({**entry, **parts}.values())}
        monkeypatch.setattr(constructions, "_ROWS", constructions._resolve(forms))
        monkeypatch.setattr(constructions, "_SOUND", {})
        for n in ns:
            with pytest.raises(ConstructionError, match=f"for n={n} {message}"):
                build_construction(n, key[0])

    def test_small_n_kept_per_repeat_count_and_large_n_once(self, monkeypatch):
        monkeypatch.setattr(constructions, "_SOUND", {})
        _, residues = constructions._ROWS[K.ONE_TWO]
        row = residues[2]  # the n = 2 (mod 3) entry, also the row of residue 5
        build_construction(8, K.ONE_TWO)  # 2 < R0 = 3 repeats: kept under 2
        assert constructions._SOUND == {(row, 2): True}
        build_construction(9998, K.ONE_TWO)
        build_construction(11, K.ONE_TWO)  # R0 = 3 repeats: the same verdict
        assert constructions._SOUND == {(row, 2): True, (row, 3): True}

    def test_counts_calls_bounded(self, monkeypatch):
        # validating each construction on its own set would take 3,992 calls
        calls = []
        verdict = constructions.form_is_valid

        def counting(form, kind):
            calls.append(form.n)
            return verdict(form, kind)

        monkeypatch.setattr(constructions, "form_is_valid", counting)
        monkeypatch.setattr(constructions, "_SOUND", {})
        for kind in (K.ONE_TWO, K.ONE_TWO_TOTAL):
            for n in range(5, 2001):
                build_construction(n, kind)
        assert 0 < len(calls) <= 100, sorted(calls)

    def test_cache_holds_one_entry_per_table_key_and_repeat_count(self, monkeypatch):
        monkeypatch.setattr(constructions, "_SOUND", {})
        for kind in (K.ONE_TWO, K.ONE_TWO_TOTAL):
            for n in range(5, 3001):
                build_construction(n, kind)
        rows = {
            row
            for specials, residues in constructions._ROWS.values()
            for row in (*specials.values(), *residues)
        }
        assert len(rows) == len(constructions._FORMS)  # one row per table entry
        assert {row for row, _ in constructions._SOUND} <= rows
        # one key per (row, repeat count), repeat counts 0..settled
        for row, repeats in constructions._SOUND:
            assert 0 <= repeats <= ColumnForm(row.head, row.motif, 0, row.tail).settled
        assert all(constructions._SOUND.values())


def _rows(kind):
    """The kind's rows, each with the first n >= 5 that it serves."""
    specials, residues = constructions._ROWS[kind]
    for n, row in specials.items():
        yield n, row
    for c, row in enumerate(residues):
        yield min(n for n in range(5, 17) if n % 6 == c and n not in specials), row


class TestFamilyRows:
    @pytest.mark.parametrize("kind", [K.ONE_TWO, K.ONE_TWO_TOTAL])
    def test_rows_are_the_table_entries(self, kind):
        specials, residues = constructions._ROWS[kind]
        forms = constructions._FORMS
        for n, row in specials.items():
            assert (row.head, row.motif, row.tail, row.source) == forms[kind, 0, n]
        for c, row in enumerate(residues):
            entry = forms.get((kind, 6, c)) or forms[kind, 3, c % 3]
            assert (row.head, row.motif, row.tail, row.source) == entry

    @pytest.mark.parametrize("kind", [K.ONE_TWO, K.ONE_TWO_TOTAL])
    def test_size_for_every_n_in_each_class(self, kind):
        # size(n) = ones + (n - width)/q * motif_ones is linear in n, and so
        # is the formula on each class: f(n) = 2*ceil(n/3) - [n = 1 (mod 6)]
        # and g(n) = 2*ceil(n/3) for n >= 6 both rise by 4 per 6 columns.
        # Equal at the class's first n and equal in slope, they agree on the
        # whole class; a special row serves its one n.
        specials, _ = constructions._ROWS[kind]
        for n, row in _rows(kind):
            (ho, hi, h), (mo, mi, q), (to, ti, t) = row.head, row.motif, row.tail
            assert row.width == h + t
            assert row.ones == sum(x.bit_count() for x in (ho, hi, to, ti))
            assert row.motif_ones == mo.bit_count() + mi.bit_count()
            repeats, rest = divmod(n - row.width, q)
            assert rest == 0 and repeats >= 0
            assert row.ones + repeats * row.motif_ones == BY_KIND[kind](n)
            c = build_construction(n, kind)
            assert c.form == ColumnForm(row.head, row.motif, repeats, row.tail)
            assert c.source is row.source
            if n not in specials:
                assert 6 % q == 0 and 6 // q * row.motif_ones == 4
                assert BY_KIND[kind](n + 6) == BY_KIND[kind](n) + 4

    @settings(max_examples=200)
    @given(n=st.integers(5, 2**23), kind=st.sampled_from([K.ONE_TWO, K.ONE_TWO_TOTAL]))
    @example(n=5, kind=K.ONE_TWO_TOTAL)
    @example(n=7, kind=K.ONE_TWO)
    @example(n=2**23, kind=K.ONE_TWO)
    def test_build_property(self, n, kind):
        c = build_construction(n, kind)
        assert c.form.n == n
        assert c.size == c.form.size == BY_KIND[kind](n)
        settled = c.form._replace(repeats=min(c.form.repeats, c.form.settled))
        assert domination.form_is_valid(settled, kind)
        assert "vertex_set" not in c.__dict__  # no set built


class TestLazySet:
    @pytest.mark.parametrize("kind", [K.ONE_TWO, K.ONE_TWO_TOTAL])
    def test_build_at_the_column_bound_allocates_no_set(self, kind, monkeypatch):
        # with no verdict cached, the build still decides the form at R0
        # repeats; the set at 2^23 columns would take 2 MiB
        monkeypatch.setattr(constructions, "_SOUND", {})
        n = 2**23
        tracemalloc.start()
        try:
            c = build_construction(n, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.size == c.form.size == BY_KIND[kind](n)
        assert c.form.n == n
        assert peak < 64 * 1024

    def test_size_disagreeing_with_form_is_refused_on_first_access(self):
        c = build_construction(13, K.ONE_TWO)
        wrong = Construction(c.n, c.kind, c.source, c.form, c.size + 1)
        with pytest.raises(ConstructionError, match="n=13 has size 9, expected 10"):
            wrong.vertex_set

    @pytest.mark.parametrize("kind", [K.ONE_TWO, K.ONE_TWO_TOTAL])
    def test_equality_and_hash_ignore_the_built_set(self, kind):
        a, b = build_construction(13, kind), build_construction(13, kind)
        assert a == b and hash(a) == hash(b)
        a.vertex_set  # built and cached on a only
        assert a == b and hash(a) == hash(b)
        assert a.vertex_set is a.vertex_set
        assert a.vertex_set == b.vertex_set
        assert a != build_construction(14, kind)


class TestPinned:
    # sha256 over "{n} {source} {text}" lines, recorded before the recipes
    # became one residue table: a recipe that stays valid and minimum but
    # picks other vertices changes `construct` output and fails here
    @pytest.mark.parametrize(
        "kind,digest",
        [
            (
                K.ONE_TWO,
                "9f589fa4b865d4d184320db5fa005da15a30fa45821c96d25325ae3d85e439af",
            ),
            (
                K.ONE_TWO_TOTAL,
                "d76f5381f390e079e448b5c6fc6517389917f95dbb31c4b0cc377ea0d3eb3320",
            ),
        ],
    )
    def test_sets_and_sources(self, kind, digest):
        h = hashlib.sha256()
        for n in [*range(5, 2001), *range(9990, 10011)]:
            c = build_construction(n, kind)
            h.update(f"{n} {c.source.value} {c.vertex_set.text()}\n".encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "n,kind,message",
        [
            (4, K.ONE_TWO, "construct_one_two requires n >= 5, got n=4"),
            (4, K.ONE_TWO_TOTAL, "construct_one_two_total requires n >= 5, got n=4"),
            # the kind is refused before n
            (4, K.PLAIN, "constructions exist for one-two and one-two-total only, got plain"),
            (9, K.TOTAL, "constructions exist for one-two and one-two-total only, got total"),
            (20.5, K.ONE_TWO, "n must be an integer, got 20.5"),
            (13.0, K.ONE_TWO_TOTAL, "n must be an integer, got 13.0"),
            (True, K.ONE_TWO, "n must be an integer, got True"),
            ("13", K.ONE_TWO, "n must be an integer, got '13'"),
        ],
    )
    def test_refusal_messages(self, n, kind, message):
        with pytest.raises(ParameterError) as info:
            build_construction(n, kind)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", [K.ONE_TWO, K.ONE_TWO_TOTAL])
    def test_numpy_integer_n(self, kind):
        c = build_construction(np.int64(13), kind)
        assert c == build_construction(13, kind) and type(c.n) is int

    def test_cli_refuses_small_n_total(self, capsys):
        code = main(["construct", "--n", "4", "--kind", "one-two-total"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "construct_one_two_total requires n >= 5" in captured.err
