import hashlib

import pytest

from petdom import (
    ConstructionError,
    DominationKind,
    ParameterError,
    build_petersen,
    f_one_two,
    g_one_two_total,
    is_valid,
)
from petdom.constructions import (
    ConstructionSource,
    build_construction,
    construct_one_two,
    construct_one_two_total,
    small_case_set,
)
from petdom.cli import main

K = DominationKind


class TestSmallCases:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (5, "u1,v1,v3,v4"),
            (6, "u1,u4,v1,v4"),
            (7, "u0,u4,v1,v2,v3"),
            (8, "u1,u4,v1,v4,v6,v7"),
            (9, "u1,u4,u7,v1,v4,v7"),
            (10, "u1,u4,u7,u8,v1,v4,v7,v8"),
            (11, "u1,u4,u7,v1,v4,v7,v9,v10"),
        ],
    )
    def test_table(self, n, expected):
        assert small_case_set(n).text() == expected

    @pytest.mark.parametrize("n", range(5, 12))
    def test_all_valid_one_two(self, n):
        g = build_petersen(n, 2)
        S = small_case_set(n)
        assert is_valid(g, S, K.ONE_TWO).valid
        assert len(S) == f_one_two(n)

    @pytest.mark.parametrize("n", [4, 12])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(ParameterError, match="5 <= n <= 11"):
            small_case_set(n)


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
        assert construct_one_two(n).members == small_case_set(n).members

    @pytest.mark.parametrize("n", [6, 9, 12, 18, 21, 600])
    def test_periodicity_residues_0_3(self, n):
        g = build_petersen(n, 2)
        expected = {g.outer(i) for i in range(1, n, 3)}
        expected |= {g.inner(i) for i in range(1, n, 3)}
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

    def test_emit_validation_catches_bad_patterns(self):
        from petdom.constructions import _validate

        with pytest.raises(ConstructionError, match="size"):
            _validate(9, [1], [1], K.ONE_TWO, 6)
        with pytest.raises(ConstructionError, match="failed validation"):
            _validate(9, [1, 4, 7], [1, 4, 6], K.ONE_TWO, 6)


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
        ],
    )
    def test_refusal_messages(self, n, kind, message):
        with pytest.raises(ParameterError) as info:
            build_construction(n, kind)
        assert str(info.value) == message

    def test_cli_refuses_small_n_total(self, capsys):
        code = main(["construct", "--n", "4", "--kind", "one-two-total"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "construct_one_two_total requires n >= 5" in captured.err
