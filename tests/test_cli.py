import json

import pytest

from petdom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_one_two_value(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "13", "--kind", "one-two",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimum"] == 9
        assert doc["method"] == "transfer-dp"
        assert "witness" not in doc

    def test_one_two_total_n5(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "5", "--kind", "one-two-total",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimum"] == 5
        assert doc["method"] == "brute-force"  # auto picks brute for 2n <= 20

    def test_small_n_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "4", "--kind", "one-two")
        assert code == 2
        assert "error" in err

    def test_witness_flag(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "9", "--kind", "one-two",
                           "--witness", "--format", "json")
        doc = json.loads(out)
        assert len(doc["witness"]) == doc["minimum"] == 6

    def test_method_brute_over_limit(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "14", "--kind", "one-two",
                           "--method", "brute")
        assert code == 2
        assert "2n <= 26" in err

    def test_k_not_two_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--n", "9", "--k", "3",
                           "--kind", "one-two")
        assert code == 2

    def test_bad_flag_usage(self, capsys):
        code, _, _ = run(capsys, "solve", "--n", "9", "--kind", "bogus")
        assert code == 2


class TestVerify:
    def test_one_two_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "one-two",
                           "--from", "5", "--to", "60", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,formula,dp,match"
        assert len(lines) == 57
        assert all(line.endswith("True") for line in lines[1:])

    def test_plain_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "plain",
                           "--from", "5", "--to", "60", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert len(doc["rows"]) == 56

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "verify", "--kind", "one-two",
                         "--from", "4", "--to", "10")
        assert code == 2

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # a formula disagreement must surface as exit 1
        import petdom.cli as cli
        from petdom import DominationKind

        monkeypatch.setitem(cli._FORMULAS, DominationKind.ONE_TWO, lambda n: 1)
        code, out, _ = run(capsys, "verify", "--kind", "one-two",
                           "--from", "5", "--to", "6", "--format", "json")
        assert code == 1
        assert json.loads(out)["all_match"] is False


class TestConstruct:
    def test_n9(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "9", "--kind", "one-two",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "periodic-pattern"
        assert doc["set"] == ["u1", "u4", "u7", "v1", "v4", "v7"]

    def test_n8_small_layout(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "8", "--kind", "one-two",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["size"] == 6
        assert doc["set"] == ["u1", "u4", "v1", "v4", "v6", "v7"]

    def test_n13_total(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "13",
                           "--kind", "one-two-total", "--format", "json")
        doc = json.loads(out)
        assert doc["size"] == 10
        assert doc["source"] == "spliced-pattern"

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "construct", "--n", "4", "--kind", "one-two")
        assert code == 2


class TestTable:
    def test_f_column_5_12(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "5", "--to", "12",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        f_col = [int(line.split(",")[3]) for line in lines[1:]]
        assert f_col == [4, 4, 5, 6, 6, 8, 8, 8]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "6", "--to", "6",
                           "--format", "csv")
        row = out.strip().splitlines()[1].split(",")
        assert row == ["6", "4", "4", "4", "4", "4", "4", "4", "4"]

    def test_empty_range(self, capsys):
        code, _, _ = run(capsys, "table", "--from", "9", "--to", "7")
        assert code == 2


class TestRangeBounds:
    # verify and table take their range bounds from dp_minima's checks
    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["verify", "--kind", "one-two", "--from", "4", "--to", "10"], "lo >= 5"),
            (["table", "--from", "9", "--to", "7"], "lo <= hi"),
        ],
        ids=["verify-lo", "table-empty"],
    )
    def test_usage_error_names_bound(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert bound in err


class TestCensus:
    def test_s9(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "9",
                           "--set", "u1,v1,u4,v4,u7,v7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["census"] == {"x": {"2": 3}, "y": {}}
        assert doc["inequalities"]["eq2"] == {"ok": True, "lhs": 18, "rhs": 18}

    def test_s6(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "6",
                           "--set", "u1,v1,u4,v4", "--format", "json")
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["census"]["x"] == {"2": 2}
        assert doc["inequalities"]["eq2"] == {"ok": True, "lhs": 12, "rhs": 12}

    def test_invalid_set_exit1(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "5", "--set", "u1,v1",
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"]


class TestEq1:
    def test_n12_empty(self, capsys):
        code, out, _ = run(capsys, "eq1", "--n", "12", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_n10_count(self, capsys):
        code, out, _ = run(capsys, "eq1", "--n", "10", "--format", "json")
        assert json.loads(out)["count"] == 10

    def test_n22_guard(self, capsys):
        code, _, _ = run(capsys, "eq1", "--n", "22")
        assert code == 2


# Expected stdout, byte for byte: a change that reorders names, drops a
# member or reformats a line fails here even when it is deterministic.
PINNED_STDOUT = {
    ("solve", "--n", "13", "--kind", "one-two", "--witness", "--format", "json"):
        '{"n": 13, "k": 2, "kind": "one-two", "minimum": 9, "method": '
        '"transfer-dp", "witness": ["u0", "u1", "u2", "u5", "u8", "v4", "v5", '
        '"v10", "v11"]}\n',
    ("table", "--from", "5", "--to", "9", "--format", "csv"):
        "n,gamma_ref,gamma_t_ref,f,g,dp_plain,dp_total,dp_one_two,dp_one_two_total\n"
        "5,3,4,4,5,3,4,4,5\n"
        "6,4,4,4,4,4,4,4,4\n"
        "7,5,6,5,6,5,6,5,6\n"
        "8,5,6,6,6,5,6,6,6\n"
        "9,6,6,6,6,6,6,6,6\n",
    ("construct", "--n", "19", "--kind", "one-two", "--format", "json"):
        '{"n": 19, "kind": "one-two", "size": 13, "set": ["u1", "u4", "u7", '
        '"u10", "u15", "u16", "u17", "v0", "v1", "v6", "v7", "v12", "v13"], '
        '"source": "spliced-pattern"}\n',
    ("eq1", "--n", "10", "--format", "csv"):
        "profile\n"
        "0;1;1;0;1;1;0;1;1;1\n"
        "0;1;1;0;1;1;1;0;1;1\n"
        "0;1;1;1;0;1;1;0;1;1\n"
        "1;0;1;1;0;1;1;0;1;1\n"
        "1;0;1;1;0;1;1;1;0;1\n"
        "1;0;1;1;1;0;1;1;0;1\n"
        "1;1;0;1;1;0;1;1;0;1\n"
        "1;1;0;1;1;0;1;1;1;0\n"
        "1;1;0;1;1;1;0;1;1;0\n"
        "1;1;1;0;1;1;0;1;1;0\n"
        "count,10\n",
    ("solve", "--n", "17", "--kind", "one-two", "--method", "dp", "--witness",
     "--format", "text"):
        "P(17,2) one-two: minimum 12 (transfer-dp)\n"
        "witness: u0,u1,u2,u4,u7,u10,u14,v1,v6,v7,v12,v13\n",
    ("solve", "--n", "17", "--kind", "plain", "--method", "dp", "--witness",
     "--format", "csv"):
        "n,k,kind,minimum,method,witness\n"
        "17,2,plain,11,transfer-dp,u0;u1;u2;u7;u12;v4;v5;v9;v10;v14;v15\n",
    ("solve", "--n", "17", "--kind", "one-two-total", "--method", "dp",
     "--witness", "--format", "json"):
        '{"n": 17, "k": 2, "kind": "one-two-total", "minimum": 12, "method": '
        '"transfer-dp", "witness": ["u0", "u1", "u4", "u5", "u8", "u11", "u14", '
        '"v0", "v5", "v8", "v11", "v14"]}\n',
    ("solve", "--n", "10", "--kind", "one-two-total", "--method", "brute",
     "--witness", "--format", "text"):
        "P(10,2) one-two-total: minimum 8 (brute-force)\n"
        "witness: u0,u1,u2,u3,u6,u7,v6,v7\n",
    ("solve", "--n", "10", "--kind", "total", "--method", "brute", "--witness",
     "--format", "csv"):
        "n,k,kind,minimum,method,witness\n"
        "10,2,total,8,brute-force,u0;u1;u2;u3;u6;u7;v6;v7\n",
    ("solve", "--n", "10", "--kind", "one-two", "--method", "brute", "--witness",
     "--format", "json"):
        '{"n": 10, "k": 2, "kind": "one-two", "minimum": 8, "method": '
        '"brute-force", "witness": ["u0", "u1", "u2", "u3", "u4", "u5", "v7", '
        '"v8"]}\n',
    ("construct", "--n", "25", "--kind", "one-two", "--format", "text"):
        "P(25,2) one-two: size 17 [spliced-pattern] "
        "u1,u4,u7,u10,u13,u16,u21,u22,u23,v0,v1,v6,v7,v12,v13,v18,v19\n",
    ("construct", "--n", "19", "--kind", "one-two-total", "--format", "csv"):
        "n,kind,size,set,source\n"
        "19,one-two-total,14,u1;u4;u7;u10;u13;u16;u17;v1;v4;v7;v10;v13;v16;v17,"
        "spliced-pattern\n",
    ("census", "--n", "9", "--set", "v7,u1,v1,u4,v4,u7", "--format", "text"):
        "set is one-two-total dominating on P(9,2)\n"
        'census: {"x": {"2": 3}, "y": {}}\n'
        "eq2: 18 >= 18 ok\n"
        "eq3: 6 == 6 ok\n"
        "eq4: 9 >= 9 ok\n"
        "eq5: 6 >= 6 ok\n",
    ("census", "--n", "7", "--set", "v4,u1,u0,u2,v1", "--format", "json"):
        '{"n": 7, "set": ["u0", "u1", "u2", "v1", "v4"], "valid": false, '
        '"violations": [{"vertex": "u1", "count": 3, "bound": "TooMany"}, '
        '{"vertex": "u5", "count": 0, "bound": "TooFew"}, '
        '{"vertex": "v4", "count": 0, "bound": "TooFew"}, '
        '{"vertex": "v5", "count": 0, "bound": "TooFew"}]}\n',
    ("verify", "--kind", "one-two", "--from", "5", "--to", "9", "--format", "text"):
        "n=5 formula=4 dp=4 ok\n"
        "n=6 formula=4 dp=4 ok\n"
        "n=7 formula=5 dp=5 ok\n"
        "n=8 formula=6 dp=6 ok\n"
        "n=9 formula=6 dp=6 ok\n"
        "all match: True\n",
    ("table", "--from", "5", "--to", "9", "--format", "json"):
        '[{"n": 5, "gamma_ref": 3, "gamma_t_ref": 4, "f": 4, "g": 5, '
        '"dp_plain": 3, "dp_total": 4, "dp_one_two": 4, "dp_one_two_total": 5}, '
        '{"n": 6, "gamma_ref": 4, "gamma_t_ref": 4, "f": 4, "g": 4, '
        '"dp_plain": 4, "dp_total": 4, "dp_one_two": 4, "dp_one_two_total": 4}, '
        '{"n": 7, "gamma_ref": 5, "gamma_t_ref": 6, "f": 5, "g": 6, '
        '"dp_plain": 5, "dp_total": 6, "dp_one_two": 5, "dp_one_two_total": 6}, '
        '{"n": 8, "gamma_ref": 5, "gamma_t_ref": 6, "f": 6, "g": 6, '
        '"dp_plain": 5, "dp_total": 6, "dp_one_two": 6, "dp_one_two_total": 6}, '
        '{"n": 9, "gamma_ref": 6, "gamma_t_ref": 6, "f": 6, "g": 6, '
        '"dp_plain": 6, "dp_total": 6, "dp_one_two": 6, "dp_one_two_total": 6}]\n',
    ("verify", "--kind", "one-two-total", "--from", "5", "--to", "9",
     "--format", "csv"):
        "n,formula,dp,match\n"
        "5,5,5,True\n"
        "6,4,4,True\n"
        "7,6,6,True\n"
        "8,6,6,True\n"
        "9,6,6,True\n",
    ("verify", "--kind", "plain", "--from", "5", "--to", "9", "--format", "json"):
        '{"kind": "plain", "rows": [{"n": 5, "formula": 3, "dp": 3, "match": true}, '
        '{"n": 6, "formula": 4, "dp": 4, "match": true}, '
        '{"n": 7, "formula": 5, "dp": 5, "match": true}, '
        '{"n": 8, "formula": 5, "dp": 5, "match": true}, '
        '{"n": 9, "formula": 6, "dp": 6, "match": true}], "all_match": true}\n',
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", list(PINNED_STDOUT))
    def test_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second == PINNED_STDOUT[argv]
