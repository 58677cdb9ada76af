import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import petdom
from petdom.cli import _emit_record, main
from petdom.constructions import construct_one_two_total
from petdom.graph import VertexSet
from petdom.solver import PairProfile


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
        code, _, err = run(capsys, "solve", "--n", "23", "--kind", "one-two",
                           "--method", "brute")
        assert code == 2
        assert "2n <= 44" in err

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
        import petdom.formulas as formulas
        from petdom import DominationKind

        monkeypatch.setitem(formulas.BY_KIND, DominationKind.ONE_TWO, lambda n: 1)
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
    # verify and table take their range bounds from dp_minima's checks;
    # construct and census refuse more columns than dp_min before allocating
    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["verify", "--kind", "one-two", "--from", "4", "--to", "10"], "lo >= 5"),
            (["table", "--from", "9", "--to", "7"], "lo <= hi"),
            (["construct", "--n", "8388609", "--kind", "one-two"], "2^23 = 8388608"),
            (["census", "--n", "8388609", "--set", "u1"], "2^23 = 8388608"),
            (["census", "--n", str(10**18), "--set", "u" + "9" * 17], "2^23 = 8388608"),
        ],
        ids=["verify-lo", "table-empty", "construct-size", "census-size", "census-index"],
    )
    def test_usage_error_names_bound(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert bound in err


def test_parser_built_once(capsys, monkeypatch):
    # every main call parses with the one parser built at import
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["table", "--from", "5", "--to", "6"], ["eq1", "--n", "10"],
                 ["solve", "--n", "9", "--kind", "bogus"], ["--help"]):
        run(capsys, *argv)
    assert built == []


def emitted(fmt, doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_record(fmt, doc)
    return out.getvalue()


# indices at each digit-count boundary, where a name's width changes
DIGIT_EDGES = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10000, 99999, 100000]
INDICES = st.sets(st.sampled_from(DIGIT_EDGES) | st.integers(0, 10**5), max_size=40)


class TestRecords:
    # a record writes its vertex sets from text(): the bytes json.dumps and
    # a ';'-joined CSV field would give for the set's names
    @given(outer=INDICES, inner=INDICES)
    @example(outer=set(), inner=set())
    @example(outer={0, 9, 10, 99, 100}, inner=set())
    @example(outer=set(), inner={9, 10, 999, 1000})
    def test_vertex_sets_written_as_their_names(self, outer, inner):
        S = VertexSet(sum(1 << i for i in outer), sum(1 << i for i in inner))
        names = S.names()
        solve = {"n": 9, "k": 2, "kind": "one-two", "minimum": len(S),
                 "method": "transfer-dp", "witness": S}
        construct = {"n": 9, "kind": "one-two", "size": len(S), "set": S,
                     "source": "spliced-pattern"}
        census = {"n": 9, "set": S, "valid": True, "census": {"x": {"2": 3}, "y": {}},
                  "inequalities": {"eq2": {"lhs": 6, "rhs": 6, "ok": True}}}
        for doc, key in ((solve, "witness"), (construct, "set"), (census, "set")):
            assert emitted("json", doc) == json.dumps({**doc, key: names}) + "\n"
            header, row = emitted("csv", doc).splitlines()
            assert header == ",".join(doc)
            assert row.split(",")[list(doc).index(key)] == ";".join(names)

    # the CLI builds no name list of its own; as_dict keeps them for
    # library callers
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--n", "40", "--kind", "one-two", "--method", "dp", "--witness",
             "--format", "json"),
            ("solve", "--n", "40", "--kind", "one-two", "--method", "dp", "--witness",
             "--format", "csv"),
            ("construct", "--n", "40", "--kind", "one-two-total", "--format", "json"),
            ("construct", "--n", "40", "--kind", "one-two-total", "--format", "csv"),
            ("census", "--n", "9", "--set", "u1,v1,u4,v4,u7,v7", "--format", "json"),
        ],
        ids=" ".join,
    )
    def test_records_build_no_names(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)

        def refuse(self):
            raise AssertionError("VertexSet.names called")

        monkeypatch.setattr(VertexSet, "names", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0


def petdom_process(*argv):
    """``python -m petdom.cli argv`` in a child process, stdout piped."""
    src = str(Path(petdom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen(
        [sys.executable, "-m", "petdom.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


class TestProcess:
    def test_stdout_matches_main(self, capsys):
        argv = ("eq1", "--n", "10", "--format", "csv")
        out, err = petdom_process(*argv).communicate(timeout=60)
        assert (out.decode(), err) == (run(capsys, *argv)[1], b"")

    def test_closed_pipe_exits_141_quietly(self):
        # the table is far longer than a pipe buffer, so the writer is still
        # writing when the reader goes away
        proc = petdom_process("table", "--from", "5", "--to", "20000", "--format", "csv")
        assert proc.stdout.read(100).startswith(b"n,gamma_ref,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_closed_pipe_leaves_no_fd_open(self, monkeypatch):
        # stdout is a pipe of its own with its read end closed, so main's
        # redirect to /dev/null replaces that pipe and not the process's fd 1
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(2):
            read, write = os.pipe()
            os.close(read)
            with open(write, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert main(["table", "--from", "5", "--to", "6"]) == 141
        assert len(os.listdir("/proc/self/fd")) == fds


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

    def test_bad_name_usage_error(self, capsys):
        code, out, err = run(capsys, "census", "--n", "5", "--set", "u1,w3")
        assert code == 2
        assert out == ""
        assert "got 'w3'" in err


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

    def test_profile_failing_its_check_is_internal(self, capsys, monkeypatch):
        # every window of the zero profile sums to 0 < 2
        monkeypatch.setattr("petdom.cli.enumerate_eq1", lambda n: [PairProfile((0,) * n)])
        code, out, err = run(capsys, "eq1", "--n", "10")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: enumerated profile fails its own check")


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
    # names padded with blanks and an empty piece, as census --set takes them
    ("census", "--n", "9", "--set", " u1, v1 ,u4,,v4,u7,v7", "--format", "json"):
        '{"n": 9, "set": ["u1", "u4", "u7", "v1", "v4", "v7"], "valid": true, '
        '"census": {"x": {"2": 3}, "y": {}}, "inequalities": '
        '{"eq2": {"ok": true, "lhs": 18, "rhs": 18}, '
        '"eq3": {"ok": true, "lhs": 6, "rhs": 6}, '
        '"eq4": {"ok": true, "lhs": 9, "rhs": 9}, '
        '"eq5": {"ok": true, "lhs": 6, "rhs": 6}}}\n',
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", list(PINNED_STDOUT))
    def test_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second == PINNED_STDOUT[argv]


# sha256 of the whole stdout, recorded before the minima were read from
# the chain's closed-tour table
STDOUT_SHA256 = {
    ("table", "--from", "5", "--to", "400", "--format", "csv"):
        "9cd4bc0a065d472ddcd513b484b6a463e7effcdf63c1faffde800b705f4b6a02",
    ("verify", "--kind", "plain", "--from", "5", "--to", "200", "--format", "json"):
        "84ac657c84baa0224463015f0381b1959a802f2d4e800b1f9877963cb9606c5c",
    ("verify", "--kind", "total", "--from", "5", "--to", "200", "--format", "json"):
        "6df69e0dca6548a13901073f8f3dd3b4127d22c043fc1939574ef53a0355977d",
    ("verify", "--kind", "one-two", "--from", "5", "--to", "200", "--format", "json"):
        "2d02a849dd7be3e945c325c3e2329815f25122b23169905afc7e42706fb5e639",
    ("verify", "--kind", "one-two-total", "--from", "5", "--to", "200", "--format", "json"):
        "b07f784f5ef871f99a2b3d3dbd007cb7ea4d9553e32efed3e6da95c28a564cf6",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_long_range_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


# sha256 of the concatenated stdout of `census` on construct_one_two_total(n)
# for n = 5..2000, recorded while the census walked Vertex objects
CENSUS_SHA256 = {
    "json": "b35c3a43b29f95c044c33fd87e83e3bdd60b5f23b436f9783fca6916d3d809a4",
    "text": "f951f93eb69d7bbfcc2b3d02c21af1abf4a14550cd21fee38d6799e02667e9ff",
}


@pytest.mark.parametrize("fmt", list(CENSUS_SHA256))
def test_census_stdout_pinned(capsys, fmt):
    h = hashlib.sha256()
    for n in range(5, 2001):
        S = construct_one_two_total(n)
        code, out, _ = run(capsys, "census", "--n", str(n), "--set", S.text(),
                           "--format", fmt)
        assert code == 0
        h.update(out.encode())
    assert h.hexdigest() == CENSUS_SHA256[fmt]


# Every subcommand in every format, including usage and semantic errors:
# sha256 of each argv, exit code and stdout, recorded before the parser
# was built once per process.  stderr is left out, since argparse's
# wording varies across Python versions.  The brute-force refusal in
# "solve" moved from n = 14 to n = 23 when the k = 2 limit rose to
# 2n <= 44; its digest was recomputed on the code before that change,
# which refuses both.
FORMATS = ("json", "csv", "text")
KINDS = ("plain", "total", "one-two", "one-two-total")
MATRIX = {
    "solve": [
        ["solve", "--n", n, "--kind", kind, "--method", method, *witness]
        for kind in KINDS
        for method, n in (("auto", "7"), ("auto", "11"), ("brute", "9"), ("dp", "9"))
        for witness in ((), ("--witness",))
    ] + [
        ["solve", "--n", "4", "--kind", "one-two"],
        ["solve", "--n", "9", "--k", "3", "--kind", "one-two"],
        ["solve", "--n", "23", "--kind", "plain", "--method", "brute"],
        ["solve", "--n", "9", "--kind", "bogus"],
    ],
    "verify": [["verify", "--kind", kind, "--from", "5", "--to", "30"] for kind in KINDS]
    + [
        ["verify", "--kind", "one-two", "--from", "4", "--to", "10"],
        ["verify", "--kind", "plain", "--from", "9", "--to", "7"],
    ],
    "construct": [
        ["construct", "--n", n, "--kind", kind]
        for kind in ("one-two", "one-two-total")
        for n in ("5", "7", "13", "14", "20")
    ] + [
        ["construct", "--n", "9", "--kind", "plain"],
        ["construct", "--n", "4", "--kind", "one-two"],
        ["construct", "--n", "9", "--k", "3", "--kind", "one-two"],
    ],
    "table": [
        ["table", "--from", "5", "--to", "20"],
        ["table", "--from", "6", "--to", "6"],
        ["table", "--from", "9", "--to", "7"],
    ],
    "census": [
        ["census", "--n", "9", "--set", "u1,v1,u4,v4,u7,v7"],
        ["census", "--n", "7", "--set", "v4,u1,u0,u2,v1"],
        ["census", "--n", "5", "--set", "u1,w3"],
        ["census", "--n", "9", "--k", "3", "--set", "u1"],
    ],
    "eq1": [["eq1", "--n", n] for n in ("4", "5", "10", "12", "16", "21")],
}
MATRIX_SHA256 = {
    "solve":
        "d9a8ffc9bdc0ab15afb7abfd9331c44e613dadbe345a81b8607152162562f8cd",
    "verify":
        "bb8c57f87c71bd7620a9ab1f6cf41b9bab7fefe5924948d4081e83a8da262ff9",
    "construct":
        "a64750fa7e3661d9af2aa6b5d4cf628240bda4c8e7a4a8b4cc1b31791669fb02",
    "table":
        "d5a442899014b1517e0dfa69cc938f1f2d3d540999db7419f2eed086d1a41c6c",
    "census":
        "012df785c5b2dfe7a9f3311f5e59698737c0a8be0f5df3f9b6bd669e2e5a0685",
    "eq1":
        "78435c4979921694c4d7dd86686505b0a5e92b510f144936d05d7fc42e67d92f",
}


@pytest.mark.parametrize("command", list(MATRIX_SHA256))
def test_matrix_stdout_pinned(capsys, command):
    h = hashlib.sha256()
    for argv in MATRIX[command]:
        for fmt in FORMATS:
            code, out, _ = run(capsys, *argv, "--format", fmt)
            h.update(f"{' '.join(argv)} --format {fmt} -> {code}\n{out}".encode())
    assert h.hexdigest() == MATRIX_SHA256[command]
