"""The parameter contracts.  Every public integer parameter goes through
``errors.require_int``, so int and numpy integers give the same result,
with Python ints inside, and anything else is a ParameterError.  Every
public kind parameter goes through ``DominationKind.require``, so anything
but a DominationKind is a ParameterError naming the caller."""

import dataclasses
import inspect
import json
from collections.abc import Iterator
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petdom
import petdom.constructions as constructions
import petdom.domination as domination
from petdom import (
    ComponentCensus,
    DominationKind,
    PairProfile,
    ParameterError,
    PetersenGraph,
    VertexSet,
    brute_force_min,
    build_petersen,
    census_inequalities,
    check_eq1,
    dp_min,
    dp_minima,
    enumerate_eq1,
    f_one_two,
    g_one_two_total,
    gamma_ref,
    gamma_t_ref,
    is_valid,
    parse_vertex,
)
from petdom.errors import require_int
from petdom.graph import ColumnForm

K = DominationKind
G = PetersenGraph(9)
G8 = PetersenGraph(8)


def ints(lo, hi):
    return st.integers(lo, hi)


# "<callable>:<parameter>" -> (the call with that parameter set to v, ints
# drawn for v); the draws reach below every lower bound and keep the work
# small: DP at n <= 60, brute force at 2n <= 16, eq1 at n <= 14
CALLS = {
    "PetersenGraph:n": (lambda v: PetersenGraph(v, 2), ints(-1, 30)),
    "PetersenGraph:k": (lambda v: PetersenGraph(13, v), ints(-1, 8)),
    "PetersenGraph.block_at:i": (G.block_at, ints(-20, 20)),
    "PetersenGraph.vertex:r": (G.vertex, ints(-2, 20)),
    "PetersenGraph.neighbor_ranks:r": (G.neighbor_ranks, ints(-2, 20)),
    "VertexSet:outer": (lambda v: VertexSet(v, 0b101), ints(-2, 40)),
    "VertexSet:inner": (lambda v: VertexSet(0b101, v), ints(-2, 40)),
    "VertexSet.from_names:n": (lambda v: VertexSet.from_names("u1,v12,u30", v), ints(-2, 40)),
    "VertexSet.arrays:n": (lambda v: VertexSet(0b10, 0b1000).arrays(v), ints(-2, 12)),
    "VertexSet.require_below:n": (VertexSet(0b10, 0b1000).require_below, ints(-2, 12)),
    "build_petersen:n": (lambda v: build_petersen(v, 2), ints(-1, 30)),
    "build_petersen:k": (lambda v: build_petersen(13, v), ints(-1, 8)),
    "parse_vertex:n": (lambda v: parse_vertex("v12", v), ints(-2, 20)),
    "brute_force_min:budget": (lambda v: brute_force_min(G8, K.ONE_TWO, v), ints(-1, 16)),
    "dp_min:n": (lambda v: dp_min(v, K.ONE_TWO), ints(0, 60)),
    "dp_minima:lo": (lambda v: dp_minima(v, 40, K.TOTAL), ints(0, 45)),
    "dp_minima:hi": (lambda v: dp_minima(8, v, K.TOTAL), ints(0, 60)),
    "enumerate_eq1:n": (enumerate_eq1, ints(0, 14) | ints(21, 40)),
    "check_eq1:n": (lambda v: check_eq1(PairProfile((1, 0) * 5), v), ints(0, 14)),
    "census_inequalities:n": (
        lambda v: census_inequalities(ComponentCensus({2: 3}), v, 6),
        ints(0, 20),
    ),
    "census_inequalities:s": (
        lambda v: census_inequalities(ComponentCensus({2: 3}), 9, v),
        ints(-2, 20),
    ),
    "f_one_two:n": (f_one_two, ints(-2, 100)),
    "g_one_two_total:n": (g_one_two_total, ints(-2, 100)),
    "gamma_ref:n": (gamma_ref, ints(-2, 100)),
    "gamma_t_ref:n": (gamma_t_ref, ints(-2, 100)),
    "build_construction:n": (
        lambda v: constructions.build_construction(v, K.ONE_TWO_TOTAL),
        ints(0, 60),
    ),
    "construct_one_two:n": (constructions.construct_one_two, ints(0, 60)),
    "construct_one_two_total:n": (constructions.construct_one_two_total, ints(0, 60)),
}

# value types whose int fields the package fills in itself: their
# constructors take data, not parameters, and are not checked (Vertex is
# built per member, Block per column and Component per piece of G[S])
RECORDS = {
    "Block",
    "Component",
    "Construction",
    "InequalityCheck",
    "SolveResult",
    "Vertex",
    "Violation",
}


def _int_parameters(name, fn):
    for p in inspect.signature(fn).parameters.values():
        # annotations are strings in modules with postponed evaluation
        text = p.annotation
        if not isinstance(text, str):
            text = inspect.formatannotation(text)
        if text in ("int", "int | None"):
            yield f"{name}:{p.name}"


def _public_int_parameters():
    found = set()
    for module in (petdom, constructions):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                if callable(obj):
                    found.update(_int_parameters(name, obj))
                continue
            if issubclass(obj, (BaseException, Enum)):
                continue
            if name not in RECORDS:
                found.update(_int_parameters(name, obj))
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, classmethod)
                ):
                    found.update(_int_parameters(f"{name}.{attr}", getattr(obj, attr)))
    return found


def test_table_covers_every_int_parameter():
    found = _public_int_parameters()
    assert found - set(CALLS) == set(), "public int parameters missing from CALLS"
    assert set(CALLS) - found == set(), "CALLS entries that are not public int parameters"


def _outcome(call, value):
    try:
        result = call(value)
    except petdom.PetdomError as exc:
        return type(exc), str(exc)
    return list(result) if isinstance(result, Iterator) else result


def _same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _python_ints(x):
    """No numpy scalar anywhere in x, and every as_dict() is JSON."""
    if isinstance(x, np.generic):
        return False
    if hasattr(x, "as_dict"):
        json.dumps(x.as_dict())
    if dataclasses.is_dataclass(x):
        return all(_python_ints(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return all(map(_python_ints, x))
    if isinstance(x, dict):
        return all(_python_ints(k) and _python_ints(v) for k, v in x.items())
    return True


NUMPY_FORMS = [np.int64, np.int32, np.int16, np.uint16]
OTHER_FORMS = [float, lambda v: v + 0.5, str, lambda v: bool(v % 2), lambda v: [v]]


@pytest.mark.parametrize("entry", sorted(CALLS))
@settings(max_examples=30)
@given(data=st.data())
def test_contract(entry, data):
    call, draws = CALLS[entry]
    v = data.draw(draws, label="v")
    expected = _outcome(call, v)
    assert _python_ints(expected)
    form = data.draw(st.sampled_from(NUMPY_FORMS + OTHER_FORMS), label="form")
    if form is np.uint16 and v < 0:
        form = np.int16
    value = form(v)
    got = _outcome(call, value)
    if form in NUMPY_FORMS:
        assert _same(got, expected)
        assert _python_ints(got)
    else:
        param = entry.split(":")[1]
        assert got == (ParameterError, f"{param} must be an integer, got {value!r}")


# non-integral values at formulas, graphs, the DP, eq1 and column indices
@pytest.mark.parametrize(
    "call",
    [
        lambda: f_one_two(5.5),
        lambda: gamma_ref(5.5),
        lambda: build_petersen(10.0, 2),
        lambda: PetersenGraph(10, True),
        lambda: dp_min(20.5, K.PLAIN),
        lambda: dp_minima(5, 9.5, K.PLAIN),
        lambda: enumerate_eq1(10.0),
        lambda: PetersenGraph(10).block_at(2.5),
    ],
    ids=[
        "f_one_two",
        "gamma_ref",
        "build_petersen",
        "PetersenGraph-k",
        "dp_min",
        "dp_minima-hi",
        "enumerate_eq1",
        "block_at",
    ],
)
def test_non_integer_refused(call):
    with pytest.raises(ParameterError, match="must be an integer, got "):
        call()


def test_numpy_n_gives_python_ints():
    result = dp_min(np.int64(40), K.ONE_TWO)
    assert type(result.n) is int and type(result.minimum) is int
    assert json.dumps(result.as_dict()) == json.dumps(dp_min(40, K.ONE_TWO).as_dict())
    g = PetersenGraph(np.int64(6))
    assert type(g.n) is int and type(g.k) is int
    assert brute_force_min(g, K.PLAIN) == brute_force_min(PetersenGraph(6), K.PLAIN)


# every public function with a DominationKind parameter -> the call with kind k
KIND_CALLS = {
    "brute_force_min": lambda k: brute_force_min(G8, k),
    "build_construction": lambda k: constructions.build_construction(13, k),
    "dp_min": lambda k: dp_min(13, k),
    "dp_minima": lambda k: dp_minima(5, 9, k),
    "form_is_valid": lambda k: domination.form_is_valid(
        ColumnForm((0, 0, 0), (0b010, 0b010, 3), 3, (0, 0, 0)), k
    ),
    "is_valid": lambda k: is_valid(G, VertexSet(0b10, 0b10), k),
}


def test_kind_table_covers_every_kind_parameter():
    found = set()
    for module in (petdom, constructions, domination):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and any(
                p.annotation == "DominationKind"
                for p in inspect.signature(fn).parameters.values()
            ):
                found.add(name)
    assert found == set(KIND_CALLS)


@pytest.mark.parametrize("caller", sorted(KIND_CALLS))
@pytest.mark.parametrize("kind", ["one-two", "ONE_TWO", None, 2, K, [K.ONE_TWO]])
def test_kind_contract(caller, kind):
    with pytest.raises(ParameterError) as info:
        KIND_CALLS[caller](kind)
    assert str(info.value) == f"{caller} requires a DominationKind, got {kind!r}"


@pytest.mark.parametrize("caller", sorted(KIND_CALLS))
def test_kind_members_pass(caller):
    for kind in K:
        if caller != "build_construction" or kind.upper_bounded:
            KIND_CALLS[caller](kind)


class TestRequireInt:
    @pytest.mark.parametrize(
        "args,kwargs,message",
        [
            (("n", 4, 5), {}, "n must satisfy n >= 5, got n=4"),
            (("n", 21, 5, 20), {}, "n must satisfy 5 <= n <= 20, got n=21"),
            (("n", 4, 5), {"caller": "dp_min"}, "dp_min requires n >= 5, got n=4"),
            (("n", 3, 5, 11), {"caller": "small_case_set"},
             "small_case_set requires 5 <= n <= 11, got n=3"),
            (("i", 2.5), {}, "i must be an integer, got 2.5"),
            (("k", True, 1), {}, "k must be an integer, got True"),
        ],
    )
    def test_messages(self, args, kwargs, message):
        with pytest.raises(ParameterError) as info:
            require_int(*args, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), -(2**70)])
    def test_returns_python_int(self, value):
        got = require_int("i", value)
        assert type(got) is int and got == value

    def test_bounds_are_inclusive(self):
        assert require_int("n", 5, 5, 20) == 5
        assert require_int("n", 20, 5, 20) == 20
