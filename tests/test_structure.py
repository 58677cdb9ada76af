"""Layering guards: adjacency is asked of graph.py only and written there
once, and domination.py reads S's masks in one helper and rotates them by
that adjacency; the proof artifacts work from the masks and ranks, not
per-block sets or per-member Vertex objects; a construction is built and
checked on its family row, not its vertex set."""

import ast
from pathlib import Path

import pytest

import petdom

SOURCES = sorted(Path(petdom.__file__).parent.glob("*.py"))


def _tree(name):
    return ast.parse((Path(petdom.__file__).parent / name).read_text())


def _calls(tree, attr):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"graph.py", "domination.py", "solver.py"}


def test_only_graph_calls_neighbors():
    offenders = {
        p.name: lines
        for p in SOURCES
        if p.name != "graph.py" and (lines := _calls(_tree(p.name), "neighbors"))
    }
    assert offenders == {}


def test_domination_builds_no_per_block_sets():
    tree = _tree("domination.py")
    # the one set read allowed: form_is_valid checks form.vertex_set(), a set
    # of a few dozen columns, once per call
    (allowed,) = [
        node
        for node in ast.walk(_function(tree, "form_is_valid"))
        if isinstance(node, ast.Attribute) and node.attr == "vertex_set"
        and isinstance(node.value, ast.Name) and node.value.id == "form"
    ]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "vertex_set" and node is not allowed:
            found.append(("vertex_set", node.lineno))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "of"
            and isinstance(node.value, ast.Name)
            and node.value.id == "VertexSet"
        ):
            found.append(("VertexSet.of", node.lineno))
    assert found == []


def _readers(tree, attrs):
    """The top-level functions and classes of tree that read one of attrs,
    with "<module>" for reads outside them."""
    found = set()
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if any(isinstance(node, ast.Attribute) and node.attr in attrs for node in ast.walk(top)):
            found.add(name)
    return found


def test_set_masks_read_by_one_helper():
    # S's two masks are read in domination.py by _members alone, which
    # checks S first; every predicate and artifact takes them from it, or
    # takes their degrees from _degrees, which calls it
    assert _readers(_tree("domination.py"), ("outer", "inner")) == {"_members"}


def test_domination_rotations_come_from_adjacency():
    # ring rotations are by the ranks PetersenGraph._adjacency gives column 0:
    # every function that rotates reads them there, and none reads k
    tree = _tree("domination.py")
    rotating = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_rotate"
    }
    assert rotating == {"_degrees", "blocks_by_count"}
    for name in rotating:
        assert _calls(_function(tree, name), "_adjacency"), name
    assert _readers(tree, ("k",)) == set()


def _function(tree, name):
    (node,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return node


def _build_path():
    """build_construction and what it calls of constructions.py, transitively:
    each function, and for a class its __init__ and __post_init__."""
    tree = _tree("constructions.py")
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    path, todo = {}, ["build_construction"]
    while todo:
        name = todo.pop()
        node = defs[name]
        bodies = [node] if isinstance(node, ast.FunctionDef) else [
            item for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__post_init__")
        ]
        path[name] = bodies
        todo += {
            call.func.id
            for body in bodies
            for call in ast.walk(body)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in defs and call.func.id not in path
        }
    return path


# build_construction and its helpers, as _build_path finds them
BUILD_PATH = ["build_construction", "_sound", "Construction"]


def test_build_path_is_listed():
    assert sorted(_build_path()) == sorted(BUILD_PATH)


@pytest.mark.parametrize("name", BUILD_PATH)
def test_construction_build_reads_no_vertex_set(name):
    # a build decides size and validity on the kind's family row, at a cost
    # that does not grow with n: the popcounts are the row's, so no bit is
    # counted and no ColumnForm.size is read, and the set is built on first
    # access to Construction.vertex_set
    found = [
        (node.attr, node.lineno)
        for body in _build_path()[name]
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute) and node.attr in ("vertex_set", "size", "bit_count")
    ]
    assert found == []


def _method(tree, cls, name):
    (node,) = (
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == name
    )
    return node


def _fast_path(func):
    """The branch of from_names taken when all names match _NAMES_RE."""
    (node,) = (
        node
        for node in ast.walk(func)
        if isinstance(node, ast.If)
        and any(
            isinstance(sub, ast.Attribute)
            and sub.attr == "fullmatch"
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "_NAMES_RE"
            for sub in ast.walk(node.test)
        )
    )
    return node


def test_name_codec_takes_no_step_per_name():
    # names are rendered and parsed as whole arrays: no comprehension,
    # f-string, map or loop over names; rendering's one loop runs over digit
    # positions, and parsing has none
    tree = _tree("graph.py")
    parts = {
        "names": _method(tree, "VertexSet", "names"),
        "text": _method(tree, "VertexSet", "text"),
        "from_names fast path": _fast_path(_method(tree, "VertexSet", "from_names")),
    }
    per_name = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.JoinedStr,
                ast.While, ast.AsyncFor, ast.Lambda)
    found, loops = [], {}
    for part, body in parts.items():
        for node in ast.walk(body):
            if isinstance(node, per_name):
                found.append((part, type(node).__name__, node.lineno))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in {
                "map", "filter", "sorted", "list",
            }:
                found.append((part, node.func.id, node.lineno))
            elif isinstance(node, ast.For):
                loops[part] = loops.get(part, 0) + 1
                over = node.iter
                if not (isinstance(over, ast.Call) and getattr(over.func, "id", None) == "range"):
                    found.append((part, "for", node.lineno))
    assert found == []
    assert loops == {"text": 1}


def test_blocks_and_components_build_no_vertex():
    # blocks and components are ints; Vertex objects are built only when a
    # caller reads .vertices, never by the artifacts themselves
    domination, graph = _tree("domination.py"), _tree("graph.py")
    parts = {
        name: _function(domination, name)
        for name in ("blocks_by_count", "induced_components", "component_census")
    }
    parts["PetersenGraph.blocks"] = _method(graph, "PetersenGraph", "blocks")
    found = []
    for part, body in parts.items():
        for node in ast.walk(body):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Vertex":
                found.append((part, "Vertex(", node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr in ("vertex", "vertices"):
                found.append((part, f".{node.attr}", node.lineno))
    assert found == []


def test_adjacency_written_once():
    # P(n,k)'s edges are stated in PetersenGraph._adjacency alone: the rank
    # and table forms each call it and reduce no index mod n themselves
    tree = _tree("graph.py")
    for name in ("neighbor_ranks", "neighbor_table"):
        body = _method(tree, "PetersenGraph", name)
        assert _calls(body, "_adjacency"), name
        mods = [node.lineno for node in ast.walk(body)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
        assert mods == [], name
