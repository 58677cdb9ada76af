"""Layering guards: adjacency is asked of graph.py only, and the proof
artifacts in domination.py work from the count kernel and ranks, not
per-block sets or per-member Vertex objects."""

import ast
from pathlib import Path

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
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "vertex_set":
            found.append(("vertex_set", node.lineno))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "of"
            and isinstance(node.value, ast.Name)
            and node.value.id == "VertexSet"
        ):
            found.append(("VertexSet.of", node.lineno))
    assert found == []


def _function(tree, name):
    (node,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return node


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
