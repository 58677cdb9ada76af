"""Layering guards: adjacency is asked of graph.py only, and the proof
artifacts in domination.py work from the count kernel, not per-block sets."""

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
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "gamma_s"
        ):
            found.append(("gamma_s", node.lineno))
    assert found == []
