"""In-memory spans around petdom's public functions, for traced runs.

``install`` replaces each traced function wherever a petdom module holds a
reference to it, so calls from one layer into another (cli -> transfer ->
domination) are spanned as well as the benchmark's own calls.  Spans stay
in memory while the work runs; the child sends them out with its result.

A span is ``[name, start, end, parent, attr]``: ``parent`` is the index of
the enclosing span or -1, and ``attr`` is the work count of the call (n for
``dp_min``, members for ``build_construction``, vertices for ``is_valid``),
the name of the exception it raised, or None.
"""

from __future__ import annotations

import types
from collections import defaultdict

# spans whose self time is reported under a shared layer key
_LAYER_KEY = {
    "formulas.f_one_two": "formulas",
    "formulas.g_one_two_total": "formulas",
    "formulas.gamma_ref": "formulas",
    "formulas.gamma_t_ref": "formulas",
    "domination.blocks_by_count": "domination.proof_artifacts",
    "domination.classify_singleton_block": "domination.proof_artifacts",
    "domination.component_census": "domination.proof_artifacts",
    "domination.census_inequalities": "domination.proof_artifacts",
}


class Tracer:
    def __init__(self, clock) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Route every reference to a traced petdom function through a span."""
    import petdom
    from petdom import cli, constructions, domination, formulas, graph, solver, transfer

    targets = [
        (formulas.f_one_two, "formulas.f_one_two", None),
        (formulas.g_one_two_total, "formulas.g_one_two_total", None),
        (formulas.gamma_ref, "formulas.gamma_ref", None),
        (formulas.gamma_t_ref, "formulas.gamma_t_ref", None),
        (transfer.dp_min, "transfer.dp_min", lambda a, r: r.n),
        (solver.brute_force_min, "solver.brute_force_min", None),
        (solver.enumerate_eq1, "solver.enumerate_eq1", None),
        (constructions.build_construction, "constructions.build_construction",
         lambda a, r: r.size),
        (domination.is_valid, "domination.is_valid", lambda a, r: 2 * a[0].n),
        (domination.blocks_by_count, "domination.blocks_by_count", None),
        (domination.classify_singleton_block,
         "domination.classify_singleton_block", None),
        (domination.component_census, "domination.component_census", None),
        (domination.census_inequalities, "domination.census_inequalities", None),
        (cli.main, "cli.main", None),
    ]
    wrapped = {fn: tracer.wrap(name, fn, work) for fn, name, work in targets}
    for module in (petdom, cli, constructions, domination, formulas, solver, transfer):
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                setattr(module, attr, wrapped[value])

    vs = graph.VertexSet
    vs.names = tracer.wrap("graph.VertexSet.names", vs.names, lambda a, r: len(r))
    vs.from_names = classmethod(tracer.wrap(
        "graph.VertexSet.from_names", vs.__dict__["from_names"].__func__,
        lambda a, r: len(r)))


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one child's spans.

    Keys are ``<layer>.self_s``, ``<layer>.calls`` and ``<layer>.work``;
    brute force splits its self time by outcome, and ``cli.main.overhead_s``
    is the time inside ``cli.main`` that is not inside ``dp_min``.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, attr) in enumerate(spans):
        key = _LAYER_KEY.get(name, name)
        self_s = end - start - child_time[i]
        if key == "solver.brute_force_min":
            outcome = "infeasible" if attr == "InfeasibleError" else "feasible"
            out[f"{key}.{outcome}_self_s"] += self_s
        else:
            out[f"{key}.self_s"] += self_s
        out[f"{key}.calls"] += 1
        if isinstance(attr, int):
            out[f"{key}.work"] += attr
        if name == "cli.main":
            out["cli.main.overhead_s"] += end - start
        elif name == "transfer.dp_min" and _under(spans, parent, "cli.main"):
            out["cli.main.overhead_s"] -= end - start
    return dict(out)


def _under(spans: list[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
