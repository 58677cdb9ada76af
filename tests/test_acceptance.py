"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).
"""

import time

import pytest

from petdom import (
    DominationKind,
    InfeasibleError,
    blocks_by_count,
    brute_force_min,
    build_petersen,
    census_inequalities,
    classify_singleton_block,
    component_census,
    dp_min,
    enumerate_eq1,
    f_one_two,
    g_one_two_total,
    gamma_ref,
    gamma_t_ref,
    induced_components,
    is_valid,
)
from petdom.constructions import (
    build_construction,
    construct_one_two,
    construct_one_two_total,
)

K = DominationKind


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_one_two_closed_form():
    t0 = time.monotonic()
    mismatches = [
        n for n in range(5, 201) if dp_min(n, K.ONE_TWO).minimum != f_one_two(n)
    ]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 10.0
    report(
        1,
        ok,
        f"dp one-two equals f(n) for 5..200 "
        f"({len(mismatches)} mismatches, {elapsed:.1f}s < 10s)",
    )


def test_criterion_2_one_two_total_closed_form():
    mismatches = [
        n
        for n in range(5, 201)
        if dp_min(n, K.ONE_TWO_TOTAL).minimum != g_one_two_total(n)
    ]
    five = dp_min(5, K.ONE_TWO_TOTAL).minimum
    ok = not mismatches and five == 5
    report(
        2,
        ok,
        f"dp one-two-total equals g(n) for 5..200 incl. n=5 -> {five} "
        f"({len(mismatches)} mismatches)",
    )


def test_criterion_3_small_case_mechanization():
    t0 = time.monotonic()
    expected_sizes = {5: 4, 6: 4, 7: 5, 8: 6, 9: 6, 10: 8, 11: 8}
    ok = True
    for n, size in expected_sizes.items():
        g = build_petersen(n, 2)
        result = brute_force_min(g, K.ONE_TWO)
        table_set = build_construction(n, K.ONE_TWO).vertex_set
        ok &= result.minimum == size
        ok &= is_valid(g, table_set, K.ONE_TWO).valid
        ok &= len(table_set) == result.minimum
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(
        3,
        ok,
        f"brute force reproduces sizes (4,4,5,6,6,8,8) and the tabulated "
        f"sets are minimum ({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_prior_work_oracles():
    bad_plain = [
        n for n in range(5, 201) if dp_min(n, K.PLAIN).minimum != gamma_ref(n)
    ]
    bad_total = [
        n for n in range(5, 201) if dp_min(n, K.TOTAL).minimum != gamma_t_ref(n)
    ]
    ok = not bad_plain and not bad_total
    report(
        4,
        ok,
        f"dp plain == ceil(3n/5) and dp total == 2*ceil(n/3) for 5..200 "
        f"({len(bad_plain)}+{len(bad_total)} mismatches)",
    )


def test_criterion_5_construction_soundness():
    t0 = time.monotonic()
    ok = True
    for n in range(5, 10001):
        # emit-time validation inside the constructors re-checks validity;
        # sizes are asserted here against the formulas
        ok &= len(construct_one_two(n)) == f_one_two(n)
        ok &= len(construct_one_two_total(n)) == g_one_two_total(n)
    # independent spot re-validation through the full validator
    for n in list(range(5, 200)) + [999, 1000, 5003, 9996, 9997, 9998, 9999, 10000]:
        g = build_petersen(n, 2)
        ok &= is_valid(g, construct_one_two(n), K.ONE_TWO).valid
        ok &= is_valid(g, construct_one_two_total(n), K.ONE_TWO_TOTAL).valid
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(
        5,
        ok,
        f"constructions for 5..10000 have sizes f(n), g(n) and validate "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_6_eq1_characterization():
    ok = True
    details = []
    for n in (12, 13, 15, 17, 18):
        t0 = time.monotonic()
        sols = enumerate_eq1(n)
        elapsed = time.monotonic() - t0
        ok &= sols == [] and elapsed < 10.0
        details.append(f"n={n}:{len(sols)}")
    for n in (10, 16):
        t0 = time.monotonic()
        sols = enumerate_eq1(n)
        elapsed = time.monotonic() - t0
        base = tuple(((1, 1, 0) * n)[:n - 1]) + (1,)
        rotations = {
            tuple(base[(i + r) % n] for i in range(n)) for r in range(n)
        }
        ok &= {x.values for x in sols} == rotations and len(sols) == n
        ok &= elapsed < 10.0
        details.append(f"n={n}:{len(sols)}")
    report(6, ok, f"window-system solutions ({', '.join(details)})")


def _one_two_sets_up_to_50():
    for n in range(5, 51):
        yield n, dp_min(n, K.ONE_TWO).witness
        yield n, construct_one_two(n)
        if 2 * n <= 26:
            yield n, brute_force_min(build_petersen(n, 2), K.ONE_TWO).witness


def test_criterion_7_block_classification_totality():
    checked = 0
    ok = True
    for n, S in _one_two_sets_up_to_50():
        g = build_petersen(n, 2)
        for b in blocks_by_count(g, S)[1]:
            classify_singleton_block(g, S, b)  # raises on failure
            checked += 1
    ok &= checked > 0
    report(
        7,
        ok,
        f"every singleton block over witnesses and constructions for "
        f"5..50 classifies ({checked} blocks)",
    )


def test_criterion_8_census_properties():
    ok = True
    for n in range(5, 51):
        g = build_petersen(n, 2)
        witnesses = [dp_min(n, K.ONE_TWO_TOTAL).witness]
        if 2 * n <= 26:
            witnesses.append(brute_force_min(g, K.ONE_TWO_TOTAL).witness)
        for S in witnesses:
            census = component_census(g, S)  # raises unless paths/cycles only
            ok &= census.x.get(1, 0) == 0
            ok &= all(census.y.get(l, 0) == 0 for l in (1, 2, 3, 4))
            checks = census_inequalities(census, n, len(S))
            ok &= checks.all_ok
            for comp in induced_components(g, S):
                closed = set(comp.vertices)
                for v in comp.vertices:
                    closed.update(g.neighbors(v))
                if comp.kind == "path":
                    ok &= len(closed) <= 2 * comp.order + 2
                else:
                    ok &= len(closed) <= 2 * comp.order
    report(
        8,
        ok,
        "censuses of one-two-total witnesses for 5..50 are paths/cycles with "
        "x1=0, y1..y4=0, inequalities hold, closed neighborhoods bounded",
    )


def test_criterion_9_minimality_floor():
    ok = True
    for n in range(5, 14):
        g = build_petersen(n, 2)
        for kind, formula in (
            (K.ONE_TWO, f_one_two),
            (K.ONE_TWO_TOTAL, g_one_two_total),
        ):
            with pytest.raises(InfeasibleError):
                brute_force_min(g, kind, budget=formula(n) - 1)
    report(
        9,
        ok,
        "no valid set one below f(n) / g(n) exists for 5..13 (brute force "
        "with budget reports infeasible)",
    )


def test_criterion_10_cross_solver_equivalence():
    disagreements = []
    for n in range(5, 14):
        g = build_petersen(n, 2)
        for kind in K:
            b = brute_force_min(g, kind).minimum
            d = dp_min(n, kind).minimum
            if b != d:
                disagreements.append((n, kind.value, b, d))
    ok = not disagreements
    report(
        10,
        ok,
        f"brute force and dp agree on minima for all kinds, 5..13 "
        f"({len(disagreements)} disagreements)",
    )
