#!/usr/bin/env python3
"""Benchmark for petdom: four workloads, each run in fresh child processes.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One *pass* runs a workload's fixed inputs, generated from ``--seed``, in
fresh child interpreters (perfbench/child.py), one child at a time and with
no threads.  Passes repeat until the next one would end after ``--seconds``.

Workloads (BENCHMARK.json says why each is there):

* ``sweep``:     ``petdom table --from 5 --to 80 --format csv`` in one child;
                 every row's four DP columns are checked against the four
                 formula columns.  Nothing in it varies with the seed.
* ``witness``:   ``petdom solve --method dp --witness --format json`` for each
                 kind at N close to 10^4, one child per kind; the seed moves N
                 so that the residues of N mod 6 rotate over the kinds.
* ``construct``: one child builds both [1,2] constructions at every n in
                 5..2000, then validates both at two seeded n's per residue
                 mod 6 in 9000..10000.
* ``exact``:     one child runs, for every kind and 2n <= 26, brute force,
                 brute force with budget formula-1 (must be infeasible), the
                 DP (its witness must equal brute force's), and the block,
                 census and eq1 artifacts.  Nothing varies with the seed.

Times are taken at nominal box speed.  The box's speed drifts by tens of
percent within seconds (other tenants share the host), so each child times
a fixed reference kernel (child.reference_kernel, no petdom code) between
0.25 s slices of its work, and each slice is scaled by REF_NOMINAL_S over
the kernel's time around it (child.Meter).  Set-up and per-layer times are
scaled by the child's median kernel time.  The unscaled rate and the box
speed are printed and kept in the report.

With ``--trace 0`` the result line carries the end-to-end metrics:
``setup_s`` (median spawn-to-ready time of the run's children: petdom
imported and one n = 5 call per kind), ``units_per_s`` (units of one pass
over the summed median time of each timed segment, set-up excluded),
``peak_rss_mb`` (largest child peak RSS, from os.wait4) and ``pass_ratio``
(1 - fail_ratio; fail_ratio itself is 0 on a correct run, so it is printed
but is not a metric).

With ``--trace 1`` passes alternate traced and untraced, and the result line
carries the per-layer metrics: medians over traced passes of each layer's
self time and counts, the tracemalloc peak of the workload's largest
``dp_min`` call, and the traced and untraced ``units_per_s``.  Layers that
do no work in a workload report 0.

Every check counts in ``attempted``; a failed one counts in ``failed``, sets
``correct`` to false and makes the exit code 1.  The environment, the
generated inputs and every pass go to .perfbench_out/; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

SWEEP_HI = 80
WITNESS_BASE = 9996  # a multiple of 6
CONSTRUCT_HI = 2000
SPOTS_PER_RESIDUE = 2
SPOT_LO = 9000
EXACT_MAX_ORDER = 26  # brute force's limit on 2n
KIND_NAMES = ("plain", "total", "one-two", "one-two-total")

# sha256 of the canonical output of the workloads whose inputs are fixed;
# CLI stdout is deterministic, so any change is a failure
EXPECTED_DIGEST = {
    "sweep": "769a11b67adee2b3b669e89a191866e097cac451bbe566b94c35eaea4b71f711",
    "exact": "c2f3f6497ebbd867c1ece3cb756a13cbc4525ab30c13c70af372bd9af798de5d",
}

MIN_SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # no child may run past this point of a run
DP_TABLE_BYTES = 64 * 64 * 4  # one 64x64 float32 table of dp_min
# time of child.reference_kernel() on the 2-core Xeon box the benchmark was
# calibrated on, when quiet; work and set-up times are scaled to this speed
REF_NOMINAL_S = 0.013


class ChildError(Exception):
    pass


def make_inputs(workload: str, seed: int) -> tuple[list[dict], dict]:
    """The job args of one pass, and a record of what the seed chose."""
    rng = random.Random(seed)
    if workload == "sweep":
        return [{"hi": SWEEP_HI}], {"seed": seed, "varies": "nothing", "hi": SWEEP_HI}
    if workload == "witness":
        jobs = [
            {"kind": kind, "n": WITNESS_BASE + 6 * rng.randrange(-1, 2) + (seed + i) % 6}
            for i, kind in enumerate(KIND_NAMES)
        ]
        return jobs, {"seed": seed, "n": {j["kind"]: j["n"] for j in jobs}}
    if workload == "construct":
        spot = sorted(
            SPOT_LO + r + 6 * rng.randrange((10_000 - SPOT_LO) // 6)
            for r in range(6) for _ in range(SPOTS_PER_RESIDUE)
        )
        return ([{"hi": CONSTRUCT_HI, "spot": spot}],
                {"seed": seed, "hi": CONSTRUCT_HI, "spot": spot})
    if workload == "exact":
        return ([{"max_order": EXACT_MAX_ORDER}],
                {"seed": seed, "varies": "nothing", "max_order": EXACT_MAX_ORDER})
    raise ValueError(workload)


def alloc_probe(workload: str, jobs: list[dict]) -> tuple[int, str] | None:
    """The workload's largest dp_min call, or None when it makes none."""
    if workload == "sweep":
        return SWEEP_HI, "one-two"
    if workload == "witness":
        job = max(jobs, key=lambda j: j["n"])
        return job["n"], job["kind"]
    if workload == "exact":
        return EXACT_MAX_ORDER // 2, "one-two"
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def speed(child: dict) -> float:
    """How much faster than nominal the box ran around this child's work."""
    return REF_NOMINAL_S / child["ref_s"]


def run_child(job: dict, deadline: float) -> dict:
    """Run one child to completion; adds setup_s (at nominal box speed) and
    maxrss_mb to its result."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)],
                                stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            rusage = _wait(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.read().decode()[-2000:]
            raise ChildError(f"child {job} exited {proc.returncode}: {tail}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise ChildError(f"child {job} printed no result: {exc}") from exc
    result["setup_s"] = (result["ready"] - spawned) * speed(result)
    result["maxrss_mb"] = rusage.ru_maxrss / 1024  # KiB on Linux
    return result


def _wait(proc: subprocess.Popen, deadline: float):
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage
        if time.monotonic() > deadline:
            raise ChildError(f"child timed out after {RUN_LIMIT_S} s of the run")
        time.sleep(0.005)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "petdom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return None


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its children's sums."""
    sums: dict[str, float] = {}
    for child in children:
        for key, value in child["layers"].items():
            if key.endswith("_s"):
                value *= speed(child)
            sums[key] = sums.get(key, 0.0) + value

    def get(key: str) -> float:
        return sums.get(key, 0.0)

    def micros_per(key: str, work: str) -> float:
        return get(key) / get(work) * 1e6 if get(work) else 0.0

    return {
        "transfer.dp_min.self_s": get("transfer.dp_min.self_s"),
        "transfer.dp_min.calls": get("transfer.dp_min.calls"),
        "transfer.dp_min.columns": get("transfer.dp_min.work"),
        "transfer.dp_min.us_per_column": micros_per("transfer.dp_min.self_s",
                                                    "transfer.dp_min.work"),
        "solver.brute_force_min.feasible_self_s":
            get("solver.brute_force_min.feasible_self_s"),
        "solver.brute_force_min.infeasible_self_s":
            get("solver.brute_force_min.infeasible_self_s"),
        "solver.brute_force_min.calls": get("solver.brute_force_min.calls"),
        "solver.enumerate_eq1.self_s": get("solver.enumerate_eq1.self_s"),
        "constructions.build_construction.self_s":
            get("constructions.build_construction.self_s"),
        "constructions.build_construction.calls":
            get("constructions.build_construction.calls"),
        "constructions.build_construction.us_per_member":
            micros_per("constructions.build_construction.self_s",
                       "constructions.build_construction.work"),
        "domination.is_valid.self_s": get("domination.is_valid.self_s"),
        "domination.is_valid.calls": get("domination.is_valid.calls"),
        "domination.is_valid.us_per_vertex": micros_per("domination.is_valid.self_s",
                                                        "domination.is_valid.work"),
        "domination.proof_artifacts.self_s": get("domination.proof_artifacts.self_s"),
        "graph.VertexSet.names.self_s": get("graph.VertexSet.names.self_s"),
        "graph.VertexSet.from_names.self_s": get("graph.VertexSet.from_names.self_s"),
        "formulas.self_s": get("formulas.self_s"),
        "cli.main.overhead_s": get("cli.main.overhead_s"),
    }


def units_per_s(passes: list[dict], scaled: bool = True) -> float:
    """Units of one pass over the sum of each job's median work time.

    Scaled, the work is taken at nominal box speed: each timed segment of a
    job, counted in reference kernel times (child.Meter), has its median
    over passes taken and multiplied by the kernel's nominal time.
    """
    if not passes:
        return 0.0
    total = 0.0
    for job in zip(*(p["children"] for p in passes)):
        if scaled:
            segments = zip(*(c["work_refs"] for c in job))
            total += sum(statistics.median(s) for s in segments) * REF_NOMINAL_S
        else:
            total += statistics.median(c["work_s"] for c in job)
    return passes[0]["units"] / total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sweep", "witness", "construct", "exact"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "petdom" / "__init__.py").is_file():
        print(f"error: no petdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = environment()
    env["loadavg_start"] = loadavg()
    jobs, inputs = make_inputs(args.workload, args.seed)
    trace = bool(args.trace)
    attempted = failed = 0
    errors: list[str] = []
    passes: list[dict] = []
    setups: list[float] = []
    peak_rss = 0.0
    peak_alloc = 0
    probe = alloc_probe(args.workload, jobs) if trace else None

    def child(job: dict) -> dict:
        nonlocal peak_rss
        result = run_child({"workload": args.workload, **job}, deadline)
        if not job.get("trace"):
            setups.append(result["setup_s"])
            peak_rss = max(peak_rss, result["maxrss_mb"])
        return result

    try:
        if probe:
            peak_alloc = child({"probe": "alloc", "n": probe[0], "kind": probe[1]})[
                "peak_alloc_bytes"]
        last = 0.0
        while True:
            elapsed = time.monotonic() - started
            if len(passes) >= 1 + trace and elapsed + last > args.seconds:
                break
            traced = trace and len(passes) % 2 == 0
            t0 = time.monotonic()
            children = [child({"args": job, "trace": traced}) for job in jobs]
            last = time.monotonic() - t0
            passes.append({
                "traced": traced,
                "units": sum(c["units"] for c in children),
                "work_s": sum(c["work_s"] for c in children),
                "digests": [c["digest"] for c in children],
                "children": children,
            })
            for c in children:
                attempted += c["attempted"]
                failed += c["failed"]
                errors += c["errors"]
        while not trace and len(setups) < MIN_SETUP_SAMPLES:
            child({"probe": "setup"})
    except ChildError as exc:
        attempted += 1
        failed += 1
        errors.append(str(exc))

    expected = EXPECTED_DIGEST.get(args.workload)
    for p in passes:
        for want, what in ((passes[0]["digests"], "the first pass's"),
                           (expected and [expected], "the expected")):
            if want is None:
                continue
            attempted += 1
            if p["digests"] != want:
                failed += 1
                errors.append(f"output digests {p['digests']} differ from {what} {want}")

    untraced = [p for p in passes if not p["traced"]]
    untraced_rate = units_per_s(untraced)
    wall_rate = units_per_s(untraced, scaled=False)
    box_speed = statistics.median(speed(c) for p in passes for c in p["children"]) if passes else 0.0
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "units_per_s": untraced_rate,
            "peak_rss_mb": peak_rss,
            "pass_ratio": 1 - failed / attempted if attempted else 0.0,
        }
        wanted = spec["end_to_end"]
    else:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["children"]) for p in traced_passes]
        metrics = {key: statistics.median(m[key] for m in per_pass) if per_pass else 0.0
                   for key in layer_metrics([])}
        traced_rate = units_per_s(traced_passes)
        metrics.update({
            "transfer.dp_min.peak_alloc_mb": peak_alloc / 2**20,
            # computed, not measured: dp_min holds two families of n + 1 tables
            "transfer.dp_min.table_bytes_computed":
                2 * (probe[0] + 1) * DP_TABLE_BYTES if probe else 0,
            "trace.traced_units_per_s": traced_rate,
            "trace.untraced_units_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate - 1 if traced_rate else 0.0,
        })
        wanted = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    env["loadavg_end"] = loadavg()
    fail_ratio = failed / attempted if attempted else 1.0
    correct = failed == 0 and bool(passes)
    report = {"workload": args.workload, "trace": trace, "seconds": args.seconds,
              "inputs": inputs, "env": env, "attempted": attempted, "failed": failed,
              "fail_ratio": fail_ratio, "errors": errors, "metrics": metrics,
              "wall_units_per_s": wall_rate, "box_speed": box_speed,
              "passes": [{k: v for k, v in p.items() if k != "children"}
                         | {"children": [{k: v for k, v in c.items() if k != "spans"}
                                         for c in p["children"]]}
                         for p in passes]}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1))
    if trace:
        spans = [{"pass": i, "child": j, "spans": c["spans"]}
                 for i, p in enumerate(passes) if p["traced"]
                 for j, c in enumerate(p["children"])]
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload}  seed {args.seed}  trace {int(trace)}  "
          f"passes {len(passes)}")
    print(f"inputs {json.dumps(inputs)}")
    print(f"env {json.dumps(env)}")
    for error in errors:
        print(f"FAILED {error}")
    for key in units:
        print(f"{key} = {metrics[key]:.6g} {units[key]}")
    print(f"fail_ratio = {fail_ratio:.6g} ratio ({failed} of {attempted} checks failed)")
    print(f"wall units_per_s = {wall_rate:.6g} 1/s at box speed {box_speed:.3f} x nominal")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
