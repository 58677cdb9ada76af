"""One benchmark child: a fresh interpreter that readies petdom, runs one job
of a workload, checks every output and prints one JSON result line.

run.py starts it as ``python3 perfbench/child.py '<job json>'``.  A job is
``{"workload": w, "args": {...}, "trace": bool}`` for workload work,
``{"workload": w, "probe": "setup"}`` to measure set-up alone, or
``{"workload": w, "probe": "alloc", "n": n, "kind": k}`` for the
tracemalloc peak of one ``dp_min`` call.

The result holds ``ready`` (time.monotonic() once set-up is done, which the
parent subtracts from its spawn time), ``ref_s`` (median time of the
reference kernel in this child) and, for workload work, ``work_s`` (time of
the work after set-up), ``work_refs`` (each segment of that work counted in
reference kernel times, see Meter), ``units``, the gate's ``attempted``/``failed``/
``errors`` and the sha256 ``digest`` of the job's canonical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import petdom  # noqa: E402
import petdom.cli  # noqa: E402
import petdom.constructions  # noqa: E402
from petdom import DominationKind  # noqa: E402

K = DominationKind
ONE_TWO_KINDS = (K.ONE_TWO, K.ONE_TWO_TOTAL)
TABLE_HEADER = ("n,gamma_ref,gamma_t_ref,f,g,"
                "dp_plain,dp_total,dp_one_two,dp_one_two_total")
MAX_ERRORS = 20
REF_REPEATS = 3  # reference kernel runs at each end of a segment of work
SLICE_S = 0.25  # seconds of work between two reference kernel runs
CONSTRUCT_SEGMENTS = 4  # timed segments of the construct range, of equal cost
SPOT_SEGMENT = 6  # spot-check n's per timed segment


class Gate:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)


def reference_kernel() -> float:
    """Time a fixed mix of small numpy ops, dict updates and allocation of
    small sets, lists and tuples, like the mix petdom's layers run.

    The box's speed drifts by tens of percent within seconds (other tenants
    share the host), and this kernel's time drifts with it.  It must not
    call petdom, so that no change to the program can move it.
    """
    start = time.perf_counter()
    table = np.zeros((64, 64), dtype=np.float32)
    perm = np.arange(64) ^ 5
    counts: dict[int, int] = {}
    keep = []
    for i in range(2000):
        table = np.minimum(table[perm], table + 1.0)
        counts[i & 255] = counts.get((i * 7) & 255, 0) + 1
        keep.append(frozenset((i, i + 1, i + 2)))
        keep.append([(j, i) for j in range(8)])
    return time.perf_counter() - start


class Meter:
    """Times work at the box's speed of the moment.

    A timer signal cuts each segment of work into slices of SLICE_S with
    one reference kernel run between slices (REF_REPEATS runs at segment
    ends).  ``work_refs`` holds, per segment, the sum of each slice's time
    divided by the mean kernel time just before and just after it: the
    work counted in reference kernel times.  ``clock`` is perf_counter with
    the kernel runs cut out, so spans timed with it exclude them too.
    """

    def __init__(self) -> None:
        self.work_s = 0.0
        self.work_refs: list[float] = []
        self.refs: list[float] = []
        self._kernel_s = 0.0
        self._active = False
        self._slice_start = 0.0
        self._last = self._reference(REF_REPEATS)

    def clock(self) -> float:
        return time.perf_counter() - self._kernel_s

    def _reference(self, repeats: int) -> float:
        start = time.perf_counter()
        runs = [reference_kernel() for _ in range(repeats)]
        self._kernel_s += time.perf_counter() - start
        self.refs += runs
        return statistics.median(runs)

    def _slice(self, repeats: int) -> None:
        after = self._reference(repeats)
        elapsed = self.clock() - self._slice_start
        self.work_s += elapsed
        self.work_refs[-1] += elapsed / ((self._last + after) / 2)
        self._last = after
        self._slice_start = self.clock()

    def _tick(self, signum, frame) -> None:
        if self._active:  # not within a segment's end, nor within another tick
            self._active = False
            self._slice(1)
            self._active = True

    @contextlib.contextmanager
    def segment(self):
        self.work_refs.append(0.0)
        self._slice_start = self.clock()
        self._active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        self._slice(REF_REPEATS)


def formula(kind: DominationKind, n: int) -> int:
    # looked up on each call so that a traced run spans it
    return {
        K.PLAIN: petdom.gamma_ref,
        K.TOTAL: petdom.gamma_t_ref,
        K.ONE_TWO: petdom.f_one_two,
        K.ONE_TWO_TOTAL: petdom.g_one_two_total,
    }[kind](n)


def run_cli(argv: list[str], gate: Gate) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = petdom.cli.main(argv)
    gate.check(code == 0, f"petdom {' '.join(argv)} exited {code}")
    return buf.getvalue()


# -- set-up: petdom imported (above) and one n = 5 call per kind ------------

def setup_dp() -> None:
    for kind in K:
        petdom.dp_min(5, kind)


def setup_construct() -> None:
    for kind in ONE_TWO_KINDS:
        petdom.constructions.build_construction(5, kind)


def setup_exact() -> None:
    for kind in K:
        petdom.brute_force_min(petdom.build_petersen(5, 2), kind)


# -- workloads: each returns (units, canonical output bytes) ----------------

def sweep(args: dict, gate: Gate, meter: Meter) -> tuple[int, bytes]:
    hi = args["hi"]
    with meter.segment():
        out = run_cli(["table", "--from", "5", "--to", str(hi), "--format", "csv"], gate)
        lines = out.splitlines()
        gate.check(bool(lines) and lines[0] == TABLE_HEADER, "table header")
        rows = [[int(c) for c in line.split(",")] for line in lines[1:]]
        gate.check([r[0] for r in rows] == list(range(5, hi + 1)), f"table rows 5..{hi}")
        for n, *formulas, dp_plain, dp_total, dp_12, dp_12t in rows:
            expected = [formula(kind, n) for kind in K]
            gate.check(formulas == expected, f"n={n}: formula columns {formulas} != {expected}")
            for kind, got, want in zip(K, (dp_plain, dp_total, dp_12, dp_12t), formulas):
                gate.check(got == want, f"n={n} {kind.value}: dp {got} != formula {want}")
    return 4 * len(rows), out.encode()


def witness(args: dict, gate: Gate, meter: Meter) -> tuple[int, bytes]:
    n, kind = args["n"], K.from_text(args["kind"])
    tag = f"n={n} {kind.value}"
    with meter.segment():
        out = run_cli(["solve", "--n", str(n), "--kind", kind.value, "--method", "dp",
                       "--witness", "--format", "json"], gate)
        doc = json.loads(out)
        want = formula(kind, n)
        gate.check(doc["minimum"] == want, f"{tag}: dp {doc['minimum']} != formula {want}")
        names = doc["witness"]
        S = petdom.VertexSet.from_names(names, n)
        gate.check(len(S) == want, f"{tag}: witness size {len(S)} != {want}")
        report = petdom.is_valid(petdom.build_petersen(n, 2), S, kind)
        gate.check(report.valid, f"{tag}: witness fails is_valid")
        gate.check(S.names() == names, f"{tag}: witness names do not round-trip")
    return 1, out.encode()


def construct(args: dict, gate: Gate, meter: Meter) -> tuple[int, bytes]:
    build = petdom.constructions.build_construction
    hi = args["hi"]
    lines = []
    # a construction costs O(n), so segments of equal cost end at hi * sqrt(k/S)
    ends = [5] + [round(hi * ((k + 1) / CONSTRUCT_SEGMENTS) ** 0.5) + 1
                  for k in range(CONSTRUCT_SEGMENTS)]
    for lo, end in zip(ends, ends[1:]):
        with meter.segment():
            for kind in ONE_TWO_KINDS:
                for n in range(lo, end):
                    c = build(n, kind)
                    want = formula(kind, n)
                    gate.check(c.size == want,
                               f"n={n} {kind.value}: construction size {c.size} != {want}")
                    lines.append(f"{n} {kind.value} {c.size} {c.source.value}")
    spot = args["spot"]
    for i in range(0, len(spot), SPOT_SEGMENT):
        with meter.segment():
            for n in spot[i:i + SPOT_SEGMENT]:
                g = petdom.build_petersen(n, 2)
                for kind in ONE_TWO_KINDS:
                    tag = f"n={n} {kind.value}"
                    c = build(n, kind)
                    want = formula(kind, n)
                    gate.check(c.size == want, f"{tag}: construction size {c.size} != {want}")
                    gate.check(petdom.is_valid(g, c.vertex_set, kind).valid,
                               f"{tag}: construction fails is_valid")
                    names = c.vertex_set.names()
                    gate.check(petdom.VertexSet.from_names(names, n) == c.vertex_set,
                               f"{tag}: construction names do not round-trip")
                    lines.append(f"{n} {kind.value} {','.join(names)}")
    units = 2 * (hi - 4 + len(spot))
    return units, "\n".join(lines).encode()


def exact(args: dict, gate: Gate, meter: Meter) -> tuple[int, bytes]:
    lines = []
    units = 0
    with meter.segment():
        for n in range(5, args["max_order"] // 2 + 1):
            g = petdom.build_petersen(n, 2)
            for kind in K:
                tag = f"n={n} {kind.value}"
                want = formula(kind, n)
                bf = petdom.brute_force_min(g, kind)
                gate.check(bf.minimum == want, f"{tag}: brute force {bf.minimum} != formula {want}")
                try:
                    petdom.brute_force_min(g, kind, budget=want - 1)
                    gate.check(False, f"{tag}: budget {want - 1} is feasible")
                except petdom.InfeasibleError:
                    gate.check(True, "")
                dp = petdom.dp_min(n, kind)
                gate.check(dp.minimum == want, f"{tag}: dp {dp.minimum} != formula {want}")
                S = bf.witness
                names = S.names()
                gate.check(dp.witness.names() == names,
                           f"{tag}: dp and brute-force witnesses differ")
                gate.check(petdom.is_valid(g, S, kind).valid, f"{tag}: witness fails is_valid")
                lines.append(f"{n} {kind.value} {bf.minimum} {','.join(names)}")
                units += 1
                if kind in ONE_TWO_KINDS:
                    buckets = petdom.blocks_by_count(g, S)
                    gate.check(sum(map(len, buckets.values())) == n and not buckets[0],
                               f"{tag}: block buckets")
                    placements = [petdom.classify_singleton_block(g, S, b).value
                                  for b in buckets[1]]
                    lines.append(" ".join(str(len(buckets[c])) for c in range(7))
                                 + " " + ",".join(placements))
                if kind is K.ONE_TWO_TOTAL:
                    census = petdom.component_census(g, S)
                    checks = petdom.census_inequalities(census, n, len(S))
                    gate.check(checks.all_ok and census.total_vertices == len(S),
                               f"{tag}: census {checks.as_dict()}")
                    lines.append(json.dumps(census.as_dict(), sort_keys=True))
            profiles = petdom.enumerate_eq1(n)
            gate.check(len(profiles) == (n if n % 6 == 4 else 0),
                       f"n={n}: {len(profiles)} eq1 solutions")
            gate.check(all(petdom.check_eq1(x, n).all_ok for x in profiles),
                       f"n={n}: eq1 solution fails check_eq1")
            lines.extend(",".join(map(str, x.values)) for x in profiles)
    return units, "\n".join(lines).encode()


WORKLOADS = {
    "sweep": (setup_dp, sweep),
    "witness": (setup_dp, witness),
    "construct": (setup_construct, construct),
    "exact": (setup_exact, exact),
}


def main() -> None:
    job = json.loads(sys.argv[1])
    if not Path(petdom.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"petdom imported from {petdom.__file__}, not from {SRC}")
    setup, body = WORKLOADS[job["workload"]]
    setup()
    result: dict = {"ready": time.monotonic()}
    meter = Meter()
    probe = job.get("probe")
    if probe == "alloc":
        import tracemalloc

        tracemalloc.start()
        petdom.dp_min(job["n"], K.from_text(job["kind"]))
        result["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    elif probe is None:
        if job["trace"]:
            from tracer import Tracer, install, summarize

            tracer = Tracer(meter.clock)
            install(tracer)
        gate = Gate()
        units, output = body(job["args"], gate, meter)
        result.update(work_s=meter.work_s, work_refs=meter.work_refs, units=units,
                      attempted=gate.attempted, failed=gate.failed, errors=gate.errors,
                      digest=hashlib.sha256(output).hexdigest())
        if job["trace"]:
            result["layers"] = summarize(tracer.spans)
            result["spans"] = tracer.spans
    result["ref_s"] = statistics.median(meter.refs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
