"""Benchmark for gammabw: one workload per process, one thread, closed loop.

    python3 benchmarks/run.py --workload lib-cuts --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from src/. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Details go to benchmarks/out/.

A run builds the seeded pool of operations, has a child process compute
the 50-digit mpmath references for it, measures import time in fresh
interpreters (--trace 0 only), runs one capture round, then whole timed
rounds until --seconds have passed, with a fixed calibration loop run
between units, then one verification round whose outputs are checked.
Every round must reproduce the capture round's outputs byte for byte.
The timed metrics are mean unit times scaled to the reference speed, at
which the calibration loop takes CAL_REF_NS. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ns = time.perf_counter_ns

SETUP_SPAWNS = 40
SETUP_CAL_RUNS = 10
# The calibration loop runs between units about every CAL_EVERY_NS; the
# timed figures are scaled to a machine on which it takes CAL_REF_NS.
CAL_LOOPS = 5_000
CAL_REF_NS = 250_000
CAL_EVERY_NS = 5_000_000
SPAN_CAP = 600_000
REGIMES = ("series", "series-halley", "halley", "log-form", "exponential")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of `values`."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop: the machine's speed at this moment."""
    t0 = ns()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i
    return ns() - t0


class Phase:
    """Counters of a stretch of whole rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.total_ns = 0
        self.items = 0
        self.cal_runs = 0
        self.cal_ns = 0  # time in the calibration loop, outside the units

    @property
    def items_per_s(self) -> float:
        return self.items / (self.total_ns / 1e9)

    @property
    def slowdown(self) -> float:
        """Mean calibration loop time over its reference time."""
        return self.cal_ns / self.cal_runs / CAL_REF_NS


def run_rounds(wl, base, mismatches, seconds, op_ns=None, per_op=None, tracer=None) -> Phase:
    """Whole rounds of the pool until `seconds` have passed (or the tracer
    holds SPAN_CAP spans). Every output is compared with the capture round.
    With `op_ns`, adds up each op's unit times there and runs the
    calibration loop between units about every CAL_EVERY_NS, so that its
    mean time follows the machine's speed over the same stretch."""
    from workloads import fingerprint

    ops = wl.ops
    unit_ids = [tracer.name_id(op.kind) for op in ops] if tracer is not None else None
    phase = Phase()
    deadline = ns() + int(seconds * 1e9)
    next_cal = 0
    while True:
        for i, op in enumerate(ops):
            if tracer is None:
                t0, t1, out = op.invoke()
            else:
                k = tracer.begin(unit_ids[i])
                t0, t1, out = op.invoke()
                tracer.finish(k, t0, t1)
            dt = t1 - t0
            phase.total_ns += dt
            phase.items += op.items
            if op_ns is not None:
                op_ns[i] += dt
                if t1 >= next_cal:
                    phase.cal_ns += calibration_ns()
                    phase.cal_runs += 1
                    next_cal = t1 + CAL_EVERY_NS
            if per_op is not None:
                per_op[i].append(dt)
            if fingerprint(out) != base[i]:
                mismatches[i] = mismatches.get(i, 0) + 1
        phase.rounds += 1
        if ns() >= deadline or (tracer is not None and len(tracer) >= SPAN_CAP):
            return phase


def compute_references(requests: list, path: Path) -> None:
    """50-digit references, in a child process so that mpmath and the
    reference data stay out of the measured process until timing ends."""
    subprocess.run(
        [sys.executable, str(HERE / "reference.py"), str(path)],
        input=json.dumps(requests), text=True, check=True, timeout=170,
    )


def measure_setup(module: str) -> float:
    """Median import time of `module` over fresh interpreters run one at a
    time, timed inside the child so that interpreter start is excluded, and
    scaled to the reference speed by the calibration loop, which runs
    SETUP_CAL_RUNS times after each child."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {module}; sys.stdout.write(repr(time.perf_counter() - t))"
    )
    cmd = [sys.executable, "-I", "-c", code, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)  # writes the bytecode cache
    times = []
    cal_ns = 0
    for _ in range(SETUP_SPAWNS):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout))
        cal_ns += sum(calibration_ns() for _ in range(SETUP_CAL_RUNS))
    slowdown = cal_ns / (SETUP_SPAWNS * SETUP_CAL_RUNS) / CAL_REF_NS
    return statistics.median(times) / slowdown


def alloc_peaks_mb(ops) -> list[float]:
    """tracemalloc peak above the starting level, per invocation."""
    peaks = []
    tracemalloc.start()
    try:
        for op in ops:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op.invoke()
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def check_outputs(wl, outputs, refs) -> dict[int, object]:
    """Verdict per op: references, properties, level equation, formats."""
    import reference

    verdicts = {}
    for i, op in enumerate(wl.ops):
        v = wl.check(op, outputs[i], refs[op.ref])
        for a, b, y, x, tol, left in v.level:
            if not reference.level_brackets(a, b, y, x, tol, left):
                v.fail(f"{'x_low' if left else 'x_high'} {x!r} does not solve the level equation")
        verdicts[i] = v
    first_of_group = {}
    for i, op in enumerate(wl.ops):
        if op.group < 0 or verdicts[i].numbers is None:
            continue
        j = first_of_group.setdefault(op.group, i)
        if verdicts[i].numbers != verdicts[j].numbers:
            verdicts[i].fail(f"{op.label} output parses to other numbers than {wl.ops[j].label}")
    return verdicts


def layer_metrics(wl, outputs, verdicts, untraced, traced, tracer, per_op, peaks) -> dict:
    from tracing import CUTS, median_us, wrapper_overhead_ns

    s = tracer.summary(wrapper_overhead_ns())
    by = s["by_name"]
    n_ops = len(wl.ops)

    def spans(name, key="dur"):
        return by.get(name, {}).get(key, [])

    def timed(kind, label=None):
        return [t for op, ts in zip(wl.ops, per_op) if op.kind == kind and label in (None, op.label) for t in ts]

    def cli_self(i):
        # Untraced main() time less the untraced-equivalent time in its
        # direct children. Each of the N spans under a unit adds the same
        # overhead, measured here as (traced - untraced unit time) / N; the
        # children's own spans carry N - kids of them. The k-th top-level
        # span is a unit of op k % n_ops.
        units = s["units"][i::n_ops]
        untraced_ns = statistics.median(per_op[i])
        _, _, kids, n = units[0]
        per_span = max(0.0, (statistics.median(u[0] for u in units) - untraced_ns) / n) if n else 0.0
        return untraced_ns - statistics.median(u[1] for u in units) + per_span * (n - kids)

    cuts = sum(len(spans(n)) for n in CUTS)
    evals = len(spans("w0")) + len(spans("wm1"))
    cli_ops = [(op, outputs[i]) for i, op in enumerate(wl.ops) if op.kind == "main"]
    m = {
        "lambertw.w0_us_p50": median_us(spans("w0")),
        "lambertw.wm1_us_p50": median_us(spans("wm1")),
        "lambertw.branch_diff_us_p50": median_us(spans("branch_difference_from_log_ratio", "self")),
        "lambertw.evals_per_cut": evals / cuts if cuts else 0.0,
        "lambertw.time_share": s["lambert_ns"] / s["unit_ns"],
    }
    for r in REGIMES:
        m[f"bandwidth.fwym_us_p50.{r}"] = median_us(timed("fwym", r))
    m["bandwidth.fwym_self_us_p50"] = median_us(spans("fwym", "self") + spans("fwhm", "self"))
    m["bandwidth.octave_us_p50"] = median_us(timed("octave_bandwidth"))
    m["bandwidth.inverse_pdf_us_p50"] = median_us(timed("inverse_pdf"))
    m["bandwidth.gamma_pdf_us_p50"] = median_us(spans("gamma_pdf"))
    rows = traced.items if wl.name == "cli-compare" else 0
    m["bandwidth.fwhm_calls_per_row"] = len(spans("fwhm")) / rows if rows else 0.0
    m["bandwidth.width_err_max"] = max(v.width_err for v in verdicts.values())
    m["bandwidth.crossing_err_hw_max"] = max(v.cross_err_hw for v in verdicts.values())
    m["gamma2.quantile_us_p50"] = median_us(timed("quantile_a2"))
    m["oracle.crossings_us_p50"] = median_us(spans("oracle_crossings"))
    m["oracle.time_share"] = s["oracle_ns"] / s["unit_ns"]
    m["cli.self_us_p50"] = median_us([cli_self(i) for i, op in enumerate(wl.ops) if op.kind == "main"])
    cli_items = sum(op.items for op, _ in cli_ops)
    out_bytes = sum(len(out[1]) for _, out in cli_ops)
    m["cli.out_bytes_per_item"] = out_bytes / cli_items if cli_items else 0.0
    m["cli.alloc_peak_mb"] = statistics.median(peaks) if peaks else 0.0
    m["trace.overhead_ratio"] = traced.items_per_s / untraced.items_per_s
    return m


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gammabw" / "__init__.py").is_file():
        print(f"error: gammabw sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, fingerprint

    wall = {"start": time.monotonic()}
    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    ref_path = OUT / f"ref-{args.workload}-{os.getpid()}.json"
    compute_references(wl.requests, ref_path)
    wall["references"] = time.monotonic()

    metrics: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(wl.import_name)
    wall["setup"] = time.monotonic()

    capture = [op.invoke()[2] for op in wl.ops]
    base = [fingerprint(out) for out in capture]
    del capture
    mismatches: dict[int, int] = {}
    gc.collect()
    if args.trace:
        from tracing import Tracer

        per_op = [array("q") for _ in wl.ops]
        untraced = run_rounds(wl, base, mismatches, args.seconds / 2, per_op=per_op)
        tracer = Tracer()
        with tracer.installed():
            traced = run_rounds(wl, base, mismatches, args.seconds / 2, tracer=tracer)
        peaks = alloc_peaks_mb([op for op in wl.ops if op.kind == "main"])
        phases = [untraced, traced]
    else:
        op_ns = [0] * len(wl.ops)
        timed = run_rounds(wl, base, mismatches, args.seconds, op_ns=op_ns)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Mean times scaled to the reference machine speed: the machine's
        # speed drifts by tens of percent over milliseconds to minutes, and
        # the calibration loop, run all through the same stretch, slows with it.
        slowdown = timed.slowdown
        unit_ns = [t / timed.rounds / slowdown for t in op_ns]
        metrics["items_per_s"] = timed.items_per_s * slowdown
        metrics["call_us_p50"] = quantile(unit_ns, 0.5) / 1e3
        metrics["call_us_p90"] = quantile(unit_ns, 0.9) / 1e3
        metrics["peak_rss_mb"] = peak_rss_mb
        unscaled["calibration_us_mean"] = timed.cal_ns / timed.cal_runs / 1e3
        unscaled["calibration_runs"] = timed.cal_runs
        unscaled["items_per_s"] = timed.items_per_s
        phases = [timed]

    wall["timed"] = time.monotonic()
    outputs = [op.invoke()[2] for op in wl.ops]
    for i, out in enumerate(outputs):
        if fingerprint(out) != base[i]:
            mismatches[i] = mismatches.get(i, 0) + 1
    refs = json.loads(ref_path.read_text(encoding="utf-8"))
    ref_path.unlink()
    verdicts = check_outputs(wl, outputs, refs)
    wall["checks"] = time.monotonic()

    rounds = 2 + sum(p.rounds for p in phases)  # capture and verification rounds too
    failing = [i for i, v in verdicts.items() if not v.ok]
    unexpected = [i for i in failing if wl.ops[i].fault is None]
    faults: dict[str, int] = {}
    for i in failing:
        key = wl.ops[i].fault or "unexpected"
        faults[key] = faults.get(key, 0) + 1
    correct = not unexpected and not mismatches
    attempted = rounds * len(wl.ops)
    failed = rounds * len(failing) + sum(n for i, n in mismatches.items() if i not in failing)

    if args.trace:
        metrics.update(layer_metrics(wl, outputs, verdicts, untraced, traced, tracer, per_op, peaks))
        tracer.write(OUT / f"trace-{args.workload}.tsv")
    wall["end"] = time.monotonic()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_round": len(wl.ops),
        "rounds": rounds,
        "wall_s": {k: round(wall[k] - wall["start"], 2) for k in wall},
        "failing_ops_per_round": faults,
        "mismatched_ops": {str(i): n for i, n in mismatches.items()},
        "unscaled": unscaled,
        "problems": {f"{i} {wl.ops[i].kind} {wl.ops[i].params}": verdicts[i].problems[:3] for i in failing},
        "result": result,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8"
    )
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds of {len(wl.ops)} ops, "
        f"failing per round {faults or 'none'}, correct={correct}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
