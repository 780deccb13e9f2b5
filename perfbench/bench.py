"""One workload in one process: set-up, then a timed run or a traced run.

Started by run.py, which sets the environment (bytecode cache, thread
pins, PYTHONPATH) and prints the result.  Prints one JSON object on
stdout.

  bench.py --prime                          compile and import everything once
  bench.py --workload W --seed S --setup-only
  bench.py --workload W --seed S --seconds T [--trace]
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOLS = BENCH_DIR / "pools.json"
OUT_DIR = BENCH_DIR / "out"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_op(workload, op, tracer=None, op_id=None):
    """Time one op, then check its output; an op that raises counts as failed.

    With a tracer, the op's root span covers the op alone, not its check.
    """
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        output = workload.run(op)
    except Exception as exc:  # the benchmark counts the failure and goes on
        return time.perf_counter() - start, [f"{op.command} {op.n}: raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = time.perf_counter() - start
    return elapsed, workload.check(op, output)


# Machine-speed probe, timed between ops: sort a fixed shuffled list, then
# an interpreted loop, like the two kinds of work the ops do.
PROBE_DATA = random.Random(0).sample(range(20_000), 20_000)
PROBE_EVERY_S = 0.25
SETUP_PROBES = 5  # probes right after set-up, to scale setup_s
# mean probe time on the reference machine (2-vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11.7); timings are reported at this machine speed
REFERENCE_PROBE_S = 0.006


def probe() -> float:
    start = time.perf_counter()
    sorted(PROBE_DATA)
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


def timed_run(workload, seconds: float) -> dict:
    """Run whole chunks while the next one is expected to end within `seconds`.

    On a shared host, neighbours slow every op by a share that drifts by a
    quarter or more from minute to minute.  A fixed probe timed between ops
    (every PROBE_EVERY_S) tracks that drift, so latencies are divided, and
    ops_per_s multiplied, by the run's mean probe time over
    REFERENCE_PROBE_S.  The probe is benchmark code, so a change to z4lcd
    moves the ops and not the probe.  The figures as measured are kept
    beside the scaled ones.
    """
    latencies, failures, probes = [], [], [probe()]
    start = last_probe = time.perf_counter()
    longest = 0.0
    for chunk in workload.chunks():
        began = time.perf_counter()
        for op in chunk:
            elapsed, problems = run_op(workload, op)
            latencies.append(elapsed)
            failures += problems[:1]
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds:
            break
    slowdown = statistics.mean(probes) / REFERENCE_PROBE_S
    result = summarize([t / slowdown for t in latencies], failures)
    measured = summarize(latencies, [])
    result.update(
        slowdown=slowdown,
        probes=len(probes),
        timed_s=sum(latencies),
        **{f"measured_{key}": measured[key] for key in ("ops_per_s", "op_p50_ms", "op_p90_ms")},
    )
    return result


def summarize(latencies: list[float], failures: list[str]) -> dict:
    p90 = percentile(latencies, 90)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "p90_tail_samples": sum(1 for x in latencies if x > p90),
    }


def traced_run(workload, seed: int) -> dict:
    """Run the trace ops untraced, traced, and untraced again.

    The tracing overhead compares the traced pass with the mean of the two
    untraced passes, so that warming up in the first pass does not show as
    a negative overhead.
    """
    from tracer import OP, Tracer

    ops = workload.trace_ops()
    workload.reset()
    plain = [run_op(workload, op) for op in ops]
    workload.reset()
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(workload, op, tracer, op_id) for op_id, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    workload.reset()
    again = [run_op(workload, op) for op in ops]

    failures = [p for _, problems in plain + traced + again for p in problems[:1]]
    plain_s = [(a + b) / 2 for (a, _), (b, _) in zip(plain, again)]
    traced_s = [t for t, _ in traced]
    layers = tracer.layer_totals()
    metrics = layer_metrics(layers, tracer)
    metrics["trace.overhead_ops_per_s"] = (
        len(ops) / sum(traced_s) - len(ops) / sum(plain_s), "ops/s")
    metrics["bench.op.self_s"] = (layers.get(OP, {}).get("self_s", 0.0), "s")

    coverage = tracer.op_self_sums()
    rows = []
    for op_id, op in enumerate(ops):
        row = workload.describe(op)
        self_sum, root = coverage.get(op_id, (0.0, 0.0))
        row.update(
            latency_ms=plain_s[op_id] * 1e3,
            traced_ms=traced_s[op_id] * 1e3,
            self_sum_ms=self_sum * 1e3,
            root_ms=root * 1e3,
        )
        rows.append(row)
    path = write_trace(workload.name, seed, tracer, layers, metrics, rows)
    return {
        "attempted": len(plain) + len(traced) + len(again),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "trace_file": os.path.relpath(path, BENCH_DIR.parent),
    }


# Per-layer metrics reported by a traced run: (span name, field)
LAYER_METRICS = (
    ("cli.main", "self_s"),
    ("z4poly.mul", "calls"), ("z4poly.mul", "self_s"),
    ("z4poly.divmod_monic", "calls"), ("z4poly.divmod_monic", "self_s"),
    ("z4poly.reciprocal", "calls"), ("z4poly.reciprocal", "self_s"),
    ("cyclotomic.factor_mod2", "self_s"),
    ("cyclotomic.graeffe_lift", "calls"), ("cyclotomic.graeffe_lift", "self_s"),
    ("cyclotomic.cyclotomic_cosets", "self_s"),
    ("cyclotomic.build_factor_table", "calls"), ("cyclotomic.build_factor_table", "self_s"),
    ("cyclotomic.classify_pair", "calls"), ("cyclotomic.classify_pair", "self_s"),
    ("cyclotomic.mult_order_of_2", "self_s"),
    ("codes.CodeSpec.of", "calls"), ("codes.CodeSpec.of", "self_s"),
    ("codes.hull_report", "calls"), ("codes.hull_report", "self_s"),
    ("codes.factor_divisor", "calls"), ("codes.factor_divisor", "self_s"),
    ("codes.divisor_poly", "calls"), ("codes.divisor_poly", "self_s"),
    ("lcdenum.enumerate_lcd", "self_s"),
    ("lcdenum.count_nsrf", "self_s"),
    ("oracle.expand_code", "calls"), ("oracle.expand_code", "self_s"),
    ("oracle.dual_bruteforce", "calls"), ("oracle.dual_bruteforce", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s"}


def layer_metrics(layers: dict, tracer) -> dict[str, tuple[float, str]]:
    metrics = {}
    for name, key in LAYER_METRICS:
        metrics[f"{name}.{key}"] = (layers.get(name, {}).get(key, 0), UNITS[key])
    entries = tracer.entries
    enumerate_s = layers.get("lcdenum.enumerate_lcd", {}).get("total_s", 0.0)
    metrics["lcdenum.entries"] = (entries, "count")
    # whole enumerate_lcd time (products included) per entry; base: lcdenum.entries
    metrics["lcdenum.us_per_entry"] = (enumerate_s * 1e6 / entries if entries else 0.0, "us")
    metrics["lcdenum.partitions"] = (tracer.partitions, "count")
    metrics["oracle.ambient_vectors"] = (tracer.ambient_vectors, "count")
    return metrics


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def write_trace(name, seed, tracer, layers, metrics, rows) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json.gz"
    payload = {
        "workload": name,
        "seed": seed,
        "machine": machine_info(),
        "notes": {
            "oracle.ambient_vectors": "computed: 4^N summed over dual_bruteforce calls, not counted by the program",
            "lcdenum.us_per_entry": "enumerate_lcd total time per catalog entry; base lcdenum.entries",
            "trace.overhead_ops_per_s": "traced minus untraced ops_per_s over the same ops; untraced is the mean of a pass before and a pass after",
            "bench.op.self_s": "time inside ops outside every traced call",
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": layers,
        "ops": rows,
        "span_columns": ["name", "start_ns", "end_ns", "parent", "op"],
        "spans": tracer.spans,
    }
    with gzip.open(path, "wt") as handle:
        json.dump(payload, handle)
    return path


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # imported here so that set-up time covers importing z4lcd
    import workloads

    if args.prime:
        import tracer  # noqa: F401
        import z4lcd.oracle  # noqa: F401
        return 0
    pools = json.loads(POOLS.read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, pools)
    workload.warm_up()
    setup_s = time.perf_counter() - started
    if args.trace:
        print(json.dumps(traced_run(workload, args.seed)))
        return 0
    # set-up time at the reference machine speed, like the op timings
    slowdown = statistics.mean(probe() for _ in range(SETUP_PROBES)) / REFERENCE_PROBE_S
    setup = {"setup_s": setup_s / slowdown, "measured_setup_s": setup_s}
    if args.setup_only:
        result = setup
    else:
        result = timed_run(workload, args.seconds)
        result.update(setup)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
