"""z4lcd benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout:

  python3 perfbench/run.py                     every workload, a table of metrics
  python3 perfbench/run.py --workload hull --seed 3 --seconds 20 --trace 0

Each workload runs single-threaded in its own process (bench.py).  With
--trace 0 the last line of stdout is one JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
and the spans and per-op rows go to perfbench/out/.  Workloads, pools and
op mixes are in pools.json.

Set-up time is the median of SETUP_SAMPLES fresh processes, each timing
its own import of z4lcd, input generation, table builds and one warm-up
op, scaled to the reference machine speed like the op timings (see
bench.timed_run) by probes run right after it.  The bytecode cache lives
in perfbench/.pycache and is primed first, so no sample pays compilation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("factor", "hull", "lcd", "verify")
SETUP_SAMPLES = 5  # the measured process plus four set-up-only processes
CHILD_TIMEOUT_S = 170
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BENCH_DIR / ".pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def bench(args: list[str], env: dict) -> dict:
    """Run bench.py in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> tuple[dict, dict]:
    """The result line for one workload, and bench.py's full result."""
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        result = bench(common + ["--trace"], env)
        metrics = result["metrics"]
    else:
        setups = [bench(common + ["--setup-only"], env) for _ in range(SETUP_SAMPLES - 1)]
        result = bench(common + ["--seconds", str(seconds)], env)
        for key in ("setup_s", "measured_setup_s"):
            result[key] = statistics.median([s[key] for s in setups] + [result[key]])
        metrics = {key: {"value": result[key], "unit": unit} for key, unit in END_TO_END}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return line, result


def report(name: str, line: dict, detail: dict) -> None:
    print(f"== {name}: {line['attempted']} ops, {line['failed']} failed, "
          f"fail_ratio {line['failed'] / line['attempted']:.4g}")
    for problem in detail.get("failures", []):
        print(f"   failure: {problem}")
    if "p90_tail_samples" in detail:
        print(f"   {detail['p90_tail_samples']} samples beyond op_p90_ms; {detail['timed_s']:.2f} s timed")
        print(f"   machine {detail['slowdown']:.4g} x the reference speed ({detail['probes']} probes); "
              f"as measured: {detail['measured_ops_per_s']:.6g} ops/s, "
              f"p50 {detail['measured_op_p50_ms']:.6g} ms, p90 {detail['measured_op_p90_ms']:.6g} ms, "
              f"set-up {detail['measured_setup_s']:.4g} s")
    if "trace_file" in detail:
        print(f"   spans and per-op rows: {detail['trace_file']}")
    for key, metric in line["metrics"].items():
        print(f"   {key:<36} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "z4lcd" / "__init__.py").is_file():
        print(f"perfbench: no z4lcd sources under {ROOT / 'src'}; run from a z4lcd checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    bench(["--prime"], env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = None
    for name in names:
        line, detail = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(name, line, detail)
    if args.workload != "all":
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
