"""Self-test of the benchmark: checks catch bad outputs, counts repeat, metrics are named.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import gzip
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from z4lcd import lcdenum  # noqa: E402

POOLS = json.loads((BENCH_DIR / "pools.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_pools() -> dict:
    """The real pools with decks cut down so that a test runs in seconds."""
    pools = copy.deepcopy(POOLS)
    pools["factor"]["wide"]["N"] = [1023]
    pools["factor"]["deep"].update(fixed=[53], draw=1)
    pools["factor"]["count_lcd"].update(ops=2, candidates=20)
    pools["hull"].update(distinct_decks=1, trace_decks=1)
    pools["lcd"]["deck"] = {"4": 1, "5": 1, "6": 1}
    pools["verify"]["deck"] = {"3": 1, "5": 1, "7": 1}
    return pools


def first_output(workload, command=None):
    op = next(op for op in workload.trace_ops() if command is None or op.command == command)
    return op, workload.canonical(op, workload.run(op))


@pytest.mark.parametrize("form", ["hull-ids", "hull-poly"])
def test_doubled_hull_size_fails(form):
    hull = workloads.Hull(7, small_pools())
    op, (f, g, wire) = first_output(hull, form)
    assert hull.full_check(op, (f, g, wire)) == []
    bad = dict(wire, hullSize=2 * wire["hullSize"])
    assert hull.full_check(op, (f, g, bad))
    # once an output is verified, a later output must equal it
    spec, report = hull.run(op)
    assert hull.check(op, (spec, report)) == []
    assert hull.check(op, (spec, replace(report, hull_size=2 * report.hull_size)))


def test_dropped_catalog_entry_fails():
    lcd = workloads.Lcd(7, small_pools())
    op, (code, text) = first_output(lcd)
    assert lcd.full_check(op, (code, text)) == []
    data = json.loads(text)
    data["entries"].pop()
    assert lcd.full_check(op, (code, json.dumps(data)))
    data["count"] -= 1
    assert lcd.full_check(op, (code, json.dumps(data)))


def test_factor_and_count_lcd_corruptions_fail():
    factor = workloads.Factor(7, small_pools())
    op, (code, text) = first_output(factor, "factor")
    assert factor.full_check(op, (code, text)) == []
    data = json.loads(text)
    first, second = data["records"][1], data["records"][2]
    first["partner"], second["partner"] = second["partner"], first["partner"]
    assert factor.full_check(op, (code, json.dumps(data)))
    op, (code, text) = first_output(factor, "count-lcd")
    assert factor.full_check(op, (code, text)) == []
    data = json.loads(text)
    data["nsrf"] += 1
    assert factor.full_check(op, (code, json.dumps(data)))
    assert factor.full_check(op, (2, text))


def test_verify_corruption_and_raising_op_fail():
    verify = workloads.Verify(7, small_pools())
    op, (code, text) = first_output(verify)
    assert verify.full_check(op, (code, text)) == []
    data = json.loads(text)
    data["lcdCount"] += 1
    assert verify.full_check(op, (code, json.dumps(data)))
    broken = workloads.cli_op("verify", 8)  # even N: the CLI refuses it
    _, problems = bench.run_op(verify, broken)
    assert problems


@pytest.mark.parametrize("name,counts", [
    ("lcd", ["z4poly.mul.calls", "lcdenum.entries"]),
    ("verify", ["lcdenum.partitions", "oracle.ambient_vectors", "z4poly.mul.calls"]),
])
def test_named_counts_repeat_for_one_seed(name, counts, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    runs = [bench.traced_run(workloads.WORKLOADS[name](11, small_pools()), 11) for _ in range(2)]
    for key in counts:
        assert runs[0]["metrics"][key]["value"] > 0, key
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
    assert runs[0]["failed"] == 0


def test_traced_run_emits_every_per_layer_metric_and_self_times_add_up(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    result = bench.traced_run(workloads.Factor(3, small_pools()), 3)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    trace = json.loads(gzip.open(tmp_path / "trace-factor-seed3.json.gz", "rt").read())
    for row in trace["ops"]:
        assert row["self_sum_ms"] == pytest.approx(row["root_ms"], rel=1e-9)
        assert row["root_ms"] <= row["traced_ms"]
        assert {"command", "N", "m", "r", "nsrf", "latency_ms"} <= set(row)
    assert {"python", "numpy", "nproc", "cpu"} <= set(trace["machine"])


def test_timed_run_emits_every_end_to_end_metric():
    result = bench.timed_run(workloads.Hull(5, small_pools()), 0.2)
    result.update(setup_s=0.1, peak_rss_mb=1.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert all(result[key] > 0 for key, _ in run.END_TO_END)
    assert result["failed"] == 0 and result["attempted"] >= 20


def test_timed_run_reports_latencies_at_the_reference_speed(monkeypatch):
    latencies = iter([0.3, 0.1, 0.2, 0.4])
    monkeypatch.setattr(bench, "run_op", lambda workload, op: (next(latencies), []))
    monkeypatch.setattr(bench, "probe", lambda: 2 * bench.REFERENCE_PROBE_S)

    class Deck:
        def chunks(self):
            op = workloads.Op("q", 1)
            yield from ([op, op], [op, op])

    result = bench.timed_run(Deck(), 60)
    # the probe ran twice as slow as on the reference machine
    assert result["slowdown"] == 2.0 and result["attempted"] == 4
    assert result["measured_op_p50_ms"] == pytest.approx(250.0)
    assert result["op_p50_ms"] == pytest.approx(125.0)
    assert result["op_p90_ms"] == pytest.approx(200.0)
    assert result["ops_per_s"] == pytest.approx(2 * 4 / 1.0)


def test_factor_passes_stay_cold():
    factor = workloads.Factor(3, small_pools())
    chunks = factor.chunks()
    factor.run(next(op for op in next(chunks) if op.command == "factor"))
    assert factor.cold_cache.cache_info().currsize > 0
    next(chunks)
    assert factor.cold_cache.cache_info().currsize == 0


def test_own_orbit_count_matches_the_program_below_400():
    for n in range(1, 400, 2):
        m, r, nsrf = reference.orbit_counts(n)
        assert nsrf == lcdenum.count_nsrf(n), n
        assert m == reference.order_of_2(n), n


def test_kronecker_product_matches_schoolbook():
    a, b = [3, 1, 2, 1], [1, 3, 0, 2, 1]
    school = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            school[i + j] = (school[i + j] + x * y) % 4
    assert reference.poly_mul(a, b) == school
