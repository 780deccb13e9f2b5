"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  All arithmetic is exact, so every equality is tolerance-zero; the
runtime criteria are asserted with wall-clock measurements.
"""

import functools
import json
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import z4lcd
from z4lcd.codes import code_size, divisor_poly, hull_report, reciprocal_set
from z4lcd.cyclotomic import (
    GOOD,
    PAIR_FIRST,
    PAIR_SECOND,
    SELF_RECIPROCAL,
    build_factor_table,
    classify_pair,
    cyclotomic_cosets,
    factor_mod2,
)
from z4lcd.lcdenum import all_partitions, count_nsrf, enumerate_lcd, lcd_census
from z4lcd.oracle import dual_bruteforce, expand_code, sweep_verify
from z4lcd.z4poly import Z4Poly

from schoolbook import f2_coeffs, f2_is_irreducible_by_trial_division, z4_add

SRC = str(Path(z4lcd.__file__).resolve().parent.parent)
SWEEP_LENGTHS = (1, 3, 5, 7, 9)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "z4lcd", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return result, time.perf_counter() - started


def criterion(number, description):
    """Print the PASS/FAIL line for the criterion after the test body ran."""

    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def oracle_sweeps():
    """Brute-force sweeps for criteria 3 and 4, with their total runtime."""
    started = time.perf_counter()
    reports = {n: sweep_verify(n) for n in SWEEP_LENGTHS}
    return reports, time.perf_counter() - started


@criterion(1, "golden factorization of X^7-1 via `factor 7`")
def test_criterion_1_golden_factorization():
    result, elapsed = run_cli("factor", "7")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "X^7-1 = (X-1)(X^3+2X^2+X-1)(X^3-X^2+2X-1)"
    assert [line.split()[0] for line in lines[1:]] == ["g[1,1]", "f[1,7]", "f*[1,7]"]
    json_result, json_elapsed = run_cli("factor", "7", "--json")
    records = json.loads(json_result.stdout)["records"]
    assert [(r["id"], r["kind"], r["poly"]) for r in records] == [
        (0, "selfReciprocal", "3,1"),
        (1, "pairFirst", "3,1,2,1"),
        (2, "pairSecond", "3,2,3,1"),
    ]
    assert [(r["i"], r["n"]) for r in records] == [(1, 1), (1, 7), (1, 7)]
    assert elapsed < 1.0 and json_elapsed < 1.0


@criterion(2, "golden LCD list and count for length 7")
def test_criterion_2_golden_lcd_list():
    listing, list_elapsed = run_cli("enumerate-lcd", "7", "--json")
    parsed = json.loads(listing.stdout)
    assert parsed["count"] == 4 and parsed["nsrf"] == 2
    assert [e["label"] for e in parsed["entries"]] == [
        "(1)",
        "(g[1,1])",
        "(f[1,7]f*[1,7])",
        "(0)",
    ]
    assert [e["generator"] for e in parsed["entries"]] == [
        "1",
        "3,1",
        "1,1,1,1,1,1,1",
        "3,0,0,0,0,0,0,1",
    ]
    counting, count_elapsed = run_cli("count-lcd", "7", "--json")
    assert json.loads(counting.stdout) == {"N": 7, "nsrf": 2, "count": 4}
    assert list_elapsed < 1.0 and count_elapsed < 1.0


@criterion(3, "hull formula equals brute-force hull for all partitions, N in 1..9")
def test_criterion_3_hull_formula_vs_bruteforce(oracle_sweeps):
    reports, elapsed = oracle_sweeps
    total = 0
    for n in SWEEP_LENGTHS:
        report = reports[n]
        assert report.partitions == 3 ** len(build_factor_table(n).records)
        hull_mismatches = [
            m for m in report.mismatches if m.expected.startswith("hullSize")
        ]
        size_mismatches = [
            m for m in report.mismatches if m.expected.startswith("codeSize")
        ]
        assert hull_mismatches == [] and size_mismatches == []
        total += report.partitions
    assert total == 3 + 9 + 9 + 27 + 27
    assert elapsed < 60.0


@criterion(4, "LCD verdict iff trivial g and reciprocal-closed f, same sweep")
def test_criterion_4_lcd_iff_self_reciprocal(oracle_sweeps):
    reports, _ = oracle_sweeps
    for n in SWEEP_LENGTHS:
        assert not [m for m in reports[n].mismatches if m.expected.startswith("lcd")]
        # re-derive the equivalence directly, independent of the sweep plumbing
        for spec in all_partitions(build_factor_table(n)):
            structural = (
                not spec.g_set.members
                and reciprocal_set(spec.f_set).members == spec.f_set.members
            )
            assert hull_report(spec).lcd == structural
            if structural:
                assert divisor_poly(spec.f_set).is_self_reciprocal()


@criterion(5, "2^nsrf counting for odd N <= 31, swept agreement for N <= 9")
def test_criterion_5_counting_formula(oracle_sweeps):
    for n in range(1, 32, 2):
        assert len(enumerate_lcd(n).entries) == 2 ** count_nsrf(n)
    for n, expected in ((1, 2), (7, 4), (9, 8), (15, 16)):
        assert 2 ** count_nsrf(n) == expected
    reports, _ = oracle_sweeps
    for n in SWEEP_LENGTHS:
        formula, enumerated, swept = lcd_census(n)
        assert formula == enumerated == swept == reports[n].lcd_count


@criterion(6, "factorization structure of X^N-1 for all odd N <= 31")
def test_criterion_6_factorization_structure():
    build_factor_table.cache_clear()  # time table construction too
    started = time.perf_counter()
    for n in range(1, 32, 2):
        table = build_factor_table(n)
        product = functools.reduce(
            operator.mul, (r.poly for r in table.records), Z4Poly.one()
        )
        assert product == Z4Poly.x_pow_minus_one(n)
        for divisor in sorted({r.divisor for r in table.records}):
            block = [r for r in table.records if r.divisor == divisor]
            pc = classify_pair(divisor)
            if pc.kind == GOOD:
                assert len(block) == pc.gamma
                assert all(r.kind == SELF_RECIPROCAL for r in block)
            else:
                assert sum(r.kind == PAIR_FIRST for r in block) == pc.beta
                assert sum(r.kind == PAIR_SECOND for r in block) == pc.beta
        mod2 = factor_mod2(cyclotomic_cosets(n))
        for r in table.records:
            assert r.poly.is_monic
            assert r.poly.reduce_mod2() == mod2[r.index]
            assert f2_is_irreducible_by_trial_division(f2_coeffs(mod2[r.index]))
            assert table[r.partner].poly == r.poly.reciprocal()
            assert table[r.partner].partner == r.index
    assert time.perf_counter() - started < 10.0


@criterion(7, "property suites: 10^4 reciprocal laws, divmod, |C||Cd| = 4^N")
def test_criterion_7_property_suites():
    rng = random.Random(74)
    for _ in range(10_000):
        f = _random_monic_unit(rng)
        g = _random_monic_unit(rng)
        assert f.reciprocal().reciprocal() == f
        assert g.reciprocal().reciprocal() == g
        assert (f * g).reciprocal() == f.reciprocal() * g.reciprocal()
        dividend = Z4Poly([rng.randrange(4) for _ in range(rng.randrange(14))])
        quotient, remainder = dividend.divmod_monic(f)
        assert Z4Poly(z4_add((quotient * f).coeffs, remainder.coeffs)) == dividend
        assert len(remainder.coeffs) < len(f.coeffs)
    for n in (1, 3, 5, 7):
        for spec in all_partitions(build_factor_table(n)):
            code = expand_code(spec)
            dual = dual_bruteforce(code)
            assert len(code) * len(dual) == 4**n
            assert len(code) == code_size(spec)
            assert len(code.words & dual.words) == hull_report(spec).hull_size


def _random_monic_unit(rng, max_degree=12):
    degree = rng.randrange(0, max_degree + 1)
    if degree == 0:
        return Z4Poly.one()
    coeffs = [rng.choice((1, 3))] + [rng.randrange(4) for _ in range(degree - 1)] + [1]
    return Z4Poly(coeffs)
