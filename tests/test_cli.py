import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import z4lcd
from z4lcd import DivisorSet, cli, divisor_poly
from z4lcd.cyclotomic import build_factor_table

from test_cyclotomic import table_to_wire

SRC = str(Path(z4lcd.__file__).resolve().parent.parent)


def run_cli(*args, env=None, **kwargs):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "z4lcd", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


class TestFactor:
    def test_golden_text(self):
        result = run_cli("factor", "7")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "X^7-1 = (X-1)(X^3+2X^2+X-1)(X^3-X^2+2X-1)"
        assert "g[1,1]" in lines[1] and "coeffs=3,1 " in lines[1]
        assert "f[1,7]" in lines[2] and "coeffs=3,1,2,1" in lines[2]
        assert "f*[1,7]" in lines[3] and "coeffs=3,2,3,1" in lines[3]

    def test_length_one(self):
        result = run_cli("factor", "1")
        assert result.returncode == 0
        assert "g[1,1]" in result.stdout and "X-1" in result.stdout

    def test_even_length_rejected(self):
        result = run_cli("factor", "6")
        assert result.returncode == 2
        assert "odd" in result.stderr

    def test_json_matches_wire_and_round_trips(self):
        result = run_cli("factor", "7", "--json")
        assert result.returncode == 0
        parsed = json.loads(result.stdout)
        assert parsed == table_to_wire(build_factor_table(7))
        rendered = json.dumps(parsed, indent=2, sort_keys=True)
        assert rendered == result.stdout.strip()

    @pytest.mark.parametrize("n", [1, 3, 255, 1023, 1365, 2047, 3855, 4095, 4369, 4681, 5461, 8191])
    def test_json_matches_the_indented_encoder_at_wide_lengths(self, n, capsys):
        # the digest fixtures stop below 400; these N have 1 to 631 factors,
        # and N = 4095 has cosets of sizes 1, 2, 3, 4, 6 and 12
        assert cli.main(["factor", str(n), "--json"]) == 0
        expected = json.dumps(table_to_wire(build_factor_table(n)), indent=2, sort_keys=True)
        assert capsys.readouterr().out == expected + "\n"

    def test_json_never_runs_the_pure_python_encoder(self, monkeypatch, capsys):
        # json.dumps with indent set always goes through _make_iterencode
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({"N": 1}, indent=2)
        assert cli.main(["factor", "63", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 63

    def test_json_flag_before_subcommand(self):
        assert json.loads(run_cli("--json", "factor", "7").stdout)["N"] == 7

    def test_json_matches_digests(self, capsys):
        # sha256 of `factor N --json` stdout for every odd N < 400 whose table
        # built in under 1 s with the product-of-roots minimal polynomials and
        # for 1023, 2047, 4095, 8191; the N whose labels moved when alpha became
        # a root of the least factor of Phi_N mod 2 were re-captured then: any
        # change of alpha, of factor order or of labels shows here; run
        # in-process to stay quick
        expected = json.loads((Path(__file__).parent / "data" / "factor_digests.json").read_text())
        got = {}
        for n in expected:
            assert cli.main(["factor", n, "--json"]) == 0
            got[n] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [n for n in expected if got[n] != expected[n]] == []

    def test_json_matches_wide_digests(self, capsys):
        # sha256 of `factor N --json` stdout for the wide N of the benchmark's
        # factor workload (107 to 351 factors, m = ord_N(2) from 8 to 16),
        # captured while each coset's minimal polynomial came from its own
        # Berlekamp-Massey run and each record was rendered on its own; and
        # for 16383, 21845 and 65535 (1181 to 4115 factors, the largest
        # classes of cosets of one size), captured while each factor was
        # lifted on its own and each coset's terms were read by strided loops
        expected = json.loads((Path(__file__).parent / "data" / "factor_digests_wide.json").read_text())
        got = {}
        for n in expected:
            assert cli.main(["factor", n, "--json"]) == 0
            got[n] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [n for n in expected if got[n] != expected[n]] == []

    def test_json_matches_deep_digests(self, capsys):
        # sha256 of `factor N --json` stdout for the 42 odd N < 400 missing
        # above (m = ord_N(2) from 82 to 388) and for 841, 1019, 1123, 1531,
        # 2003, 2011 and 3001, captured while the field modulus was the least
        # irreducible of degree m: the labels do not depend on the modulus
        expected = json.loads((Path(__file__).parent / "data" / "factor_digests_deep.json").read_text())
        got = {}
        for n in expected:
            assert cli.main(["factor", n, "--json"]) == 0
            got[n] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [n for n in expected if got[n] != expected[n]] == []


class TestClassify:
    def test_text(self):
        result = run_cli("classify", "7")
        assert result.returncode == 0
        assert "n=1: good" in result.stdout
        assert "n=7: bad" in result.stdout

    def test_fifteen(self):
        out = run_cli("classify", "15").stdout
        for expected in ("n=1: good", "n=3: good", "n=5: good", "n=15: bad"):
            assert expected in out

    def test_length_one(self):
        result = run_cli("classify", "1")
        assert result.returncode == 0
        assert "n=1: good" in result.stdout

    def test_json_many_divisors(self):
        # 45045 = 3^2*5*7*11*13 has 48 divisors; the fixture is the output of
        # a literal O(N) divisor scan with power-walk pair classification
        expected = (Path(__file__).parent / "data" / "classify_45045.json").read_text()
        result = run_cli("classify", "45045", "--json")
        assert result.returncode == 0
        assert result.stdout == expected

    def test_json_4608_divisors_digest(self):
        # 2^60 - 1 = 3^2 5^2 7 11 13 31 41 61 151 331 1321; the digest was
        # taken while PairClass was still a frozen dataclass
        result = run_cli("classify", str(2**60 - 1), "--json")
        assert result.returncode == 0
        assert result.stdout.count('"n": ') == 4608
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "2031c8e4dde88eab2de4f5481d3f8076ea49dc73855af896534075a2e64c369e"
        )

    def test_json(self):
        parsed = json.loads(run_cli("classify", "7", "--json").stdout)
        assert parsed["divisors"] == [
            {"n": 1, "phi": 1, "ord2": 1, "kind": "good", "gamma": 1},
            {"n": 7, "phi": 6, "ord2": 3, "kind": "bad", "beta": 1},
        ]


class TestHull:
    def test_lcd_case(self):
        result = run_cli("hull", "7", "--f", "3,1", "--g", "1")
        assert result.returncode == 0
        assert "hullSize=1 lcd=yes" in result.stdout

    def test_pair_split_case(self):
        result = run_cli("hull", "7", "--f", "3,1,2,1", "--g", "1")
        assert "hullSize=64 lcd=no" in result.stdout

    def test_all_twos_case(self):
        result = run_cli("hull", "7", "--f", "1", "--g", "3,0,0,0,0,0,0,1")
        assert f"hullSize={2**7} lcd=no" in result.stdout

    def test_signed_input_attached_to_flag(self):
        signed = run_cli("hull", "7", "--f=-1,1", "--g", "1")
        canonical = run_cli("hull", "7", "--f", "3,1", "--g", "1")
        assert canonical.returncode == 0
        assert (signed.returncode, signed.stdout, signed.stderr) == (
            canonical.returncode, canonical.stdout, canonical.stderr,
        )

    def test_ids_input(self):
        result = run_cli("hull", "7", "--f", "ids:1,2", "--g", "ids:")
        assert result.returncode == 0
        assert "hullSize=1 lcd=yes" in result.stdout

    def test_json(self):
        parsed = json.loads(
            run_cli("hull", "7", "--f", "3,1,2,1", "--g", "1", "--json").stdout
        )
        assert parsed == {
            "degH": 3, "degG": 0, "hullSize": 64, "lcd": False, "H": [2], "G": [],
        }

    def test_polynomial_form_matches_ids_form_at_1023(self):
        table = build_factor_table(1023)
        ids = sorted(table.ids())
        rng = random.Random(1023)
        f = sorted(rng.sample(ids, len(ids) // 2))
        g = sorted(rng.sample(sorted(set(ids) - set(f)), len(ids) // 4))
        f_poly, g_poly = (divisor_poly(DivisorSet.of(table, s)).to_string() for s in (f, g))
        f_ids, g_ids = ("ids:" + ",".join(map(str, s)) for s in (f, g))
        by_poly = run_cli("hull", "1023", "--f", f_poly, "--g", g_poly, "--json")
        by_ids = run_cli("hull", "1023", "--f", f_ids, "--g", g_ids, "--json")
        assert (by_poly.returncode, by_poly.stderr) == (0, "")
        assert json.loads(by_poly.stdout)["hullSize"] > 1
        assert (by_poly.returncode, by_poly.stdout, by_poly.stderr) == (
            by_ids.returncode, by_ids.stdout, by_ids.stderr,
        )

    def test_non_divisor_rejected(self):
        result = run_cli("hull", "7", "--f", "1,1", "--g", "1")
        assert result.returncode == 2
        assert "divide" in result.stderr

    def test_overlap_rejected(self):
        result = run_cli("hull", "7", "--f", "ids:0", "--g", "ids:0,1")
        assert result.returncode == 2
        assert "overlap" in result.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--f", "ids:0,9"), "unknown factor ids: [9]"),
            (("--f", "ids:-1"), "unknown factor ids: [-1]"),
            (("--f", "ids:a"), "bad id list 'ids:a'"),
            (("--f", "3,1,"), "bad coefficient string '3,1,'"),
            (("--f", "2"), "not a monic polynomial"),
            (("--f", "0,1"), "'0,1' does not divide X^7-1"),
            (("--f", "ids:0", "--g", "ids:0"), "f and g overlap"),
            (("--f", "3,1", "--g", "3,1"), "f and g overlap"),
            (("--f", "ids:1,1"), "repeated factor ids: [1]"),
        ],
    )
    def test_rejection_messages(self, args, message):
        result = run_cli("hull", "7", *args)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {message}\n"


class TestEnumerate:
    def test_golden_text(self):
        result = run_cli("enumerate-lcd", "7")
        assert result.returncode == 0
        out = result.stdout
        for label in ("(1)", "(g[1,1])", "(f[1,7]f*[1,7])", "(0)"):
            assert label in out
        assert out.index("(1)") < out.index("(g[1,1])") < out.index("(0)")

    def test_json(self):
        parsed = json.loads(run_cli("enumerate-lcd", "7", "--json").stdout)
        assert parsed == {
            "N": 7,
            "count": 4,
            "entries": [
                {"f": [], "generator": "1", "label": "(1)"},
                {"f": [0], "generator": "3,1", "label": "(g[1,1])"},
                {"f": [1, 2], "generator": "1,1,1,1,1,1,1", "label": "(f[1,7]f*[1,7])"},
                {"f": [0, 1, 2], "generator": "3,0,0,0,0,0,0,1", "label": "(0)"},
            ],
            "nsrf": 2,
        }

    def test_matches_digests(self, capsys):
        # sha256 of `enumerate-lcd N` and `enumerate-lcd N --json` stdout,
        # captured with one fresh product per entry, for every odd N < 200 with
        # ord_N(2) <= 36, and re-captured where the canonical labels of
        # factor_mod2 moved: any change of generator, order or label shows here
        expected = json.loads((Path(__file__).parent / "data" / "enumerate_lcd_digests.json").read_text())
        got = {}
        for args in expected:
            assert cli.main(["enumerate-lcd", *args.split()]) == 0
            got[args] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert [args for args in expected if got[args] != expected[args]] == []


class TestCount:
    def test_text(self):
        result = run_cli("count-lcd", "7")
        assert result.returncode == 0
        assert "nsrf=2" in result.stdout and "count=4" in result.stdout

    def test_json(self):
        parsed = json.loads(run_cli("count-lcd", "7", "--json").stdout)
        assert parsed == {"N": 7, "nsrf": 2, "count": 4}

    def test_large_prime_length(self):
        # 100000007 is prime with ord2 = phi/2 odd: one self-reciprocal factor
        # and one reciprocal pair; an O(N) divisor scan takes minutes here
        parsed = json.loads(run_cli("count-lcd", "100000007", "--json").stdout)
        assert parsed == {"N": 100000007, "count": 4, "nsrf": 2}

    def test_prime_length_near_a_trillion(self):
        parsed = json.loads(run_cli("count-lcd", "1000000000039", "--json").stdout)
        assert parsed == {"N": 1000000000039, "count": 4, "nsrf": 2}

    def test_length_past_the_list_index(self, capsys):
        # 3^50: count-lcd and classify build no factor table, so N past
        # sys.maxsize is answered from its divisors
        assert cli.main(["count-lcd", "717897987691852588770249"]) == 0
        assert capsys.readouterr().out == "N=717897987691852588770249 nsrf=51 count=2251799813685248\n"
        assert cli.main(["classify", "717897987691852588770249", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["divisors"]) == 51

    def test_prints_a_count_under_the_digit_limit(self, capsys):
        # 2^14248 has 4290 decimal digits, under the 4300 that CPython prints by default
        assert cli.main(["count-lcd", "791845"]) == 0
        assert capsys.readouterr().out == f"N=791845 nsrf=14248 count={2**14248}\n"
        assert cli.main(["count-lcd", "791845", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed == {"N": 791845, "nsrf": 14248, "count": 2**14248}

    @pytest.mark.parametrize(
        "n, nsrf, digits",
        [(996151, 14566, 4385), (2**60 - 1, 9607679222971504, 2892199634832035)],
        ids=["996151", "2^60-1"],
    )
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_refuses_a_count_over_the_digit_limit(self, n, nsrf, digits, form):
        # refused before 2^nsrf is built, which at N = 2^60 - 1 would take
        # petabytes; the child runs with a 1 GB address space and a timeout,
        # so a build that starts fails here and does not exhaust the machine
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        started = time.perf_counter()
        result = run_cli("count-lcd", str(n), *form, timeout=10, preexec_fn=limit_memory)
        assert time.perf_counter() - started < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: nsrf={nsrf}: the count 2^nsrf has {digits} decimal digits, "
            "over the interpreter's limit of 4300\n"
        )


    def test_refuses_at_the_default_limit_when_the_interpreters_is_off(self):
        # with PYTHONINTMAXSTRDIGITS=0 the interpreter would print any
        # count; the default of 4300 digits still stops the power, and the
        # message names that default, not an interpreter limit
        result = run_cli("count-lcd", "111546435", env={"PYTHONINTMAXSTRDIGITS": "0"}, timeout=10)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "error: nsrf=32420: the count 2^nsrf has 9760 decimal digits, over the default "
            "limit of 4300, applied because the interpreter's limit is off\n"
        )


class TestVerify:
    def test_nine(self):
        result = run_cli("verify", "9")
        assert result.returncode == 0
        assert "27 partitions, 0 mismatches" in result.stdout

    def test_json(self):
        parsed = json.loads(run_cli("verify", "3", "--json").stdout)
        assert parsed == {"N": 3, "partitions": 9, "mismatches": [], "lcdCount": 4}

    def test_raised_bound_reaches_eleven(self):
        # the formula checked against the ambient scan past the default bound
        result = run_cli("verify", "11", "--max-bruteforce", "11", "--json")
        assert result.returncode == 0
        parsed = json.loads(result.stdout)
        assert parsed == {"N": 11, "partitions": 9, "mismatches": [], "lcdCount": 4}

    def test_bound_exceeded(self):
        result = run_cli("verify", "11")
        assert result.returncode == 2
        assert "bound" in result.stderr

    def test_config_sets_bound(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_bruteforce": 3}))
        blocked = run_cli("verify", "5", "--config", str(config))
        assert blocked.returncode == 2
        allowed = run_cli("verify", "3", "--config", str(config))
        assert allowed.returncode == 0

    def test_config_before_subcommand(self, tmp_path):
        # the subcommand's own --config defaults to SUPPRESS, so it must not
        # clobber the global one given before the command
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_bruteforce": 3}))
        result = run_cli("--config", str(config), "verify", "5")
        assert result.returncode == 2
        assert result.stderr == "error: length 5 exceeds brute-force bound 3\n"

    @pytest.mark.parametrize("body", ["[]", '"max_bruteforce"', "3"])
    def test_config_must_be_an_object(self, tmp_path, body):
        config = tmp_path / "config.json"
        config.write_text(body)
        result = run_cli("verify", "3", "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and str(config) in result.stderr
        assert "Traceback" not in result.stderr

    def test_config_rejects_boolean_bound(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_bruteforce": True}))
        result = run_cli("verify", "3", "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and str(config) in result.stderr
        assert "integer" in result.stderr

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_bruteforce": 3}))
        result = run_cli("verify", "5", "--config", str(config), "--max-bruteforce", "5")
        assert result.returncode == 0

    def test_every_command_checks_the_config(self, tmp_path, capsys):
        # the config is read before any command runs, with verify's errors
        missing = tmp_path / "missing.json"
        listed = tmp_path / "listed.json"
        listed.write_text("[]")
        for command, config, message in [("factor", missing, "error: cannot read config "),
                                         ("classify", listed, "error: config ")]:
            assert cli.main(["verify", "3", "--config", str(config)]) == 2
            expected = capsys.readouterr()
            assert expected.err.startswith(message) and str(config) in expected.err
            assert cli.main([command, "7", "--config", str(config)]) == 2
            assert capsys.readouterr() == ("", expected.err)


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("spectral", "7").returncode == 2

    def test_missing_length(self):
        assert run_cli("factor").returncode == 2

    @pytest.mark.parametrize("args", [("factor", "8191", "--json"), ("enumerate-lcd", "129", "--json")])
    def test_reader_closing_the_pipe(self, args):
        # as `| head -1` does: both outputs (228 KB and 632 KB) are larger
        # than a pipe's buffer, so the writer is still writing when it closes.
        # stdout is buffered, as by default: unbuffered, its text layer drops
        # the rest of a write that the closed pipe cut short, without error
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen([sys.executable, "-m", "z4lcd", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
            assert b"Traceback" not in proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    @pytest.mark.parametrize("args", [("factor", "8191", "--json"),
                                      ("enumerate-lcd", "129", "--json"), ("enumerate-lcd", "129")])
    def test_reader_closing_an_unbuffered_pipe(self, args):
        # unbuffered, stdout's text layer writes straight to the file and
        # drops the count of a write that the closed pipe cut short; the
        # output must not end truncated with exit 0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "z4lcd", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() in (b"{\n", b"N=129 nsrf=11 count=2048\n")
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
            assert b"Traceback" not in proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    @pytest.mark.parametrize("args", [("factor", "8191", "--json"), ("enumerate-lcd", "129", "--json")])
    def test_slow_reader_of_a_non_blocking_unbuffered_pipe(self, args):
        # a non-blocking stdout whose pipe is full takes nothing, and its raw
        # write returns None: the writer must wait for the reader, neither
        # dropping output nor spinning on the CPU meanwhile
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        expected = subprocess.run([sys.executable, "-m", "z4lcd", *args], env=env,
                                  capture_output=True, check=True).stdout

        def cpu_seconds(pause):
            read_end, write_end = os.pipe()
            os.set_blocking(write_end, False)
            proc = subprocess.Popen([sys.executable, "-m", "z4lcd", *args], env=env,
                                    stdout=write_end, stderr=subprocess.DEVNULL)
            os.close(write_end)
            with open(read_end, "rb") as reader:
                first = reader.read(1)
                time.sleep(pause)
                output = first + reader.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            assert output == expected
            return usage.ru_utime + usage.ru_stime

        assert cpu_seconds(1.5) < cpu_seconds(0) + 0.75


    @pytest.mark.parametrize("command", ["factor", "hull", "enumerate-lcd"])
    def test_length_past_the_list_index(self, command):
        # the factor table lists every residue mod N, so N past sys.maxsize
        # is refused as an error, not left to an OverflowError traceback
        result = run_cli(command, "99999999999999999999", timeout=30)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: N = 99999999999999999999 exceeds {sys.maxsize}, "
            "the most residues a list can index\n"
        )


class TestInProcess:
    # one parser serves every call of a process, so no call may leave a
    # flag or a config behind for the next

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_flag_does_not_persist(self, capsys):
        assert cli.main(["--json", "count-lcd", "15"]) == 0
        assert json.loads(capsys.readouterr().out) == {"N": 15, "count": 16, "nsrf": 4}
        assert cli.main(["count-lcd", "15"]) == 0
        assert capsys.readouterr().out == "N=15 nsrf=4 count=16\n"

    def test_config_does_not_persist(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_bruteforce": 3}))
        assert cli.main(["--config", str(config), "verify", "5"]) == 2
        assert capsys.readouterr().err == "error: length 5 exceeds brute-force bound 3\n"
        assert cli.main(["verify", "5"]) == 0
        assert capsys.readouterr().out == "N=5: 9 partitions, 0 mismatches, 4 LCD\n"

    @pytest.mark.parametrize(
        "command", ["factor", "classify", "hull", "enumerate-lcd", "count-lcd", "verify"]
    )
    @pytest.mark.parametrize(
        "length, message",
        [("0", "N must be a positive integer"), ("-3", "N must be a positive integer"),
         ("4", "N must be odd")],
    )
    def test_length_rejected(self, command, length, message, capsys):
        assert cli.main([command, length]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestWithoutNumpy:
    # only `verify` imports the oracle, and with it numpy; every other
    # command and the package itself must run where numpy is absent
    SCRIPT = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import z4lcd
from z4lcd import cli
for args in (["factor", "7"], ["classify", "15"], ["hull", "7", "--f=ids:1"],
             ["enumerate-lcd", "7"], ["count-lcd", "21"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0, args
try:
    import z4lcd.oracle
except ImportError:
    print("ok")
"""

    def test_commands_other_than_verify_run_without_numpy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.SCRIPT], capture_output=True, text=True, env=env
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "ok\n", "")
