"""Command-line frontend.

Subcommands: factor, classify, hull, enumerate-lcd, count-lcd, verify.
Every command takes --json for machine-readable output (canonical key
order, integers only); the default is a human-readable rendering that
displays polynomials in signed form (3 printed as -1).

Exit codes: 0 on success, 1 when `verify` finds a mismatch, 2 for usage
and validation errors, and 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as `| head` does, with nothing printed on stderr; for
`factor --json` and `enumerate-lcd` that holds with stdout unbuffered too.
Every validation error is a ValueError, which `main` prints as "error:
<message>" on stderr.  `main` checks N and --config once, before any
command runs: N <= 0 prints "error: N must be a positive integer" and an
even N "error: N must be odd".  `count-lcd` refuses a count 2^nsrf with
more decimal digits than the interpreter converts to a string
(sys.get_int_max_str_digits()), before it builds the power; when that
limit is switched off (0, as PYTHONINTMAXSTRDIGITS=0 sets it), the default
of 4300 digits still applies, and the message says which limit it was.
The parser is built on the first call and serves every later call of the
process.

Polynomial arguments are comma-separated ascending coefficient strings
("3,1" is X-1, "1" is the constant 1); signed input must be attached to its
flag ("--f=-1,1"), or argparse reads it as an option.  Factor-id lists are
given with an ids: prefix ("ids:0,2"), each id once.  A JSON config file
({"max_bruteforce": M}) can set the default brute-force bound for `verify`.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import select
import sys

from . import codes, cyclotomic, lcdenum
from .z4poly import Z4Poly, format_terms

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # what a shell reports for a tool that SIGPIPE ended


class _WholeWrites:
    """Text sink over an unbuffered stdout whose cut-short writes finish or raise.

    Unbuffered (python -u, PYTHONUNBUFFERED), stdout's text layer hands each
    write to the raw file once and drops the count it returns, so a reader
    that closes the pipe mid-write would truncate the output without error;
    here the rest is written again, and the closed pipe raises
    BrokenPipeError.  A non-blocking stdout whose pipe is full (the raw
    write returns None) is waited on until it takes more.
    """

    def __init__(self, stream):
        self.raw, self.encoding, self.errors = stream.buffer, stream.encoding, stream.errors

    def write(self, text: str) -> None:
        view = memoryview(text.encode(self.encoding, self.errors))
        while view:
            written = self.raw.write(view)
            if written is None:
                select.select([], [self.raw], [])
            else:
                view = view[written:]


def _stdout():
    """sys.stdout, looked up at call time, or a _WholeWrites over it when it is unbuffered."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        return _WholeWrites(out)
    return out


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_divisor_arg(text: str, table: cyclotomic.FactorTable) -> codes.DivisorSet:
    """Resolve an --f/--g argument: ids:... list or a coefficient string."""
    text = text.strip()
    if text.startswith("ids:"):
        body = text[4:].strip()
        try:
            ids = [int(part) for part in body.split(",")] if body else []
        except ValueError as exc:
            raise ValueError(f"bad id list {text!r}") from exc
        return codes.DivisorSet.of(table, ids)
    try:
        poly = Z4Poly.from_string(text)
    except ValueError as exc:
        raise ValueError(f"bad coefficient string {text!r}") from exc
    return codes.factor_divisor(poly, table)


def cmd_factor(args) -> int:
    table = cyclotomic.build_factor_table(args.N)
    if args.json:
        cyclotomic.write_table_json(table, _stdout())
        return EXIT_OK
    product = "".join(f"({format_terms(r.poly)})" for r in table.records)
    print(f"X^{args.N}-1 = {product}")
    for r in table.records:
        label = cyclotomic.factor_label(r)
        coset = "{" + ",".join(str(s) for s in r.coset) + "}"
        print(
            f"  {label:<8} = {format_terms(r.poly):<24} "
            f"coeffs={r.poly.to_string():<16} n={r.divisor:<3} coset={coset}"
        )
    return EXIT_OK


def cmd_classify(args) -> int:
    classes = cyclotomic.pair_classes(args.N)
    block_name = {cyclotomic.GOOD: "gamma", cyclotomic.BAD: "beta"}
    if args.json:
        rows = [
            {"n": pc.divisor, "phi": pc.phi, "ord2": pc.order2, "kind": pc.kind,
             block_name[pc.kind]: pc.block}
            for pc in classes
        ]
        _emit_json({"N": args.N, "divisors": rows})
        return EXIT_OK
    for pc in classes:
        print(f"n={pc.divisor}: {pc.kind}  phi={pc.phi} ord2={pc.order2} "
              f"{block_name[pc.kind]}={pc.block}")
    return EXIT_OK


def cmd_hull(args) -> int:
    table = cyclotomic.build_factor_table(args.N)
    spec = codes.CodeSpec(_parse_divisor_arg(args.f, table), _parse_divisor_arg(args.g, table))
    report = codes.hull_report(spec)
    if args.json:
        _emit_json(codes.hull_to_wire(report))
        return EXIT_OK

    def part(ds):
        if not ds.members:
            return "1"
        return "".join(cyclotomic.factor_label(table[i]) for i in sorted(ds.members))

    print(f"f={part(spec.f_set)} g={part(spec.g_set)} h={part(spec.h_set)}")
    print(
        f"degH={report.deg_H} degG={report.deg_G} "
        f"hullSize={report.hull_size} lcd={'yes' if report.lcd else 'no'}"
    )
    return EXIT_OK


def cmd_enumerate_lcd(args) -> int:
    write = lcdenum.write_catalog_json if args.json else lcdenum.write_catalog_text
    write(lcdenum.enumerate_lcd(args.N), _stdout())
    return EXIT_OK


def cmd_count_lcd(args) -> int:
    nsrf = lcdenum.count_nsrf(args.N)
    # refused before 2^nsrf is built: at N = 2^60 - 1 it would take petabytes
    digits = math.floor(nsrf * math.log10(2)) + 1
    limit = sys.get_int_max_str_digits()
    cap = limit or sys.int_info.default_max_str_digits
    if digits > cap:
        applied = (f"the interpreter's limit of {cap}" if limit else
                   f"the default limit of {cap}, applied because the interpreter's limit is off")
        raise ValueError(f"nsrf={nsrf}: the count 2^nsrf has {digits} decimal digits, "
                         f"over {applied}")
    if args.json:
        _emit_json({"N": args.N, "nsrf": nsrf, "count": 2**nsrf})
        return EXIT_OK
    print(f"N={args.N} nsrf={nsrf} count={2 ** nsrf}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # numpy import deferred to the one command that needs it

    bound = args.max_bruteforce
    if bound is None:
        bound = args.config_bound
    if bound is None:
        bound = oracle.DEFAULT_BOUND
    report = oracle.sweep_verify(args.N, bound)
    mismatches = report["mismatches"]
    if args.json:
        _emit_json(report)
    else:
        print(f"N={args.N}: {report['partitions']} partitions, "
              f"{len(mismatches)} mismatches, {report['lcdCount']} LCD")
        for m in mismatches:
            print(f"  MISMATCH {m['spec']}: expected {m['expected']}, got {m['got']}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _config_bound(path: str | None) -> int | None:
    if not path:
        return None
    try:
        with open(path) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path!r} must be a JSON object")
    bound = config.get("max_bruteforce")
    if bound is not None and (isinstance(bound, bool) or not isinstance(bound, int)):
        raise ValueError(f"config {path!r}: max_bruteforce must be an integer")
    return bound


COMMANDS = (
    ("factor", cmd_factor, "factor X^N-1 over Z4"),
    ("classify", cmd_classify, "good/bad pairs per divisor"),
    ("hull", cmd_hull, "hull size of the code (fg, 2f)"),
    ("enumerate-lcd", cmd_enumerate_lcd, "list all LCD codes"),
    ("count-lcd", cmd_count_lcd, "count LCD codes"),
    ("verify", cmd_verify, "brute-force sweep check"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # subcommand copies default to SUPPRESS so they do not clobber the
    # global flags when the subparser merges its namespace back
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit JSON"
    )
    common.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS, help="JSON config file"
    )

    parser = argparse.ArgumentParser(
        prog="z4lcd",
        description="Cyclic codes over Z4: factorization, hulls, LCD enumeration.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("N", type=int)
        p.set_defaults(run=run)
    hull = sub.choices["hull"]
    hull.add_argument("--f", default="1", help="divisor f: coefficients or ids:...")
    hull.add_argument("--g", default="1", help="divisor g: coefficients or ids:...")
    sub.choices["verify"].add_argument(
        "--max-bruteforce", type=int, metavar="M", help="raise the brute-force length bound"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cyclotomic._require_odd(args.N)
        args.config_bound = _config_bound(args.config)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; into the closed
        # pipe that would raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
