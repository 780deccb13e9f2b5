"""The four workloads: how each makes its ops from the seed, runs and checks them.

Every workload yields its ops in chunks; the measuring loop stops only
between chunks, so a deck always runs whole and each run sees
the deck's exact op mix (a `factor` chunk is a whole pass over its ops).
`run` is the only timed call.  `check` runs outside the timed section and
returns a list of problems, empty when the output is correct.  Queries
repeat (decks cycle, factor passes run again, cold), so each distinct
query is checked in full once and later outputs must equal that verified
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import count

import reference
from z4lcd import cli, codes, cyclotomic, z4poly


@dataclass(frozen=True)
class Op:
    command: str
    n: int
    argv: tuple = ()
    f: tuple = ()  # hull ops: the intended factor-id sets and their polynomials
    g: tuple = ()
    f_poly: object = None
    g_poly: object = None
    key: tuple = field(default=(), compare=False)


def cli_op(command: str, n: int) -> Op:
    argv = (command, str(n), "--json")
    return Op(command, n, argv=argv, key=argv)


class Workload:
    name = ""

    def __init__(self, seed: int, pools: dict):
        self.rng = random.Random(seed)
        self.pools = pools[self.name]
        self._orbits: dict[int, tuple[int, int, int]] = {}
        self._verified: dict[tuple, bytes] = {}

    def chunks(self):
        """Ops in the order they run, in chunks that run whole."""
        raise NotImplementedError

    def trace_ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state the first measured op saw (called between passes)."""

    def run(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv))
        return code, buf.getvalue()

    def canonical(self, op: Op, output):
        return output

    def check(self, op: Op, output) -> list[str]:
        value = self.canonical(op, output)
        # a digest, so that memory does not grow with the outputs kept
        digest = hashlib.blake2b(repr(value).encode(), digest_size=16).digest()
        if op.key in self._verified:
            if digest == self._verified[op.key]:
                return []
            return [f"{op.command} {op.n}: output differs from the verified output"]
        problems = self.full_check(op, value)
        if not problems:
            self._verified[op.key] = digest
        return problems

    def full_check(self, op: Op, value) -> list[str]:
        raise NotImplementedError

    def orbits(self, n: int) -> tuple[int, int, int]:
        """(m, r, nsrf) of N from the benchmark's own orbit count."""
        if n not in self._orbits:
            self._orbits[n] = reference.orbit_counts(n)
        return self._orbits[n]

    def describe(self, op: Op) -> dict:
        m, r, nsrf = self.orbits(op.n)
        return {"command": op.command, "N": op.n, "m": m, "r": r, "nsrf": nsrf}

    def _cli_json(self, op: Op, value) -> tuple[dict | None, list[str]]:
        code, text = value
        if code != 0:
            return None, [f"{op.command} {op.n}: exit code {code}"]
        try:
            return json.loads(text), []
        except json.JSONDecodeError as exc:
            return None, [f"{op.command} {op.n}: bad JSON ({exc})"]


def stratified_draw(rng: random.Random, ranked: list[int], bins: int) -> list[int]:
    """One seeded pick from each of `bins` equal slices of a cost-ranked list.

    Every seed then draws the same spread of costs, which keeps the
    run-to-run spread of the metrics down.
    """
    edges = [len(ranked) * k // bins for k in range(bins + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _deck_chunks(make_deck, rng):
    """Endless stream of decks, each shuffled by the workload's generator."""
    for index in count():
        deck = list(make_deck(index))
        rng.shuffle(deck)
        yield deck


class Factor(Workload):
    name = "factor"

    def __init__(self, seed: int, pools: dict):
        super().__init__(seed, pools)
        wide = self.pools["wide"]["N"]
        deep = self.pools["deep"]
        deep_n = deep["fixed"] + stratified_draw(self.rng, deep["light"], deep["draw"])
        ops = [cli_op("factor", n) for n in wide + deep_n]
        ops += [cli_op("count-lcd", n) for n in self._count_lcd_draw(set(wide))]
        self.rng.shuffle(ops)
        self.ops = ops
        self.cold_cache = cyclotomic.build_factor_table  # cleared between passes

    def _count_lcd_draw(self, taken: set[int]) -> list[int]:
        cfg = self.pools["count_lcd"]
        lo, hi = math.log(cfg["low"]), math.log(cfg["high"])
        cheapest, dearest = cfg["proxy_band"]
        proxy: dict[int, int] = {}
        while len(proxy) < cfg["candidates"]:
            n = int(math.exp(self.rng.uniform(lo, hi))) | 1
            if cfg["low"] <= n < cfg["high"] and n not in taken and n not in proxy:
                cost = reference.count_lcd_cost_proxy(n)
                if cheapest <= cost < dearest:
                    proxy[n] = cost
        ranked = sorted(proxy, key=lambda n: (proxy[n], n))
        return stratified_draw(self.rng, ranked, cfg["ops"])

    def chunks(self):
        """Whole passes over the ops, the factor-table cache cleared before
        each, so that no cache serves an op."""
        while True:
            self.reset()
            yield self.ops

    def trace_ops(self) -> list[Op]:
        return list(self.ops)

    def warm_up(self) -> None:
        self.run(cli_op("factor", 21))

    def reset(self) -> None:
        self.cold_cache.cache_clear()

    def full_check(self, op: Op, value) -> list[str]:
        data, problems = self._cli_json(op, value)
        if data is None:
            return problems
        m, r, nsrf = self.orbits(op.n)
        if op.command == "count-lcd":
            expected = {"N": op.n, "nsrf": nsrf, "count": 2**nsrf}
            return [] if data == expected else [f"count-lcd {op.n}: {data} != {expected}"]
        return self._check_table(op.n, r, data)

    @staticmethod
    def _check_table(n: int, r: int, data: dict) -> list[str]:
        records = data.get("records", [])
        where = f"factor {n}"
        if data.get("N") != n:
            return [f"{where}: N={data.get('N')}"]
        if len(records) != r:
            return [f"{where}: {len(records)} records, {r} cyclotomic cosets"]
        cosets = [rec["coset"] for rec in records]
        problems = []
        if sum(map(len, cosets)) != n or not reference.is_coset_partition(cosets, n):
            problems.append(f"{where}: cosets do not partition Z/{n} into x2 orbits")
            return problems
        negated = reference.partner_map(cosets, n)
        polys = [[int(c) for c in rec["poly"].split(",")] for rec in records]
        for index, rec in enumerate(records):
            poly, partner = polys[index], rec["partner"]
            if rec["id"] != index or len(poly) - 1 != len(rec["coset"]) or poly[-1] != 1:
                problems.append(f"{where}: record {index} is not a monic factor of its coset's degree")
            elif partner != negated[index] or records[partner]["partner"] != index:
                problems.append(f"{where}: record {index} has partner {partner}")
            elif reference.reciprocal(poly) != polys[partner]:
                problems.append(f"{where}: record {index}'s partner is not its reciprocal")
        return problems


class Hull(Workload):
    name = "hull"

    def __init__(self, seed: int, pools: dict):
        super().__init__(seed, pools)
        self.tables = {n: cyclotomic.build_factor_table(n) for n in self.pools["N"]}
        self.shape = {}  # per N: (partner by negated coset, degree of each id)
        for n, table in self.tables.items():
            cosets = [list(rec.coset) for rec in table.records]
            self.shape[n] = (reference.partner_map(cosets, n), [len(c) for c in cosets])
        self.decks = [self._make_deck(d) for d in range(self.pools["distinct_decks"])]

    def _make_deck(self, deck_index: int) -> list[Op]:
        deck = []
        for part in self.pools["deck"]:
            for k in range(part["ops"]):
                deck.append(self._query(part["form"], part["N"], (deck_index, part["form"], part["N"], k)))
        return deck

    def _query(self, form: str, n: int, key: tuple) -> Op:
        table = self.tables[n]
        assignment = [self.rng.randrange(3) for _ in table.records]
        f = tuple(i for i, part in enumerate(assignment) if part == 0)
        g = tuple(i for i, part in enumerate(assignment) if part == 1)
        if form == "ids":
            return Op("hull-ids", n, f=f, g=g, key=key)
        coeffs = [list(rec.poly.coeffs) for rec in table.records]
        f_poly = z4poly.Z4Poly(reference.poly_product([coeffs[i] for i in f]))
        g_poly = z4poly.Z4Poly(reference.poly_product([coeffs[i] for i in g]))
        return Op("hull-poly", n, f=f, g=g, f_poly=f_poly, g_poly=g_poly, key=key)

    def chunks(self):
        return _deck_chunks(lambda i: self.decks[i % len(self.decks)], self.rng)

    def trace_ops(self) -> list[Op]:
        return [op for d in range(self.pools["trace_decks"]) for op in self.decks[d % len(self.decks)]]

    def warm_up(self) -> None:
        self.run(self._query("ids", self.pools["N"][0], ("warm-up",)))

    def run(self, op: Op):
        table = self.tables[op.n]
        if op.f_poly is None:
            f_set = codes.DivisorSet.of(table, op.f)
            g_set = codes.DivisorSet.of(table, op.g)
        else:
            f_set = codes.factor_divisor(op.f_poly, table)
            g_set = codes.factor_divisor(op.g_poly, table)
        spec = codes.CodeSpec.of(table, f_set.members, g_set.members)
        return spec, codes.hull_report(spec)

    def canonical(self, op: Op, output):
        spec, report = output
        return sorted(spec.f_set.members), sorted(spec.g_set.members), codes.hull_to_wire(report)

    def full_check(self, op: Op, value) -> list[str]:
        f_got, g_got, wire = value
        where = f"{op.command} {op.n} f={len(op.f)} g={len(op.g)}"
        if f_got != list(op.f) or g_got != list(op.g):
            return [f"{where}: f or g resolved to other factors"]
        partner, degree = self.shape[op.n]
        f, g = set(op.f), set(op.g)
        h = set(range(len(degree))) - f - g
        star = lambda ids: {partner[i] for i in ids}
        deg = lambda ids: sum(degree[i] for i in ids)
        common = h & star(f)
        rest = set(range(len(degree))) - common - f - star(h)
        size = 4 ** deg(common) * 2 ** deg(rest)
        expected = {
            "H": sorted(common), "G": sorted(rest), "degH": deg(common),
            "degG": deg(rest), "hullSize": size, "lcd": size == 1,
        }
        problems = []
        if wire != expected:
            problems.append(f"{where}: hull {wire} != {expected}")
        if wire.get("lcd") != (not g and star(f) == f):
            problems.append(f"{where}: lcd verdict disagrees with the LCD criterion")
        table = self.tables[op.n]
        spec = codes.CodeSpec.of(table, f, g)
        dual = codes.CodeSpec.of(table, star(h), star(g))
        if codes.hull_report(dual).hull_size != wire.get("hullSize"):
            problems.append(f"{where}: the dual code has another hull size")
        if codes.code_size(spec) * codes.code_size(dual) != 4**op.n:
            problems.append(f"{where}: |C| |C-perp| != 4^N")
        if op.f_poly is not None:
            for ids, poly in ((f, op.f_poly), (g, op.g_poly)):
                if codes.divisor_poly(codes.DivisorSet.of(table, ids)) != poly:
                    problems.append(f"{where}: divisor_poly disagrees with the reference product")
        return problems


class Lcd(Workload):
    name = "lcd"

    def __init__(self, seed: int, pools: dict):
        super().__init__(seed, pools)
        levels = {k: v for k, v in self.pools["levels"].items() if k != "about"}
        self.tables = {n: cyclotomic.build_factor_table(n) for ns in levels.values() for n in ns}
        self.cycles = {}
        for level, ns in levels.items():
            order = list(ns)
            self.rng.shuffle(order)
            self.cycles[level] = order

    def _deck(self, index: int) -> list[Op]:
        deck = []
        for level, take in self.pools["deck"].items():
            order = self.cycles[level]
            for k in range(take):
                deck.append(cli_op("enumerate-lcd", order[(index * take + k) % len(order)]))
        return deck

    def chunks(self):
        return _deck_chunks(self._deck, self.rng)

    def trace_ops(self) -> list[Op]:
        return [op for d in range(self.pools["trace_decks"]) for op in self._deck(d)]

    def warm_up(self) -> None:
        self.run(cli_op("enumerate-lcd", 7))

    def full_check(self, op: Op, value) -> list[str]:
        data, problems = self._cli_json(op, value)
        if data is None:
            return problems
        where = f"enumerate-lcd {op.n}"
        _, _, nsrf = self.orbits(op.n)
        entries = data.get("entries", [])
        if (data.get("N"), data.get("nsrf"), data.get("count"), len(entries)) != (op.n, nsrf, 2**nsrf, 2**nsrf):
            return [f"{where}: N, nsrf, count or entry total is wrong (own nsrf={nsrf})"]
        cosets = [list(rec.coset) for rec in self.tables[op.n].records]
        partner = reference.partner_map(cosets, op.n)
        seen = set()
        for entry in entries:
            ids = frozenset(entry["f"])
            degree = sum(len(cosets[i]) for i in ids)
            if {partner[i] for i in ids} != ids:
                problems.append(f"{where}: f={sorted(ids)} is not reciprocal-closed")
            if len(entry["generator"].split(",")) != degree + 1:
                problems.append(f"{where}: generator of f={sorted(ids)} has the wrong degree")
            seen.add(ids)
        if len(seen) != len(entries):
            problems.append(f"{where}: repeated entries")
        return problems


class Verify(Workload):
    name = "verify"

    def __init__(self, seed: int, pools: dict):
        super().__init__(seed, pools)
        self.deck = [cli_op("verify", int(n)) for n, k in self.pools["deck"].items() for _ in range(k)]
        for n in self.pools["deck"]:
            cyclotomic.build_factor_table(int(n))

    def chunks(self):
        return _deck_chunks(lambda i: self.deck, self.rng)

    def trace_ops(self) -> list[Op]:
        return list(self.deck) * self.pools["trace_decks"]

    def warm_up(self) -> None:
        self.run(cli_op("verify", 3))  # also pays the deferred numpy import

    def full_check(self, op: Op, value) -> list[str]:
        data, problems = self._cli_json(op, value)
        if data is None:
            return problems
        _, r, nsrf = self.orbits(op.n)
        expected = {"N": op.n, "partitions": 3**r, "mismatches": [], "lcdCount": 2**nsrf}
        return [] if data == expected else [f"verify {op.n}: {data} != {expected}"]


WORKLOADS = {cls.name: cls for cls in (Factor, Hull, Lcd, Verify)}
