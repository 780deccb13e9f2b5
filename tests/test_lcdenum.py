import io
import json

import pytest

from z4lcd import cli, cyclotomic, lcdenum
from z4lcd.codes import DivisorSet, divisor_poly, hull_report, reciprocal_set
from z4lcd.cyclotomic import PAIR_FIRST, build_factor_table
from z4lcd.lcdenum import (
    DEFAULT_SWEEP_BUDGET,
    LcdCensus,
    LcdEntry,
    all_partitions,
    catalog_rows,
    count_nsrf,
    enumerate_lcd,
    lcd_census,
    write_catalog_json,
)
from z4lcd.z4poly import Z4Poly

from schoolbook import z4_mul

ODD_LENGTHS = list(range(1, 32, 2))


class TestCountNsrf:
    @pytest.mark.parametrize("n,expected", [(7, 2), (1, 1), (15, 4)])
    def test_known_counts(self, n, expected):
        assert count_nsrf(n) == expected

    def test_matches_atom_count(self):
        # atoms of the factor table: records minus one per reciprocal pair
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            pairs = sum(r.kind == PAIR_FIRST for r in table.records)
            assert count_nsrf(n) == len(table.records) - pairs

    def test_matches_orbit_count(self):
        # atoms are the orbits of <s -> 2s, s -> -s> on Z/N: a coset and its
        # negation make one atom; no factor table and no pair classes here
        for n in range(1, 400, 2):
            seen = [False] * n
            orbits = 0
            for start in range(n):
                if seen[start]:
                    continue
                orbits += 1
                stack = [start]
                seen[start] = True
                while stack:
                    s = stack.pop()
                    for t in (2 * s % n, -s % n):
                        if not seen[t]:
                            seen[t] = True
                            stack.append(t)
            assert count_nsrf(n) == orbits

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []
        factorize = cyclotomic._factorize

        def counting(k):
            calls.append(k)
            return factorize(k)

        monkeypatch.setattr(cyclotomic, "_factorize", counting)
        return calls

    def test_factors_a_prime_length_once(self, monkeypatch):
        n = 10**12 + 39
        calls = self.count_factorizations(monkeypatch)
        assert count_nsrf(n) == 2
        assert calls.count(n) == 1

    @pytest.mark.parametrize("n,primes", [(45045, [3, 5, 7, 11, 13]), (3**7 * 5**2 * 7, [3, 5, 7])])
    def test_factors_n_once_and_each_p_minus_one_once(self, n, primes, monkeypatch):
        # no divisor of N is factored on its own: N once, then p - 1 for
        # each prime p | N
        calls = self.count_factorizations(monkeypatch)
        count_nsrf(n)
        assert sorted(calls) == sorted([n] + [p - 1 for p in primes])

    def test_rejects_even(self):
        # the same messages as build_factor_table and classify_pair
        for n, message in [(0, "N must be a positive integer"),
                           (-3, "N must be a positive integer"),
                           (4, "N must be odd")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                count_nsrf(n)


class TestEnumerate:
    def test_seven_golden_list(self):
        catalog = enumerate_lcd(7)
        assert catalog.nsrf == 2
        assert [label for _, _, label in catalog_rows(catalog)] == [
            "(1)",
            "(g[1,1])",
            "(f[1,7]f*[1,7])",
            "(0)",
        ]
        assert [e.generator for e in catalog.entries] == [
            Z4Poly.one(),
            Z4Poly([3, 1]),
            Z4Poly([1, 1, 1, 1, 1, 1, 1]),
            Z4Poly.x_pow_minus_one(7),
        ]

    def test_length_one(self):
        catalog = enumerate_lcd(1)
        assert [label for _, _, label in catalog_rows(catalog)] == ["(1)", "(0)"]

    def test_fifteen_size(self):
        assert len(enumerate_lcd(15).entries) == 16

    def test_counting_formula(self):
        for n in ODD_LENGTHS:
            assert len(enumerate_lcd(n).entries) == 2 ** count_nsrf(n)

    def test_every_generator_self_reciprocal(self):
        for n in ODD_LENGTHS:
            catalog = enumerate_lcd(n)
            for entry in catalog.entries:
                f_set = DivisorSet.of(catalog.table, entry.ids)
                assert entry.generator.is_self_reciprocal()
                assert reciprocal_set(f_set).members == f_set.members
                assert divisor_poly(f_set) == entry.generator

    def test_matches_exhaustive_sweep(self):
        # both directions of the LCD criterion, per length
        for n in range(1, 16, 2):
            table = build_factor_table(n)
            swept = {
                spec.f_set.members
                for spec in all_partitions(table)
                if not spec.g_set.members and hull_report(spec).lcd
            }
            enumerated = {frozenset(e.ids) for e in enumerate_lcd(n).entries}
            assert enumerated == swept

    def test_generators_are_products_of_members(self):
        # against the schoolbook product; the slot width is 1 byte up to
        # N = 27 and 2 from N = 29, and 63 and 127 have many reciprocal
        # pairs.  Products of id prefixes are kept, so each entry costs one
        # schoolbook product by a factor
        for n in [*range(1, 64, 2), 127]:
            table = build_factor_table(n)
            products = {(): [1]}

            def product(ids):
                if ids not in products:
                    products[ids] = z4_mul(product(ids[:-1]), table[ids[-1]].poly.coeffs)
                return products[ids]

            catalog = enumerate_lcd(n)
            assert catalog.width == (1 if n <= 27 else 2)
            for entry in catalog.entries:
                assert entry.generator == Z4Poly(product(entry.ids)), (n, entry.ids)

    def test_one_product_per_entry(self, monkeypatch):
        # entries are made from packed ints; Z4Poly products form the pair atoms only
        table = build_factor_table(127)
        pairs = sum(1 for r in table.records if r.kind == PAIR_FIRST)
        nsrf = count_nsrf(127)
        calls = []
        mul = Z4Poly.__mul__
        monkeypatch.setattr(Z4Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert len(enumerate_lcd(127).entries) == 2 ** nsrf
        assert len(calls) <= pairs

    def test_entries_built_once_from_rows(self):
        catalog = enumerate_lcd(63)
        assert "entries" not in vars(catalog)
        entries = catalog.entries
        assert entries is catalog.entries
        assert type(entries) is tuple and len(entries) == len(catalog.rows)
        for entry, (ids, packed) in zip(entries, catalog.rows):
            assert type(entry) is LcdEntry and type(entry.generator) is Z4Poly
            # the generator is monic, so the top slot of its packed int is its last coefficient
            slots = -(-packed.bit_length() // (8 * catalog.width))
            assert entry.ids is ids and len(entry.generator.coeffs) == slots

    def test_rendering_builds_no_entries(self, monkeypatch, capsys):
        # the text and --json forms read the packed rows, not Z4Poly entries
        catalog = enumerate_lcd(63)
        monkeypatch.setattr(lcdenum, "enumerate_lcd", lambda n: catalog)
        for argv in (["enumerate-lcd", "63"], ["enumerate-lcd", "63", "--json"]):
            assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert "entries" not in vars(catalog)

    @pytest.mark.parametrize("n", [*range(1, 130, 2), 195])
    def test_entries_sorted(self, n):
        # rows are built in catalog order, not sorted; from N = 15 on a pair's
        # partner id can lie beyond a later atom's least id (40 such at N = 195)
        rows = enumerate_lcd(n).rows
        assert all(len(row) == 2 and list(row[0]) == sorted(set(row[0])) for row in rows)
        keys = [(len(ids), ids) for ids, _ in rows]
        assert keys == sorted(set(keys))

    def test_entries_are_rows(self):
        # an entry is its sorted ids and its generator; the table is held once
        for n in (1, 7, 15, 21, 63):
            catalog = enumerate_lcd(n)
            assert catalog.table is build_factor_table(n)
            for entry in catalog.entries:
                assert type(entry) is LcdEntry
                assert type(entry.ids) is tuple
                assert all(type(i) is int for i in entry.ids)
                assert list(entry.ids) == sorted(set(entry.ids))
        assert LcdEntry._fields == ("ids", "generator")

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            enumerate_lcd(2)


class TestCensus:
    @pytest.mark.parametrize("n,count", [(7, 4), (1, 2), (9, 8)])
    def test_examples(self, n, count):
        assert lcd_census(n) == LcdCensus(count, count, count)

    def test_agreement_up_to_fifteen(self):
        for n in range(1, 16, 2):
            formula, enumerated, swept = lcd_census(n)
            assert formula == enumerated == swept

    def test_budget_marker(self):
        # 3^13 partitions at N = 63, over DEFAULT_SWEEP_BUDGET
        assert 3 ** len(build_factor_table(63)) > DEFAULT_SWEEP_BUDGET
        census = lcd_census(63)
        assert census.swept is None
        assert census.formula == census.enumerated == 2 ** count_nsrf(63)


def catalog_json(n: int) -> str:
    out = io.StringIO()
    write_catalog_json(enumerate_lcd(n), out)
    return out.getvalue()


class TestWire:
    def test_labels_do_not_build_the_id_set(self, monkeypatch):
        catalog = enumerate_lcd(63)
        calls = []
        ids = cyclotomic.FactorTable.ids
        monkeypatch.setattr(cyclotomic.FactorTable, "ids", lambda table: calls.append(1) or ids(table))
        out = io.StringIO()
        write_catalog_json(catalog, out)
        wire = json.loads(out.getvalue())
        assert [e["label"] for e in wire["entries"]].count("(0)") == 1
        assert calls == []

    def test_schema(self):
        wire = json.loads(catalog_json(7))
        assert wire["N"] == 7 and wire["nsrf"] == 2 and wire["count"] == 4
        assert wire["entries"][0] == {"f": [], "generator": "1", "label": "(1)"}
        assert wire["entries"][3] == {
            "f": [0, 1, 2],
            "generator": "3,0,0,0,0,0,0,1",
            "label": "(0)",
        }

    @pytest.mark.parametrize("n,text", [
        (1, """{
  "N": 1,
  "count": 2,
  "entries": [
    {
      "f": [],
      "generator": "1",
      "label": "(1)"
    },
    {
      "f": [
        0
      ],
      "generator": "3,1",
      "label": "(0)"
    }
  ],
  "nsrf": 1
}
"""),
        (7, """{
  "N": 7,
  "count": 4,
  "entries": [
    {
      "f": [],
      "generator": "1",
      "label": "(1)"
    },
    {
      "f": [
        0
      ],
      "generator": "3,1",
      "label": "(g[1,1])"
    },
    {
      "f": [
        1,
        2
      ],
      "generator": "1,1,1,1,1,1,1",
      "label": "(f[1,7]f*[1,7])"
    },
    {
      "f": [
        0,
        1,
        2
      ],
      "generator": "3,0,0,0,0,0,0,1",
      "label": "(0)"
    }
  ],
  "nsrf": 2
}
"""),
    ])
    def test_golden_json(self, n, text, capsys):
        assert cli.main(["enumerate-lcd", str(n), "--json"]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("n", [1, 7, 15, 63, 127])
    def test_matches_the_indented_encoder(self, n):
        text = catalog_json(n)
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_never_runs_the_pure_python_encoder(self, monkeypatch, capsys):
        # json.dumps with indent set always goes through _make_iterencode
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({"N": 1}, indent=2)
        assert cli.main(["enumerate-lcd", "63", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 256
