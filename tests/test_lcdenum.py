import io
import json

import pytest

from z4lcd import cli, cyclotomic, lcdenum
from z4lcd.codes import DivisorSet, divisor_poly, hull_report, reciprocal_set
from z4lcd.cyclotomic import PAIR_FIRST, PAIR_SECOND, build_factor_table, factor_label
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
        # against the schoolbook product; the slot width is 2 bytes at every
        # N here (N <= 27 would fit in 1, but a rendered slot holds a digit
        # and a comma), and 63 and 127 have many reciprocal pairs.  Products
        # of id prefixes are kept, so each entry costs one schoolbook
        # product by a factor
        for n in [*range(1, 64, 2), 127]:
            table = build_factor_table(n)
            products = {(): [1]}

            def product(ids):
                if ids not in products:
                    products[ids] = z4_mul(product(ids[:-1]), table[ids[-1]].poly.coeffs)
                return products[ids]

            catalog = enumerate_lcd(n)
            assert catalog.width == 2
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
        for entry, (mask, packed) in zip(entries, catalog.rows):
            assert type(entry) is LcdEntry and type(entry.generator) is Z4Poly
            # the generator is monic, so the top slot of its packed int is its last coefficient
            slots = -(-packed.bit_length() // (8 * catalog.width))
            assert entry.ids == catalog.ids(mask) and len(entry.generator.coeffs) == slots

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
        # partner id can lie beyond a later atom's least id (40 such at N = 195).
        # A row is (atom mask, packed), and its ids come through the decoder
        catalog = enumerate_lcd(n)
        assert all(len(row) == 2 and 0 <= row[0] < 1 << catalog.nsrf for row in catalog.rows)
        ids_of = [catalog.ids(mask) for mask, _ in catalog.rows]
        assert all(list(ids) == sorted(set(ids)) for ids in ids_of)
        keys = [(len(ids), ids) for ids in ids_of]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("n", [n for n in range(1, 200, 2) if count_nsrf(n) <= 14])
    def test_ids_decode_the_mask(self, n):
        # atom k is bit k of a mask, atoms in order of least id; the decoder
        # gives the sorted ids of the atoms a mask sets
        catalog = enumerate_lcd(n)
        assert list(catalog.atoms) == sorted(catalog.atoms) and len(catalog.atoms) == catalog.nsrf
        assert type(catalog.atoms) is tuple and hash(catalog) == hash(enumerate_lcd(n))
        for mask, _ in catalog.rows:
            assert catalog.ids(mask) == record_ids(catalog, mask)

    def test_atoms_are_found_once(self, monkeypatch, capsys):
        # the catalog keeps the atoms that enumerate_lcd found, and its
        # rendering reads them from there
        calls = []
        atoms = lcdenum._atoms
        monkeypatch.setattr(lcdenum, "_atoms", lambda table: calls.append(table) or atoms(table))
        assert cli.main(["enumerate-lcd", "63", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["nsrf"] == 8
        assert len(calls) == 1

    def test_text_tables_no_larger_than_the_catalog(self):
        # each table holds one value per subset of its side's atoms, and a
        # pair that straddles the cut is on both sides
        straddled = 0
        for n in range(1, 200, 2):
            if count_nsrf(n) > 14:
                continue
            catalog = enumerate_lcd(n)
            tables = lcdenum._text_tables(catalog, ["%d," % i for i in range(len(catalog.table))])
            (low_mask, low), (high_mask, high) = [
                (side, {key: [int(i) for i in text.split(",")[:-1]] for key, text in table.items()})
                for side, table in tables]
            assert len(low) <= len(catalog.rows) and len(high) <= len(catalog.rows), n
            assert low_mask | high_mask == (1 << catalog.nsrf) - 1
            straddled += bool(low_mask & high_mask)
            for key, ids in [*low.items(), *high.items()]:
                assert list(ids) == sorted(ids)
            assert all(low_ids[-1] < high_ids[0] for low_ids in low.values() if low_ids
                       for high_ids in high.values() if high_ids)
        assert straddled > 0

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


# every odd N < 64, where the slot width was 1 byte up to N = 27; 129 and
# 195 fill 2 and 16 chunks of rows; at 7283 (nsrf = 2) the slots are 3 bytes
WRITER_LENGTHS = [*range(1, 64, 2), 129, 195, 7283]


def record_ids(catalog, mask):
    """The sorted ids a mask sets, read off the records, not the catalog's atoms:
    bit k is the k-th record by id that is self-reciprocal or a pairFirst,
    taken with its partner."""
    ids, bit = set(), 1
    for record in catalog.table.records:
        if record.kind == PAIR_SECOND:
            continue  # in its pairFirst's atom
        if mask & bit:
            ids |= {record.index, record.partner}  # one id when self-reciprocal
        bit <<= 1
    return tuple(sorted(ids))


def entry_label(catalog, ids):
    if not ids:
        return "(1)"
    if len(ids) == len(catalog.table):
        return "(0)"
    return "(" + "".join(factor_label(catalog.table[i]) for i in ids) + ")"


def reference_entries(catalog):
    """(ids, generator string, label) of each entry: ids decoded bit by bit, the
    generator from the Z4Poly view."""
    return [(ids, entry.generator.to_string(), entry_label(catalog, ids))
            for (mask, _), entry in zip(catalog.rows, catalog.entries)
            for ids in [record_ids(catalog, mask)]]


def reference_json(catalog) -> str:
    wire = {
        "N": catalog.table.length,
        "nsrf": catalog.nsrf,
        "count": len(catalog.rows),
        "entries": [{"f": list(ids), "generator": generator, "label": label}
                    for ids, generator, label in reference_entries(catalog)],
    }
    return json.dumps(wire, indent=2, sort_keys=True) + "\n"


def reference_text(catalog) -> str:
    lines = [f"N={catalog.table.length} nsrf={catalog.nsrf} count={len(catalog.rows)}"]
    lines += [f"  {label:<24} generator={generator}"
              for _, generator, label in reference_entries(catalog)]
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("n", WRITER_LENGTHS)
    def test_matches_the_encoder_on_the_entries(self, n):
        # the wire form built entry by entry from the Z4Poly view
        catalog = enumerate_lcd(n)
        assert catalog.width == (3 if n == 7283 else 2)
        assert catalog_json(n) == reference_json(catalog)

    @pytest.mark.parametrize("n", WRITER_LENGTHS)
    def test_text_form_matches_an_entry_loop(self, n, capsys):
        assert cli.main(["enumerate-lcd", str(n)]) == 0
        assert capsys.readouterr().out == reference_text(enumerate_lcd(n))

    @pytest.mark.parametrize("rows", [1, 2, 3, 255, 256])
    def test_chunk_size_does_not_show(self, rows, monkeypatch):
        # 256 entries at N = 63: the first and last rows land in chunks of
        # every alignment.  At N = 1 and 7283 (2 and 4 entries) the first and
        # last chunks are one row each at 1, and one chunk is both at 255 and 256
        monkeypatch.setattr(lcdenum, "CHUNK_ROWS", rows)
        for n in (63, 1, 7283):
            catalog = enumerate_lcd(n)
            json_out, text_out = io.StringIO(), io.StringIO()
            write_catalog_json(catalog, json_out)
            lcdenum.write_catalog_text(catalog, text_out)
            assert json_out.getvalue() == reference_json(catalog), n
            assert text_out.getvalue() == reference_text(catalog), n
            assert list(catalog_rows(catalog)) == reference_entries(catalog), n

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
