"""Enumeration and counting of cyclic LCD codes of odd length over Z4.

The LCD codes are exactly the codes C = (f(x)) with f a self-reciprocal
monic divisor of X^N - 1, so each one corresponds to a subset of the
reciprocal-closed atoms of the factor table: the self-reciprocal factors
taken singly plus the reciprocal pairs taken whole.  With nsrf such atoms
there are 2^nsrf LCD codes, counted divisor-wise as

    nsrf = sum over n | N of gamma(n) if (n,2) good else beta(n).

An entry is a row: the sorted ids of the factors it takes and their
product, the generator; the catalog holds its factor table once.
catalog_rows gives each entry's ids, generator string and label, with the
factor labels made once per table.  write_catalog_json streams the --json
form entry by entry from fixed templates, byte for byte what
json.dumps(..., indent=2, sort_keys=True) gives, without the encoder that
indent forces into pure Python.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, TextIO

from . import codes, cyclotomic
from .codes import CodeSpec, DivisorSet, hull_report
from .cyclotomic import SELF_RECIPROCAL, build_factor_table, factor_label
from .z4poly import Z4Poly

DEFAULT_SWEEP_BUDGET = 200_000  # partitions; 3^11 is just under


class LcdEntry(NamedTuple):
    """One LCD code: the sorted ids of its factors and the self-reciprocal generator."""

    ids: tuple[int, ...]
    generator: Z4Poly


@dataclass(frozen=True)
class LcdCatalog:
    """All cyclic LCD codes of one odd length; N is table.length."""

    table: cyclotomic.FactorTable
    nsrf: int
    entries: tuple[LcdEntry, ...]


class LcdCensus(NamedTuple):
    """Three independent LCD counts that must agree."""

    formula: int  # 2^nsrf
    enumerated: int  # catalog size
    swept: int | None  # exhaustive partition sweep; None if over budget


def count_nsrf(length: int) -> int:
    """Number of reciprocal-closed atoms of X^N - 1.

    Per divisor n of N this is gamma(n) self-reciprocal factors for a good
    pair (n, 2) and beta(n) reciprocal pairs for a bad one.
    """
    return sum(pc.block for pc in cyclotomic.pair_classes(length))


def _atoms(table: cyclotomic.FactorTable) -> list[tuple[int, ...]]:
    """Reciprocal-closed atoms as id tuples, ordered by smallest id."""
    atoms = []
    for record in table.records:
        if record.kind == SELF_RECIPROCAL:
            atoms.append((record.index,))
        elif record.index < record.partner:
            atoms.append((record.index, record.partner))
    return atoms


def enumerate_lcd(length: int) -> LcdCatalog:
    """Catalog of every cyclic LCD code of the given odd length.

    One entry per subset of the reciprocal-closed atoms; the empty subset is
    the whole ambient code (1) and the full subset is the zero code (0).
    Each entry costs one product: starting from the empty subset, every atom
    in turn doubles the list by multiplying each entry so far by that atom's
    polynomial.  Entries are sorted by factor-set size, then by their sorted
    ids.
    """
    table = build_factor_table(length)
    atoms = _atoms(table)
    entries = [LcdEntry((), Z4Poly.one())]
    for atom in atoms:
        atom_poly = table[atom[0]].poly
        if len(atom) == 2:
            atom_poly = atom_poly * table[atom[1]].poly
        # a pair's partner can exceed a later atom's id, so sort again
        entries += [LcdEntry(tuple(sorted(ids + atom)), poly * atom_poly) for ids, poly in entries]
    entries.sort(key=lambda e: (len(e.ids), e.ids))
    return LcdCatalog(table, len(atoms), tuple(entries))


def all_partitions(table: cyclotomic.FactorTable):
    """Yield every CodeSpec (f, g, h) partition of the factor table."""
    ids = sorted(table.ids())
    for assignment in itertools.product(range(3), repeat=len(ids)):
        f = frozenset(i for i, part in zip(ids, assignment) if part == 0)
        g = frozenset(i for i, part in zip(ids, assignment) if part == 1)
        yield CodeSpec(DivisorSet(table, f), DivisorSet(table, g))


def lcd_census(length: int) -> LcdCensus:
    """Count LCD codes three ways: closed formula, catalog, partition sweep.

    The sweep applies the hull formula to all 3^r partitions and is skipped
    (swept=None) when that count exceeds DEFAULT_SWEEP_BUDGET.
    """
    formula = 2 ** count_nsrf(length)
    enumerated = len(enumerate_lcd(length).entries)
    table = build_factor_table(length)
    if 3 ** len(table.records) > DEFAULT_SWEEP_BUDGET:
        return LcdCensus(formula, enumerated, None)
    swept = sum(1 for spec in all_partitions(table) if hull_report(spec).lcd)
    return LcdCensus(formula, enumerated, swept)


def catalog_rows(catalog: LcdCatalog) -> Iterator[tuple[tuple[int, ...], str, str]]:
    """(sorted ids, generator string, label) of each entry, in catalog order.

    The label is (1) for the whole ambient code, (0) for the zero code and
    otherwise the factor labels in id order; each factor's label is made
    once per table, not once per entry.
    """
    labels = [factor_label(r) for r in catalog.table.records]
    everything = len(catalog.table)
    for ids, generator in catalog.entries:
        if not ids:
            label = "(1)"
        elif len(ids) == everything:
            label = "(0)"
        else:
            label = "(" + "".join([labels[i] for i in ids]) + ")"
        yield ids, generator.to_string(), label


_JSON_HEAD = '{\n  "N": %d,\n  "count": %d,\n  "entries": [\n'
_JSON_ENTRY = '    {\n      "f": %s,\n      "generator": "%s",\n      "label": "%s"\n    }'
_JSON_TAIL = '\n  ],\n  "nsrf": %d\n}\n'
_JSON_ID_SEP = ",\n        "


def write_catalog_json(catalog: LcdCatalog, out: TextIO) -> None:
    """Write the catalog as json.dumps(..., indent=2, sort_keys=True) would.

    Fixed templates stand in for the encoder, which runs in pure Python
    whenever indent is set; ids, generators and labels hold nothing that
    JSON escapes.  Entries are written one at a time.
    """
    out.write(_JSON_HEAD % (catalog.table.length, len(catalog.entries)))
    sep = ""
    for ids, generator, label in catalog_rows(catalog):
        f = "[\n        " + _JSON_ID_SEP.join(map(str, ids)) + "\n      ]" if ids else "[]"
        out.write(sep + _JSON_ENTRY % (f, generator, label))
        sep = ",\n"
    out.write(_JSON_TAIL % catalog.nsrf)
