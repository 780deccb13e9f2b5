"""Enumeration and counting of cyclic LCD codes of odd length over Z4.

The LCD codes are exactly the codes C = (f(x)) with f a self-reciprocal
monic divisor of X^N - 1, so each one corresponds to a subset of the
reciprocal-closed atoms of the factor table: the self-reciprocal factors
taken singly plus the reciprocal pairs taken whole.  With nsrf such atoms
there are 2^nsrf LCD codes, counted divisor-wise as

    nsrf = sum over n | N of gamma(n) if (n,2) good else beta(n).

A catalog row is the atom mask of an entry (atom k sets bit k, atoms in
order of least id) and its product (the generator) packed as an int, made
in catalog order, one big-int product of an earlier row and one atom, with
no sort and nothing unpacked between products (see enumerate_lcd).  The
catalog holds its factor table and its atoms once (nsrf is their count),
reads ids off a mask from the atoms (LcdCatalog.ids), and builds Z4Poly
entries only when they are asked for.
The text form (write_catalog_text), the --json form (write_catalog_json)
and catalog_rows render the rows a chunk at a time.  An entry's id text
and label are two lookups in string tables made once per catalog, one for
the ids below a cut and one for the rest, and its generator string is one
to_bytes of the packed int plus a digit constant.  --json is byte for byte
what json.dumps(..., indent=2, sort_keys=True) gives, without the encoder
that indent forces into pure Python.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, TextIO

from . import codes, cyclotomic
from .codes import CodeSpec, DivisorSet, hull_report
from .cyclotomic import SELF_RECIPROCAL, build_factor_table, factor_label
from .z4poly import Z4Poly, _pack, _unpack

DEFAULT_SWEEP_BUDGET = 200_000  # partitions; 3^11 is just under
CHUNK_ROWS = 1024  # rows rendered, joined and written at a time


class LcdEntry(NamedTuple):
    """One LCD code: the sorted ids of its factors and the self-reciprocal generator."""

    ids: tuple[int, ...]
    generator: Z4Poly


@dataclass(frozen=True)
class LcdCatalog:
    """All cyclic LCD codes of one odd length; N is table.length.

    atoms are the reciprocal-closed atoms as id tuples, in order of least
    id, and nsrf is their count.  Each row is (mask, packed): bit k of the
    mask is set when the entry takes atoms[k], and packed is the generator
    with one coefficient in the low byte of each slot of `width` >= 2
    bytes; it is monic, so its top slot tells its coefficient count.
    """

    table: cyclotomic.FactorTable
    atoms: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, int], ...]
    width: int

    @property
    def nsrf(self) -> int:
        return len(self.atoms)

    # cached properties are built once; the frozen dataclass has a __dict__
    @functools.cached_property
    def _sides(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(id, atom bit) of the ids below the cut and of the rest, largest id first.

        The cut is the least id of one atom, or past the last id: an atom
        with an id below it is on the low side, one with an id at or above
        it on the high side, so a pair that straddles the cut is on both.
        The cut is the one whose sides have the fewest subsets in all.
        """
        atoms = self.atoms
        cuts = [atom[0] for atom in atoms] + [len(self.table)]
        largest = sorted(atom[-1] for atom in atoms)
        cut = min(cuts, key=lambda t: (1 << bisect.bisect_left(cuts, t))
                  + (1 << len(atoms) - bisect.bisect_left(largest, t)))
        ids = sorted(((i, 1 << k) for k, atom in enumerate(atoms) for i in atom), reverse=True)
        return [row for row in ids if row[0] < cut], [row for row in ids if row[0] >= cut]

    def ids(self, mask: int) -> tuple[int, ...]:
        """The sorted factor ids of the atoms that a row's mask sets."""
        return tuple(sorted(i for k, atom in enumerate(self.atoms) if mask >> k & 1 for i in atom))

    @functools.cached_property
    def entries(self) -> tuple[LcdEntry, ...]:
        w = self.width
        return tuple(LcdEntry(self.ids(mask), Z4Poly._of(_unpack(packed, w)))
                     for mask, packed in self.rows)


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


def _atoms(table: cyclotomic.FactorTable) -> tuple[tuple[int, ...], ...]:
    """Reciprocal-closed atoms as id tuples, ordered by smallest id."""
    atoms = []
    for record in table.records:
        if record.kind == SELF_RECIPROCAL:
            atoms.append((record.index,))
        elif record.index < record.partner:
            atoms.append((record.index, record.partner))
    return tuple(atoms)


def enumerate_lcd(length: int) -> LcdCatalog:
    """Catalog of every cyclic LCD code of the given odd length, in catalog order.

    One entry per subset of the reciprocal-closed atoms, by factor-set size
    and then sorted ids; the empty subset is the whole ambient code (1), the
    full subset the zero code (0).  Each size keeps its rows in reverse
    order; atoms come largest least id first, each extending the sizes top
    down from the rows one atom smaller (a 0/1 knapsack), so nothing is sorted:
    among sets of one size, those holding the atom's least id come first, and
    adding fixed ids to sorted tuples of equal size keeps their lex order.
    A row keeps its atoms as a mask, atom k as bit k.
    A generator stays packed in slots of w bytes, w the byte length of
    9 * (N + 1) and at least 2 (a slot's second byte holds a comma when the
    generator is rendered), so no slot of a product of two divisors of
    X^N - 1 carries (as in Z4Poly.__mul__); one AND with the low 2 bits of
    each slot is mod 4.
    """
    table = build_factor_table(length)
    atoms = _atoms(table)
    w = max(2, ((9 * (length + 1)).bit_length() + 7) // 8)
    mod4 = _pack(b"\3" * (length + 1), w)
    by_size = [[(0, 1)]] + [[] for _ in table.records]
    for k in reversed(range(len(atoms))):
        atom, bit = atoms[k], 1 << k
        atom_poly = table[atom[0]].poly
        if len(atom) == 2:
            atom_poly = atom_poly * table[atom[1]].poly
        factor = _pack(atom_poly.coeffs, w)
        for size in range(len(by_size) - 1, len(atom) - 1, -1):
            by_size[size] += [(mask | bit, packed * factor & mod4)
                              for mask, packed in by_size[size - len(atom)]]
    rows = tuple(row for size_rows in by_size for row in reversed(size_rows))
    return LcdCatalog(table, atoms, rows, w)


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
    catalog = enumerate_lcd(length)
    if 3 ** len(catalog.table.records) > DEFAULT_SWEEP_BUDGET:
        return LcdCensus(formula, len(catalog.rows), None)
    swept = sum(1 for spec in all_partitions(catalog.table) if hull_report(spec).lcd)
    return LcdCensus(formula, len(catalog.rows), swept)


def _text_tables(catalog: LcdCatalog, pieces: list[str]):
    """((low mask, low table), (high mask, high table)) for the pieces of ids.

    Each table maps mask & its side's mask (see LcdCatalog._sides) to the
    concatenated pieces of that side's ids in id order, so the pieces of a
    row's ids are its low value and then its high value.  A table holds one
    value per subset of its side's atoms, never more than the catalog has
    rows.
    """
    tables = []
    for side in catalog._sides:
        values = {0: ""}
        seen = 0
        # ids from the largest down, each piece put in front: a pair's
        # larger id adds its atom to every value, its smaller one extends those
        for i, bit in side:
            piece = pieces[i]
            if seen & bit:
                for key in values:
                    if key & bit:
                        values[key] = piece + values[key]
            else:
                values.update([(key | bit, piece + value) for key, value in values.items()])
                seen |= bit
        tables.append((seen, values))
    return tables


def _chunks(catalog: LcdCatalog) -> Iterator[tuple[list[int], list[str], list[str]]]:
    """(masks, generator strings, labels) of the rows, CHUNK_ROWS at a time.

    The label is (1) for the whole ambient code (mask 0), (0) for the zero
    code (every atom set) and otherwise the factor labels in id order, from
    text tables with "(" at the front of each low value and ")" at the end
    of each high one.
    Adding the digit constant, '0' in the low byte of every slot and ','
    in the next, makes each slot of a packed generator the bytes of one
    coefficient and its comma; the string is those bytes less the zero
    bytes (there are none when w = 2), cut after the top coefficient,
    whose slot the bit length tells.
    """
    (low_mask, low), (high_mask, high) = _text_tables(
        catalog, [factor_label(r) for r in catalog.table.records])
    low = {key: "(" + value for key, value in low.items()}
    high = {key: value + ")" for key, value in high.items()}
    w = catalog.width
    slots = catalog.table.length + 1
    digits = int.from_bytes((b"0," + bytes(w - 2)) * slots, "little")
    rows = catalog.rows
    for start in range(0, len(rows), CHUNK_ROWS):
        chunk = rows[start:start + CHUNK_ROWS]
        masks = [mask for mask, _ in chunk]
        # a generator of degree d has bit length 8wd + 1 and text length 2d + 1
        generators = [(packed + digits).to_bytes(w * slots, "little").replace(b"\0", b"")
                      [:(packed.bit_length() - 1) // (4 * w) + 1].decode()
                      for _, packed in chunk]
        labels = [low[mask & low_mask] + high[mask & high_mask] for mask in masks]
        if masks[0] == 0:
            labels[0] = "(1)"
        if masks[-1] == (1 << catalog.nsrf) - 1:
            labels[-1] = "(0)"
        yield masks, generators, labels


def catalog_rows(catalog: LcdCatalog) -> Iterator[tuple[tuple[int, ...], str, str]]:
    """(sorted ids, generator string, label) of each entry, in catalog order."""
    for masks, generators, labels in _chunks(catalog):
        yield from zip(map(catalog.ids, masks), generators, labels)


def write_catalog_text(catalog: LcdCatalog, out: TextIO) -> None:
    """Write the text form: a count line, then each entry's label and generator."""
    out.write("N=%d nsrf=%d count=%d\n" % (catalog.table.length, catalog.nsrf, len(catalog.rows)))
    for _, generators, labels in _chunks(catalog):
        pieces = ["  ", None, " generator=", None, "\n"] * len(labels)
        pieces[1::5] = [label.ljust(24) for label in labels]
        pieces[3::5] = generators
        out.write("".join(pieces))


_JSON_HEAD = '{\n  "N": %d,\n  "count": %d,\n  "entries": [\n'
_JSON_ENTRY = (',\n    {\n      "f": ', ',\n      "generator": "', '",\n      "label": "',
               '"\n    }')
_JSON_TAIL = '\n  ],\n  "nsrf": %d\n}\n'
_JSON_ID = ",\n        %d"
_JSON_ID_LIST_END = "\n      ]"


def write_catalog_json(catalog: LcdCatalog, out: TextIO) -> None:
    """Write the catalog as json.dumps(..., indent=2, sort_keys=True) would.

    Fixed template pieces stand in for the encoder, which runs in pure
    Python whenever indent is set; ids, generators and labels hold nothing
    that JSON escapes.  An entry's id list is one or two values of text
    tables (see _text_tables): "[" and the low ids, then the high ids and
    the list's end, or the high ids alone when the row has no low id.  The
    pieces of a chunk of entries are joined and written at once.
    """
    out.write(_JSON_HEAD % (catalog.table.length, len(catalog.rows)))
    (low_mask, low), (high_mask, high) = _text_tables(
        catalog, [_JSON_ID % i for i in range(len(catalog.table))])
    alone = {key: "[" + value[1:] + _JSON_ID_LIST_END if key else "[]"
             for key, value in high.items()}
    low = {key: "[" + value[1:] for key, value in low.items()}
    high = {key: value + _JSON_ID_LIST_END for key, value in high.items()}
    start, between, then, end = _JSON_ENTRY
    for masks, generators, labels in _chunks(catalog):
        pieces = [start, None, between, None, then, None, end] * len(masks)
        pieces[1::7] = [low[mask & low_mask] + high[mask & high_mask] if mask & low_mask
                        else alone[mask & high_mask] for mask in masks]
        pieces[3::7] = generators
        pieces[5::7] = labels
        if masks[0] == 0:  # the first entry, with no comma before it
            pieces[0] = start[2:]
        out.write("".join(pieces))
    out.write(_JSON_TAIL % catalog.nsrf)
