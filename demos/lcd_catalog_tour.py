#!/usr/bin/env python3
"""Enumerating the cyclic LCD codes of odd length over Z4.

Run from the repository root after `pip install -e .`:

    python demos/lcd_catalog_tour.py
"""

from z4lcd import (
    build_factor_table,
    count_nsrf,
    enumerate_lcd,
    factor_label,
    format_terms,
    hull_report,
)
from z4lcd.lcdenum import all_partitions

# A cyclic code over Z4 of odd length is LCD (its hull is trivial) exactly
# when it is generated by a single self-reciprocal divisor of X^N - 1.
# Such divisors are the unions of "atoms": self-reciprocal factors taken
# singly, reciprocal pairs taken whole.  With nsrf atoms there are 2^nsrf
# LCD codes.  An entry is labelled by its factors, except at the two ends:
# (1) takes no factor (the whole ambient code), (0) takes all of them.

catalog = enumerate_lcd(7)
print(f"length 7: nsrf={catalog.nsrf}, {len(catalog.entries)} LCD codes")
labels = ["(" + "".join(factor_label(catalog.table[i]) for i in catalog.ids(mask)) + ")"
          for mask, _ in catalog.rows]
labels[0], labels[-1] = "(1)", "(0)"
for entry, label in zip(catalog.entries, labels):
    print(f"  {label:<18} generator {format_terms(entry.generator)}")

# The count grows with the number of atoms, not with N itself:

print()
print(" N  nsrf  LCD codes")
for n in range(1, 32, 2):
    print(f"{n:>2}  {count_nsrf(n):>4}  {2 ** count_nsrf(n):>9}")

# Three ways of counting must agree: the closed formula 2^nsrf, the size of
# the enumerated catalog, and an exhaustive sweep that applies the hull
# formula to every (f, g, h) partition.

print()
for n in (1, 7, 9, 15):
    formula = 2 ** count_nsrf(n)
    enumerated = len(enumerate_lcd(n).rows)
    swept = sum(1 for spec in all_partitions(build_factor_table(n)) if hull_report(spec).lcd)
    print(f"N={n:>2}: formula {formula} == enumerated {enumerated} == swept {swept}")

# Every generator in a catalog really is self-reciprocal:

assert all(
    entry.generator == entry.generator.reciprocal()
    for n in range(1, 32, 2)
    for entry in enumerate_lcd(n).entries
)
print("\nall catalog generators are self-reciprocal  ok")
