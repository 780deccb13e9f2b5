#!/usr/bin/env python3
"""Enumerating the cyclic LCD codes of odd length over Z4.

Run from the repository root after `pip install -e .`:

    python demos/lcd_catalog_tour.py
"""

from z4lcd import count_nsrf, enumerate_lcd, format_terms, lcd_census
from z4lcd.lcdenum import catalog_rows

# A cyclic code over Z4 of odd length is LCD (its hull is trivial) exactly
# when it is generated by a single self-reciprocal divisor of X^N - 1.
# Such divisors are the unions of "atoms": self-reciprocal factors taken
# singly, reciprocal pairs taken whole.  With nsrf atoms there are 2^nsrf
# LCD codes.

catalog = enumerate_lcd(7)
print(f"length 7: nsrf={catalog.nsrf}, {len(catalog.entries)} LCD codes")
for entry, (_, _, label) in zip(catalog.entries, catalog_rows(catalog)):
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
    formula, enumerated, swept = lcd_census(n)
    print(f"N={n:>2}: formula {formula} == enumerated {enumerated} == swept {swept}")

# Every generator in a catalog really is self-reciprocal:

assert all(
    entry.generator.is_self_reciprocal()
    for n in range(1, 32, 2)
    for entry in enumerate_lcd(n).entries
)
print("\nall catalog generators are self-reciprocal  ok")
