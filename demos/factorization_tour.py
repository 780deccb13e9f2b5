#!/usr/bin/env python3
"""A tour of the factorization of X^N - 1 over Z4 for odd N.

Run from the repository root after `pip install -e .`:

    python demos/factorization_tour.py
"""

import functools
import operator

from z4lcd import (
    Z4Poly,
    build_factor_table,
    classify_pair,
    cyclotomic_cosets,
    factor_label,
    format_terms,
)

# Every odd length N splits X^N - 1 into monic basic irreducible factors,
# one per 2-cyclotomic coset mod N.  Start with the smallest interesting
# case, N = 7: three cosets, three factors.

print("cosets mod 7:", cyclotomic_cosets(7))

table = build_factor_table(7)
print("X^7-1 =", "".join(f"({format_terms(r.poly)})" for r in table.records))
for record in table.records:
    print(f"  {factor_label(record):<8} {format_terms(record.poly):<16}"
          f" degree {record.degree}, divisor n={record.divisor}")

# The factor labels follow the block structure: a divisor n of N contributes
# self-reciprocal factors g[i,n] when (n,2) is a "good" pair (some 2^k is
# congruent to -1 mod n) and reciprocal pairs f[i,n], f*[i,n] when "bad".

print()
for n in (1, 3, 5, 7, 9, 15):
    pc = classify_pair(n)
    name = "gamma" if pc.kind == "good" else "beta"
    print(f"(n={n:>2}, 2) is {pc.kind:<4}  phi={pc.phi:>2} ord2={pc.order2:>2}  {name}={pc.block}")

# N = 15 mixes both kinds: divisors 1, 3, 5 are good (one self-reciprocal
# factor each) while 15 itself is bad (one reciprocal pair).

print()
table15 = build_factor_table(15)
for record in table15.records:
    partner = factor_label(table15[record.partner])
    print(f"  {factor_label(record):<9} {format_terms(record.poly):<22}"
          f" reciprocal partner {partner}")

# The product of all factors always reassembles X^N - 1 exactly; check a
# few lengths by brute re-multiplication.

print()
for n in (1, 9, 15, 21, 31):
    table_n = build_factor_table(n)
    product = functools.reduce(
        operator.mul, (r.poly for r in table_n.records), Z4Poly.one()
    )
    assert product == Z4Poly([3] + [0] * (n - 1) + [1])
    print(f"N={n:>2}: product of {len(table_n.records)} factors == X^{n}-1  ok")
