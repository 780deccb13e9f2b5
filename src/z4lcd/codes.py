"""Cyclic codes over Z4 in their canonical three-divisor form, and hulls.

A cyclic code of odd length N is presented by a partition of the factors of
X^N - 1 into three monic divisors f, g, h with f g h = X^N - 1; the code is
generated by f(x)g(x) and 2f(x).  Because the factors are pairwise coprime,
gcd and lcm of divisors are plain set operations on factor ids, never a
Euclidean algorithm (Z4[X] has none).

Factor ids are checked once, where they enter (DivisorSet.of, CodeSpec.of,
factor_divisor); sets built from valid sets are not checked again.  A
CodeSpec stores f and g only; h is derived as the rest of the factors.
A polynomial divisor is read from its reduction mod 2: the factors whose
reductions leave remainder 0, all found in one pass over its bits; one
product check rejects any polynomial that is not a divisor.

The hull cardinality comes out of the factor sets alone:

    |Hull(C)| = 4^deg(H) * 2^deg(G)

with H the common part of h and the reciprocal of f, and G the part of
X^N - 1 missed by both H and lcm(f, h*).  A code is LCD exactly when that
cardinality is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import FactorTable
from .z4poly import Z4Poly, _bits_rems


@dataclass(frozen=True)
class DivisorSet:
    """A monic divisor of X^N - 1, as the set of factor ids it comprises.

    The constructor trusts that members are ids of table; DivisorSet.of checks.
    """

    table: FactorTable
    members: frozenset[int]

    @classmethod
    def of(cls, table: FactorTable, ids=()) -> "DivisorSet":
        """Build a divisor set from ids, rejecting any that table lacks."""
        members = frozenset(ids)
        unknown = members - table.ids()
        if unknown:
            raise ValueError(f"unknown factor ids: {sorted(unknown)}")
        return cls(table, members)

    @property
    def degree(self) -> int:
        return sum(self.table[i].degree for i in self.members)

    def complement(self) -> "DivisorSet":
        return DivisorSet(self.table, self.table.ids() - self.members)

    def __or__(self, other: "DivisorSet") -> "DivisorSet":
        return DivisorSet(self.table, self.members | other.members)

    def __and__(self, other: "DivisorSet") -> "DivisorSet":
        return DivisorSet(self.table, self.members & other.members)


@dataclass(frozen=True)
class CodeSpec:
    """A cyclic code as the partition (f, g, h) of the factor table.

    Only f and g are stored; h is derived as the complement of f | g.
    """

    f_set: DivisorSet
    g_set: DivisorSet

    def __post_init__(self):
        if self.g_set.table != self.f_set.table:
            raise ValueError("partition parts must share one factor table")
        if self.f_set.members & self.g_set.members:
            raise ValueError("f and g overlap")

    @classmethod
    def of(cls, table: FactorTable, f=(), g=(), h=None) -> "CodeSpec":
        """Build a partition from ids; h, if given, must be the rest of the factors."""
        spec = cls(DivisorSet.of(table, f), DivisorSet.of(table, g))
        if h is not None and frozenset(h) != spec.h_set.members:
            raise ValueError("h must be the complement of f and g")
        return spec

    @property
    def h_set(self) -> DivisorSet:
        return (self.f_set | self.g_set).complement()

    @property
    def length(self) -> int:
        return self.f_set.table.length


@dataclass(frozen=True)
class HullReport:
    """Hull size of a code and the two divisor sets that produce it."""

    H: DivisorSet  # gcd(h, f*): contributes 4^deg
    G: DivisorSet  # complement of H and lcm(f, h*): contributes 2^deg
    deg_H: int
    deg_G: int
    hull_size: int
    lcd: bool


def divisor_poly(divisor: DivisorSet) -> Z4Poly:
    """Product of the member factor polynomials; 1 for the empty set."""
    poly = Z4Poly.one()
    for index in sorted(divisor.members):
        poly = poly * divisor.table[index].poly
    return poly


def reciprocal_set(divisor: DivisorSet) -> DivisorSet:
    """Map every member to its reciprocal partner.

    The reciprocal of a product is the product of the reciprocals, so this
    set represents the reciprocal of divisor_poly(divisor).
    """
    return DivisorSet(
        divisor.table, frozenset(divisor.table[i].partner for i in divisor.members)
    )


def factor_divisor(poly: Z4Poly, table: FactorTable) -> DivisorSet:
    """Resolve a monic divisor of X^N - 1 to its unique set of factor ids.

    The members are the factors whose reductions mod 2 divide that of poly:
    those left with remainder 0 by one bit-sliced pass of _bits_rems over
    the reduction of poly, which divides by every factor at once.
    X^N + 1 is squarefree for odd N and each factor is the unique monic lift
    of its reduction, so a monic divisor is the product of exactly those
    factors; one product check rejects any other polynomial, even one equal
    to a divisor mod 2, and input that is not monic is rejected first.
    """
    if not poly.is_monic:
        raise ValueError("not a monic polynomial")
    rems = _bits_rems(poly.reduce_mod2(), [r.poly.reduce_mod2() for r in table.records])
    members = (r.index for r, rem in zip(table.records, rems) if not rem)
    divisor = DivisorSet(table, frozenset(members))
    if divisor_poly(divisor) != poly:
        raise ValueError(f"{poly.to_string()!r} does not divide X^{table.length}-1")
    return divisor


def hull_report(spec: CodeSpec) -> HullReport:
    """Hull cardinality of the code, from factor sets alone.

    H = h  intersect  f*        (the gcd of h and the reciprocal of f)
    L = f  union      h*        (the lcm of f and the reciprocal of h)
    G = everything outside H and L
    |Hull| = 4^deg(H) * 2^deg(G), and the code is LCD iff that is 1.
    """
    h_set = spec.h_set
    h_common = h_set & reciprocal_set(spec.f_set)
    lcm_set = spec.f_set | reciprocal_set(h_set)
    g_residual = (h_common | lcm_set).complement()
    deg_h = h_common.degree
    deg_g = g_residual.degree
    size = 4**deg_h * 2**deg_g
    return HullReport(h_common, g_residual, deg_h, deg_g, size, size == 1)


def code_size(spec: CodeSpec) -> int:
    """Number of codewords: 4^deg(h) * 2^deg(g)."""
    return 4 ** spec.h_set.degree * 2 ** spec.g_set.degree


def spec_to_wire(spec: CodeSpec) -> dict:
    return {
        "N": spec.length,
        "f": sorted(spec.f_set.members),
        "g": sorted(spec.g_set.members),
        "h": sorted(spec.h_set.members),
    }


def hull_to_wire(report: HullReport) -> dict:
    return {
        "degH": report.deg_H,
        "degG": report.deg_G,
        "hullSize": report.hull_size,
        "lcd": report.lcd,
        "H": sorted(report.H.members),
        "G": sorted(report.G.members),
    }
