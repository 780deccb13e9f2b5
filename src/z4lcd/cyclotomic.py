"""Factorization of X^N - 1 over Z4 for odd N, with its block structure.

The route is classical: the 2-cyclotomic cosets mod N give the monic
irreducible factors of X^N + 1 over F2 (one factor per coset, the minimal
polynomial of alpha^s in the splitting field F_{2^m}, m = ord_N(2)), and a
single Graeffe step lifts each factor to the unique monic basic irreducible
divisor of X^N - 1 over Z4 with that mod-2 reduction.  alpha is a root of
the least irreducible factor of Phi_N mod 2 in the int encoding, so the
labels depend on no choice of modulus.  One chain of N field
multiplications lists the powers of an element of order N, which needs the
primes of N but never those of 2^m - 1, and a minimal polynomial is the
first F2-linear relation among the powers read from it as m-bit vectors,
so a coset of size d costs at most d*m XORs.

Each divisor n of N contributes a block of factors: gamma(n) self-reciprocal
ones when (n, 2) is a good pair, beta(n) reciprocal pairs when bad, where
gamma(n) = phi(n)/ord_n(2) and beta(n) = phi(n)/(2 ord_n(2)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .z4poly import (
    _LOW_2_BITS,
    _NEG_LOW_2_BITS,
    Z4Poly,
    _bits_is_irreducible,
    _bits_min_poly,
    _bits_mod,
    _bits_mul,
    _bits_powmod,
    _pack,
)

GOOD = "good"
BAD = "bad"

SELF_RECIPROCAL = "selfReciprocal"
PAIR_FIRST = "pairFirst"
PAIR_SECOND = "pairSecond"

# Factor tables kept by build_factor_table; a bound, so that a sweep over
# ever larger N cannot hold every table it built
FACTOR_TABLE_CACHE_SIZE = 128


@dataclass(frozen=True)
class PairClass:
    """Classification of (n, 2) for odd n, with the block-count it implies."""

    divisor: int
    order2: int
    phi: int
    kind: str
    gamma: int | None  # self-reciprocal factor count, good pairs only
    beta: int | None  # reciprocal-pair count, bad pairs only


@dataclass(frozen=True)
class FactorRecord:
    """One monic basic irreducible factor of X^N - 1 with its metadata."""

    index: int
    poly: Z4Poly
    bits: int  # the reduction of poly mod 2, in the int encoding
    divisor: int  # the n | N this factor belongs to
    block_index: int  # position within its n-block, 1-based
    kind: str  # SELF_RECIPROCAL, PAIR_FIRST or PAIR_SECOND
    partner: int  # index of the reciprocal partner (itself if self-reciprocal)
    coset: tuple[int, ...]  # the 2-cyclotomic coset mod N it was lifted from

    @property
    def degree(self) -> int:
        return len(self.coset)


@dataclass(frozen=True)
class FactorTable:
    """The complete factorization of X^N - 1 over Z4 for odd N."""

    length: int
    records: tuple[FactorRecord, ...]

    def ids(self) -> frozenset[int]:
        return frozenset(r.index for r in self.records)

    def __getitem__(self, index: int) -> FactorRecord:
        return self.records[index]

    def __len__(self) -> int:
        return len(self.records)


def _require_odd(n: int) -> None:
    if n < 1:
        raise ValueError("N must be a positive integer")
    if n % 2 == 0:
        raise ValueError("N must be odd")


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """Every positive divisor of n >= 1, ascending."""
    result = [1]
    for p, e in _factorize(n).items():
        result = [d * p**k for d in result for k in range(e + 1)]
    return sorted(result)


def _order_and_phi(n: int) -> tuple[int, int]:
    """(ord_n(2), phi(n)) for odd n from one factorization of n.

    The order divides phi(n), so start there and strip each prime q of
    phi(n) (q | p - 1, or q = p when p^2 | n) while 2^(order/q) is still 1.
    """
    _require_odd(n)
    factors = _factorize(n)
    phi = math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())
    order = phi
    primes = set()
    for p, e in factors.items():
        primes.update(_factorize(p - 1))
        if e > 1:
            primes.add(p)
    for q in primes:
        while order % q == 0 and pow(2, order // q, n) == 1 % n:
            order //= q
    return order, phi


def mult_order_of_2(n: int) -> int:
    """Least k >= 1 with 2^k = 1 mod n; by convention 1 when n = 1."""
    return _order_and_phi(n)[0]


def classify_pair(n: int) -> PairClass:
    """Decide whether (n, 2) is a good or bad pair and size its block.

    Good means 2^k = -1 mod n for some k.  -1 is the only element of order
    2 in the cyclic group <2> mod n, so that holds exactly when ord_n(2) is
    even and 2^(ord/2) = -1.  n = 1 is good by convention.
    """
    order2, phi = _order_and_phi(n)
    good = n == 1 or (order2 % 2 == 0 and pow(2, order2 // 2, n) == n - 1)
    if good:
        if phi % order2:
            raise AssertionError(f"phi({n}) not divisible by ord_{n}(2)")
        return PairClass(n, order2, phi, GOOD, gamma=phi // order2, beta=None)
    if phi % (2 * order2):
        raise AssertionError(f"phi({n}) not divisible by 2 ord_{n}(2)")
    return PairClass(n, order2, phi, BAD, gamma=None, beta=phi // (2 * order2))


def cyclotomic_cosets(length: int) -> list[tuple[int, ...]]:
    """Orbits of s -> 2s mod N on {0..N-1}, each ascending, sorted by minimum."""
    _require_odd(length)
    seen = [False] * length
    cosets = []
    for start in range(length):
        if seen[start]:
            continue
        orbit = []
        s = start
        while not seen[s]:
            seen[s] = True
            orbit.append(s)
            s = 2 * s % length
        cosets.append(tuple(sorted(orbit)))
    return cosets


# ---------------------------------------------------------------------------
# Splitting field F_{2^m} = F2[X]/(modulus), elements int-encoded as in z4poly

def _least_irreducible(degree: int) -> int:
    if degree == 1:
        return 0b10  # X, which the filter below would skip for its zero constant term
    # a candidate with a zero constant term has the root 0, and one with an
    # even number of terms the root 1: skip both before Ben-Or
    for low in range(1, 1 << degree, 2):
        candidate = (1 << degree) | low
        if candidate.bit_count() % 2 and _bits_is_irreducible(candidate):
            return candidate
    raise AssertionError(f"no irreducible of degree {degree}")  # unreachable


def _element_of_order(length: int, degree: int, modulus: int) -> int:
    """The first c^((2^degree - 1)/N), c = 1, 2, ..., of multiplicative order N.

    The order is checked against the primes of N only, so 2^degree - 1 is
    never factored.
    """
    cofactor = ((1 << degree) - 1) // length
    primes = _factorize(length)
    for candidate in range(1, 1 << degree):
        gamma = _bits_powmod(candidate, cofactor, modulus)
        if all(_bits_powmod(gamma, length // q, modulus) != 1 for q in primes):
            return gamma
    raise AssertionError(f"F_(2^{degree})* has an element of order {length}")  # unreachable


def factor_mod2(length: int) -> list[int]:
    """Monic irreducible factors of X^N + 1 over F2, one per cyclotomic coset.

    Each factor is in the int encoding, bit k the coefficient of X^k.

    Factor j is the minimal polynomial of alpha^s, s the least member of
    coset j, for alpha a root of the least irreducible factor of Phi_N mod 2
    in the int encoding; the list is ordered to match cyclotomic_cosets(N).
    One chain of field multiplications lists gamma^j for j < N, gamma any
    element of order N, and it must close.  The minimal polynomial of
    gamma^s is the first F2-linear relation among 1, gamma^s, gamma^2s, ...
    read from that list as m-bit vectors, at most d*m XORs for a coset of
    size d.  The unit coset with the least of these has least member t, so
    alpha = gamma^t up to Frobenius, and factor j is the one of coset t*s.
    """
    cosets = cyclotomic_cosets(length)
    m = max(map(len, cosets))  # the coset of 1 has ord_N(2) members
    modulus = _least_irreducible(m)
    gamma = _element_of_order(length, m, modulus)
    powers = [1]
    for _ in range(length):
        powers.append(_bits_mod(_bits_mul(powers[-1], gamma), modulus))
    if powers.pop() != 1:
        raise AssertionError(f"gamma has multiplicative order {length}")
    raw = [_bits_min_poly(powers, coset[0], len(coset)) for coset in cosets]
    coset_of = {s: idx for idx, coset in enumerate(cosets) for s in coset}
    _, t = min((raw[idx], c[0]) for idx, c in enumerate(cosets) if math.gcd(c[0], length) == 1)
    return [raw[coset_of[t * coset[0] % length]] for coset in cosets]


def graeffe_lift(bits: int) -> Z4Poly:
    """One Graeffe step from a mod-2 factor to its unique Z4 lift.

    `bits` encodes the factor f2, bit k the coefficient of X^k; f2 must
    have a nonzero constant term, so `bits` is a positive odd int.  Splits
    f2(X) = e(X^2) + X o(X^2) and returns
    (-1)^deg (e(X)^2 - X o(X)^2) mod 4, which is the monic polynomial over
    Z4 reducing to f2 mod 2 and dividing X^N - 1.  e and o are packed into
    the byte slots of Z4Poly.__mul__, so e^2 + 3 X o^2 is one big-int
    expression; a slot holds at most len(e) + 3 len(o) <= 4 len(e), and
    the sign is a byte table applied to the slots mod 4.
    """
    if bits <= 0 or not bits & 1:
        # a negative int would read its sign as a digit below
        raise ValueError("lift requires a positive odd encoding: a nonzero constant term")
    digits = format(bits, "b")[::-1].encode().translate(_LOW_2_BITS)  # ASCII "0"/"1" -> 0/1
    width = ((4 * len(digits[0::2])).bit_length() + 7) // 8
    even, odd = _pack(digits[0::2], width), _pack(digits[1::2], width)
    packed = even * even + (3 * odd * odd << 8 * width)  # e^2 + 3 X o^2, X one slot
    slots = packed.to_bytes(len(digits) * width, "little")
    sign = _LOW_2_BITS if len(digits) % 2 else _NEG_LOW_2_BITS  # (-1)^deg
    lifted = slots[::width].translate(sign)
    if lifted[-1] != 1:
        raise AssertionError("Graeffe lift is monic by the sign choice")
    return Z4Poly._of(lifted)


@functools.lru_cache(maxsize=FACTOR_TABLE_CACHE_SIZE)
def build_factor_table(length: int) -> FactorTable:
    """Lift every mod-2 factor of X^N + 1 and assemble the factor table.

    Records are ordered by the minimal representative of their coset.  Each
    record is assigned the divisor n = N / gcd(N, s) its roots have order n
    for, a 1-based index within its n-block, and its reciprocal partner.
    Reciprocation maps the roots alpha^s to alpha^-s, so the partner of the
    coset of s is the coset of -s mod N; the lifted partner must equal the
    reciprocal of the lifted factor.  Within a pair the record with the
    smaller minimal representative is the pairFirst.
    """
    _require_odd(length)
    cosets = cyclotomic_cosets(length)
    mod2 = factor_mod2(length)
    lifted = [graeffe_lift(bits) for bits in mod2]
    coset_of = {s: idx for idx, coset in enumerate(cosets) for s in coset}

    self_counter: dict[int, int] = {}
    pair_counter: dict[int, int] = {}
    records: list[FactorRecord] = []
    for idx, (coset, poly) in enumerate(zip(cosets, lifted)):
        divisor = length // math.gcd(length, coset[0])
        partner = coset_of[-coset[0] % length]
        if lifted[partner] != poly.reciprocal():
            raise AssertionError("reciprocal of a factor is the factor of the negated coset")
        if partner == idx:
            kind = SELF_RECIPROCAL
            block = self_counter[divisor] = self_counter.get(divisor, 0) + 1
        elif idx < partner:
            kind = PAIR_FIRST
            block = pair_counter[divisor] = pair_counter.get(divisor, 0) + 1
        else:
            kind = PAIR_SECOND
            block = records[partner].block_index
        records.append(
            FactorRecord(idx, poly, mod2[idx], divisor, block, kind, partner, coset)
        )
    return FactorTable(length, tuple(records))


def factor_label(record: FactorRecord) -> str:
    """Display label in g[i,n] / f[i,n] / f*[i,n] form."""
    stem = {SELF_RECIPROCAL: "g", PAIR_FIRST: "f", PAIR_SECOND: "f*"}[record.kind]
    return f"{stem}[{record.block_index},{record.divisor}]"


def table_to_wire(table: FactorTable) -> dict:
    """JSON-ready form of a factor table."""
    return {
        "N": table.length,
        "records": [
            {
                "id": r.index,
                "n": r.divisor,
                "i": r.block_index,
                "kind": r.kind,
                "partner": r.partner,
                "coset": list(r.coset),
                "poly": r.poly.to_string(),
            }
            for r in table.records
        ],
    }
