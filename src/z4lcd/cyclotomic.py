"""Factorization of X^N - 1 over Z4 for odd N, with its block structure.

The route is classical: the 2-cyclotomic cosets mod N give the monic
irreducible factors of X^N + 1 over F2 (one factor per coset, the minimal
polynomial of alpha^s in the splitting field F_{2^m}, m = ord_N(2)), and a
single Graeffe step lifts each factor to the unique monic basic irreducible
divisor of X^N - 1 over Z4 with that mod-2 reduction.  alpha is a root of
the least irreducible factor of Phi_N mod 2 in the int encoding, so the
labels depend on no choice of modulus.  The field is F2[X]/(P) for an
irreducible factor P of Phi_N mod 2, split off Phi_N by gcds with the
coset periods, so X has order N there and no modulus is searched for.  One
chain of N shifts lists bit 0 of the powers of X, and Berlekamp-Massey on
2d terms of it gives the minimal polynomial of a coset of size d.

Each divisor n of N contributes a block of factors: gamma(n) self-reciprocal
ones when (n, 2) is a good pair, beta(n) reciprocal pairs when bad, where
gamma(n) = phi(n)/ord_n(2) and beta(n) = phi(n)/(2 ord_n(2)).  pair_classes
sizes every block from one factorization of N and one of each p - 1, p | N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .z4poly import (
    _LOW_2_BITS,
    _NEG_LOW_2_BITS,
    Z4Poly,
    _bits_berlekamp_massey,
    _bits_gcd,
    _bits_rem,
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
    block: int  # gamma(n), self-reciprocal factors, when good; beta(n), reciprocal pairs, when bad


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
        return self._ids

    @functools.cached_property  # built once; the frozen dataclass has a __dict__
    def _ids(self) -> frozenset[int]:
        return frozenset(r.index for r in self.records)

    @functools.cached_property
    def bits(self) -> tuple[int, ...]:  # each record's reduction mod 2, by id
        return tuple(r.bits for r in self.records)

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


def pair_classes(length: int) -> list[PairClass]:
    """The PairClass of every divisor n of odd N, ascending by n.

    Factors N once, and p - 1 once for each prime p | N.  ord_p(2) is p - 1
    stripped of each prime q while 2^(order/q) is still 1 mod p, and
    ord_{p^k}(2) is ord_{p^(k-1)}(2), times p when 2 to that power is not
    1 mod p^k.  phi(n) is the product over the prime powers of n, and
    ord_n(2) their lcm.  Good means 2^k = -1 mod n for some k; -1 is the one
    element of order 2 in the cyclic group <2> mod n, so that holds exactly
    when ord_n(2) is even and 2^(ord/2) = -1.  n = 1 is good by convention.
    """
    _require_odd(length)
    rows = [(1, 1, 1)]  # (n, phi(n), ord_n(2)) over the primes taken so far
    for p, e in _factorize(length).items():
        order_p = p - 1
        for q in _factorize(p - 1):
            while order_p % q == 0 and pow(2, order_p // q, p) == 1:
                order_p //= q
        powers = [(1, 1, 1), (p, p - 1, order_p)]
        for pk in (p**k for k in range(2, e + 1)):
            order_p *= 1 if pow(2, order_p, pk) == 1 else p
            powers.append((pk, pk - pk // p, order_p))
        rows = [(n * pk, phi * phi_pk, math.lcm(order, order_pk))
                for n, phi, order in rows for pk, phi_pk, order_pk in powers]
    classes = []
    for n, phi, order in sorted(rows):
        good = n == 1 or (order % 2 == 0 and pow(2, order // 2, n) == n - 1)
        block, rest = divmod(phi, order if good else 2 * order)
        if rest:
            raise AssertionError(f"phi({n}) not divisible by the block size of ord_{n}(2)")
        classes.append(PairClass(n, order, phi, GOOD if good else BAD, block))
    return classes


def classify_pair(n: int) -> PairClass:
    """Decide whether (n, 2) is a good or bad pair and size its block."""
    return pair_classes(n)[-1]


def mult_order_of_2(n: int) -> int:
    """Least k >= 1 with 2^k = 1 mod n; by convention 1 when n = 1."""
    return classify_pair(n).order2


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
# Splitting field F_{2^m} = F2[X]/(P), P a factor of Phi_N mod 2

def _cyclotomic_mod2(length: int) -> int:
    """Phi_N mod 2, the product over d | N of (X^d + 1)^mu(N/d), int-encoded."""
    primes = list(_factorize(length))
    up, down = [], []
    for subset in range(1 << len(primes)):
        chosen = [p for k, p in enumerate(primes) if subset >> k & 1]
        (down if len(chosen) % 2 else up).append(length // math.prod(chosen))
    phi = 1
    for d in up:
        phi ^= phi << d  # times X^d + 1
    for d in down:
        # an exact quotient by X^d + 1 is phi (1 + X^d + X^2d + ...) cut at
        # its degree: a prefix XOR in doubling strides, then a mask
        width, stride = phi.bit_length(), d
        while stride < width:
            phi ^= phi << stride
            stride <<= 1
        phi &= (1 << width - d) - 1
    return phi


def _field_modulus(cosets: list[tuple[int, ...]]) -> int:
    """An irreducible factor P of Phi_N mod 2, of degree m = ord_N(2).

    A period T = sum of X^s over a coset is fixed by Frobenius, so it is 0
    or 1 at every root of Phi_N, and P = gcd(P, T) gcd(P, T + 1) with each
    piece a union of factors.  Starting from P = Phi_N, each coset in turn
    splits P, and the smaller non-constant piece is kept until deg P = m.
    The periods span the Frobenius-fixed elements of F2[X]/(Phi_N), so they
    tell any two factors apart and the walk ends there.
    """
    length = sum(map(len, cosets))
    degree = max(map(len, cosets))  # the coset of 1 has ord_N(2) members
    modulus = _cyclotomic_mod2(length)
    for coset in cosets[1:]:
        if modulus.bit_length() - 1 == degree:
            break
        period = _bits_rem(sum(1 << s for s in coset), modulus)
        piece = _bits_gcd(modulus, period)
        if 2 * (piece.bit_length() - 1) > modulus.bit_length() - 1:
            piece = _bits_gcd(modulus, period ^ 1)  # the other piece is the smaller
        if piece != 1:
            modulus = piece
    if modulus.bit_length() - 1 != degree:
        raise AssertionError(f"the coset periods split Phi_{length} into factors of degree {degree}")
    return modulus


def factor_mod2(cosets: list[tuple[int, ...]]) -> list[int]:
    """Monic irreducible factors of X^N + 1 over F2, one per cyclotomic coset.

    `cosets` is cyclotomic_cosets(N), and N the sum of their sizes.  Each
    factor is in the int encoding, bit k the coefficient of X^k, and the
    list is ordered as the cosets.

    Factor j is the minimal polynomial of alpha^s, s the least member of
    coset j, for alpha a root of the least irreducible factor of Phi_N mod 2
    in the int encoding.  The field is F2[X]/(P), P from _field_modulus, in
    which X has order N.  One chain lists bit 0 of X^k for k < N and must
    close at X^N = 1.  Bit 0 of (X^s)^k follows the recurrence of the
    minimal polynomial of X^s, which is irreducible, and is 1 at k = 0, so
    Berlekamp-Massey on its first 2d terms gives that minimal polynomial,
    d the coset size.  The unit coset with the least of these has
    least member t, so alpha = X^t up to Frobenius, and factor j is the one
    of coset t*s.
    """
    length = sum(map(len, cosets))
    modulus = _field_modulus(cosets)
    degree = modulus.bit_length() - 1
    bit0 = bytearray(length)
    power = 1
    for k in range(length):
        bit0[k] = power & 1
        power <<= 1
        if power >> degree:
            power ^= modulus
    if power != 1:
        raise AssertionError(f"X has multiplicative order {length}")
    raw = []
    for coset in cosets:
        s, d = coset[0], len(coset)
        min_poly = _bits_berlekamp_massey([bit0[s * k % length] for k in range(2 * d)])
        if min_poly.bit_length() - 1 != d:
            raise AssertionError(f"minimal polynomial has degree {d}")
        raw.append(min_poly)
    coset_of = [0] * length
    for idx, coset in enumerate(cosets):
        for s in coset:
            coset_of[s] = idx
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
    mod2 = factor_mod2(cosets)
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
