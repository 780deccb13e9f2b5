"""Factorization of X^N - 1 over Z4 for odd N, with its block structure.

The route is classical: the 2-cyclotomic cosets mod N give the monic
irreducible factors of X^N + 1 over F2 (one factor per coset, the minimal
polynomial of alpha^s in the splitting field F_{2^m}, m = ord_N(2)), and a
single Graeffe step lifts each factor to the unique monic basic irreducible
divisor of X^N - 1 over Z4 with that mod-2 reduction.  The cosets are
walked one at a time, each from its least member, which bytearray.find
picks out as the next residue no walk has marked.  alpha is a root of
the least irreducible factor of Phi_N mod 2 in the int encoding, so the
labels depend on no choice of field.  No field modulus is built.  A walk
multiplies theta_N, the idempotent of F2[X]/(X^N - 1) that is 1 at the
primitive N-th roots, by coset sums, each product an XOR of rotations of
an N-bit int, until it is 1 at the roots of one factor of Phi_N alone.
The coefficients of that primitive idempotent, rotated so that the first
is 1, are traces Tr(c zeta^k) for a zeta of order N, and they are the
chain, one byte each.  Berlekamp-Massey on 2d terms of it gives the
minimal polynomial of a coset of size d; the terms of the coset of s are
bytes s k mod N of the chain, read from copies of it laid end to end as
one strided slice per coset (TERM_EXTENSION_BYTES caps the copies; past
the cap a read wraps).  The cosets of one size d form a class, and a lane
class, of more than 2d cosets, runs Berlekamp-Massey and the Graeffe lift
once each, bit-sliced with one lane per coset; a smaller class runs both
once per coset.

Each divisor n of N contributes a block of factors: gamma(n) self-reciprocal
ones when (n, 2) is a good pair, beta(n) reciprocal pairs when bad, where
gamma(n) = phi(n)/ord_n(2) and beta(n) = phi(n)/(2 ord_n(2)).  pair_classes
sizes every block from one factorization of N and one of each p - 1, p | N.
The reciprocal of a factor is the factor of the negated coset, and
build_factor_table checks that once per self-reciprocal factor and once
per pair.  PairClass and FactorRecord are named tuples, so they compare,
order and hash as the tuples of their fields.

write_table_json writes the --json form of a table from fixed templates,
one per coset size, filled by one % from a flat tuple of every record's
fields, the coefficient strings of all records rendered in one pass: byte
for byte what json.dumps(..., indent=2, sort_keys=True) gives, without the
encoder that indent forces into pure Python.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, TextIO

from .z4poly import (
    _LOW_2_BITS,
    _NEG_LOW_2_BITS,
    Z4Poly,
    _bits_berlekamp_massey,
    _bits_berlekamp_massey_lanes,
    _coeff_text,
    _pack,
    _unpack,
)

GOOD = "good"
BAD = "bad"

SELF_RECIPROCAL = "selfReciprocal"
PAIR_FIRST = "pairFirst"
PAIR_SECOND = "pairSecond"

# Factor tables kept by build_factor_table; a bound, so that a sweep over
# ever larger N cannot hold every table it built
FACTOR_TABLE_CACHE_SIZE = 128

# Most bytes of the copies of the chain that factor_mod2 reads the coset
# terms from; at least one copy is made whatever N
TERM_EXTENSION_BYTES = 1 << 24


class PairClass(NamedTuple):
    """Classification of (n, 2) for odd n, with the block-count it implies."""

    divisor: int
    order2: int
    phi: int
    kind: str
    block: int  # gamma(n), self-reciprocal factors, when good; beta(n), reciprocal pairs, when bad


class FactorRecord(NamedTuple):
    """One monic basic irreducible factor of X^N - 1 with its metadata.

    The field `index` hides tuple.index on a record.
    """

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

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:  # each record's degree, by id
        return tuple(r.degree for r in self.records)

    @functools.cached_property
    def partners(self) -> tuple[int, ...]:  # each record's reciprocal partner, by id
        return tuple(r.partner for r in self.records)

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
    """Orbits of s -> 2s mod N on {0..N-1}, each ascending, sorted by minimum.

    Each orbit is walked from its least member back to it, marking the
    members in a bytearray, and bytearray.find jumps to the next unmarked
    residue, the least member of the next orbit; so each residue costs one
    Python step, in the walk of its orbit, and none to be skipped.  Raises
    ValueError for N past sys.maxsize, which no list or bytearray can index.
    """
    _require_odd(length)
    if length > sys.maxsize:
        raise ValueError(f"N = {length} exceeds {sys.maxsize}, the most residues a list can index")
    seen = bytearray(length)  # the least member of each orbit stays unmarked
    cosets = []
    start = 0
    while start >= 0:
        orbit = [start]
        s = 2 * start % length
        while s != start:
            seen[s] = 1
            orbit.append(s)
            s = 2 * s % length
        orbit.sort()
        cosets.append(tuple(orbit))
        start = seen.find(0, start + 1)
    return cosets


# ---------------------------------------------------------------------------
# A primitive idempotent of Phi_N's part of F2[X]/(X^N - 1), as an N-bit int

def _primitive_part(length: int) -> int:
    """theta_N, the idempotent of F2[X]/(X^N - 1) that is 1 exactly at the primitive N-th roots.

    The comb sum_{j < N/d} X^(jd) is 1 at the roots of X^d - 1 and 0 at
    the other roots of X^N - 1, N/d being odd.  theta_N is the XOR of the
    combs of the d | N with N/d squarefree, so at a root of order n it
    counts the squarefree divisors of N/n, 2^(number of primes of N/n),
    which is odd only for n = N.
    """
    primes = list(_factorize(length))
    theta = 0
    for subset in range(1 << len(primes)):
        spacing = length // math.prod(p for k, p in enumerate(primes) if subset >> k & 1)
        comb, span = 1, spacing  # X^0, X^d, X^2d, ... below X^span, d the spacing
        while span < length:
            comb |= comb << span
            span <<= 1
        theta ^= comb
    return theta & ((1 << length) - 1)


def _cyclic_product(element: int, exponents: Iterable[int], length: int) -> int:
    """element * sum of X^s over s in exponents, mod X^N - 1: an XOR of rotations.

    element is an N-bit int and each s < N, so the shifted copies fit in
    2N - 1 bits and one fold of the bits at and above N brings them back.
    """
    product = 0
    for s in exponents:
        product ^= element << s
    return (product & ((1 << length) - 1)) ^ product >> length


def _is_primitive(idempotent: int, degree: int, length: int) -> bool:
    """Whether an idempotent of Phi_N's part is 1 at the roots of one factor of degree m.

    Its coefficients are e_i = sum of zeta^-i over the roots zeta where it
    is 1, a sequence of linear complexity the number of those roots.  So it
    is primitive exactly when its coefficients, all the way round, obey a
    recurrence of order m: Berlekamp-Massey on its first 2m < N terms
    gives the minimal polynomial C, and E C* = 0 mod X^N - 1, C* the
    reversal of C, is that recurrence at every index.
    """
    low = idempotent & ((1 << 2 * degree) - 1)
    min_poly = _bits_berlekamp_massey([low >> k & 1 for k in range(2 * degree)])
    if min_poly.bit_length() - 1 != degree:
        return False
    reversal = int(format(min_poly, "b")[::-1], 2)
    return not _cyclic_product(idempotent, [k for k in range(degree + 1) if reversal >> k & 1], length)


def _primitive_idempotent(cosets: list[tuple[int, ...]]) -> int:
    """A primitive idempotent E of F2[X]/(X^N - 1) that is 1 at the roots of one factor of Phi_N.

    A coset sum T_K = sum of X^s over s in K is fixed by Frobenius, so it
    is 0 or 1 at every root, and E T_K keeps the roots of E where T_K is
    1.  Starting from theta_N (_primitive_part), each coset in turn
    replaces E by E T_K when that is neither 0 nor E: a split, which
    drops at least one of the c = phi(N)/m factors of Phi_N that E is 1
    at.  The walk stops when E is certified primitive: after c - 1 splits
    (so at once when c = 1); after the last coset, since the coset sums
    span the Frobenius-fixed algebra and so tell any two factors apart;
    or by _is_primitive, run only after a split that leaves more
    residues to walk than the 3m rotations and terms that the test costs.
    """
    length = sum(map(len, cosets))
    degree = max(map(len, cosets))  # the coset of 1 has ord_N(2) members
    phi = length
    for p in _factorize(length):
        phi -= phi // p
    factors = phi // degree  # of Phi_N, each of degree m
    idempotent, splits, left = _primitive_part(length), 0, length
    for coset in cosets:
        if splits == factors - 1:
            break
        left -= len(coset)
        product = _cyclic_product(idempotent, coset, length)
        if product in (0, idempotent):
            continue
        idempotent, splits = product, splits + 1
        if splits < factors - 1 and left > 3 * degree and _is_primitive(idempotent, degree, length):
            break
    return idempotent


def _coset_terms(chain: bytes, steps: list[int], count: int) -> list[bytes]:
    """chain[s * k % len(chain)] for k < count, as bytes, for each s in steps.

    `chain` is any whole number of copies of the N coefficients of the
    idempotent, so these are also its coefficients s * k mod N: the copies
    keep period N.  When count * s is within the chain, the terms of s are
    the one slice chain[:count * s:s]; otherwise _wrapped_terms reads them.
    """
    length = len(chain)
    return [chain[:count * s:s] if 0 < count * s <= length else _wrapped_terms(chain, s, count)
            for s in steps]


def _wrapped_terms(chain: bytes, step: int, count: int) -> bytes:
    """chain[step * k % len(chain)] for k < count, for a step that wraps.

    step * k runs through a slice of chain until it wraps past the end, and
    then through the slice from the wrapped residue; each slice is cut at
    the terms still needed.  step 0 repeats chain[0].
    """
    if not step:
        return chain[:1] * count
    pieces = []
    read = 0
    while read < count:
        start = read * step % len(chain)
        pieces.append(chain[start:start + (count - read) * step:step])
        read += len(pieces[-1])
    return b"".join(pieces)


def _size_classes(cosets: list[tuple[int, ...]]) -> list[tuple[int, list[int], bool]]:
    """The cosets by size d, as (d, positions of its cosets, lanes).

    `lanes` marks a lane class, of more than 2d cosets, which runs
    Berlekamp-Massey and the Graeffe lift once for all its cosets,
    bit-sliced with one lane per coset, where that was measured to beat
    one run per coset; a smaller class runs both once per coset.
    """
    classes: dict[int, list[int]] = {}
    for idx, coset in enumerate(cosets):
        classes.setdefault(len(coset), []).append(idx)
    return [(d, members, len(members) > 2 * d) for d, members in classes.items()]


def factor_mod2(cosets: list[tuple[int, ...]]) -> list[int]:
    """Monic irreducible factors of X^N + 1 over F2, one per cyclotomic coset.

    `cosets` is cyclotomic_cosets(N), and N the sum of their sizes.  Each
    factor is in the int encoding, bit k the coefficient of X^k, and the
    list is ordered as the cosets.

    Factor j is the minimal polynomial of alpha^s, s the least member of
    coset j, for alpha a root of the least irreducible factor of Phi_N mod 2
    in the int encoding.  _primitive_idempotent gives an idempotent E of
    F2[X]/(X^N - 1) that is 1 exactly at the roots of one factor M of
    Phi_N, so that its coefficient k is Tr(zeta^k), zeta a root of the
    reciprocal of M, of order N.  Rotated by r so that its coefficient 0
    is 1, E has coefficients Tr(c zeta^k), c = zeta^r, and these N bits
    are the chain.  Term k of the coset of s, Tr(c (zeta^s)^k), follows
    the recurrence of the minimal polynomial of zeta^s, which is
    irreducible, and is 1 at k = 0, so Berlekamp-Massey on its first 2d
    terms gives that minimal polynomial, d the coset size.  _coset_terms
    reads them from copies of the chain, enough that each coset's terms
    are one slice, or as many as fit in TERM_EXTENSION_BYTES (at least
    one), when its reads wrap.  The cosets are taken by size
    (_size_classes): a lane class of R > 2d cosets of size d runs
    _bits_berlekamp_massey_lanes once, one lane per coset, and a smaller
    class runs _bits_berlekamp_massey once per coset.  Either way each
    minimal polynomial must have degree d.  The unit coset with the
    least of these has least member t, so alpha = zeta^t up to Frobenius,
    and factor j is the one of coset t*s.
    """
    length = sum(map(len, cosets))
    # the coefficients of the idempotent, rotated so that the first is 1,
    # one byte each
    coeffs = format(_primitive_idempotent(cosets), "b").zfill(length)[::-1]
    start = coeffs.index("1")
    period = (coeffs[start:] + coeffs[:start]).encode().translate(_LOW_2_BITS)
    # copies of the chain, enough for one slice of 2d terms per coset of
    # size d and step s, within the cap
    needed = max(2 * len(coset) * coset[0] for coset in cosets)
    chain = period * max(1, min(-(-needed // length), TERM_EXTENSION_BYTES // length))
    raw = [0] * len(cosets)
    for d, members, lanes in _size_classes(cosets):
        terms = _coset_terms(chain, [cosets[idx][0] for idx in members], 2 * d)
        if lanes:
            min_polys = _bits_berlekamp_massey_lanes(b"".join(terms), len(members))
        else:
            min_polys = map(_bits_berlekamp_massey, terms)
        for idx, min_poly in zip(members, min_polys):
            if min_poly.bit_length() - 1 != d:
                raise AssertionError(f"minimal polynomial has degree {d}")
            raw[idx] = min_poly
    coset_of = [0] * length  # the position of the coset of each residue
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
    the sign is a byte table applied to the slots mod 4.  build_factor_table
    lifts the factors of a lane class with _graeffe_lift_lanes instead, and
    those of a smaller class, and codes.factor_divisor's, here.
    """
    if bits <= 0 or not bits & 1:
        # a negative int would read its sign as a digit below
        raise ValueError("lift requires a positive odd encoding: a nonzero constant term")
    digits = format(bits, "b")[::-1].encode().translate(_LOW_2_BITS)  # ASCII "0"/"1" -> 0/1
    width = ((4 * len(digits[0::2])).bit_length() + 7) // 8
    even, odd = _pack(digits[0::2], width), _pack(digits[1::2], width)
    packed = even * even + (3 * odd * odd << 8 * width)  # e^2 + 3 X o^2, X one slot
    sign = _LOW_2_BITS if len(digits) % 2 else _NEG_LOW_2_BITS  # (-1)^deg
    lifted = _unpack(packed, width).translate(sign)
    if lifted[-1] != 1:
        raise AssertionError("Graeffe lift is monic by the sign choice")
    return Z4Poly._of(lifted)


def _graeffe_lift_lanes(bits: list[int], degree: int) -> list[Z4Poly]:
    """graeffe_lift of many mod-2 factors of one degree, one lane per factor.

    Coefficient i of the factors is a plane F_i of R bits, R = len(bits),
    read off their binary texts laid end to end.  With E = F[0::2] and
    O = F[1::2], and since e(X)^2 = e(X^2) + 2 sum_{i<j} e_i e_j X^(i+j)
    mod 4 for a 0/1 polynomial e, the lift e(X)^2 - X o(X)^2 has low bits F_k
    and high bits hi_k, the XOR of E_i & E_j over i < j with i + j = k, of
    O_i & O_j over i < j with i + j + 1 = k, and of F_k when k is odd (the
    3s of -X o(X^2)).  The planes of F and hi are written out as ASCII
    rows, one row per coefficient, and added as ints, the hi rows twice, so
    that each byte is 144 + lo + 2 hi with no carry; the byte table of
    graeffe_lift takes it mod 4 with the sign (-1)^degree.  Lane j's
    coefficients are then the stride-R slice from byte j.
    """
    lanes, width = len(bits), degree + 1
    if not lanes:
        return []
    if min(bits) >> degree != 1 or max(bits) >> degree != 1:
        raise ValueError(f"every factor must have degree {degree}")
    text = "".join([format(b, "b") for b in bits])  # lane j's coefficient i at j * width + degree - i
    rows = [text[degree - i::width] for i in range(width)]  # row i: coefficient i of lanes 0 .. R-1
    if "0" in rows[0]:
        raise ValueError("lift requires a positive odd encoding: a nonzero constant term")
    planes = [int(row, 2) for row in rows]  # lane j at bit R - 1 - j
    even, odd = planes[0::2], planes[1::2]
    high = [plane if k % 2 else 0 for k, plane in enumerate(planes)]
    for half, offset in ((even, 0), (odd, 1)):
        for i, low in enumerate(half):
            for j in range(i + 1, len(half)):
                high[i + j + offset] ^= low & half[j]
    high_text = "".join([format(plane, "b").zfill(lanes) for plane in high])
    packed = int.from_bytes("".join(rows).encode(), "big") + 2 * int.from_bytes(high_text.encode(), "big")
    sign = _LOW_2_BITS if width % 2 else _NEG_LOW_2_BITS  # (-1)^degree
    coeffs = packed.to_bytes(width * lanes, "big").translate(sign)
    if coeffs[degree * lanes:] != b"\1" * lanes:
        raise AssertionError("Graeffe lift is monic by the sign choice")
    return [Z4Poly._of(coeffs[j::lanes]) for j in range(lanes)]


@functools.lru_cache(maxsize=FACTOR_TABLE_CACHE_SIZE)
def build_factor_table(length: int) -> FactorTable:
    """Lift every mod-2 factor of X^N + 1 and assemble the factor table.

    Records are ordered by the minimal representative of their coset.  Each
    record is assigned the divisor n = N / gcd(N, s) its roots have order n
    for, a 1-based index within its n-block, and its reciprocal partner.
    Reciprocation maps the roots alpha^s to alpha^-s, so the partner of the
    coset of s is the coset of -s mod N, whose least member is N less the
    greatest member of the coset of s (0 for the coset of 0); the lifted
    partner must equal the reciprocal of the lifted factor.  Within a pair
    the record with the smaller minimal representative is the pairFirst,
    and the check runs there alone: reciprocal is an involution on monic
    polynomials with a unit constant term, so it also holds for the
    pairSecond.
    The factors of a lane class (_size_classes) are lifted as planes, by
    one _graeffe_lift_lanes call, and those of a smaller class by
    graeffe_lift one at a time.
    """
    _require_odd(length)
    cosets = cyclotomic_cosets(length)
    mod2 = factor_mod2(cosets)
    lifted = [None] * len(cosets)  # filled class by class
    for d, members, lanes in _size_classes(cosets):
        factors = [mod2[idx] for idx in members]
        polys = _graeffe_lift_lanes(factors, d) if lanes else map(graeffe_lift, factors)
        for idx, poly in zip(members, polys):
            lifted[idx] = poly
    first = {coset[0]: idx for idx, coset in enumerate(cosets)}  # least member -> position

    # one count per n-block: it holds only self-reciprocal factors or only pairs
    blocks: dict[int, int] = {}
    records: list[FactorRecord] = []
    record = functools.partial(tuple.__new__, FactorRecord)  # what FactorRecord(...) runs, in C
    for idx, (coset, poly) in enumerate(zip(cosets, lifted)):
        divisor = length // math.gcd(length, coset[0])
        partner = first[-coset[-1] % length]
        if idx <= partner:
            if lifted[partner].coeffs != poly.reciprocal().coeffs:
                raise AssertionError("reciprocal of a factor is the factor of the negated coset")
            kind = SELF_RECIPROCAL if idx == partner else PAIR_FIRST
            block = blocks[divisor] = blocks.get(divisor, 0) + 1
        else:
            kind, block = PAIR_SECOND, records[partner].block_index
        records.append(record((idx, poly, mod2[idx], divisor, block, kind, partner, coset)))
    return FactorTable(length, tuple(records))


def factor_label(record: FactorRecord) -> str:
    """Display label in g[i,n] / f[i,n] / f*[i,n] form."""
    stem = {SELF_RECIPROCAL: "g", PAIR_FIRST: "f", PAIR_SECOND: "f*"}[record.kind]
    return f"{stem}[{record.block_index},{record.divisor}]"


_JSON_HEAD = '{\n  "N": %d,\n  "records": [\n'
_JSON_RECORD_HEAD = '    {\n      "coset": [\n        '
_JSON_RECORD_TAIL = (
    '\n      ],\n      "i": %d,\n      "id": %d,\n      "kind": "%s",\n      "n": %d,\n'
    '      "partner": %d,\n      "poly": "%s"\n    }'
)
_JSON_TAIL = "\n  ]\n}\n"
_JSON_COSET_SEP = ",\n        "


def write_table_json(table: FactorTable, out: TextIO) -> None:
    """Write the table as json.dumps(..., indent=2, sort_keys=True) would.

    Fixed templates stand in for the encoder, which runs in pure Python
    whenever indent is set; keys are in sorted order, and kinds and
    coefficient strings hold nothing that JSON escapes.  Each coset size has
    a record template with one %d per coset member; the templates of all
    records are joined into one, and one % fills it from a flat tuple of
    every record's fields; the coefficient strings of all records come
    from one _coeff_text pass.  A table has at least one record and a coset
    at least one member, so no list renders as [].  The text is written
    once.
    """
    templates = {size: _JSON_RECORD_HEAD + _JSON_COSET_SEP.join(["%d"] * size) + _JSON_RECORD_TAIL
                 for size in set(table.degrees)}
    template = _JSON_HEAD + ",\n".join(map(templates.__getitem__, table.degrees)) + _JSON_TAIL
    texts = _coeff_text([r.poly.coeffs for r in table.records])
    fields = [table.length]
    for r, text in zip(table.records, texts):
        fields += r.coset
        fields += (r.block_index, r.index, r.kind, r.divisor, r.partner, text)
    out.write(template % tuple(fields))
