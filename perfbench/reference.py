"""The benchmark's own arithmetic, used to make inputs and check outputs.

Nothing here imports z4lcd, so the checks do not share code with the
program they check.  Factor ids are never interpreted through the
program's labels (g[i,n], f[i,n], f*[i,n]); only through the coset each
record says it was lifted from, so a change of labelling convention does
not trip a check.
"""

from __future__ import annotations

import math


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n up to about 10^12."""
    primes: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes[p] = primes.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes[n] = primes.get(n, 0) + 1
    return primes


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def order_of_2(n: int) -> int:
    """ord_n(2) for odd n, by reducing Carmichael's lambda(n) prime by prime."""
    if n == 1:
        return 1
    lam = 1
    for p, e in factorize(n).items():
        lam = math.lcm(lam, p ** (e - 1) * (p - 1))
    for q in factorize(lam):
        while lam % q == 0 and pow(2, lam // q, n) == 1:
            lam //= q
    return lam


def orbit_counts(n: int) -> tuple[int, int, int]:
    """(m, r, nsrf) for odd n by Burnside's lemma on Z/n.

    m = ord_n(2); r = number of orbits of s -> 2s (the 2-cyclotomic
    cosets, one per factor of X^n - 1); nsrf = number of orbits of the
    group generated by s -> 2s and s -> -s.  A multiplier g fixes
    gcd(g - 1, n) residues.  Cost is O(m).
    """
    fixed_plus = fixed_minus = 0
    minus_one_is_power = False
    x, m = 1, 0
    while True:
        fixed_plus += math.gcd(x - 1, n)
        fixed_minus += math.gcd(n - x - 1, n)
        minus_one_is_power |= x == (n - 1) % n
        x = 2 * x % n
        m += 1
        if x == 1 % n:
            break
    r = fixed_plus // m
    if minus_one_is_power:
        return m, r, r
    return m, r, (fixed_plus + fixed_minus) // (2 * m)


def count_lcd_cost_proxy(n: int) -> int:
    """Relative cost of `count-lcd n` at the seed: n plus 13.5 * sum ord_d(2).

    Fitted on log-uniform n in [10^4, 10^6] (79 ns per unit of n and
    1.07 us per unit of order).  Only used to stratify the draw of n, so
    that every seed gets the same spread of costs.
    """
    return 2 * n + 27 * sum(order_of_2(d) for d in divisors(n))


def partner_map(cosets: list[list[int]], n: int) -> list[int]:
    """For each coset, the index of the coset holding its negatives."""
    owner = {}
    for index, coset in enumerate(cosets):
        for s in coset:
            owner[s] = index
    return [owner[(-coset[0]) % n] for coset in cosets]


def is_coset_partition(cosets: list[list[int]], n: int) -> bool:
    """True when the cosets are disjoint, cover Z/n and are closed under x2."""
    seen = set()
    for coset in cosets:
        members = set(coset)
        if len(members) != len(coset) or members & seen:
            return False
        if {2 * s % n for s in coset} != members:
            return False
        seen |= members
    return len(seen) == n


def reciprocal(coeffs: list[int]) -> list[int]:
    """a0^-1 X^d p(1/X) for a monic p over Z4 with unit constant term."""
    unit = coeffs[0]  # 1 and 3 are their own inverses mod 4
    return [unit * c % 4 for c in reversed(coeffs)]


_SLOT = 24  # bits per coefficient; products of length <= 2^19 fit


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product over Z4 by Kronecker substitution into one integer product."""
    width = _SLOT // 8
    pack = lambda p: int.from_bytes(b"".join(c.to_bytes(width, "little") for c in p), "little")
    length = len(a) + len(b) - 1
    raw = (pack(a) * pack(b)).to_bytes(length * width, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little") % 4 for k in range(length)]


def poly_product(polys: list[list[int]]) -> list[int]:
    out = [1]
    for p in polys:
        out = poly_mul(out, p)
    return out
