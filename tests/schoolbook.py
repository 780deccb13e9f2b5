"""Literal polynomial arithmetic that the tests check the library against.

A polynomial is a list or tuple of coefficients, lowest degree first.  Each
routine is the schoolbook loop over coefficients, with none of the packing,
folding or int encodings the library uses.  Z4 results may carry trailing
zeros (wrap them in ``Z4Poly`` to compare); F2 remainders and gcds do not.
``f2_bits`` and ``f2_coeffs`` convert between F2 coefficient lists and the
library's int encoding of F2[X], bit k the coefficient of X^k.
``is_self_reciprocal`` alone takes a ``Z4Poly``.
"""


def f2_bits(coeffs):
    """The int encoding of an F2 polynomial; coefficients are taken mod 2."""
    return int("".join(str(c % 2) for c in reversed(coeffs)) or "0", 2)


def f2_coeffs(bits):
    """The coefficient list of an int encoding, without trailing zeros."""
    coeffs = []
    while bits:
        coeffs.append(bits % 2)
        bits //= 2
    return coeffs


def x_pow_minus_one(n):
    """X^n - 1 over Z4, for n >= 1."""
    return [3] + [0] * (n - 1) + [1]


def is_self_reciprocal(p):
    return p == p.reciprocal()


def z4_add(a, b):
    """Coefficient-wise sum mod 4."""
    out = [0] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return [c % 4 for c in out]


def z4_mul(a, b):
    """Product mod 4 by the double loop over coefficient pairs."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 4
    return out


def z4_divmod_monic(a, d):
    """(quotient, remainder) of long division over Z4 by d, whose top coefficient is 1."""
    rem = [c % 4 for c in a]
    quot = [0] * max(len(rem) - len(d) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        lead = rem[shift + len(d) - 1]
        quot[shift] = lead
        for k, c in enumerate(d):
            rem[shift + k] = (rem[shift + k] - lead * c) % 4
    return quot, rem


def f2_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return out


def f2_divmod(a, b):
    """(quotient, remainder) of long division over F2 by b, whose top coefficient is 1."""
    rem = list(a)
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        if rem[shift + len(b) - 1]:
            quot[shift] = 1
            for k, c in enumerate(b):
                rem[shift + k] ^= c
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def f2_rem(a, b):
    """Remainder of long division over F2 by b, whose top coefficient is 1."""
    return f2_divmod(a, b)[1]


def f2_gcd(a, b):
    """Greatest common divisor by Euclid; a and b without trailing zeros."""
    a, b = list(a), list(b)
    while b:
        a, b = b, f2_rem(a, b)
    return a


def f2_is_irreducible_by_trial_division(poly):
    # exhaustive check against every monic divisor of degree <= deg/2
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for bits in range(1 << d):
            if not f2_rem(poly, [(bits >> k) & 1 for k in range(d)] + [1]):
                return False
    return True
