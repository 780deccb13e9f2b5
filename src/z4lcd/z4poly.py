"""Exact polynomial arithmetic over Z4 and over F2.

Z4 polynomials are held as tuples of canonical residues in ascending degree
order: ``coeffs[k]`` is the coefficient of X^k.  The last entry is always
nonzero; the zero polynomial is the empty tuple.
Constructors reduce arbitrary integer coefficients into canonical form, so
inputs may use the signed convention (-1 for 3, -2 for 2, and so on).

F2 polynomials have one encoding, an int whose bit k is the coefficient of
X^k (0 is the zero polynomial).  ``Z4Poly.reduce_mod2``,
``cyclotomic.factor_mod2`` and ``cyclotomic.graeffe_lift`` take and return
it as a plain int, and the ``_bits_*`` routines are the only F2[X]
arithmetic in the package.

- ``_bits_mul``, ``_bits_rem`` and ``_bits_gcd``: carry-less multiply,
  the remainder of long division, and Euclid, one Python loop iteration
  per bit.
- ``_bits_rems``: the remainders of one polynomial modulo many, in one
  bit-sliced Horner pass over its coefficients, a few big-int steps per
  coefficient whatever the number of moduli.
- ``_bits_sqr``: the square, as the binary digits read as base-4 digits,
  in the interpreter's int/str conversion code.
- ``_bits_mod``: the remainder mod X^m + tail, by folding the bits at and
  above degree m back through the tail, a few big-int steps per fold when
  the tail is short.
- ``_bits_powmod``: left-to-right square and multiply on those two kernels.
- ``_bits_min_poly``: the first F2-linear relation among the powers of an
  element, read from a list of the powers of a generator.
- ``_bits_is_irreducible``: Ben-Or's test, with Frobenius steps on the two
  kernels and one gcd per step.

Z4 multiplication is Kronecker substitution: both operands are packed into
Python ints, one fixed-width byte slot per coefficient, wide enough that no
slot overflows (``9 * min(len(a), len(b))`` fits in it), and multiplied
once, so the work runs in the interpreter's big-int code, not in a Python
loop; each slot of the product is then read back mod 4.

Z4 polynomials have products, reciprocals and reduction mod 2, but no sum.
Z4[X] is not a Euclidean domain, so only division by a *monic* divisor is
offered (quotient and remainder are then unique).  In F2[X] nothing needs a
quotient, so long division returns only the remainder.

The text form of a polynomial is its comma-separated ascending coefficient
list, e.g. ``"3,1,2,1"`` for X^3+2X^2+X-1; the empty string is the zero
polynomial.
"""

from __future__ import annotations

_LOW_2_BITS = bytes(i & 3 for i in range(256))  # byte -> byte mod 4
_ASCII_DIGIT = bytes(48 + (i & 3) for i in range(256))  # residue byte -> its ASCII digit
_PARITY_DIGIT = bytes(48 + (i & 1) for i in range(256))  # residue byte -> ASCII digit mod 2


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """The int with coeffs[k] in the low byte of its k-th slot of `width` bytes."""
    slots = bytearray(len(coeffs) * width)
    slots[::width] = bytes(coeffs)
    return int.from_bytes(slots, "little")


class Z4Poly:
    """A polynomial over Z4, immutable after construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        out = [c % 4 for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        self.coeffs: tuple[int, ...] = tuple(out)

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "Z4Poly":
        """Wrap coefficients that are already canonical residues, top one nonzero."""
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls) -> "Z4Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Z4Poly":
        return cls((1,))

    @classmethod
    def x_pow_minus_one(cls, n: int) -> "Z4Poly":
        """X^n - 1 for n >= 1."""
        if n < 1:
            raise ValueError("exponent must be positive")
        return cls((3,) + (0,) * (n - 1) + (1,))

    @classmethod
    def from_string(cls, text: str) -> "Z4Poly":
        """Parse the comma-separated ascending coefficient form."""
        text = text.strip()
        if not text:
            return cls.zero()
        return cls(int(part) for part in text.split(","))

    def to_string(self) -> str:
        """Canonical comma-separated ascending coefficient form."""
        return ",".join(bytes(self.coeffs).translate(_ASCII_DIGIT).decode())

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        """Product by Kronecker substitution: one big-int multiplication.

        Each operand is packed into an int with one slot of w bytes per
        coefficient.  A product coefficient is a sum of at most
        min(len(a), len(b)) terms, each at most 3 * 3 = 9, so w is the byte
        length of 9 * min(len(a), len(b)) and no slot can carry into the
        next.  Slot k of the product is then the exact integer coefficient
        of X^k; its low byte, masked to the low 2 bits, is that
        coefficient mod 4.
        """
        if not isinstance(other, Z4Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Z4Poly.zero()
        w = ((9 * min(len(a), len(b))).bit_length() + 7) // 8
        slots = len(a) + len(b) - 1
        product = _pack(a, w) * _pack(b, w)
        low = product.to_bytes(slots * w, "little")[::w].translate(_LOW_2_BITS)
        return Z4Poly._of(tuple(low.rstrip(b"\0")))

    def scale(self, unit: int) -> "Z4Poly":
        """Multiply every coefficient by an integer (reduced mod 4)."""
        return Z4Poly(unit * c for c in self.coeffs)

    def divmod_monic(self, divisor: "Z4Poly") -> tuple["Z4Poly", "Z4Poly"]:
        """Long division by a monic divisor; returns (quotient, remainder).

        Quotient and remainder are the unique pair with
        self = quotient * divisor + remainder and deg(remainder) < deg(divisor).
        """
        if not divisor.is_monic:
            raise ValueError("divisor must be monic and nonzero")
        rem = list(self.coeffs)
        d = divisor.coeffs
        dd = len(d) - 1
        if len(rem) - 1 < dd:
            return Z4Poly.zero(), Z4Poly(rem)
        quot = [0] * (len(rem) - dd)
        for top in range(len(rem) - 1, dd - 1, -1):
            lead = rem[top]
            if lead:
                quot[top - dd] = lead
                for k in range(dd + 1):
                    rem[top - dd + k] = (rem[top - dd + k] - lead * d[k]) % 4
        return Z4Poly(quot), Z4Poly(rem)

    def reciprocal(self) -> "Z4Poly":
        """a0^-1 * X^deg * p(1/X): coefficient reversal scaled monic.

        Defined only for monic polynomials whose constant term is a unit
        of Z4; rejects anything else.
        """
        if not self.is_monic:
            raise ValueError("reciprocal requires a monic polynomial")
        a0 = self.coeffs[0]
        if a0 not in (1, 3):  # the units of Z4, each its own inverse
            raise ValueError("reciprocal requires a unit constant term")
        return Z4Poly(a0 * c for c in reversed(self.coeffs))

    def is_self_reciprocal(self) -> bool:
        return self == self.reciprocal()

    def reduce_mod2(self) -> int:
        """Coefficient-wise reduction mod 2, in the int encoding (degree may drop)."""
        digits = bytes(self.coeffs)[::-1].translate(_PARITY_DIGIT)  # top coefficient first
        return int(digits, 2) if digits else 0

    def __eq__(self, other):
        return isinstance(other, Z4Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((Z4Poly, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Z4Poly([{self.to_string()}])"

    def __str__(self):
        return format_terms(self)


# ---------------------------------------------------------------------------
# F2[X] arithmetic on the int encoding

def _bits_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _bits_rem(a: int, b: int) -> int:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    width = b.bit_length()
    shift = a.bit_length() - width
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - width
    return a


def _bits_rems(a: int, mods: list[int]) -> list[int]:
    """[_bits_rem(a, m) for m in mods], in one Horner pass over the bits of a.

    One int holds a slot of D + 1 bits per modulus, D the largest degree;
    a modulus of degree d sits in bits D - d ... D of its slot, and its
    remainder in bits D - d ... D - 1.  Each coefficient of a, top first,
    shifts every remainder up one degree, adds the coefficient at the
    bottom of each, and subtracts each modulus whose X^d coefficient
    reached bit D.
    """
    if not all(mods):
        raise ZeroDivisionError("division by the zero polynomial")
    degrees = [m.bit_length() - 1 for m in mods]
    top = max(degrees, default=0)
    width = top + 1
    packed = low = tops = 0
    for slot, (m, d) in enumerate(zip(mods, degrees)):
        packed |= m << slot * width + top - d
        low |= 1 << slot * width + top - d
        tops |= 1 << slot * width + top
    reg = 0
    for digit in format(a, "b"):
        # the coefficient goes in before the subtraction, so a modulus of
        # degree 0, whose bottom is bit D, takes it straight back out
        reg <<= 1
        if digit == "1":
            reg ^= low
        over = reg & tops
        # (over << 1) - (over >> D) covers each slot whose bit D is set
        reg ^= ((over << 1) - (over >> top)) & packed
    return [reg >> slot * width + top - d & (1 << d) - 1 for slot, d in enumerate(degrees)]


def _bits_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _bits_rem(a, b)
    return a


def _bits_sqr(a: int) -> int:
    # squaring is linear over F2: bit k moves to bit 2k, so the binary
    # digits of a, read as base-4 digits, are a^2
    return int(format(a, "b"), 4)


def _bits_mod(a: int, mod: int) -> int:
    # X^m = tail (mod `mod`): fold the bits at and above degree m back
    # through the tail; each fold costs one pass per tail bit, so a short
    # tail (degree <= 9 in the least irreducible of each degree m <= 210)
    # costs a few big-int steps, not one loop iteration per bit as
    # _bits_rem does
    if not mod:
        raise ZeroDivisionError("division by the zero polynomial")
    m = mod.bit_length() - 1
    tail = mod ^ 1 << m
    mask = (1 << m) - 1
    while a >> m:
        a = a & mask ^ _bits_mul(a >> m, tail)
    return a


def _bits_powmod(base: int, exp: int, mod: int) -> int:
    base = _bits_mod(base, mod)
    result = 1
    for digit in format(exp, "b"):  # left to right: square, then multiply
        result = _bits_mod(_bits_sqr(result), mod)
        if digit == "1":
            result = _bits_mod(_bits_mul(result, base), mod)
    return result


def _bits_min_poly(powers: list[int], step: int, degree: int) -> int:
    """Minimal polynomial over F2 of beta = alpha^step, of known degree.

    `powers` lists alpha^j for j below the order n of alpha, so beta^k is
    powers[step * k % n] and costs no field multiplication.  Reduces
    1, beta, beta^2, ... as bit vectors against a basis keyed by leading
    bit, tracking the powers each basis vector combines; the first power
    that reduces to zero gives the first linear relation, which is the
    minimal polynomial.  Costs at most degree * m XORs in F_{2^m}.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, powers used)
    n = len(powers)
    for k in range(degree + 1):
        vector, used = powers[step * k % n], 1 << k
        while vector:
            lead = vector.bit_length() - 1
            if lead not in basis:
                break
            pivot, pivot_used = basis[lead]
            vector ^= pivot
            used ^= pivot_used
        if not vector:
            if k != degree:
                raise AssertionError(f"minimal polynomial has degree {k}, not {degree}")
            return used
        basis[lead] = (vector, used)
    raise AssertionError(f"minimal polynomial has degree above {degree}")


def _bits_is_irreducible(a: int) -> bool:
    # a has an irreducible factor of degree dividing k iff
    # gcd(X^(2^k) - X, a) != 1; no factor of degree <= deg/2 means irreducible
    deg = a.bit_length() - 1
    if deg <= 0:
        return False
    frob = 2  # X
    for _ in range(deg // 2):
        frob = _bits_mod(_bits_sqr(frob), a)
        if _bits_gcd(frob ^ 2, a) != 1:
            return False
    return True


def format_terms(p: Z4Poly) -> str:
    """Render a Z4 polynomial in signed symbolic form, e.g. X^3+2X^2+X-1.

    Residue 3 is written as -1, matching the usual signed display of Z4
    coefficients; residues 1 and 2 are written as-is.
    """
    if not p.coeffs:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign, mag = ("-", 1) if c == 3 else ("+", c)
        if k == 0:
            body = str(mag)
        else:
            power = "X" if k == 1 else f"X^{k}"
            body = power if mag == 1 else f"{mag}{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = first_body if first_sign == "+" else "-" + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text
