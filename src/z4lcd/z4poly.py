"""Exact polynomial arithmetic over Z4 and over F2.

Z4 polynomials are held as ``bytes`` of canonical residues in ascending
degree order: ``coeffs[k]`` is the coefficient of X^k.  The last byte is
always nonzero; the zero polynomial is ``b""``.  The kernels below read and
write that form as it is, one byte per coefficient.
Constructors reduce arbitrary integer coefficients into canonical form, so
inputs may use the signed convention (-1 for 3, -2 for 2, and so on); a
non-integer coefficient raises ``TypeError``.

F2 polynomials have one encoding, an int whose bit k is the coefficient of
X^k (0 is the zero polynomial).  ``Z4Poly.reduce_mod2``,
``cyclotomic.factor_mod2`` and ``cyclotomic.graeffe_lift`` take and return
it as a plain int.  The ``_bits_*`` routines are the F2[X] kernels; the
rest is a shift and an XOR, written in place where cyclotomic builds
Phi_N and the chain of powers of X.

- ``_bits_rem`` and ``_bits_gcd``: the remainder of long division, and
  Euclid, one Python loop iteration per bit.
- ``_bits_rems``: the remainders of one polynomial modulo many, in one
  bit-sliced Horner pass over its coefficients, a few big-int steps per
  coefficient whatever the number of moduli.
- ``_bits_berlekamp_massey``: the minimal polynomial of a linear recurrence
  over F2 from its terms, one parity of the connection polynomial against
  a window of the terms per step, and one shift of the previous connection
  polynomial, which it keeps pre-shifted.
- ``_bits_berlekamp_massey_lanes``: the same for R sequences of one length
  and one linear complexity at once, bit-sliced: each coefficient is a
  plane of R bits, one per sequence, so a step costs a few dozen big-int
  operations whatever R.  It pays off over the one-sequence kernel when R
  is more than about the number of terms (cyclotomic.factor_mod2).

Z4 multiplication is Kronecker substitution: both operands are packed into
Python ints, one fixed-width byte slot per coefficient, wide enough that no
slot overflows (``9 * min(len(a), len(b))`` fits in it), and multiplied
once, so the work runs in the interpreter's big-int code, not in a Python
loop; each slot of the product is then read back mod 4.  ``_pack`` and
``_unpack`` are that slot layout, which ``cyclotomic.graeffe_lift`` and the
LCD catalog of ``lcdenum`` use as well.

Z4 polynomials have products, reciprocals and reduction mod 2, but no sum.
Z4[X] is not a Euclidean domain, so only division by a *monic* divisor is
offered (quotient and remainder are then unique).  In F2[X] the only
quotients are those of Phi_N by binomials X^d + 1, which cyclotomic takes
as a prefix XOR, so long division returns only the remainder.

The text form of a polynomial is its comma-separated ascending coefficient
list, e.g. ``"3,1,2,1"`` for X^3+2X^2+X-1; the empty string is the zero
polynomial.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

_LOW_2_BITS = bytes(i & 3 for i in range(256))  # byte -> byte mod 4
_NEG_LOW_2_BITS = bytes(-i & 3 for i in range(256))  # byte -> its negative mod 4
_ASCII_DIGIT = bytes(48 + (i & 3) for i in range(256))  # residue byte -> its ASCII digit
_PARITY_DIGIT = bytes(48 + (i & 1) for i in range(256))  # residue byte -> ASCII digit mod 2


def _pack(coeffs: bytes, width: int) -> int:
    """The int with coeffs[k] in the low byte of its k-th slot of `width` bytes."""
    slots = bytearray(len(coeffs) * width)
    slots[::width] = coeffs
    return int.from_bytes(slots, "little")


def _unpack(packed: int, width: int) -> bytes:
    """The low byte of each slot of `width` bytes of a packed int, 0 giving b"".

    The slot count is read off the bit length, so the top slot must not be 0.
    """
    return packed.to_bytes((packed.bit_length() + 7) // 8, "little")[::width]


def _coeff_text(coeffs: bytes) -> str:
    """The text form "c0,c1,..." of coefficient bytes, each read mod 4.

    The digits go into every other byte of a run of commas; no coefficients
    make a count of -1, so the zero polynomial's empty text.
    """
    text = bytearray(b",") * (2 * len(coeffs) - 1)
    text[::2] = coeffs.translate(_ASCII_DIGIT)
    return text.decode()


class Z4Poly:
    """A polynomial over Z4, immutable after construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs: bytes = bytes(c % 4 for c in coeffs).rstrip(b"\0")

    @classmethod
    def _of(cls, coeffs: bytes) -> "Z4Poly":
        """Wrap coefficients that are already canonical residues, top one nonzero."""
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls) -> "Z4Poly":
        return cls._of(b"")

    @classmethod
    def one(cls) -> "Z4Poly":
        return cls._of(b"\1")

    @classmethod
    def from_string(cls, text: str) -> "Z4Poly":
        """Parse the comma-separated ascending coefficient form."""
        text = text.strip()
        if not text:
            return cls.zero()
        return cls(int(part) for part in text.split(","))

    def to_string(self) -> str:
        """Canonical comma-separated ascending coefficient form."""
        return _coeff_text(self.coeffs)

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
        low = _unpack(_pack(a, w) * _pack(b, w), w).translate(_LOW_2_BITS)
        return Z4Poly._of(low.rstrip(b"\0"))

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
        quot = [0] * (len(rem) - dd)  # empty when deg(self) < deg(divisor)
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
        reverse = self.coeffs[::-1]
        return Z4Poly._of(reverse if a0 == 1 else reverse.translate(_NEG_LOW_2_BITS))

    def reduce_mod2(self) -> int:
        """Coefficient-wise reduction mod 2, in the int encoding (degree may drop)."""
        digits = self.coeffs[::-1].translate(_PARITY_DIGIT)  # top coefficient first
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

def _bits_rem(a: int, b: int) -> int:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    width = b.bit_length()
    shift = a.bit_length() - width
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - width
    return a


def _bits_rems(a: int, mods: Sequence[int]) -> list[int]:
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


def _bits_berlekamp_massey(terms: Sequence[int]) -> int:
    """Minimal polynomial of the shortest F2 linear recurrence that generates `terms`.

    Berlekamp-Massey on a sequence of 0/1 terms: the connection polynomial C
    (C(0) = 1) and the linear complexity L are updated once per term, and
    the discrepancy is one parity of C against a window that holds the
    terms read so far in reverse, bit i the term i steps back.  The C held
    before the last change of L is kept already shifted by the steps since
    that change, so a step shifts it once more instead of shifting it from
    scratch.  Returns X^L C(1/X), of degree L; for 2L terms or more it is
    unique.
    """
    conn, shifted, complexity = 1, 2, 0
    window = 0
    for n, term in enumerate(terms):
        window = window << 1 | term
        if (conn & window).bit_count() & 1:
            if 2 * complexity <= n:
                conn, shifted, complexity = conn ^ shifted, conn << 1, n + 1 - complexity
                continue
            conn ^= shifted
        shifted <<= 1
    return int(format(conn, "b").zfill(complexity + 1)[::-1], 2)


def _bits_berlekamp_massey_lanes(terms: bytes, lanes: int) -> list[int]:
    """_bits_berlekamp_massey of many sequences at once, one lane per sequence.

    `terms` holds `lanes` sequences of 0/1 bytes of one length, one after
    another, and every lane must end at the same linear complexity L (an
    AssertionError otherwise); the result lists each lane's X^L C(1/X).
    Each coefficient of a connection polynomial is a plane of R bits, R the
    number of lanes, bit j for lane j, and a polynomial is one int with its
    coefficient of X^i in slot i of R bits.  Term n is read as a plane off
    the bytes transposed, and the window holds term n - i in slot i, so the
    discrepancies of all lanes are the slots of conn & window folded by
    halves with XOR.  Each lane's complexity is kept in a map from value to
    lane mask, and a step spreads its discrepancy plane, and the plane of
    the lanes whose complexity grows, over every slot, to pick per lane
    which update runs.  A step is a few dozen big-int operations whatever R,
    where the one-lane kernel takes one step per lane.
    """
    if not lanes:
        return []
    count = len(terms) // lanes
    digits = terms.translate(_PARITY_DIGIT)  # lane j's term n at j * count + n
    full = (1 << lanes) - 1
    conn, shifted, window = full, full << lanes, 0
    complexity = {0: full}
    for n in range(count):
        window = window << lanes | int(digits[n::count][::-1], 2)
        disc, slots = conn & window, n + 1
        while slots > 1:
            half = slots + 1 >> 1
            disc = disc >> half * lanes ^ disc & (1 << half * lanes) - 1
            slots = half
        if disc:
            grow = 0
            for value, mask in list(complexity.items()):
                moved = mask & disc
                if moved and 2 * value <= n:
                    grow |= moved
                    if moved == mask:
                        del complexity[value]
                    else:
                        complexity[value] = mask ^ moved
                    complexity[n + 1 - value] = complexity.get(n + 1 - value, 0) | moved
            spreads = []
            for plane in (disc, grow):  # copied into slots 0 .. n + 1, those of shifted
                filled = 1
                while filled < n + 2:
                    plane |= plane << filled * lanes
                    filled <<= 1
                spreads.append(plane)
            conn, shifted = conn ^ shifted & spreads[0], shifted ^ (conn ^ shifted) & spreads[1]
        shifted <<= lanes
    if len(complexity) != 1:
        raise AssertionError("the lanes end at different linear complexities")
    (degree,) = complexity
    width = degree + 1
    if conn >> width * lanes:
        raise AssertionError("a connection polynomial has degree above its complexity")
    # lane j's text is bit j of the planes of X^0 ... X^L, which read as
    # binary is X^L C(1/X); the lanes are cut apart at commas
    text = bytearray(b",") * ((width + 1) * lanes)
    for i in range(width):
        plane = format(conn >> i * lanes & full, "b").zfill(lanes)
        text[i::width + 1] = plane[::-1].encode()
    return list(map(int, text.split(b",")[:lanes], repeat(2)))


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
