import functools
import operator
import random

import pytest

import z4lcd
from z4lcd.cyclotomic import graeffe_lift
from z4lcd.z4poly import (
    Z4Poly,
    _bits_berlekamp_massey,
    _bits_berlekamp_massey_lanes,
    _bits_gcd,
    _bits_rem,
    _bits_rems,
    _pack,
    _unpack,
    format_terms,
)

from schoolbook import (
    f2_bits,
    f2_coeffs,
    f2_gcd,
    f2_is_irreducible_by_trial_division,
    f2_mul,
    f2_rem,
    is_self_reciprocal,
    x_pow_minus_one,
    z4_add,
    z4_mul,
)


def z4(*coeffs):
    return Z4Poly(coeffs)


class TestNormalization:
    def test_reduces_residues(self):
        assert Z4Poly([-1, 1]).coeffs == bytes([3, 1])
        assert Z4Poly([7, -2, 4]).coeffs == bytes([3, 2])

    def test_strips_trailing_zeros(self):
        assert Z4Poly([1, 2, 0, 0]).coeffs == bytes([1, 2])
        assert Z4Poly([0, 0]).coeffs == bytes()

    def test_zero_degree_marker(self):
        assert Z4Poly.zero().coeffs == bytes()
        assert not Z4Poly.zero()
        assert z4(5).coeffs == bytes([1])

    def test_string_round_trip(self):
        assert Z4Poly.from_string("3,1,2,1").coeffs == bytes([3, 1, 2, 1])
        assert Z4Poly.from_string("-1,1").coeffs == bytes([3, 1])
        assert not Z4Poly.from_string("")
        assert Z4Poly.from_string("3,1,2,1").to_string() == "3,1,2,1"
        assert Z4Poly.zero().to_string() == ""

    def test_text_is_the_joined_digits(self):
        # the comma-filled text against the plain join, at lengths 0 to 300
        rng = random.Random(2026)
        for length in range(301):
            coeffs = [rng.randrange(4) for _ in range(length - 1)] + [rng.randrange(1, 4)] * (length > 0)
            assert z4(*coeffs).to_string() == ",".join(map(str, coeffs))


class TestBytesForm:
    # every way a Z4Poly is made, each with residues to reduce or zeros to strip
    CONSTRUCTIONS = {
        "signed input": lambda: Z4Poly([-1, 6, -3, 1, 4, -4]),
        "signed input to zero": lambda: Z4Poly([-4, 8, 0]),
        "from_string": lambda: Z4Poly.from_string("-1,5,2,7,0"),
        "zero": Z4Poly.zero,
        "one": Z4Poly.one,
        "mul": lambda: z4(3, 1, 2, 1) * z4(3, 2, 3, 1),
        "mul, top terms cancel": lambda: z4(1, 2) * z4(1, 2),
        "reciprocal, a0 = 1": lambda: z4(1, 3, 2, 1).reciprocal(),
        "reciprocal, a0 = 3": lambda: z4(3, 1, 2, 1).reciprocal(),
        "divmod_monic quotient": lambda: Z4Poly(x_pow_minus_one(7)).divmod_monic(z4(3, 1))[0],
        "divmod_monic remainder": lambda: z4(1, 0, 0, 0, 1).divmod_monic(z4(3, 1, 2, 1))[1],
        "divmod_monic zero remainder": lambda: Z4Poly(x_pow_minus_one(7)).divmod_monic(z4(3, 1))[1],
        "graeffe_lift": lambda: graeffe_lift(0b1011),
        "graeffe_lift of 1": lambda: graeffe_lift(1),
    }

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_every_construction_is_canonical_bytes(self, name):
        coeffs = self.CONSTRUCTIONS[name]().coeffs
        assert type(coeffs) is bytes
        assert all(c < 4 for c in coeffs)
        assert not coeffs or coeffs[-1] != 0

    @pytest.mark.parametrize("a0", [1, 3])
    @pytest.mark.parametrize("length", [2, 3, 28, 29, 7281, 7282])
    def test_reciprocal_is_reverse_and_scale(self, length, a0):
        rng = random.Random(length * 4 + a0)
        for _ in range(5):
            coeffs = [a0] + [rng.randrange(4) for _ in range(length - 2)] + [1]
            p = Z4Poly(coeffs)
            assert p.reciprocal().coeffs == bytes(a0 * c % 4 for c in reversed(coeffs))
            assert p.reciprocal().reciprocal() == p

    @pytest.mark.parametrize("coeffs", [[1.5], [3, 2.0, 1]])
    def test_non_integer_coefficient_rejected(self, coeffs):
        with pytest.raises(TypeError):
            Z4Poly(coeffs)


class TestMul:
    def test_golden_product_is_x7_minus_1(self):
        product = z4(3, 1) * z4(3, 1, 2, 1) * z4(3, 2, 3, 1)
        assert product == Z4Poly(x_pow_minus_one(7))
        assert product.coeffs == bytes([3, 0, 0, 0, 0, 0, 0, 1])

    def test_unit(self):
        p = z4(2, 0, 3, 1)
        assert Z4Poly.one() * p == p

    def test_zero_annihilates(self):
        assert Z4Poly.zero() * z4(2, 0, 3, 1) == Z4Poly.zero()

    def test_matches_schoolbook(self):
        rng = random.Random(20261018)
        for _ in range(400):
            a, b = ([rng.randrange(4) for _ in range(rng.randrange(0, 91))] for _ in range(2))
            if rng.random() < 0.5:  # top coefficient 2 on both: the top product cancels
                a, b = a + [2], b + [2]
            assert z4(*a) * z4(*b) == Z4Poly(z4_mul(a, b))

    def test_unpack_reads_every_slot(self):
        # the slot count comes from the bit length: the raw product's top slot is
        # a[-1] * b[-1] > 0, even when it is 2 * 2 = 0 mod 4
        rng = random.Random(20261019)
        assert _unpack(0, 1) == _unpack(0, 2) == b""
        for _ in range(300):
            a, b = (bytes(rng.randrange(4) for _ in range(rng.randrange(0, 40))) + bytes([rng.randrange(1, 4)])
                    for _ in range(2))
            if rng.random() < 0.3:
                a, b = a[:-1] + b"\2", b[:-1] + b"\2"
            width = ((9 * min(len(a), len(b))).bit_length() + 7) // 8 + rng.randrange(2)  # no carries
            packed = _pack(a, width) * _pack(b, width)
            slots = [packed >> 8 * width * k & (1 << 8 * width) - 1 for k in range(len(a) + len(b) - 1)]
            assert _unpack(packed, width) == bytes(slot & 255 for slot in slots)

    @pytest.mark.parametrize("length", [28, 29, 7281, 7282])
    def test_all_three_square_across_slot_widths(self, length):
        # coefficient k of the square sums min(k + 1, 2L - 1 - k) products 3 * 3;
        # 9 * 28 fits a byte and 9 * 29 does not, 9 * 7281 fits two and 9 * 7282 does not
        p = Z4Poly([3] * length)
        expected = [9 * min(k + 1, 2 * length - 1 - k) % 4 for k in range(2 * length - 1)]
        assert (p * p).coeffs == bytes(expected)


class TestDivmodMonic:
    def test_x7_minus_1_by_x_minus_1(self):
        a = Z4Poly(x_pow_minus_one(7))
        d = z4(3, 1)
        q, r = a.divmod_monic(d)
        assert not r
        assert q * d == a  # re-multiplication oracle

    def test_self_division(self):
        q, r = z4(3, 1, 2, 1).divmod_monic(z4(3, 1, 2, 1))
        assert (q, r) == (Z4Poly.one(), Z4Poly.zero())

    def test_small_dividend(self):
        q, r = Z4Poly.one().divmod_monic(z4(3, 1))
        assert (q, r) == (Z4Poly.zero(), Z4Poly.one())

    @pytest.mark.parametrize("divisor", [z4(3, 2), z4(2), Z4Poly.zero()])
    def test_rejects_non_monic(self, divisor):
        with pytest.raises(ValueError):
            z4(1, 1).divmod_monic(divisor)


class TestReciprocal:
    def test_reciprocal_pair(self):
        assert z4(3, 1, 2, 1).reciprocal() == z4(3, 2, 3, 1)
        assert z4(3, 2, 3, 1).reciprocal() == z4(3, 1, 2, 1)

    def test_degree_zero_unit(self):
        assert Z4Poly.one().reciprocal() == Z4Poly.one()

    def test_x_minus_1_fixed(self):
        assert z4(3, 1).reciprocal() == z4(3, 1)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            z4(1, 2).reciprocal()

    @pytest.mark.parametrize("poly", [z4(2, 1), z4(0, 1)])
    def test_rejects_non_unit_constant(self, poly):
        with pytest.raises(ValueError):
            poly.reciprocal()


class TestSelfReciprocal:
    def test_examples(self):
        assert is_self_reciprocal(z4(3, 1))
        assert not is_self_reciprocal(z4(3, 1, 2, 1))
        assert is_self_reciprocal(Z4Poly.one())


class TestReduceMod2:
    def test_examples(self):
        assert z4(3, 1, 2, 1).reduce_mod2() == f2_bits([1, 1, 0, 1])
        assert z4(2, 2).reduce_mod2() == 0
        assert Z4Poly(x_pow_minus_one(7)).reduce_mod2() == f2_bits([1, 0, 0, 0, 0, 0, 0, 1])

    @pytest.mark.parametrize(
        "coeffs, bits",
        [((), 0), ((1, 3, 2), 0b11), ((2,) * 40, 0), ((2, 0, 3, 0, 0, 2), 0b100)],
        ids=["zero", "leading-2", "all-2", "inner-zeros-and-leading-2"],
    )
    def test_degree_drops(self, coeffs, bits):
        assert Z4Poly(coeffs).reduce_mod2() == f2_bits(coeffs) == bits

    def test_matches_coefficient_parity(self):
        rng = random.Random(20261031)
        for _ in range(200):
            coeffs = [rng.randrange(4) for _ in range(rng.randrange(0, 5000))]
            assert Z4Poly(coeffs).reduce_mod2() == f2_bits(coeffs)


def bits_mul(a, b):
    # carry-less product: a shifted copy of a for each set bit of b
    return functools.reduce(operator.xor, (a << k for k in range(b.bit_length()) if b >> k & 1), 0)


class TestF2Poly:
    # the int kernels of F2[X] arithmetic against the schoolbook loops on
    # coefficient lists

    def test_add_is_xor(self):
        # reduction mod 2 takes a Z4 sum to the XOR of the encodings, and
        # Z4 products reduced mod 2 distribute over it
        rng = random.Random(20261023)
        for _ in range(100):
            a, b, c = ([rng.randrange(4) for _ in range(rng.randrange(0, 200))] for _ in range(3))
            total = Z4Poly(z4_add(b, c))
            assert total.reduce_mod2() == Z4Poly(b).reduce_mod2() ^ Z4Poly(c).reduce_mod2()
            assert (Z4Poly(a) * total).reduce_mod2() == (
                (Z4Poly(a) * Z4Poly(b)).reduce_mod2() ^ (Z4Poly(a) * Z4Poly(c)).reduce_mod2()
            )
        assert (z4(1, 1) * z4(1, 1)).reduce_mod2() == 0b101  # (X + 1)^2 = X^2 + 1: 2X vanishes

    def test_mul(self):
        # a Z4 product reduced mod 2 is the F2 product of the reductions
        assert (z4(1, 1) * z4(1, 1, 1)).reduce_mod2() == 0b1001  # (X + 1)(X^2 + X + 1) = X^3 + 1
        rng = random.Random(20261024)
        for _ in range(100):
            a, b = (Z4Poly([rng.randrange(4) for _ in range(rng.randrange(0, 120))]) for _ in range(2))
            bits_a, bits_b = a.reduce_mod2(), b.reduce_mod2()
            expected = f2_bits(f2_mul(f2_coeffs(bits_a), f2_coeffs(bits_b)))
            assert (a * b).reduce_mod2() == bits_mul(bits_a, bits_b) == expected

    def test_divmod_round_trip(self):
        # the remainder matches long division, has degree below the divisor,
        # and does not move when a multiple of the divisor is added
        assert _bits_rem(0b10001, 0b111) == 0b11  # X^4 + 1 = (X^2 + X)(X^2 + X + 1) + X + 1
        rng = random.Random(20261025)
        for _ in range(60):
            a = rng.getrandbits(rng.randrange(0, 1000))
            b = rng.getrandbits(rng.randrange(1, 1000)) | 1 << rng.randrange(0, 1000)
            rem = _bits_rem(a, b)
            assert rem == f2_bits(f2_rem(f2_coeffs(a), f2_coeffs(b)))
            assert rem.bit_length() < b.bit_length()
            assert _bits_rem(a ^ bits_mul(rng.getrandbits(300), b), b) == rem

    def test_divmod_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            _bits_rem(0b11, 0)

    def test_rems_match_one_division_per_modulus(self):
        # the bit-sliced pass against one long division per modulus, on
        # moduli of mixed degree beside X + 1 and the constant 1
        rng = random.Random(20261027)
        for _ in range(300):
            mods = [
                rng.getrandbits(d) | 1 << d
                for d in (rng.randrange(0, 40) for _ in range(rng.randrange(1, 12)))
            ]
            mods += rng.sample([0b1, 0b11, 0b10], rng.randrange(0, 3))
            rng.shuffle(mods)
            below_all = rng.getrandbits(min(m.bit_length() for m in mods) - 1)
            wide = rng.getrandbits(1000) | 1 << 999
            for a in (0, below_all, rng.getrandbits(rng.randrange(1, 1000)), wide):
                assert _bits_rems(a, mods) == [_bits_rem(a, m) for m in mods]

    def test_rems_edge_cases(self):
        mods = [0b1011, 0b111, 0b11, 0b1]
        assert _bits_rems(0, mods) == [0, 0, 0, 0]
        assert _bits_rems(0b1, mods) == [0b1, 0b1, 0b1, 0]  # below every positive degree
        assert _bits_rems(0b10, [0b111, 0b1011]) == [0b10, 0b10]
        assert _bits_rems(0b101, [0b1, 0b1]) == [0, 0]
        a = random.Random(20261028).getrandbits(1000)
        assert _bits_rems(a, []) == []
        assert _bits_rems(a, [0b11]) == [bin(a).count("1") % 2]  # a(1), the remainder mod X + 1

    def test_rems_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            _bits_rems(0b11, [0b11, 0])
        with pytest.raises(ZeroDivisionError):
            _bits_rems(0, [0])

    def test_gcd(self):
        a = bits_mul(0b11, 0b111)  # (X + 1)(X^2 + X + 1)
        b = bits_mul(0b11, 0b1011)  # (X + 1)(X^3 + X + 1)
        assert _bits_gcd(a, b) == 0b11
        assert _bits_gcd(0b11, 0) == _bits_gcd(0, 0b11) == 0b11
        rng = random.Random(20261026)
        for _ in range(100):
            common = rng.getrandbits(rng.randrange(1, 30)) | 1
            a, b = (bits_mul(common, rng.getrandbits(rng.randrange(1, 60)) | 1) for _ in range(2))
            expected = f2_bits(f2_gcd(f2_coeffs(a), f2_coeffs(b)))
            assert _bits_gcd(a, b) == expected
            assert _bits_rem(expected, common) == 0


class TestFieldKernels:
    # X^8 + X^4 + X^3 + X + 1 (short tail), a dense degree-8 modulus, and the
    # degree-1 moduli X and X + 1, whose folds clear one bit at a time
    MODULI = [0b100011011, 0b111111111, 0b110110101, 0b10, 0b11]

    def random_moduli(self, rng):
        moduli = list(self.MODULI)
        for degree in (13, 64, 200):
            tail = rng.getrandbits(degree)
            moduli += [1 << degree | tail, 1 << degree | tail & 0b10111]  # dense, sparse
        return moduli

    def test_square_is_self_product(self):
        # a(X)^2 = a(X^2) in F2[X]: a Z4 square reduced mod 2 spreads the
        # bits of the reduction, bit k to bit 2k
        rng = random.Random(20261018)
        for length in [0, 1, 2] + [rng.randrange(1, 500) for _ in range(200)]:
            p = Z4Poly([rng.randrange(4) for _ in range(length)])
            a = p.reduce_mod2()
            square = (p * p).reduce_mod2()
            assert square == bits_mul(a, a) == int("0".join(format(a, "b")), 2)

    def test_fold_matches_long_division(self):
        # the Horner fold of _bits_rems against long division, one modulus
        # at a time and all moduli in one pass
        rng = random.Random(20261019)
        moduli = self.random_moduli(rng)
        for mod in moduli:
            bits = 3 * mod.bit_length()
            operands = [0, 1, mod, mod ^ 1] + [rng.getrandbits(rng.randrange(1, bits)) for _ in range(40)]
            for a in operands:
                assert _bits_rems(a, [mod]) == [_bits_rem(a, mod)]
        for a in [rng.getrandbits(rng.randrange(1, 600)) for _ in range(40)]:
            assert _bits_rems(a, moduli) == [_bits_rem(a, m) for m in moduli]

    def test_operands_past_the_int_string_digit_limit(self):
        # int <-> str in base 2 is exempt from CPython's 4300-digit limit on
        # conversions, so the kernels that read or write bit strings work at
        # any size: reduce_mod2, the fold of _bits_rems, and the reversal of
        # a connection polynomial in Berlekamp-Massey
        rng = random.Random(20261020)
        p = Z4Poly([rng.randrange(4) for _ in range(15_499)] + [1])
        a = p.reduce_mod2()
        square = (p * p).reduce_mod2()
        assert square == bits_mul(a, a)
        assert square.bit_length() == 30_999
        mod = 1 << 15_001 | 0b1000000001  # X^15001 + X^9 + 1
        assert _bits_rems(square, [mod, 0b11]) == [_bits_rem(square, mod), square.bit_count() % 2]
        # a 1 every 5000 terms has minimal polynomial X^5000 + 1
        terms = ([1] + [0] * 4999) * 2
        assert _bits_berlekamp_massey(terms) == 1 << 5000 | 1


def lfsr(poly, state, count):
    """`count` terms of the recurrence with characteristic polynomial `poly`.

    poly is monic of degree d; terms 0..d-1 are the bits of `state`, and
    each later term is sum over i < d of poly_i times the term d - i back.
    """
    d = poly.bit_length() - 1
    terms = [state >> k & 1 for k in range(d)]
    while len(terms) < count:
        terms.append(sum(poly >> i & 1 and terms[len(terms) - d + i] for i in range(d)) % 2)
    return terms[:count]


def annihilates(poly, terms):
    # sum over i <= deg of poly_i terms[k + i] is 0 at every k in range
    d = poly.bit_length() - 1
    return all(
        sum(poly >> i & 1 and terms[k + i] for i in range(d + 1)) % 2 == 0
        for k in range(len(terms) - d)
    )


def least_annihilator(terms):
    # the first monic polynomial, in the int order (degree first), whose
    # recurrence the terms satisfy
    return next(poly for poly in range(1, 2 << len(terms)) if annihilates(poly, terms))


class TestMinPoly:
    # Berlekamp-Massey against a brute-force search for the least recurrence

    # alpha = X in F2[X]/(X^3 + X + 1) has order 7; POWERS[j] = X^j
    POWERS = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101]

    def min_poly(self, step, degree):
        # bit 0 of beta^k, beta = alpha^step, over 2 * degree terms
        return _bits_berlekamp_massey([self.POWERS[step * k % 7] & 1 for k in range(2 * degree)])

    def test_power_list(self):
        power = 1
        for expected in self.POWERS:
            assert power == expected
            power = power << 1 ^ (0b1011 if power & 0b100 else 0)
        assert power == 1

    def test_known_minimal_polynomials(self):
        assert self.min_poly(0, 1) == 0b11  # X + 1
        assert self.min_poly(1, 3) == 0b1011  # X itself: the modulus
        # X^3 = X + 1 has conjugates X^3, X^6, X^12 = X^5: X^3 + X^2 + 1
        assert self.min_poly(3, 3) == 0b1101

    def test_edge_sequences(self):
        assert _bits_berlekamp_massey([]) == 1
        assert _bits_berlekamp_massey([0, 0, 0, 0]) == 1
        assert _bits_berlekamp_massey([1, 1, 1, 1]) == 0b11  # X + 1
        assert _bits_berlekamp_massey([1, 0, 0, 0]) == 0b10  # X: one nonzero term
        assert _bits_berlekamp_massey([0, 0, 1, 0, 0, 0]) == 0b1000  # X^3

    def test_irreducible_recurrences(self):
        # a nonzero state of an irreducible recurrence has it as minimal polynomial
        rng = random.Random(20261101)
        irreducibles = [
            p for p in range(2, 1 << 9) if f2_is_irreducible_by_trial_division(f2_coeffs(p))
        ]
        for _ in range(150):
            poly = rng.choice(irreducibles)
            d = poly.bit_length() - 1
            terms = lfsr(poly, rng.randrange(1, 1 << d), 2 * d)
            assert _bits_berlekamp_massey(terms) == poly == least_annihilator(terms)

    def test_products_of_irreducibles(self):
        # a product, repeats allowed, with a random state: the minimal
        # polynomial divides the product and is the least annihilator
        rng = random.Random(20261102)
        irreducibles = [
            p for p in range(2, 1 << 5) if f2_is_irreducible_by_trial_division(f2_coeffs(p))
        ]
        for _ in range(150):
            product = 1
            for p in rng.choices(irreducibles, k=rng.randrange(1, 4)):
                product = f2_bits(f2_mul(f2_coeffs(product), f2_coeffs(p)))
            d = product.bit_length() - 1
            terms = lfsr(product, rng.getrandbits(d), 2 * d)
            found = _bits_berlekamp_massey(terms)
            assert found == least_annihilator(terms)
            assert not f2_rem(f2_coeffs(product), f2_coeffs(found))

    def test_arbitrary_sequences(self):
        # any sequence: the result generates it, with the least degree
        rng = random.Random(20261103)
        for _ in range(200):
            terms = [rng.getrandbits(1) for _ in range(rng.randrange(0, 13))]
            found = _bits_berlekamp_massey(terms)
            assert annihilates(found, terms)
            assert found.bit_length() == least_annihilator(terms).bit_length()


class TestMinPolyLanes:
    # the many-lane kernel against the one-lane kernel, lane by lane

    def test_random_sequences_grouped_by_complexity(self):
        # every group of lanes that end at one complexity gives, lane by
        # lane, what the one-lane kernel gives for each
        rng = random.Random(20261020)
        for _ in range(60):
            count = rng.randrange(0, 41)
            sequences = [bytes(rng.getrandbits(1) for _ in range(count))
                         for _ in range(rng.randrange(1, 701))]
            groups = {}
            for terms in sequences:
                groups.setdefault(_bits_berlekamp_massey(terms).bit_length(), []).append(terms)
            for group in groups.values():
                expected = [_bits_berlekamp_massey(terms) for terms in group]
                assert _bits_berlekamp_massey_lanes(b"".join(group), len(group)) == expected

    def test_recurrences_of_one_degree(self):
        # lanes of products of irreducibles, all of degree 8, from random
        # nonzero states: complexities can fall short of 8, so each lane is
        # checked against the one-lane kernel in its complexity group
        rng = random.Random(20261021)
        irreducibles = [p for p in range(2, 1 << 9) if f2_is_irreducible_by_trial_division(f2_coeffs(p))]
        eights = [p for p in irreducibles if p.bit_length() == 9]
        lanes = [bytes(lfsr(rng.choice(eights), rng.randrange(1, 256), 16)) for _ in range(300)]
        assert _bits_berlekamp_massey_lanes(b"".join(lanes), len(lanes)) == [
            _bits_berlekamp_massey(terms) for terms in lanes
        ]

    def test_edge_cases(self):
        assert _bits_berlekamp_massey_lanes(b"", 0) == []
        assert _bits_berlekamp_massey_lanes(b"", 3) == [1, 1, 1]  # no terms: C = 1
        assert _bits_berlekamp_massey_lanes(bytes([1, 1, 1, 1] * 2), 2) == [0b11, 0b11]
        assert _bits_berlekamp_massey_lanes(bytes([1, 0, 1, 0, 1, 1, 1, 1, 0]), 3) == [0b101, 0b111, 0b111]

    def test_lanes_past_the_int_string_digit_limit(self):
        # a plane of 5000 lanes is read and written as base-2 text, which
        # CPython's 4300-digit limit on decimal conversions leaves alone
        lanes = [bytes([1, 0, 1, 1, 0, 1]), bytes([0, 1, 1, 0, 1, 1])] * 2500
        assert _bits_berlekamp_massey_lanes(b"".join(lanes), 5000) == [0b111, 0b111] * 2500

    def test_lanes_of_different_complexities_raise(self):
        # the same check as the scalar path's degree check in factor_mod2
        for lanes in ([bytes([1, 1, 1, 1]), bytes([0, 0, 1, 0])],
                      [bytes([0, 0, 0, 0])] * 40 + [bytes([0, 0, 0, 1])]):
            with pytest.raises(AssertionError, match="different linear complexities"):
                _bits_berlekamp_massey_lanes(b"".join(lanes), len(lanes))


def random_monic_unit(rng, max_degree=10):
    degree = rng.randrange(0, max_degree + 1)
    if degree == 0:
        return Z4Poly.one()
    coeffs = [rng.choice((1, 3))] + [rng.randrange(4) for _ in range(degree - 1)] + [1]
    return Z4Poly(coeffs)


def random_poly(rng, max_degree=10):
    return Z4Poly([rng.randrange(4) for _ in range(rng.randrange(0, max_degree + 2))])


class TestProperties:
    def test_reciprocal_involution_and_multiplicativity(self):
        rng = random.Random(20240901)
        for _ in range(500):
            f = random_monic_unit(rng)
            g = random_monic_unit(rng)
            assert f.reciprocal().reciprocal() == f
            assert (f * g).reciprocal() == f.reciprocal() * g.reciprocal()

    def test_divmod_round_trip(self):
        rng = random.Random(20240902)
        for _ in range(500):
            a = random_poly(rng)
            d = random_monic_unit(rng, max_degree=6)
            q, r = a.divmod_monic(d)
            assert Z4Poly(z4_add((q * d).coeffs, r.coeffs)) == a
            assert len(r.coeffs) < len(d.coeffs)

    def test_ring_axioms(self):
        rng = random.Random(20240903)
        for _ in range(300):
            a, b, c = (random_poly(rng, 6) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            b_plus_c = Z4Poly(z4_add(b.coeffs, c.coeffs))
            assert a * b_plus_c == Z4Poly(z4_add((a * b).coeffs, (a * c).coeffs))

    def test_degree_of_product_with_unit_lead(self):
        # a unit lead never meets a zero divisor, so lengths add; a zero
        # operand gives the zero product
        rng = random.Random(20240904)
        for _ in range(300):
            a = random_monic_unit(rng, 8)
            b = random_poly(rng, 8)
            if b:
                assert len((a * b).coeffs) == len(a.coeffs) + len(b.coeffs) - 1
            else:
                assert not a * b


class TestPublicSurface:
    ARITHMETIC = {
        "__add__", "__sub__", "__neg__", "__mul__", "__mod__", "__divmod__", "__floordiv__"
    }

    def public_names(self, cls):
        return {name for name in vars(cls) if not name.startswith("_") or name in self.ARITHMETIC}

    def test_package_exports(self):
        assert sorted(z4lcd.__all__) == [
            "CodeSpec", "DivisorSet", "FactorRecord", "FactorTable", "HullReport",
            "LcdCatalog", "LcdEntry", "PairClass", "Z4Poly",
            "build_factor_table", "classify_pair", "code_size", "count_nsrf", "cyclotomic_cosets",
            "divisor_poly", "enumerate_lcd", "factor_divisor", "factor_label",
            "factor_mod2", "format_terms", "graeffe_lift", "hull_report",
            "mult_order_of_2", "reciprocal_set",
        ]
        assert len(z4lcd.__all__) == 24
        for name in z4lcd.__all__:
            getattr(z4lcd, name)

    def test_f2_values_are_plain_ints(self):
        # F2[X] has one encoding, the int itself, with no wrapper around it
        assert all(type(bits) is int for bits in z4lcd.factor_mod2(z4lcd.cyclotomic_cosets(7)))
        assert type(z4(3, 1, 2, 1).reduce_mod2()) is int
        assert type(Z4Poly.zero().reduce_mod2()) is int

    def test_z4poly_has_products_and_no_sums(self):
        assert self.public_names(Z4Poly) == {
            "coeffs", "zero", "one", "from_string", "to_string",
            "is_monic", "__mul__", "reciprocal", "reduce_mod2",
            # no library path divides in Z4[X]; kept while the benchmark's
            # tracer still times it as a layer of its own
            "divmod_monic",
        }


class TestFormatTerms:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((3, 1), "X-1"),
            ((3, 1, 2, 1), "X^3+2X^2+X-1"),
            ((3, 2, 3, 1), "X^3-X^2+2X-1"),
            ((3, 0, 0, 0, 0, 0, 0, 1), "X^7-1"),
            ((1,), "1"),
            ((2,), "2"),
            ((), "0"),
            ((0, 2, 1), "X^2+2X"),
        ],
    )
    def test_signed_rendering(self, coeffs, text):
        assert format_terms(Z4Poly(coeffs)) == text
