import random

import pytest

import z4lcd
from z4lcd.z4poly import (
    Z4Poly,
    _bits_gcd,
    _bits_min_poly,
    _bits_mod,
    _bits_mul,
    _bits_powmod,
    _bits_rem,
    _bits_rems,
    _bits_sqr,
    format_terms,
)

from schoolbook import f2_bits, f2_coeffs, f2_gcd, f2_mul, f2_rem, z4_add


def z4(*coeffs):
    return Z4Poly(coeffs)


class TestNormalization:
    def test_reduces_residues(self):
        assert Z4Poly([-1, 1]).coeffs == (3, 1)
        assert Z4Poly([7, -2, 4]).coeffs == (3, 2)

    def test_strips_trailing_zeros(self):
        assert Z4Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Z4Poly([0, 0]).coeffs == ()

    def test_zero_degree_marker(self):
        assert Z4Poly.zero().coeffs == ()
        assert not Z4Poly.zero()
        assert z4(5).coeffs == (1,)

    def test_string_round_trip(self):
        assert Z4Poly.from_string("3,1,2,1").coeffs == (3, 1, 2, 1)
        assert Z4Poly.from_string("-1,1").coeffs == (3, 1)
        assert not Z4Poly.from_string("")
        assert Z4Poly.from_string("3,1,2,1").to_string() == "3,1,2,1"
        assert Z4Poly.zero().to_string() == ""


class TestMul:
    def test_golden_product_is_x7_minus_1(self):
        product = z4(3, 1) * z4(3, 1, 2, 1) * z4(3, 2, 3, 1)
        assert product == Z4Poly.x_pow_minus_one(7)
        assert product.coeffs == (3, 0, 0, 0, 0, 0, 0, 1)

    def test_unit(self):
        p = z4(2, 0, 3, 1)
        assert Z4Poly.one() * p == p

    def test_zero_annihilates(self):
        assert Z4Poly.zero() * z4(2, 0, 3, 1) == Z4Poly.zero()

    def test_matches_schoolbook(self):
        # the reference is the literal double loop over coefficient pairs
        def schoolbook(a, b):
            out = [0] * max(len(a) + len(b) - 1, 0)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % 4
            return Z4Poly(out)

        rng = random.Random(20261018)
        for _ in range(400):
            a, b = ([rng.randrange(4) for _ in range(rng.randrange(0, 91))] for _ in range(2))
            if rng.random() < 0.5:  # top coefficient 2 on both: the top product cancels
                a, b = a + [2], b + [2]
            assert z4(*a) * z4(*b) == schoolbook(z4(*a).coeffs, z4(*b).coeffs)

    @pytest.mark.parametrize("length", [28, 29, 7281, 7282])
    def test_all_three_square_across_slot_widths(self, length):
        # coefficient k of the square sums min(k + 1, 2L - 1 - k) products 3 * 3;
        # 9 * 28 fits a byte and 9 * 29 does not, 9 * 7281 fits two and 9 * 7282 does not
        p = Z4Poly([3] * length)
        expected = [9 * min(k + 1, 2 * length - 1 - k) % 4 for k in range(2 * length - 1)]
        assert (p * p).coeffs == tuple(expected)


class TestDivmodMonic:
    def test_x7_minus_1_by_x_minus_1(self):
        a = Z4Poly.x_pow_minus_one(7)
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
        assert z4(3, 1).is_self_reciprocal()
        assert not z4(3, 1, 2, 1).is_self_reciprocal()
        assert Z4Poly.one().is_self_reciprocal()


class TestReduceMod2:
    def test_examples(self):
        assert z4(3, 1, 2, 1).reduce_mod2() == f2_bits([1, 1, 0, 1])
        assert z4(2, 2).reduce_mod2() == 0
        assert Z4Poly.x_pow_minus_one(7).reduce_mod2() == f2_bits([1, 0, 0, 0, 0, 0, 0, 1])

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


class TestF2Poly:
    # the int kernels of F2[X] arithmetic against the schoolbook loops on
    # coefficient lists

    def test_add_is_xor(self):
        # the sum in F2[X] is XOR of the encodings, and products distribute over it
        rng = random.Random(20261023)
        for _ in range(100):
            a, b, c = (rng.getrandbits(rng.randrange(0, 200)) for _ in range(3))
            assert _bits_mul(a, b ^ c) == _bits_mul(a, b) ^ _bits_mul(a, c)
        assert _bits_mul(0b11, 0b11) == 0b101  # (X + 1)^2 = X^2 + 1: 2X vanishes

    def test_mul(self):
        assert _bits_mul(0b11, 0b111) == 0b1001  # (X + 1)(X^2 + X + 1) = X^3 + 1
        rng = random.Random(20261024)
        for _ in range(100):
            a, b = (rng.getrandbits(rng.randrange(0, 120)) for _ in range(2))
            assert _bits_mul(a, b) == f2_bits(f2_mul(f2_coeffs(a), f2_coeffs(b)))

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
            assert _bits_rem(a ^ _bits_mul(rng.getrandbits(300), b), b) == rem

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
        a = _bits_mul(0b11, 0b111)  # (X + 1)(X^2 + X + 1)
        b = _bits_mul(0b11, 0b1011)  # (X + 1)(X^3 + X + 1)
        assert _bits_gcd(a, b) == 0b11
        assert _bits_gcd(0b11, 0) == _bits_gcd(0, 0b11) == 0b11
        rng = random.Random(20261026)
        for _ in range(100):
            common = rng.getrandbits(rng.randrange(1, 30)) | 1
            a, b = (_bits_mul(common, rng.getrandbits(rng.randrange(1, 60)) | 1) for _ in range(2))
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
        rng = random.Random(20261018)
        operands = [0, 1, 0b10] + [rng.getrandbits(rng.randrange(1, 500)) for _ in range(200)]
        for a in operands:
            assert _bits_sqr(a) == _bits_mul(a, a)

    def test_fold_matches_long_division(self):
        rng = random.Random(20261019)
        for mod in self.random_moduli(rng):
            bits = 3 * mod.bit_length()
            operands = [0, 1, mod, mod ^ 1] + [rng.getrandbits(rng.randrange(1, bits)) for _ in range(40)]
            for a in operands:
                assert _bits_mod(a, mod) == _bits_rem(a, mod)

    def test_fold_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            _bits_mod(0b11, 0)

    def test_operands_past_the_int_string_digit_limit(self):
        # int <-> str in bases 2 and 4 is exempt from CPython's 4300-digit
        # limit on conversions, so squaring works at any size
        rng = random.Random(20261020)
        a = rng.getrandbits(15_500) | 1 << 15_499
        square = _bits_sqr(a)
        assert square == _bits_mul(a, a)
        assert square.bit_length() == 30_999
        mod = 1 << 15_001 | 0b1000000001  # X^15001 + X^9 + 1
        assert _bits_mod(square, mod) == _bits_rem(square, mod)

    def test_powmod_is_repeated_multiplication(self):
        rng = random.Random(20261021)
        for mod in self.random_moduli(rng):
            base = rng.getrandbits(mod.bit_length() + 5)
            expected = 1
            for exp in range(40):
                assert _bits_powmod(base, exp, mod) == expected
                expected = _bits_rem(_bits_mul(expected, base), mod)


class TestMinPoly:
    # alpha = X in F2[X]/(X^3 + X + 1) has order 7; POWERS[j] = X^j
    POWERS = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101]

    def min_poly(self, beta, degree):
        return _bits_min_poly(self.POWERS, self.POWERS.index(beta), degree)

    def test_power_list(self):
        for j, power in enumerate(self.POWERS):
            assert power == _bits_powmod(0b10, j, 0b1011)

    def test_known_minimal_polynomials(self):
        assert self.min_poly(1, 1) == 0b11  # X + 1
        assert self.min_poly(0b10, 3) == 0b1011  # X itself: the modulus
        # X^3 = X + 1 has conjugates X^3, X^6, X^12 = X^5: X^3 + X^2 + 1
        assert self.min_poly(0b011, 3) == 0b1101

    @pytest.mark.parametrize("beta,degree", [(1, 2), (1, 0), (0b10, 2), (0b10, 4)])
    def test_rejects_a_wrong_degree(self, beta, degree):
        with pytest.raises(AssertionError):
            self.min_poly(beta, degree)


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
            "LcdCatalog", "LcdCensus", "LcdEntry", "PairClass", "Z4Poly",
            "build_factor_table", "classify_pair", "code_size", "count_nsrf", "cyclotomic_cosets",
            "divisor_poly", "enumerate_lcd", "factor_divisor", "factor_label",
            "factor_mod2", "format_terms", "graeffe_lift", "hull_report", "lcd_census",
            "mult_order_of_2", "reciprocal_set",
        ]
        assert len(z4lcd.__all__) == 26
        for name in z4lcd.__all__:
            getattr(z4lcd, name)

    def test_f2_values_are_plain_ints(self):
        # F2[X] has one encoding, the int itself, with no wrapper around it
        assert all(type(bits) is int for bits in z4lcd.factor_mod2(7))
        assert type(z4(3, 1, 2, 1).reduce_mod2()) is int
        assert type(Z4Poly.zero().reduce_mod2()) is int

    def test_z4poly_has_products_and_no_sums(self):
        assert self.public_names(Z4Poly) == {
            "coeffs", "zero", "one", "x_pow_minus_one", "from_string", "to_string",
            "is_monic", "__mul__", "scale", "reciprocal", "is_self_reciprocal", "reduce_mod2",
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
