import functools
import hashlib
import io
import json
import math
import operator
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from z4lcd import cyclotomic
from z4lcd.cyclotomic import (
    BAD,
    GOOD,
    PAIR_FIRST,
    PAIR_SECOND,
    SELF_RECIPROCAL,
    FactorRecord,
    PairClass,
    _coset_terms,
    _graeffe_lift_lanes,
    _is_primitive,
    _primitive_idempotent,
    _primitive_part,
    _size_classes,
    build_factor_table,
    classify_pair,
    cyclotomic_cosets,
    factor_label,
    factor_mod2,
    graeffe_lift,
    mult_order_of_2,
    pair_classes,
    write_table_json,
)
from z4lcd.codes import hull_report
from z4lcd.lcdenum import all_partitions
from z4lcd.z4poly import Z4Poly, _bits_berlekamp_massey, _bits_berlekamp_massey_lanes

from schoolbook import (
    f2_bits,
    f2_coeffs,
    f2_divmod,
    f2_gcd,
    f2_is_irreducible_by_trial_division,
    f2_mul,
    f2_rem,
    x_pow_minus_one,
    z4_add,
    z4_divmod_monic,
)

DATA = Path(__file__).parent / "data"
ODD_LENGTHS = list(range(1, 32, 2))
WIDE_ODD_LENGTHS = range(1, 3000, 2)
# the wide N of the benchmark's factor workload: 107 to 631 factors, up to
# six coset sizes (N = 1365 and 4095) and up to two lane classes (N = 5461)
BENCH_WIDE_LENGTHS = [1023, 1365, 2047, 3855, 4095, 4369, 4681, 5461, 8191]
# odd N whose factor table builds in under 1 s with the product-of-roots
# minimal polynomials (m up to 100), kept with their `factor --json` digests
DIGEST_LENGTHS = sorted(int(n) for n in json.loads((DATA / "factor_digests.json").read_text()))


def phi_by_count(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def field_mul(a, b, modulus):
    # shift-and-add in F2[X]/(modulus), reducing as the shifted copy grows
    deg = modulus.bit_length() - 1
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= modulus
    return out


def field_pow(a, e, modulus):
    out = 1
    for bit in bin(e)[2:]:
        out = field_mul(out, out, modulus)
        if bit == "1":
            out = field_mul(out, a, modulus)
    return out


def field_eval(bits, x, modulus):
    # Horner's rule with F2 coefficients, highest degree first
    acc = 0
    for c in reversed(f2_coeffs(bits)):
        acc = field_mul(acc, x, modulus) ^ c
    return acc


def mod2_factors(n):
    return factor_mod2(cyclotomic_cosets(n))


def is_irreducible_by_rabin(modulus):
    # Rabin's test on the field arithmetic above: X^(2^m) = X mod the
    # modulus, and X^(2^(m/q)) - X is coprime to it for each prime q | m
    m = modulus.bit_length() - 1
    x = f2_bits(f2_rem([0, 1], f2_coeffs(modulus)))
    frobenius = [x]
    for _ in range(m):
        frobenius.append(field_mul(frobenius[-1], frobenius[-1], modulus))
    primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % p for p in range(2, q))]
    return frobenius[m] == x and all(
        f2_gcd(f2_coeffs(frobenius[m // q] ^ x), f2_coeffs(modulus)) == [1] for q in primes
    )


@functools.cache
def least_irreducible(m):
    # the least irreducible of degree m by Rabin's test, skipping the
    # candidates with root 0 (even constant term) or root 1 (even weight)
    return next(
        bits
        for bits in range(1 << m, 2 << m)
        if (m == 1 or bits & 1 and bits.bit_count() % 2) and is_irreducible_by_rabin(bits)
    )


class TestEulerPhi:
    # phi(n) of odd n, as classify_pair reports it beside the order
    def test_one(self):
        assert classify_pair(1).phi == 1

    @pytest.mark.parametrize("n", [7, 15])
    def test_against_direct_count(self, n):
        assert classify_pair(n).phi == phi_by_count(n)

    def test_direct_count_sweep(self):
        for n in range(1, 200, 2):
            assert classify_pair(n).phi == phi_by_count(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify_pair(0)


class TestDivisors:
    # the divisors pair_classes lists, one class each, ascending
    def test_against_direct_scan(self):
        for n in WIDE_ODD_LENGTHS:
            assert [pc.divisor for pc in pair_classes(n)] == [
                d for d in range(1, n + 1) if n % d == 0
            ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pair_classes(0)


class TestPairClasses:
    # 3 * 1093^2 and 3511^2: Wieferich squares, where ord_{p^2}(2) = ord_p(2)
    @pytest.mark.parametrize("n", [45045, 3**7 * 5**2, 3 * 1093**2, 3511**2])
    def test_each_divisor_against_direct_computation(self, n):
        root = math.isqrt(n)
        expected = sorted({d for k in range(1, root + 1) if n % k == 0 for d in (k, n // k)})
        classes = pair_classes(n)
        assert [pc.divisor for pc in classes] == expected
        for pc in classes:
            d = pc.divisor
            # the literal power walk 2, 4, 8, ... until it first returns to
            # 1, noting on the way whether it passes -1
            k, acc, hits_minus_one = 1, 2 % d, 2 % d == d - 1
            while acc != 1 % d:
                k, acc = k + 1, acc * 2 % d
                hits_minus_one = hits_minus_one or acc == d - 1
            assert pc.order2 == k
            if d < 10**5:
                assert pc.phi == phi_by_count(d)
            assert pc.kind == (GOOD if hits_minus_one else BAD)
            assert pc.block * (1 if hits_minus_one else 2) * k == pc.phi


class TestMultOrder:
    def test_convention_at_one(self):
        assert mult_order_of_2(1) == 1

    def test_small_values(self):
        assert mult_order_of_2(7) == 3  # 2, 4, 1
        assert mult_order_of_2(15) == 4  # 2, 4, 8, 1

    def test_defining_property(self):
        # the literal power walk 2, 4, 8, ... until it first returns to 1;
        # squares of the Wieferich primes 1093 and 3511 keep ord_p(2)
        for n in [*WIDE_ODD_LENGTHS, 1093**2, 3511**2]:
            k, acc = 1, 2 % n
            while acc != 1 % n:
                k, acc = k + 1, acc * 2 % n
            assert mult_order_of_2(n) == k

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            mult_order_of_2(6)


class TestClassifyPair:
    def test_one_is_good(self):
        pc = classify_pair(1)
        assert (pc.kind, pc.block) == (GOOD, 1)

    def test_seven_is_bad(self):
        pc = classify_pair(7)
        assert (pc.kind, pc.block) == (BAD, 1)

    def test_five_is_good(self):
        # 2^2 + 1 = 5, found by direct search
        assert any((2**k + 1) % 5 == 0 for k in range(1, 5))
        pc = classify_pair(5)
        assert (pc.kind, pc.block) == (GOOD, 1)

    def test_against_direct_search(self):
        # good iff 2^k = -1 mod n for some k; the window k <= phi(n) suffices
        for n in WIDE_ODD_LENGTHS:
            pc = classify_pair(n)
            expected = any(pow(2, k, n) == n - 1 for k in range(1, pc.phi + 1))
            assert (pc.kind == GOOD) == expected

    def test_counts_are_positive_integers(self):
        for n in ODD_LENGTHS:
            pc = classify_pair(n)
            if pc.kind == GOOD:
                assert pc.block * pc.order2 == pc.phi
            else:
                assert pc.block * 2 * pc.order2 == pc.phi

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            classify_pair(4)


class TestCyclotomicCosets:
    def test_seven(self):
        assert cyclotomic_cosets(7) == [(0,), (1, 2, 4), (3, 5, 6)]

    def test_one(self):
        assert cyclotomic_cosets(1) == [(0,)]

    def test_fifteen(self):
        assert cyclotomic_cosets(15) == [
            (0,),
            (1, 2, 4, 8),
            (3, 6, 9, 12),
            (5, 10),
            (7, 11, 13, 14),
        ]

    def test_partition_and_orbit_closure(self):
        for n in ODD_LENGTHS:
            cosets = cyclotomic_cosets(n)
            seen = [s for c in cosets for s in c]
            assert sorted(seen) == list(range(n))
            for coset in cosets:
                assert {2 * s % n for s in coset} == set(coset)
            assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)

    @pytest.mark.parametrize("n", [0, -3, 6])
    def test_rejects_bad_length(self, n):
        with pytest.raises(ValueError):
            cyclotomic_cosets(n)

    def test_matches_set_orbits_at_every_odd_length_below_3000_and_the_wide_lengths(self):
        # each orbit grown as the set {s, 2s, 4s, ...} mod N from the least
        # residue that no earlier orbit holds
        for n in sorted({*WIDE_ODD_LENGTHS, *BENCH_WIDE_LENGTHS}):
            cosets, covered = [], set()
            for s in range(n):
                if s in covered:
                    continue
                orbit = set()
                while s not in orbit:
                    orbit.add(s)
                    s = 2 * s % n
                covered |= orbit
                cosets.append(orbit)
            got = cyclotomic_cosets(n)
            assert [set(coset) for coset in got] == cosets
            assert all(a < b for coset in got for a, b in zip(coset, coset[1:]))

    def test_rejects_a_length_no_list_can_index(self, monkeypatch):
        # refused before bytearray(N), which would raise OverflowError; no
        # bytearray may be made first
        def refuse(*args):
            raise AssertionError("allocated before the length check")

        monkeypatch.setattr(cyclotomic, "bytearray", refuse, raising=False)
        with pytest.raises(ValueError, match="the most residues a list can index"):
            cyclotomic_cosets(sys.maxsize + 2)

    def test_negated_coset_starts_at_n_less_the_greatest_member(self):
        # how build_factor_table finds each reciprocal partner
        for n in range(1, 3000, 2):
            cosets = cyclotomic_cosets(n)
            by_least = {c[0]: c for c in cosets}
            for coset in cosets:
                assert set(by_least[-coset[-1] % n]) == {-s % n for s in coset}


def order_of_2(n):
    # the literal walk 2, 4, 8, ... mod n back to 1
    k, power = 1, 2 % n
    while power != 1 % n:
        k, power = k + 1, 2 * power % n
    return k


@functools.cache
def cyclotomic_by_division(n):
    # Phi_n mod 2 as the schoolbook quotient of X^n + 1 by Phi_d over the
    # proper divisors d of n, each found the same way
    quotient = [1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quotient, rem = f2_divmod(quotient, cyclotomic_by_division(d))
            assert rem == []
    return quotient


def walk_trace(n, monkeypatch):
    # _primitive_idempotent(cosets(n)) watched: whether each coset product
    # of the walk split the idempotent, and the outcome of each
    # Berlekamp-Massey test, whose own product is left out of the walk
    walk, tests, testing = [], [], []
    product, test = cyclotomic._cyclic_product, cyclotomic._is_primitive

    def watched_product(element, exponents, length):
        out = product(element, exponents, length)
        if not testing:
            walk.append(out not in (0, element))
        return out

    def watched_test(idempotent, degree, length):
        testing.append(True)
        tests.append(test(idempotent, degree, length))
        testing.pop()
        return tests[-1]

    monkeypatch.setattr(cyclotomic, "_cyclic_product", watched_product)
    monkeypatch.setattr(cyclotomic, "_is_primitive", watched_test)
    idempotent = _primitive_idempotent(cyclotomic_cosets(n))
    monkeypatch.undo()
    return idempotent, walk, tests


def ended_by(n, walk, tests):
    # the certificate that ended a traced walk: a Berlekamp-Massey test that
    # passed; every coset taken with fewer than c - 1 splits; or c - 1
    # splits, c the number of factors of Phi_N
    cosets = cyclotomic_cosets(n)
    factors = sum(math.gcd(coset[0], n) == 1 for coset in cosets)
    if tests and tests[-1]:
        assert sum(walk) < factors - 1 and len(walk) < len(cosets)
        return "test"
    if len(walk) == len(cosets) and sum(walk) < factors - 1:
        return "full walk"
    assert sum(walk) == factors - 1
    return "count"


def coefficient_terms(bits, n, count):
    # coefficient k mod n of an n-bit int, for k < count
    return [bits >> (k % n) & 1 for k in range(count)]


class TestFieldSetup:
    # the field is the minimal ideal that a primitive idempotent E of Phi_N's
    # part of F2[X]/(X^N - 1) generates, F2[X]/(M) for the factor M of Phi_N
    # whose roots E is 1 at; E comes from a walk down from theta_N

    def test_primitive_part_is_one_on_phi_n_and_zero_on_each_smaller_phi_d(self):
        # theta_N is idempotent: squaring in F2[X]/(X^N - 1) moves bit k to
        # bit 2k mod N; it is 1 mod the schoolbook Phi_N and 0 mod Phi_d for
        # each proper divisor d of N
        for n in range(1, 300, 2):
            theta = _primitive_part(n)
            assert 0 < theta < 1 << n
            assert sum(1 << 2 * k % n for k in range(n) if theta >> k & 1) == theta
            coeffs = f2_coeffs(theta)
            assert f2_rem(coeffs, cyclotomic_by_division(n)) == [1]
            for d in range(1, n):
                if n % d == 0:
                    assert f2_rem(coeffs, cyclotomic_by_division(d)) == []

    @pytest.mark.parametrize("n", range(1, 64, 2))
    def test_modulus_is_an_irreducible_factor_of_degree_m(self, n):
        # the modulus M of the field is the minimal polynomial of the
        # coefficients of E, read off two whole periods, which fix it; trial
        # division is exhaustive, so it runs where m <= 20, and Rabin's test
        # on the test-local field arithmetic runs at every m
        idempotent = _primitive_idempotent(cyclotomic_cosets(n))
        m = order_of_2(n)
        modulus = _bits_berlekamp_massey(coefficient_terms(idempotent, n, 2 * n))
        assert modulus.bit_length() - 1 == m
        assert f2_rem(cyclotomic_by_division(n), f2_coeffs(modulus)) == []
        assert is_irreducible_by_rabin(modulus)
        if m <= 20:
            assert f2_is_irreducible_by_trial_division(f2_coeffs(modulus))
        assert 2 * m >= n or _is_primitive(idempotent, m, n)

    def test_theta_7_is_not_primitive(self):
        # Phi_7 = (X^3 + X + 1)(X^3 + X^2 + 1), so theta_7 is 1 at six roots,
        # its coefficients have linear complexity 6, and no recurrence of
        # order 3 holds all the way round
        theta = _primitive_part(7)
        assert theta == 0b1111110
        assert _bits_berlekamp_massey(coefficient_terms(theta, 7, 14)).bit_length() - 1 == 6
        assert not _is_primitive(theta, 3, 7)
        assert _is_primitive(_primitive_idempotent(cyclotomic_cosets(7)), 3, 7)

    @pytest.mark.parametrize("n, certificate, walk, tests", [
        (11, "count", [], []),  # c = 1: theta_11 is primitive as it is
        (7, "count", [False, True], []),  # c = 2: the coset of 3 is never taken
        (43, "full walk", [False, True, False, False], []),  # c = 3: 28 <= 3m residues left after the split
        (353, "full walk", [False, True, False, False, False], []),  # c = 4: 264 = 3m left, so no test
        (31, "test", [False, True, True], [False, True]),  # c = 6
        (63, "test", [False, True, True, False, False, False, True], [False, False, True]),  # c = 6
    ])
    def test_each_certificate_ends_a_walk(self, n, certificate, walk, tests, monkeypatch):
        idempotent, got_walk, got_tests = walk_trace(n, monkeypatch)
        assert (got_walk, got_tests) == (walk, tests)
        assert ended_by(n, walk, tests) == certificate
        terms = coefficient_terms(idempotent, n, 2 * n)
        assert _bits_berlekamp_massey(terms).bit_length() - 1 == order_of_2(n)

    def test_every_walk_below_128_ends_primitive(self, monkeypatch):
        # and each of the three certificates ends some of them
        ended = set()
        for n in range(1, 128, 2):
            idempotent, walk, tests = walk_trace(n, monkeypatch)
            ended.add(ended_by(n, walk, tests))
            terms = coefficient_terms(idempotent, n, 2 * n)
            assert _bits_berlekamp_massey(terms).bit_length() - 1 == order_of_2(n)
        assert ended == {"count", "full walk", "test"}

    def test_rabin_matches_trial_division(self):
        for bits in range(2, 1 << 11):
            coeffs = f2_coeffs(bits)
            assert is_irreducible_by_rabin(bits) == f2_is_irreducible_by_trial_division(coeffs)


class TestFactorMod2:
    def test_seven(self):
        assert mod2_factors(7) == [
            f2_bits([1, 1]),
            f2_bits([1, 1, 0, 1]),
            f2_bits([1, 0, 1, 1]),
        ]

    def test_one(self):
        assert mod2_factors(1) == [f2_bits([1, 1])]

    def test_three(self):
        factors = mod2_factors(3)
        assert factors == [f2_bits([1, 1]), f2_bits([1, 1, 1])]
        product = functools.reduce(f2_mul, map(f2_coeffs, factors))
        assert product == [1, 0, 0, 1]

    def test_product_degree_and_irreducibility(self):
        for n in ODD_LENGTHS:
            factors = mod2_factors(n)
            cosets = cyclotomic_cosets(n)
            assert [len(f2_coeffs(f)) - 1 for f in factors] == [len(c) for c in cosets]
            product = functools.reduce(f2_mul, map(f2_coeffs, factors), [1])
            assert product == [1] + [0] * (n - 1) + [1]
            if n <= 15:  # exhaustive divisor scan stays cheap here
                assert all(f2_is_irreducible_by_trial_division(f2_coeffs(f)) for f in factors)

    @pytest.mark.parametrize("n", [n for n in DIGEST_LENGTHS if n < 200])
    def test_factor_is_minimal_polynomial_of_its_coset(self, n):
        # the definition: factor j has degree |coset j| and vanishes at
        # beta^s, s = min coset j, where beta is a root of the factor of the
        # coset of 1; with irreducibility (checked above) that makes it the
        # minimal polynomial.  The field is F2[X] modulo the least
        # irreducible of degree m found here, and beta comes from the first
        # power c^((2^m - 1)/N) whose literal order walk takes N steps
        m = order_of_2(n)
        modulus = least_irreducible(m)
        if m <= 16:
            assert f2_is_irreducible_by_trial_division(f2_coeffs(modulus))
        for c in range(1, 1 << m):
            gamma = field_pow(c, ((1 << m) - 1) // n, modulus)
            power, order = gamma, 1
            while power != 1:
                power, order = field_mul(power, gamma, modulus), order + 1
            if order == n:
                break
        assert order == n
        factors = mod2_factors(n)
        cosets = cyclotomic_cosets(n)
        assert len(factors) == len(cosets)
        first = next(j for j, coset in enumerate(cosets) if 1 % n in coset)
        beta = next(
            root
            for coset in cosets
            if math.gcd(coset[0], n) == 1
            for root in [field_pow(gamma, coset[0], modulus)]
            if field_eval(factors[first], root, modulus) == 0
        )
        for f, coset in zip(factors, cosets):
            assert len(f2_coeffs(f)) - 1 == len(coset)
            assert field_eval(f, field_pow(beta, coset[0], modulus), modulus) == 0

    @pytest.mark.parametrize("n", DIGEST_LENGTHS)
    def test_coset_of_one_has_the_least_primitive_factor(self, n):
        # the labelling convention: alpha is a root of the least irreducible
        # factor of Phi_N mod 2, and the records with n = N are those factors
        records = [r for r in build_factor_table(n).records if r.divisor == n]
        least = min(records, key=lambda r: r.poly.reduce_mod2())
        assert 1 % n in least.coset

    @pytest.mark.parametrize("n", [127, 255, 4095, 8191, 32767])
    def test_both_kernels_on_every_coset_size_class(self, n):
        # factor_mod2 runs Berlekamp-Massey once for a class of more than 2d
        # cosets of size d, and once per coset for a smaller class; here
        # every class goes through both kernels, which must agree lane by
        # lane, and factor_mod2 must list the same polynomials
        cosets = cyclotomic_cosets(n)
        idempotent = _primitive_idempotent(cosets)
        start = (idempotent & -idempotent).bit_length() - 1  # the first coefficient that is 1
        chain = bytes(coefficient_terms(idempotent, n, start + n)[start:])
        found = []
        for d in sorted(set(map(len, cosets))):
            terms = _coset_terms(chain, [c[0] for c in cosets if len(c) == d], 2 * d)
            one_lane = [_bits_berlekamp_massey(t) for t in terms]
            assert {p.bit_length() - 1 for p in one_lane} == {d}
            assert _bits_berlekamp_massey_lanes(b"".join(terms), len(terms)) == one_lane
            found += one_lane
        assert sorted(factor_mod2(cosets)) == sorted(found)

    @pytest.mark.parametrize("n, classes", [(7, []), (255, [(8, 30)]), (4095, [(12, 335)]),
                                            (511, [(9, 56)]), (63, [])])
    def test_many_lane_kernel_takes_the_classes_of_more_than_2d_cosets(self, n, classes, monkeypatch):
        # (coset size d, coset count R) of each class that goes to it; at
        # N = 63 the class of size 6 has 9 cosets, under the 2d = 12 that
        # the many-lane kernel needs to be the faster
        seen = []

        def record(terms, lanes):
            seen.append((len(terms) // lanes // 2, lanes))
            return _bits_berlekamp_massey_lanes(terms, lanes)

        expected = factor_mod2(cyclotomic_cosets(n))
        monkeypatch.setattr(cyclotomic, "_bits_berlekamp_massey_lanes", record)
        assert factor_mod2(cyclotomic_cosets(n)) == expected
        assert seen == classes

    def test_large_degree_factor_irreducible(self):
        # the degree-28 factor at N=29 via the same exhaustive oracle
        factors = mod2_factors(29)
        assert [len(f2_coeffs(f)) - 1 for f in factors] == [1, 28]
        assert f2_is_irreducible_by_trial_division(f2_coeffs(factors[1]))


class TestCosetTerms:
    # random bytes rather than the 0/1 chain, so that a term read from a
    # wrong index shows
    @pytest.mark.parametrize("n", [1, 3, 7, 9, 15, 21, 63, 101, 301, 353, 1023, 4369, 8191])
    def test_strided_read_matches_indexed_read(self, n):
        rng = random.Random(n)
        bit0 = bytes(rng.randrange(256) for _ in range(n))
        for coset in cyclotomic_cosets(n):
            s, d = coset[0], len(coset)
            expected = bytes([bit0[s * k % n] for k in range(2 * d)])
            for copies in (1, 2, 2 * d):
                assert _coset_terms(bit0 * copies, [s], 2 * d) == [expected]

    def test_step_zero_and_counts_past_n(self):
        bit0 = bytes([5, 6, 7])
        assert _coset_terms(bit0, [0], 2) == [bytes([5, 5])]
        assert _coset_terms(bit0, [1], 4) == [bytes([5, 6, 7, 5])]  # the coset {1, 2} of N = 3
        assert _coset_terms(bit0, [2], 7) == [bytes([5, 7, 6, 5, 7, 6, 5])]
        assert _coset_terms(bit0, [1], 0) == [b""]
        assert _coset_terms(bit0, [], 4) == []
        expected = [bytes([bit0[s * k % 3] for k in range(10)]) for s in range(3)]
        assert _coset_terms(bit0, [0, 1, 2], 10) == expected

    def test_any_number_of_copies_matches_indexed_read(self):
        # the chain is c copies of bit0, from 1 to past the 2d that makes
        # every read one slice; steps include 0 and the steps past N / 2
        rng = random.Random(20261020)
        for _ in range(3000):
            n = rng.randrange(1, 500, 2)
            bit0 = bytes(rng.randrange(256) for _ in range(n))
            steps = [0, n - 1, *(rng.randrange(n) for _ in range(rng.randint(0, 4)))]
            count = rng.randint(0, 80)
            expected = [bytes([bit0[s * k % n] for k in range(count)]) for s in steps]
            assert _coset_terms(bit0 * rng.randint(1, 90), steps, count) == expected

    @pytest.mark.parametrize("n", [1023, 8191])
    def test_json_unchanged_when_the_cap_cuts_the_copies(self, n, monkeypatch):
        # three copies, against the 2d of one slice per coset: the reads
        # wrap, and `factor N --json` must keep its pinned digest
        pins = {}
        for name in ("factor_digests.json", "factor_digests_wide.json"):
            pins.update(json.loads((DATA / name).read_text()))
        wrapped = []
        read = cyclotomic._wrapped_terms

        def counting(chain, step, count):
            wrapped.append(len(chain) // n)
            return read(chain, step, count)

        monkeypatch.setattr(cyclotomic, "TERM_EXTENSION_BYTES", 3 * n + 1)
        monkeypatch.setattr(cyclotomic, "_wrapped_terms", counting)
        out = io.StringIO()
        write_table_json(build_factor_table.__wrapped__(n), out)  # past the cache
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pins[str(n)]
        assert wrapped and set(wrapped) == {3}


class TestDeepLengths:
    @pytest.mark.parametrize("n", [83, 107, 131, 167, 179, 1019, 3001, 4093])
    def test_builds_without_factoring_the_group_order(self, n, monkeypatch):
        # m = ord_N(2) is 82 to 4092 here: the field set-up factors N for
        # theta_N and phi(N), and never 2^m - 1, which trial division could
        # not finish for N = 167 or 179
        calls = []
        factorize = cyclotomic._factorize

        def counting(k):
            calls.append(k)
            return factorize(k)

        monkeypatch.setattr(cyclotomic, "_factorize", counting)
        table = build_factor_table.__wrapped__(n)  # past the cache
        product = functools.reduce(
            f2_mul, (f2_coeffs(r.poly.reduce_mod2()) for r in table.records), [1]
        )
        assert product == [1] + [0] * (n - 1) + [1]
        assert calls and max(calls) <= n


class TestGraeffeLift:
    @pytest.mark.parametrize(
        "mod2,lifted",
        [
            ([1, 1, 0, 1], [3, 1, 2, 1]),  # X^3+X+1 -> X^3+2X^2+X-1
            ([1, 1], [3, 1]),  # X+1 -> X-1
            ([1, 0, 1, 1], [3, 2, 3, 1]),  # X^3+X^2+1 -> X^3-X^2+2X-1
        ],
    )
    def test_known_lifts(self, mod2, lifted):
        assert graeffe_lift(f2_bits(mod2)) == Z4Poly(lifted)

    def test_reduces_back_and_divides(self):
        for n in ODD_LENGTHS:
            for f2 in mod2_factors(n):
                lift = graeffe_lift(f2)
                assert lift.is_monic
                assert lift.reduce_mod2() == f2
                _, rem = z4_divmod_monic(x_pow_minus_one(n), lift.coeffs)
                assert not any(rem)

    @staticmethod
    def lift_by_z4_arithmetic(coeffs):
        even, odd = Z4Poly(coeffs[0::2]), Z4Poly(coeffs[1::2])
        lifted = z4_add((even * even).coeffs, [0] + [-c for c in (odd * odd).coeffs])
        sign = -1 if (len(coeffs) - 1) % 2 else 1
        return Z4Poly(sign * c for c in lifted)

    def test_matches_z4_arithmetic_across_slot_widths(self):
        # all-ones polynomials fill the byte slots most; a slot widens to
        # 2 bytes at degree 126 and to 3 at degree 32766
        rng = random.Random(20261022)
        degrees = [*range(0, 12), *range(124, 132), 400, 32765, 32766]
        for degree in degrees:
            all_ones = [1] * (degree + 1)
            middle = [int(rng.random() < 0.1) for _ in range(degree - 1)]
            sparse = [1, *middle, 1] if degree else [1]
            for coeffs in (all_ones, sparse):
                assert graeffe_lift(f2_bits(coeffs)) == self.lift_by_z4_arithmetic(coeffs)

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            graeffe_lift(f2_bits([0, 1]))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            graeffe_lift(0)

    @pytest.mark.parametrize("bits", [-5, -1, -0b1011])
    def test_rejects_negative(self, bits):
        # an odd negative int is no encoding; its binary form has a sign
        # that would otherwise be read as a coefficient
        with pytest.raises(ValueError):
            graeffe_lift(bits)


class TestGraeffeLiftLanes:
    @pytest.mark.parametrize("n", [1023, 1365, 2047, 3855, 4095, 4369, 4681, 5461, 8191, 32767])
    def test_every_lane_class_matches_graeffe_lift(self, n):
        cosets = cyclotomic_cosets(n)
        mod2 = factor_mod2(cosets)
        lane_classes = [(d, members) for d, members, lanes in _size_classes(cosets) if lanes]
        assert lane_classes
        for d, members in lane_classes:
            factors = [mod2[idx] for idx in members]
            assert _graeffe_lift_lanes(factors, d) == [graeffe_lift(bits) for bits in factors]

    @pytest.mark.parametrize("parity", [0, 1])
    def test_random_factors_match_graeffe_lift(self, parity):
        # odd degree flips the sign of every coefficient; R from one lane up
        rng = random.Random(parity)
        for degree in range(1, 41):
            if degree % 2 != parity:
                continue
            for lanes in (1, 2, 3, rng.randint(4, 100), 100):
                factors = [1 << degree | rng.getrandbits(degree) | 1 for _ in range(lanes)]
                assert _graeffe_lift_lanes(factors, degree) == [graeffe_lift(bits) for bits in factors]

    def test_all_ones_and_no_lanes(self):
        for degree in range(1, 20):
            factors = [(1 << degree + 1) - 1, 1 << degree | 1]
            assert _graeffe_lift_lanes(factors, degree) == [graeffe_lift(bits) for bits in factors]
        assert _graeffe_lift_lanes([], 5) == []

    def test_rejects_an_even_factor(self):
        with pytest.raises(ValueError):
            _graeffe_lift_lanes([0b1011, 0b1010, 0b1101], 3)

    @pytest.mark.parametrize("factors", [[0b1011, 0b111], [0b1011, 0b10011], [0b1011, -0b1011]])
    def test_rejects_a_factor_of_another_degree(self, factors):
        with pytest.raises(ValueError):
            _graeffe_lift_lanes(factors, 3)

    @pytest.mark.parametrize("n", [7, 63, 255, 511, 4095, 4369])
    def test_lifts_as_planes_exactly_the_classes_that_run_berlekamp_massey_as_planes(self, n, monkeypatch):
        seen = {"massey": [], "lift": []}
        massey, lift = cyclotomic._bits_berlekamp_massey_lanes, cyclotomic._graeffe_lift_lanes

        def record_massey(terms, lanes):
            seen["massey"].append((len(terms) // lanes // 2, lanes))
            return massey(terms, lanes)

        def record_lift(bits, degree):
            seen["lift"].append((degree, len(bits)))
            return lift(bits, degree)

        expected = build_factor_table(n)
        monkeypatch.setattr(cyclotomic, "_bits_berlekamp_massey_lanes", record_massey)
        monkeypatch.setattr(cyclotomic, "_graeffe_lift_lanes", record_lift)
        assert build_factor_table.__wrapped__(n) == expected  # past the cache
        assert seen["massey"] == seen["lift"]
        assert bool(seen["lift"]) == (n not in (7, 63))


class TestFactorTable:
    def test_seven_matches_known_factorization(self):
        table = build_factor_table(7)
        assert [r.poly.coeffs for r in table.records] == [
            bytes([3, 1]),
            bytes([3, 1, 2, 1]),
            bytes([3, 2, 3, 1]),
        ]
        assert [factor_label(r) for r in table.records] == ["g[1,1]", "f[1,7]", "f*[1,7]"]
        assert [r.divisor for r in table.records] == [1, 7, 7]
        assert [r.kind for r in table.records] == [
            SELF_RECIPROCAL,
            PAIR_FIRST,
            PAIR_SECOND,
        ]
        assert (table[1].partner, table[2].partner) == (2, 1)

    def test_derived_views_are_built_once(self):
        for n in ODD_LENGTHS:
            table = build_factor_table.__wrapped__(n)  # a fresh table
            assert table.ids() == frozenset(range(len(table)))
            assert table.ids() is table.ids()
            assert table.bits == tuple(r.poly.reduce_mod2() for r in table.records)
            assert table.bits is table.bits
            # the held views are not fields: equality and hash see the records
            assert table == build_factor_table.__wrapped__(n)
            assert hash(table) == hash(build_factor_table.__wrapped__(n))

    def test_record_contract(self):
        assert FactorRecord._fields == (
            "index", "poly", "bits", "divisor", "block_index", "kind", "partner", "coset",
        )
        assert PairClass._fields == ("divisor", "order2", "phi", "kind", "block")
        table = build_factor_table(7)
        first, second = table[1], table[2]
        # the field, not tuple.index
        assert (first.index, second.index) == (1, 2)
        assert (first.degree, second.degree) == (3, 3)
        assert first == tuple(first) and first < second  # compare and order as tuples
        pc = classify_pair(7)
        assert pc == (7, 3, 6, BAD, 1)
        assert len({first, second, first}) == 2 and hash(pc) == hash(tuple(pc))
        for record, field in ((first, "kind"), (pc, "block")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_length_one(self):
        table = build_factor_table(1)
        assert len(table) == 1
        assert table[0].poly == Z4Poly([3, 1])
        assert table[0].kind == SELF_RECIPROCAL

    def test_fifteen_block_structure(self):
        table = build_factor_table(15)
        kinds = [r.kind for r in table.records]
        assert kinds.count(SELF_RECIPROCAL) == 3
        assert kinds.count(PAIR_FIRST) == 1 and kinds.count(PAIR_SECOND) == 1
        assert sorted({r.divisor for r in table.records}) == [1, 3, 5, 15]
        pair_first = next(r for r in table.records if r.kind == PAIR_FIRST)
        assert pair_first.divisor == 15

    def test_product_is_x_n_minus_1(self):
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            product = functools.reduce(
                operator.mul, (r.poly for r in table.records), Z4Poly.one()
            )
            assert product == Z4Poly(x_pow_minus_one(n))
            assert sum(r.degree for r in table.records) == n

    def test_records_mirror_mod2_factors_and_divide(self):
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            mod2 = mod2_factors(n)
            for r in table.records:
                assert r.bits == mod2[r.index] == r.poly.reduce_mod2()
                assert graeffe_lift(r.bits) == r.poly
                _, rem = z4_divmod_monic(x_pow_minus_one(n), r.poly.coeffs)
                assert not any(rem)

    def test_pairwise_coprime_mod_2(self):
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            reductions = [f2_coeffs(r.poly.reduce_mod2()) for r in table.records]
            for i, a in enumerate(reductions):
                for b in reductions[i + 1 :]:
                    assert f2_gcd(a, b) == [1]

    def test_block_counts_match_pair_class(self):
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            for divisor in {r.divisor for r in table.records}:
                block = [r for r in table.records if r.divisor == divisor]
                pc = classify_pair(divisor)
                if pc.kind == GOOD:
                    assert all(r.kind == SELF_RECIPROCAL for r in block)
                    assert len(block) == pc.block
                else:
                    assert all(r.kind != SELF_RECIPROCAL for r in block)
                    assert sum(r.kind == PAIR_FIRST for r in block) == pc.block
                    assert len(block) == 2 * pc.block

    def test_partner_structure(self):
        for n in ODD_LENGTHS:
            table = build_factor_table(n)
            for r in table.records:
                partner = table[r.partner]
                assert r.poly.reciprocal() == partner.poly
                assert -r.coset[0] % n in partner.coset
                assert partner.partner == r.index
                assert (r.kind == SELF_RECIPROCAL) == (r.partner == r.index)
                if r.kind == PAIR_FIRST:
                    assert r.coset[0] < partner.coset[0]
                    assert partner.kind == PAIR_SECOND
                    assert partner.block_index == r.block_index

    def test_degree_equals_coset_size(self):
        for n in ODD_LENGTHS:
            for r in build_factor_table(n).records:
                assert len(r.poly.coeffs) - 1 == len(r.coset) == r.degree

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            build_factor_table(8)

    @pytest.mark.parametrize("kind", [SELF_RECIPROCAL, PAIR_FIRST, PAIR_SECOND])
    @pytest.mark.parametrize("lanes", [True, False])
    def test_a_lift_that_breaks_reciprocity_is_refused(self, lanes, kind, monkeypatch):
        # N = 255 has a lane class of size 8 and a one-at-a-time class of
        # size 4, each with self-reciprocal factors and pairs.  The lift
        # puts 2 on coefficient 1 of one factor: still monic, same reduction
        # mod 2, but of degree 4 or more no longer the reciprocal of its
        # partner's lift
        n = 255
        table = build_factor_table(n)
        classes = {flag: members for d, members, flag in _size_classes(cyclotomic_cosets(n)) if d > 2}
        target = next(table[idx].bits for idx in classes[lanes] if table[idx].kind == kind)
        hits = []

        def corrupt(poly, by_lanes):
            if poly.reduce_mod2() != target:
                return poly
            hits.append(by_lanes)
            coeffs = bytearray(poly.coeffs)
            coeffs[1] ^= 2
            return Z4Poly._of(bytes(coeffs))

        lift, lift_lanes = cyclotomic.graeffe_lift, cyclotomic._graeffe_lift_lanes
        monkeypatch.setattr(cyclotomic, "graeffe_lift", lambda bits: corrupt(lift(bits), False))
        monkeypatch.setattr(
            cyclotomic, "_graeffe_lift_lanes",
            lambda bits, degree: [corrupt(poly, True) for poly in lift_lanes(bits, degree)],
        )
        with pytest.raises(AssertionError, match="reciprocal"):
            build_factor_table.__wrapped__(n)  # past the cache
        assert hits == [lanes]

    def test_cache_is_bounded(self):
        # a bound of 64 or more keeps every table the benchmark's lcd workload warms
        maxsize = build_factor_table.cache_info().maxsize
        assert maxsize is not None and maxsize >= 64


def table_to_wire(table):
    """The JSON-ready dict of a factor table: the reference for write_table_json."""
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


class TestWire:
    def test_schema(self):
        out = io.StringIO()
        write_table_json(build_factor_table(7), out)
        wire = json.loads(out.getvalue())
        assert wire == table_to_wire(build_factor_table(7))
        assert wire["N"] == 7
        assert [r["id"] for r in wire["records"]] == [0, 1, 2]
        first = wire["records"][0]
        assert set(first) == {"id", "n", "i", "kind", "partner", "coset", "poly"}
        assert first["poly"] == "3,1"
        assert first["coset"] == [0]
        assert wire["records"][1]["kind"] == "pairFirst"

    def test_matches_the_indented_encoder_at_the_wide_lengths(self):
        # one coefficient pass renders every record of a table; these N hold
        # up to six coset sizes in one table.  A factor of degree d has
        # constant term (-1)^d, so one size has one constant term, and the
        # tables with sizes of both parities mix the terms 1 and 3
        sizes, mixed = [], 0
        for n in BENCH_WIDE_LENGTHS:
            table = build_factor_table(n)
            out = io.StringIO()
            write_table_json(table, out)
            assert out.getvalue() == json.dumps(table_to_wire(table), indent=2, sort_keys=True) + "\n"
            constants = {(r.degree, r.poly.coeffs[0]) for r in table.records}
            assert constants == {(d, 3 if d % 2 else 1) for d in set(table.degrees)}
            sizes.append(len(constants))
            mixed += len({c for _, c in constants}) == 2
        assert max(sizes) == 6 and mixed == 6


def label_free_digest(table):
    # sha256 over the sorted (poly, partner's poly, n) rows: blind to which
    # coset a factor is filed under, so any relabelling leaves it fixed
    rows = sorted(
        (r.poly.to_string(), table[r.partner].poly.to_string(), r.divisor)
        for r in table.records
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestLabelFreeInvariants:
    # captured before the factor labels became canonical: a change of
    # labelling convention must leave every one of these fixed
    EXPECTED = json.loads((DATA / "factor_multiset_digests.json").read_text())

    def test_covers_every_digest_length(self):
        assert sorted(map(int, self.EXPECTED["records"])) == DIGEST_LENGTHS

    def test_factor_multisets_match_digests(self):
        expected = self.EXPECTED["records"]
        got = {n: label_free_digest(build_factor_table(int(n))) for n in expected}
        assert [n for n in expected if got[n] != expected[n]] == []

    @pytest.mark.parametrize("n", range(1, 22, 2))
    def test_hull_size_multiset(self, n):
        # hull sizes over all 3^r partitions, as {size: number of codes}
        table = build_factor_table(n)
        sizes = Counter(hull_report(spec).hull_size for spec in all_partitions(table))
        assert sizes == Counter(
            {int(size): count for size, count in self.EXPECTED["hull_sizes"][str(n)].items()}
        )
