import itertools
import random

import pytest

from z4lcd.codes import (
    CodeSpec,
    DivisorSet,
    code_size,
    divisor_poly,
    factor_divisor,
    hull_report,
    hull_to_wire,
    reciprocal_set,
    spec_to_wire,
)
from z4lcd.cyclotomic import FactorTable, build_factor_table, graeffe_lift
from z4lcd.z4poly import Z4Poly, _bits_rems

from schoolbook import f2_bits, f2_coeffs, f2_mul, x_pow_minus_one, z4_divmod_monic

SWEEP_LENGTHS = list(range(1, 16, 2))


def all_subsets(ids):
    ids = sorted(ids)
    for r in range(len(ids) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ids, r))


def all_partitions(table):
    ids = sorted(table.ids())
    for parts in itertools.product(range(3), repeat=len(ids)):
        f = {i for i, p in zip(ids, parts) if p == 0}
        g = {i for i, p in zip(ids, parts) if p == 1}
        yield CodeSpec.of(table, f, g)


def resolve_by_product(poly, table):
    """Reference resolution: the factors found mod 2, multiplied back together over Z4."""
    if not poly.is_monic:
        raise ValueError("not a monic polynomial")
    rems = _bits_rems(poly.reduce_mod2(), [r.poly.reduce_mod2() for r in table.records])
    members = frozenset(r.index for r, rem in zip(table.records, rems) if not rem)
    divisor = DivisorSet(table, members)
    if divisor_poly(divisor) != poly:
        raise ValueError(f"{poly.to_string()!r} does not divide X^{table.length}-1")
    return divisor


def impostors(poly, members, table, rng):
    """Polynomials near the divisor poly of members, nearly all not divisors of X^N - 1."""
    coeffs = list(poly.coeffs)
    if len(coeffs) > 1:
        k = rng.randrange(len(coeffs) - 1)
        yield Z4Poly(coeffs[:k] + [coeffs[k] + 2] + coeffs[k + 1 :])  # plus 2X^k
    if members:
        yield poly * table[rng.choice(sorted(members))].poly  # a factor twice
    yield poly * Z4Poly([1, 1, 1])  # X^2 + X + 1 divides X^N - 1 only for 3 | N
    yield poly * Z4Poly([1, 0, 1])  # X^2 + 1 never does
    yield Z4Poly(coeffs[:-1] + [rng.choice([0, 2, 3])])  # top coefficient changed


def outcome(resolve, poly, table):
    try:
        return resolve(poly, table).members
    except ValueError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def t7():
    return build_factor_table(7)


class TestDivisorSet:
    def test_rejects_unknown_ids(self, t7):
        with pytest.raises(ValueError):
            DivisorSet.of(t7, [0, 9])

    def test_rejects_repeated_ids(self, t7):
        with pytest.raises(ValueError, match=r"^repeated factor ids: \[1\]$"):
            DivisorSet.of(t7, [1, 1])
        with pytest.raises(ValueError, match=r"^repeated factor ids: \[1\]$"):
            DivisorSet.of(t7, iter([1, 0, 1]))
        # sorted, and reported before an unknown id
        with pytest.raises(ValueError, match=r"^repeated factor ids: \[0, 2\]$"):
            DivisorSet.of(t7, [2, 9, 0, 2, 0])

    def test_degree_sums_members(self, t7):
        assert DivisorSet.of(t7, [1, 2]).degree == 6
        assert DivisorSet.of(t7).degree == 0

    def test_complement(self, t7):
        assert DivisorSet.of(t7, [0]).complement().members == frozenset({1, 2})

    def test_set_operations_do_not_recheck_ids(self, t7, monkeypatch):
        a, b = DivisorSet.of(t7, [0, 1]), DivisorSet.of(t7, [1, 2])
        calls = []
        ids = FactorTable.ids
        monkeypatch.setattr(FactorTable, "ids", lambda table: calls.append(1) or ids(table))
        assert (a | b).members == frozenset({0, 1, 2})
        assert (a & b).members == frozenset({1})
        assert reciprocal_set(a).members == frozenset({0, 2})
        assert calls == []


class TestDivisorPoly:
    def test_empty_set_is_one(self, t7):
        assert divisor_poly(DivisorSet.of(t7)) == Z4Poly.one()

    def test_full_set_is_x7_minus_1(self, t7):
        assert divisor_poly(DivisorSet.of(t7, t7.ids())) == Z4Poly(x_pow_minus_one(7))

    def test_pair_product(self, t7):
        # oracle: (X^7-1) / (X-1) computed by division
        quotient, rem = z4_divmod_monic(x_pow_minus_one(7), (3, 1))
        assert not any(rem)
        assert divisor_poly(DivisorSet.of(t7, [1, 2])) == Z4Poly(quotient)


class TestReciprocalSet:
    def test_self_reciprocal_member(self, t7):
        assert reciprocal_set(DivisorSet.of(t7, [0])).members == frozenset({0})

    def test_pair_member(self, t7):
        assert reciprocal_set(DivisorSet.of(t7, [1])).members == frozenset({2})

    def test_empty(self, t7):
        assert reciprocal_set(DivisorSet.of(t7)).members == frozenset()

    def test_involution_and_poly_compatibility(self):
        for n in SWEEP_LENGTHS:
            table = build_factor_table(n)
            for members in all_subsets(table.ids()):
                ds = DivisorSet(table, members)
                rr = reciprocal_set(reciprocal_set(ds))
                assert rr.members == members
                assert divisor_poly(reciprocal_set(ds)) == divisor_poly(ds).reciprocal()


class TestFactorDivisor:
    def test_full_product(self, t7):
        assert factor_divisor(Z4Poly(x_pow_minus_one(7)), t7).members == t7.ids()

    def test_one_maps_to_empty(self, t7):
        assert factor_divisor(Z4Poly.one(), t7).members == frozenset()

    def test_single_factor(self, t7):
        assert factor_divisor(Z4Poly([3, 1]), t7).members == frozenset({0})

    @pytest.mark.parametrize("coeffs", [(1, 1), (1, 2, 1), (2, 1), ()])
    def test_rejects_non_divisors(self, t7, coeffs):
        with pytest.raises(ValueError):
            factor_divisor(Z4Poly(coeffs), t7)

    def test_round_trip_all_subsets(self):
        for n in SWEEP_LENGTHS:
            table = build_factor_table(n)
            for members in all_subsets(table.ids()):
                ds = DivisorSet(table, members)
                assert factor_divisor(divisor_poly(ds), table).members == members

    def test_round_trip_at_4095(self):
        # 351 factors of degrees 1 to 12 in one bit-sliced pass
        table = build_factor_table(4095)
        ids = sorted(table.ids())
        assert len(ids) == 351
        assert len({table[i].degree for i in ids}) > 2
        rng = random.Random(4095)
        cases = [frozenset(), frozenset(ids)]
        cases += [frozenset(rng.sample(ids, rng.randrange(1, len(ids)))) for _ in range(4)]
        for members in cases:
            assert factor_divisor(divisor_poly(DivisorSet(table, members)), table).members == members

    def test_resolves_without_z4_division(self, monkeypatch):
        def no_division(self, divisor):
            raise AssertionError("Z4 long division")

        monkeypatch.setattr(Z4Poly, "divmod_monic", no_division)
        t15, t1023 = build_factor_table(15), build_factor_table(1023)
        rng = random.Random(1023)
        cases = [(t15, members) for members in all_subsets(t15.ids())]
        cases.append((t1023, frozenset(i for i in sorted(t1023.ids()) if rng.random() < 0.5)))
        for table, members in cases:
            poly = divisor_poly(DivisorSet(table, members))
            assert factor_divisor(poly, table).members == members

    def test_rejects_divisor_plus_two_x_power(self):
        # 2X^k keeps the reduction mod 2, so the mod-2 test picks the divisor's
        # factors and only the product check can reject
        t63, t4095 = build_factor_table(63), build_factor_table(4095)
        one_per_degree = {t4095[i].degree: i for i in sorted(t4095.ids(), reverse=True)}
        for table, members in [(t63, [1, 5]), (t4095, one_per_degree.values())]:
            poly = divisor_poly(DivisorSet.of(table, members))
            assert factor_divisor(poly, table).members == frozenset(members)
            for k in range(len(poly.coeffs) - 1):
                coeffs = list(poly.coeffs)
                coeffs[k] += 2
                perturbed = Z4Poly(coeffs)
                assert perturbed.reduce_mod2() == poly.reduce_mod2()
                with pytest.raises(ValueError, match=rf"does not divide X\^{table.length}-1$"):
                    factor_divisor(perturbed, table)

    def test_agrees_with_product_check(self):
        rng = random.Random(31)
        for n in [*range(1, 32, 2), 63, 255, 1023]:
            table = build_factor_table(n)
            ids = sorted(table.ids())
            for _ in range(8):
                members = frozenset(i for i in ids if rng.random() < 0.5)
                poly = divisor_poly(DivisorSet(table, members))
                assert factor_divisor(poly, table).members == members
                for impostor in impostors(poly, members, table, rng):
                    expected = outcome(resolve_by_product, impostor, table)
                    assert outcome(factor_divisor, impostor, table) == expected

    def test_rejects_reduction_with_a_foreign_factor(self, t7):
        # X^2 + X + 1 does not divide X^7 + 1, but a Graeffe lift passes the
        # lift condition by construction: only the degree condition rejects it
        poly = graeffe_lift(f2_bits(f2_mul(f2_coeffs(t7[1].bits), [1, 1, 1])))
        with pytest.raises(ValueError, match=r"does not divide X\^7-1$"):
            factor_divisor(poly, t7)

    def test_resolves_without_z4_product(self, monkeypatch):
        # inputs and expected outcomes first, while products still work
        rng = random.Random(255)
        cases = []
        for table in (build_factor_table(255), build_factor_table(1023)):
            members = frozenset(i for i in sorted(table.ids()) if rng.random() < 0.5)
            poly = divisor_poly(DivisorSet(table, members))
            for p in [poly, *impostors(poly, members, table, rng)]:
                cases.append((table, p, outcome(resolve_by_product, p, table)))
        assert sum(isinstance(expected, str) for _, _, expected in cases) >= 6

        def no_product(self, other):
            raise AssertionError("Z4 product")

        reduced = []
        reduce_mod2 = Z4Poly.reduce_mod2
        monkeypatch.setattr(Z4Poly, "__mul__", no_product)
        monkeypatch.setattr(Z4Poly, "reduce_mod2", lambda p: reduced.append(p) or reduce_mod2(p))
        for table, poly, expected in cases:
            reduced.clear()
            assert outcome(factor_divisor, poly, table) == expected
            assert all(p is poly for p in reduced)  # no factor is reduced again


class TestCodeSpec:
    def test_rejects_overlap(self, t7):
        with pytest.raises(ValueError, match="f and g overlap"):
            CodeSpec.of(t7, f={0}, g={0})

    def test_rejects_unknown_ids(self, t7):
        with pytest.raises(ValueError, match=r"unknown factor ids: \[3\]"):
            CodeSpec.of(t7, f={0}, g={3})

    def test_rejects_repeated_ids(self, t7):
        # f[1,7] twice and f*[1,7] twice are no partition ({1}, {2})
        with pytest.raises(ValueError, match=r"^repeated factor ids: \[1\]$"):
            CodeSpec.of(t7, [1, 1], [2, 2])
        with pytest.raises(ValueError, match=r"^repeated factor ids: \[2\]$"):
            CodeSpec.of(t7, [1], [2, 2])

    def test_h_defaults_to_complement(self, t7):
        spec = CodeSpec.of(t7, f={0}, g=set())
        assert spec.h_set.members == frozenset({1, 2})


class TestHullReport:
    def test_lcd_example(self, t7):
        report = hull_report(CodeSpec.of(t7, f={0}, g=set()))
        assert (report.deg_H, report.deg_G, report.hull_size, report.lcd) == (0, 0, 1, True)

    def test_reciprocal_pair_split(self, t7):
        # f = {f[1,7]}, h = {g[1,1], f*[1,7]}: H picks up the partner
        report = hull_report(CodeSpec.of(t7, f={1}, g=set()))
        assert report.H.members == frozenset({2})
        assert report.G.members == frozenset()
        assert (report.deg_H, report.deg_G, report.hull_size, report.lcd) == (3, 0, 64, False)

    @pytest.mark.parametrize("n", [3, 7])
    def test_all_twos_code(self, n):
        table = build_factor_table(n)
        report = hull_report(CodeSpec.of(table, f=set(), g=table.ids()))
        assert report.H.members == frozenset()
        assert report.G.members == table.ids()
        assert report.hull_size == 2**n
        assert not report.lcd

    def test_degree_accounting(self):
        for n in SWEEP_LENGTHS:
            table = build_factor_table(n)
            for spec in all_partitions(table):
                report = hull_report(spec)
                lcm_set = spec.f_set | reciprocal_set(spec.h_set)
                assert report.deg_H + lcm_set.degree + report.deg_G == n


class TestCodeSize:
    def test_ambient_code(self, t7):
        assert code_size(CodeSpec.of(t7, f=set(), g=set())) == 4**7

    def test_zero_code(self, t7):
        assert code_size(CodeSpec.of(t7, f=t7.ids(), g=set())) == 1

    def test_all_twos(self):
        t3 = build_factor_table(3)
        assert code_size(CodeSpec.of(t3, f=set(), g=t3.ids())) == 8


class TestIsLcd:
    def test_pair_product_generator(self, t7):
        assert hull_report(CodeSpec.of(t7, f={1, 2}, g=set())).lcd

    def test_half_pair_is_not(self, t7):
        assert not hull_report(CodeSpec.of(t7, f={1}, g=set())).lcd

    def test_zero_code_is_lcd(self, t7):
        assert hull_report(CodeSpec.of(t7, f=t7.ids(), g=set())).lcd

    def test_structural_equivalence_sweep(self):
        # LCD exactly when g is trivial and f is reciprocal-closed
        for n in SWEEP_LENGTHS:
            table = build_factor_table(n)
            for spec in all_partitions(table):
                structural = (
                    not spec.g_set.members
                    and reciprocal_set(spec.f_set).members == spec.f_set.members
                )
                assert hull_report(spec).lcd == structural


class TestWireForms:
    def test_spec_wire(self, t7):
        wire = spec_to_wire(CodeSpec.of(t7, f={1}, g={0}))
        assert wire == {"N": 7, "f": [1], "g": [0], "h": [2]}

    def test_hull_wire(self, t7):
        wire = hull_to_wire(hull_report(CodeSpec.of(t7, f={1}, g=set())))
        assert wire == {
            "degH": 3,
            "degG": 0,
            "hullSize": 64,
            "lcd": False,
            "H": [2],
            "G": [],
        }
