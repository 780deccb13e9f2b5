import hashlib
import itertools
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from z4lcd.codes import CodeSpec, divisor_poly, hull_report
from z4lcd.cyclotomic import build_factor_table
from z4lcd.lcdenum import all_partitions
from z4lcd.oracle import (
    BruteForceBoundError,
    CodeSet,
    decode_word,
    dual_bruteforce,
    encode_word,
    expand_code,
    spanning_vectors,
    sweep_verify,
    sweep_to_wire,
    _vector_mod,
)
from z4lcd.z4poly import Z4Poly


def hull_bruteforce(spec):
    """|C intersect C-perp| by explicit expansion and ambient scan, as the sweep counts it."""
    code = expand_code(spec)
    dual = dual_bruteforce(code)
    return int(np.count_nonzero(code.mask & dual.mask))


def reciprocal_spec(spec):
    table = spec.f_set.table
    part = lambda ds: {table[i].partner for i in ds.members}
    return CodeSpec.of(table, part(spec.f_set), part(spec.g_set), part(spec.h_set))


def worklist_closure(generators, length, lifo=True):
    """Literal additive closure: from 0, add every cyclic shift of every seed, mod 4."""
    steps = [g[k:] + g[:k] for g in map(tuple, generators) for k in range(length)]
    zero = (0,) * length
    words = {zero}
    pending = deque([zero])
    while pending:
        w = pending.pop() if lifo else pending.popleft()
        for step in steps:
            v = tuple((a + b) % 4 for a, b in zip(w, step))
            if v not in words:
                words.add(v)
                pending.append(v)
    return words


def literal_dual(basis, length):
    """Every vector of Z4^N whose dot product mod 4 with each basis vector is 0."""
    return {
        x
        for x in itertools.product(range(4), repeat=length)
        if all(sum(a * b for a, b in zip(x, s)) % 4 == 0 for s in basis)
    }


def words_digest(words):
    return hashlib.sha256(",".join(map(str, sorted(words))).encode()).hexdigest()


def partition_key(spec):
    ids = lambda s: ",".join(map(str, sorted(s.members)))
    return f"{spec.length} f={ids(spec.f_set)} g={ids(spec.g_set)}"


class TestEncoding:
    def test_round_trip(self):
        for vec in itertools.product(range(4), repeat=3):
            assert decode_word(encode_word(vec), 3) == vec


class TestVectorMod:
    def test_folds_high_exponents(self):
        # 2(X^3 - 1) at length 3 folds to zero
        assert _vector_mod(Z4Poly.x_pow_minus_one(3).scale(2), 3) == (0, 0, 0)

    def test_plain_coefficients(self):
        assert _vector_mod(Z4Poly([1, 2]), 3) == (1, 2, 0)


class TestExpandCode:
    def test_ambient_at_length_one(self):
        table = build_factor_table(1)
        code = expand_code(CodeSpec.of(table, f=set(), g=set()))
        assert set(code.vectors()) == {(0,), (1,), (2,), (3,)}

    def test_all_twos_at_length_three(self):
        table = build_factor_table(3)
        code = expand_code(CodeSpec.of(table, f=set(), g=table.ids()))
        expected = {v for v in itertools.product((0, 2), repeat=3)}
        assert set(code.vectors()) == expected

    def test_zero_code(self):
        table = build_factor_table(7)
        code = expand_code(CodeSpec.of(table, f=table.ids(), g=set()))
        assert set(code.vectors()) == {(0,) * 7}

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_matches_worklist_closure(self, length):
        table = build_factor_table(length)
        for spec in all_partitions(table):
            fg = _vector_mod(divisor_poly(spec.f_set | spec.g_set), length)
            two_f = _vector_mod(divisor_poly(spec.f_set).scale(2), length)
            expected = worklist_closure([fg, two_f], length)
            expected_other = worklist_closure([two_f, fg], length, lifo=False)
            assert expected == expected_other  # strategy independence
            assert {w[-1:] + w[:-1] for w in expected} == expected  # closed under shift
            assert set(expand_code(spec).vectors()) == expected

    def test_bound_enforced(self):
        table = build_factor_table(11)
        with pytest.raises(BruteForceBoundError):
            expand_code(CodeSpec.of(table, f=table.ids(), g=set()))


class TestDualBruteforce:
    def test_dual_of_ambient_at_length_one(self):
        table = build_factor_table(1)
        dual = dual_bruteforce(expand_code(CodeSpec.of(table, f=set(), g=set())))
        assert set(dual.vectors()) == {(0,)}

    def test_dual_of_zero_code(self):
        table = build_factor_table(3)
        dual = dual_bruteforce(expand_code(CodeSpec.of(table, f=table.ids(), g=set())))
        assert len(dual) == 4**3

    def test_dual_of_all_twos(self):
        table = build_factor_table(3)
        code = expand_code(CodeSpec.of(table, f=set(), g=table.ids()))
        dual = dual_bruteforce(code)
        assert dual.words == code.words
        assert len(code) * len(dual) == 4**3

    def test_spanning_fallback_agrees(self):
        table = build_factor_table(3)
        for spec in all_partitions(table):
            code = expand_code(spec)
            full = CodeSet(code.length, code.mask, None)
            assert dual_bruteforce(code).words == dual_bruteforce(full).words

    def test_duality_cardinality(self):
        for length in (1, 3, 5):
            table = build_factor_table(length)
            for spec in all_partitions(table):
                code = expand_code(spec)
                dual = dual_bruteforce(code)
                assert len(code) * len(dual) == 4**length

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_matches_literal_scan(self, length):
        # N = 1 is the split with an empty low half
        table = build_factor_table(length)
        for spec in all_partitions(table):
            code = expand_code(spec)
            expected = literal_dual(code.spanning, length)
            assert set(dual_bruteforce(code).vectors()) == expected
            if length <= 3:
                full = CodeSet(length, code.mask, None)
                assert set(dual_bruteforce(full).vectors()) == expected

    def test_order_reversing_on_chain(self):
        # C=(0) within C=(2f) within C=(f), with f the lift pair at length 7
        table = build_factor_table(7)
        zero = expand_code(CodeSpec.of(table, f=table.ids(), g=set()))
        two_f = expand_code(CodeSpec.of(table, f={1, 2}, g={0}, h=set()))
        full_f = expand_code(CodeSpec.of(table, f={1, 2}, g=set()))
        assert zero.words <= two_f.words <= full_f.words
        d0, d1, d2 = (dual_bruteforce(c) for c in (zero, two_f, full_f))
        assert d2.words <= d1.words <= d0.words


class TestDigests:
    def test_code_and_dual_words_match_digests(self):
        # sha256 of the sorted word encodings of expand_code and
        # dual_bruteforce for every partition at N = 1, 3, 5, 7, 9, captured
        # with the chunked scan and the np.unique closure
        expected = json.loads((Path(__file__).parent / "data" / "oracle_digests.json").read_text())
        got = {}
        for length in (1, 3, 5, 7, 9):
            for spec in all_partitions(build_factor_table(length)):
                code = expand_code(spec)
                dual = dual_bruteforce(code)
                got[partition_key(spec)] = {
                    "code": words_digest(code.words),
                    "dual": words_digest(dual.words),
                }
        assert got == expected


class TestHullBruteforce:
    def test_lcd_generator(self):
        table = build_factor_table(7)
        assert hull_bruteforce(CodeSpec.of(table, f={0}, g=set())) == 1

    def test_all_twos_is_self_orthogonal(self):
        table = build_factor_table(3)
        assert hull_bruteforce(CodeSpec.of(table, f=set(), g=table.ids())) == 8

    def test_ambient_at_length_one(self):
        table = build_factor_table(1)
        assert hull_bruteforce(CodeSpec.of(table, f=set(), g=set())) == 1

    def test_invariant_under_reciprocal_spec(self):
        for length in (1, 3, 5, 7):
            table = build_factor_table(length)
            for spec in all_partitions(table):
                assert hull_bruteforce(spec) == hull_bruteforce(reciprocal_spec(spec))


class TestMaskOnly:
    def test_sweep_and_hull_build_no_word_set(self, monkeypatch):
        def refuse(code):
            raise AssertionError("a word set was built")

        monkeypatch.setattr(CodeSet, "words", property(refuse))
        assert sweep_verify(7).ok
        for spec in all_partitions(build_factor_table(5)):
            assert hull_bruteforce(spec) == hull_report(spec).hull_size


class TestSweepVerify:
    def test_length_one(self):
        report = sweep_verify(1)
        assert (report.partitions, report.mismatches, report.lcd_count) == (3, (), 2)

    def test_length_three(self):
        report = sweep_verify(3)
        assert (report.partitions, report.mismatches, report.lcd_count) == (9, (), 4)

    def test_length_seven(self):
        report = sweep_verify(7)
        assert (report.partitions, len(report.mismatches), report.lcd_count) == (27, 0, 4)
        assert report.ok

    def test_bound_error(self):
        with pytest.raises(BruteForceBoundError):
            sweep_verify(11)

    def test_wire_form(self):
        wire = sweep_to_wire(sweep_verify(3))
        assert wire == {"N": 3, "partitions": 9, "mismatches": [], "lcdCount": 4}


class TestSpanningVectors:
    def test_shift_closed_and_nonzero(self):
        table = build_factor_table(5)
        for spec in all_partitions(table):
            vectors = spanning_vectors(spec)
            assert all(any(v) for v in vectors)
            as_set = set(vectors)
            for v in vectors:
                assert v[-1:] + v[:-1] in as_set or len(as_set) == 0
