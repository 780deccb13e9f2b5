import hashlib
import itertools
import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from z4lcd import cli, oracle
from z4lcd.codes import CodeSpec, divisor_poly, hull_report
from z4lcd.cyclotomic import build_factor_table
from z4lcd.lcdenum import all_partitions
from z4lcd.oracle import (
    CodeSet,
    dual_bruteforce,
    encode_word,
    expand_code,
    spanning_vectors,
    sweep_verify,
    sweep_to_wire,
    _add_words,
    _check_bound,
    _vector_mod,
)
from z4lcd.z4poly import Z4Poly


def decode_word(value, length):
    """Residue vector of a base-4 word encoding, digit i at position i."""
    return tuple((value >> (2 * k)) & 3 for k in range(length))


def vectors(code):
    """Every codeword of a CodeSet as a residue vector, from its mask."""
    return (decode_word(value, code.length) for value in np.flatnonzero(code.mask).tolist())


def hull_bruteforce(spec):
    """|C intersect C-perp| by explicit expansion and ambient scan, as the sweep counts it."""
    code = expand_code(spec)
    dual = dual_bruteforce(code)
    return int(np.count_nonzero(code.mask & dual.mask))


def reciprocal_spec(spec):
    table = spec.f_set.table
    part = lambda ds: {table[i].partner for i in ds.members}
    return CodeSpec.of(table, part(spec.f_set), part(spec.g_set))


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


class TestAddWords:
    @pytest.mark.parametrize("length", [1, 2, 15, 16])
    def test_matches_digit_wise_sum(self, length):
        # N = 16 fills every bit of a uint32; all-3 words carry in every digit
        rng = random.Random(length)
        word = lambda: tuple(rng.randrange(4) for _ in range(length))
        threes = (3,) * length
        pairs = [(threes, threes)] + [(word(), word()) for _ in range(200)]
        pairs += [(threes, b) for _, b in pairs[1:20]]
        a = np.array([encode_word(x) for x, _ in pairs], dtype=np.uint32)
        b = np.array([encode_word(y) for _, y in pairs], dtype=np.uint32)
        expected = [tuple((p + q) % 4 for p, q in zip(x, y)) for x, y in pairs]
        assert [decode_word(w, length) for w in _add_words(a, b).tolist()] == expected
        assert decode_word(int(_add_words(a[:1], b[0])[0]), length) == (2,) * length
        out = np.empty_like(a)
        assert _add_words(a, b, out=out) is out
        assert [decode_word(w, length) for w in out.tolist()] == expected


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
        assert set(vectors(code)) == {(0,), (1,), (2,), (3,)}

    def test_all_twos_at_length_three(self):
        table = build_factor_table(3)
        code = expand_code(CodeSpec.of(table, f=set(), g=table.ids()))
        expected = {v for v in itertools.product((0, 2), repeat=3)}
        assert set(vectors(code)) == expected

    def test_zero_code(self):
        table = build_factor_table(7)
        code = expand_code(CodeSpec.of(table, f=table.ids(), g=set()))
        assert set(vectors(code)) == {(0,) * 7}

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
            assert set(vectors(expand_code(spec))) == expected

    def test_bound_enforced(self):
        table = build_factor_table(11)
        with pytest.raises(ValueError, match="exceeds brute-force bound 9"):
            expand_code(CodeSpec.of(table, f=table.ids(), g=set()))


class TestDualBruteforce:
    def test_dual_of_ambient_at_length_one(self):
        table = build_factor_table(1)
        dual = dual_bruteforce(expand_code(CodeSpec.of(table, f=set(), g=set())))
        assert set(vectors(dual)) == {(0,)}

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

    def test_digit_table_is_shared_and_read_only(self):
        # every dual scan of a length reads the same tables, so none may write them
        digits = oracle._digit_table(3)
        assert oracle._digit_table(3) is digits
        assert digits.tolist() == [[x // 4**i % 4 for i in range(3)] for x in range(64)]
        with pytest.raises(ValueError):
            digits[0, 0] = 1

    def test_spanning_fallback_agrees(self):
        # the scan over every codeword equals the scan over the spanning set
        table = build_factor_table(3)
        for spec in all_partitions(table):
            code = expand_code(spec)
            full = CodeSet(code.length, code.mask, tuple(vectors(code)))
            assert dual_bruteforce(code).words == dual_bruteforce(full).words

    def test_refuses_a_code_without_spanning_set(self):
        code = expand_code(CodeSpec.of(build_factor_table(3), f={0}, g=set()))
        with pytest.raises(ValueError, match="spanning set"):
            dual_bruteforce(dual_bruteforce(code))

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
            assert set(vectors(dual_bruteforce(code))) == expected
            if length <= 3:
                full = CodeSet(length, code.mask, tuple(vectors(code)))
                assert set(vectors(dual_bruteforce(full))) == expected

    @pytest.mark.parametrize("count", [31, 32, 62])
    def test_packed_chunk_boundaries(self, count):
        # 31 residues fill one int64 key.  Fillers come from the span of e0
        # and 2e1, and the unit vectors e1..e4 sit at the first and last place
        # of each chunk, so a vector dropped from any of those changes the dual
        rng = random.Random(count)
        basis = [(rng.randrange(4), 2 * rng.randrange(2), 0, 0, 0) for _ in range(count)]
        units = iter([(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
        for place in sorted({0, 30, min(31, count - 1), count - 1}):
            basis[place] = next(units)
        mask = np.zeros((4**3, 4**2), dtype=bool)
        dual = dual_bruteforce(CodeSet(5, mask, tuple(basis)))
        assert set(vectors(dual)) == literal_dual(basis, 5)

    def test_order_reversing_on_chain(self):
        # C=(0) within C=(2f) within C=(f), with f the lift pair at length 7
        table = build_factor_table(7)
        zero = expand_code(CodeSpec.of(table, f=table.ids(), g=set()))
        two_f = expand_code(CodeSpec.of(table, f={1, 2}, g={0}))
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

    def test_masks_at_length_eleven_match_digests(self):
        # sha256 of np.packbits of the code and dual masks of every partition
        # at N = 11, captured from the mask-translation expansion and the
        # one-vector-at-a-time dual scan
        path = Path(__file__).parent / "data" / "oracle_mask_digests_11.json"
        expected = json.loads(path.read_text())
        got = {}
        for spec in all_partitions(build_factor_table(11)):
            code = expand_code(spec, 11)
            dual = dual_bruteforce(code, 11)
            got[partition_key(spec)] = {
                "code": hashlib.sha256(np.packbits(code.mask).tobytes()).hexdigest(),
                "dual": hashlib.sha256(np.packbits(dual.mask).tobytes()).hexdigest(),
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

    def test_length_eleven(self):
        report = sweep_verify(11, 11)
        assert (report.partitions, report.mismatches, report.lcd_count) == (9, (), 4)

    def test_bound_error(self):
        with pytest.raises(ValueError, match="length 11 exceeds brute-force bound 9"):
            sweep_verify(11)

    def test_wire_form(self):
        wire = sweep_to_wire(sweep_verify(3))
        assert wire == {"N": 3, "partitions": 9, "mismatches": [], "lcdCount": 4}


class TestSpanningVectors:
    def test_shift_closed_and_nonzero(self):
        table = build_factor_table(5)
        for spec in all_partitions(table):
            gens = spanning_vectors(spec)
            assert all(any(v) for v in gens)
            as_set = set(gens)
            for v in gens:
                assert v[-1:] + v[:-1] in as_set or len(as_set) == 0


class TestLengthLimit:
    """Past N = 16 the brute force refuses whatever the bound, before numpy is used.

    At N = 17 the ambient mask alone would be 4^17 bytes (17 GB), so each
    refusal runs with the oracle's numpy replaced by a stub that fails on
    any use.
    """

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used for a refused length")

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(oracle, "np", self.NoNumpy())

    def test_limit_is_sixteen(self):
        _check_bound(15, 15)
        _check_bound(16, 100)
        with pytest.raises(ValueError, match="limit 16"):
            _check_bound(17, 100)

    def test_sweep_verify(self):
        with pytest.raises(ValueError, match="limit 16"):
            sweep_verify(17, 17)

    def test_expand_code(self):
        table = build_factor_table(17)
        ambient = CodeSpec.of(table, f=set(), g=set())
        with pytest.raises(ValueError, match="limit 16"):
            expand_code(ambient, 17)

    def test_cli(self, capsys):
        assert cli.main(["verify", "17", "--max-bruteforce", "17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: length 17 exceeds the brute-force limit 16\n"
