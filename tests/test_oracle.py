import dataclasses
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
    Mismatch,
    dual_bruteforce,
    expand_code,
    spanning_words,
    sweep_verify,
    sweep_to_wire,
    _add_words,
    _check_bound,
    _shift_words,
    _span,
    _zero_code,
)
from z4lcd.z4poly import Z4Poly

from schoolbook import x_pow_minus_one


def encode_word(vector):
    """Base-4 integer encoding of a residue vector, position i at digit i."""
    value = 0
    for digit in reversed(vector):
        value = (value << 2) | (digit & 3)
    return value


def decode_word(value, length):
    """Residue vector of a base-4 word encoding, digit i at position i."""
    return tuple((value >> (2 * k)) & 3 for k in range(length))


def fold(poly, length):
    """Coefficient vector of poly mod X^N - 1: exponent k adds into position k mod N."""
    acc = [0] * length
    for k, c in enumerate(poly.coeffs):
        acc[k % length] = (acc[k % length] + c) % 4
    return tuple(acc)


def double(vector):
    return tuple(2 * d % 4 for d in vector)


def rotations(vector):
    """The distinct nonzero cyclic shifts X^s·v, s = 0, 1, ..., N - 1, in that order."""
    found = []
    for shift in range(len(vector)):
        vec = vector[-shift:] + vector[:-shift] if shift else vector
        if any(vec) and vec not in found:
            found.append(vec)
    return found


def tuple_spanning(spec):
    """The spanning vectors of a partition's code, by the tuple route: shifts of f·g, then of 2·f."""
    fg = rotations(fold(divisor_poly(spec.f_set | spec.g_set), spec.length))
    two_f = rotations(double(fold(divisor_poly(spec.f_set), spec.length)))
    return fg + [vec for vec in two_f if vec not in fg]


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

    @pytest.mark.parametrize("length", [1, 3, 16])
    def test_digits_decode_each_word(self, length):
        # the oracle's one decoder, for the digit tables and the dual scan's
        # spanning words alike; N = 16 sets the top bit of a uint32
        rng = random.Random(length)
        words = [0, 4**length - 1] + [rng.randrange(4**length) for _ in range(100)]
        got = oracle._digits(np.array(words, dtype=np.int64), length)
        assert [tuple(row) for row in got.tolist()] == [decode_word(w, length) for w in words]


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
    """A polynomial mod X^N - 1, its shifts and their doubles, each held as a word."""

    def test_folds_high_exponents(self):
        # X^3 - 1 at length 3 folds to zero, and so does its double
        assert _shift_words(Z4Poly(x_pow_minus_one(3)), 3) == ((), ())

    def test_plain_coefficients(self):
        # 1 + 2X: its shifts at length 3, and 2 + 0X, whose shifts are X^s·2
        assert _shift_words(Z4Poly([1, 2]), 3) == (
            (encode_word((1, 2, 0)), encode_word((0, 1, 2)), encode_word((2, 0, 1))),
            (encode_word((2, 0, 0)), encode_word((0, 2, 0)), encode_word((0, 0, 2))),
        )

    @pytest.mark.parametrize("length", range(1, 17))
    def test_matches_tuple_fold_rotations_and_double(self, length):
        # random polynomials of degree N to 3N, so exponents fold once or
        # more, all-even ones, whose doubles vanish, the zero polynomial,
        # and X^N - 1, which folds to zero
        rng = random.Random(length)
        polys = [Z4Poly(), Z4Poly(x_pow_minus_one(length))]
        for _ in range(20):
            degree = rng.randrange(length, 3 * length + 1)
            coeffs = [rng.randrange(4) for _ in range(degree)] + [rng.randrange(1, 4)]
            polys += [Z4Poly(coeffs), Z4Poly(2 * c for c in coeffs)]
        for poly in polys:
            base = fold(poly, length)
            expected = (rotations(base), rotations(double(base)))
            got = _shift_words(poly, length)
            assert tuple([decode_word(w, length) for w in words] for words in got) == expected
            if not any(c % 2 for c in poly.coeffs):
                assert got[1] == ()


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
            # the tuple fold and doubling, apart from the oracle's words
            fg = fold(divisor_poly(spec.f_set | spec.g_set), length)
            two_f = double(fold(divisor_poly(spec.f_set), length))
            expected = worklist_closure([fg, two_f], length)
            expected_other = worklist_closure([two_f, fg], length, lifo=False)
            assert expected == expected_other  # strategy independence
            assert {w[-1:] + w[:-1] for w in expected} == expected  # closed under shift
            assert set(vectors(expand_code(spec))) == expected

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_span_matches_a_literal_closure_in_any_order(self, length):
        # random generator lists, with repeats, multiples and zero, so that
        # skipped steps, listed steps and a last step that fills Z4^N
        # unlisted all occur, from g and from 2g
        rng = random.Random(length)
        pool = [decode_word(w, length) for w in range(4**length)]
        for trial in range(60):
            gens = [rng.choice(pool) for _ in range(rng.randrange(1, 2 * length + 2))]
            if trial % 3 == 0:
                gens = [tuple(2 * d % 4 for d in g) for g in gens] + gens  # doubles first
            members, words = _zero_code(length)
            size = _span(members, words, 1, map(encode_word, gens))
            expected = {(0,) * length}  # the additive span alone, no shifts
            for g in gens:
                for _ in range(3):
                    expected |= {tuple((a + b) % 4 for a, b in zip(w, g)) for w in expected}
            assert size == len(expected)
            assert {decode_word(w, length) for w in np.flatnonzero(members).tolist()} == expected
            if size <= len(words):
                assert sorted(words[:size].tolist()) == sorted(map(encode_word, expected))

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_a_step_past_a_listed_half_space_fills_the_ambient(self, length):
        # two subgroups of index 2, listed as _span keeps a span: words with
        # digit 0 even, and words whose digits sum to an even number; a word
        # outside either completes Z4^N without touching the list
        for parity in (lambda x: x[0] % 2, lambda x: sum(x) % 2):
            half = [w for w in range(4**length) if not parity(decode_word(w, length))]
            members, words = _zero_code(length)
            assert len(words) == len(half) == 4**length // 2
            words[:] = half
            members[half] = True
            outside = next(w for w in range(4**length) if parity(decode_word(w, length)))
            assert _span(members, words, len(half), [outside]) == 4**length
            assert members.all()
            assert words.tolist() == half

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9, 11])
    def test_masks_are_indexed_by_the_encoding(self, length):
        # the zero code, Z4^N (whose last step fills the mask) and the code
        # (f) with f the first nontrivial factor, each with its dual
        table = build_factor_table(length)
        ids = sorted(table.ids())
        for f, g in [(ids, []), ([], []), (ids[1:2], [])]:
            code = expand_code(CodeSpec.of(table, f=f, g=g), length)
            dual = dual_bruteforce(code, length)
            assert code.mask.shape == dual.mask.shape == (4**length,)
            assert len(code) * len(dual) == 4**length

    def test_bound_enforced(self):
        table = build_factor_table(11)
        with pytest.raises(ValueError, match="exceeds brute-force bound 9"):
            expand_code(CodeSpec.of(table, f=table.ids(), g=set()))


class TestCodeSet:
    def test_a_code_without_mask_reports_no_words_or_size(self):
        # the sweep scans codes given by their spanning words alone; such a
        # code must not pass for the empty set
        code = CodeSet(3, None, (encode_word((1, 0, 0)),))
        with pytest.raises(ValueError, match="no mask"):
            len(code)
        with pytest.raises(ValueError, match="no mask"):
            code.words
        assert len(dual_bruteforce(code)) == 4**2  # x with x_0 = 0

    def test_a_code_with_mask_reports_its_words(self):
        code = expand_code(CodeSpec.of(build_factor_table(3), f=set(), g={0}))
        assert len(code) == len(code.words) == np.count_nonzero(code.mask)


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

    def test_spanning_fallback_agrees(self):
        # the scan over every codeword equals the scan over the spanning set
        table = build_factor_table(3)
        for spec in all_partitions(table):
            code = expand_code(spec)
            full = CodeSet(code.length, code.mask, tuple(code.words))
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
        # N = 1 is the split with an empty high half
        table = build_factor_table(length)
        for spec in all_partitions(table):
            code = expand_code(spec)
            expected = literal_dual([decode_word(w, length) for w in code.spanning], length)
            assert set(vectors(dual_bruteforce(code))) == expected
            if length <= 3:
                full = CodeSet(length, code.mask, tuple(code.words))
                assert set(vectors(dual_bruteforce(full))) == expected

    @pytest.mark.parametrize("count", [4, 8, 16, 17, 31, 32, 62])
    def test_packed_chunk_boundaries(self, count):
        # _KEY_WIDTH residues fill one key, which is compared as narrow as
        # its words allow (4, 8 and 16 residues fill a uint8, uint16 and uint32).
        # Fillers come from the span of e0 and 2e1, and the unit vectors
        # e1..e4 sit at the first and last place of the first two chunks, so
        # a vector dropped from any of those changes the dual
        width = oracle._KEY_WIDTH
        rng = random.Random(count)
        basis = [(rng.randrange(4), 2 * rng.randrange(2), 0, 0, 0) for _ in range(count)]
        units = iter([(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
        for place in sorted({0, min(width, count) - 1, min(width, count - 1), count - 1}):
            basis[place] = next(units)
        mask = np.zeros(4**5, dtype=bool)
        dual = dual_bruteforce(CodeSet(5, mask, tuple(map(encode_word, basis))))
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


def literal_key_table(columns, count):
    """Entry x of row k: the sum of x_i·columns[k][i] mod 4 digit by digit, over the count digits of x."""
    table = []
    for column in columns:
        row = []
        for x in range(4**count):
            total = [0] * 16
            for i, digit in enumerate(decode_word(x, count)):
                for j, c in enumerate(decode_word(column[i], 16)):
                    total[j] += digit * c
            row.append(encode_word(total))
        table.append(row)
    return table


def scan_sets(length):
    """Word sets for the dual scan: the sweep's, at odd N, between empty sets, single
    words, and random sets past one key, so that keys of every width and padding occur."""
    rng = random.Random(length)
    sets = [(), (0,), (4**length - 1,)]
    if length % 2:
        for spec in all_partitions(build_factor_table(length)):
            sets += _shift_words(divisor_poly(spec.f_set), length)
    for size in (1, 3, oracle._KEY_WIDTH, oracle._KEY_WIDTH + 1, 40):
        sets += [tuple(rng.randrange(4**length) for _ in range(size)), ()]
    return sets


class TestScans:
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_key_table_sums_the_multiples_of_each_column(self, count):
        # random columns, all-3 columns that carry in every digit, and zero
        rng = random.Random(count)
        columns = [[rng.randrange(4**16) for _ in range(count)] for _ in range(5)]
        columns += [[4**16 - 1] * count, [0] * count]
        table = oracle._key_table(np.array(columns, dtype=np.uint32).reshape(len(columns), count))
        assert table.dtype == np.uint32
        assert table.tolist() == literal_key_table(columns, count)

    @pytest.mark.parametrize("length", range(1, 12))
    def test_each_set_matches_its_own_dual_scan(self, length):
        # keys from one call for every set, against dual_bruteforce of each
        # set alone, whose masks the digest fixtures pin at N <= 11
        sets = scan_sets(length)
        keys = oracle._dual_keys(length, sets)
        assert len(keys) == len(sets)
        for words, set_keys in zip(sets, keys):
            mask = dual_bruteforce(CodeSet(length, None, words), length, keys=set_keys).mask
            alone = dual_bruteforce(CodeSet(length, None, words), length).mask
            assert mask.shape == alone.shape == (4**length,)
            assert np.array_equal(mask, alone), words


class TestWalk:
    @pytest.mark.parametrize("length", [2, 3])
    def test_visits_each_subset_once_with_its_span(self, length):
        # random generator words per subset, 0 at position 0, so that only
        # the empty subset, given the unit words too, spans Z4^N, as in a
        # sweep; each visit must see the span of the words of every subset
        # on its path from the top, which drops ids last listed first, and
        # the walk must end with the mask back at {0}
        rng = random.Random(length)
        ids = [0, 1, 2]
        gens = {}
        for mask in range(8):
            subset = frozenset(i for i in ids if mask >> i & 1)
            gens[subset] = tuple(4 * rng.randrange(4 ** (length - 1)) for _ in range(rng.randrange(3)))
        gens[frozenset()] += tuple(4**i for i in range(length))
        flat, words = _zero_code(length)
        seen = []

        def visit(subset, size):
            dropped = sorted(set(ids) - subset, reverse=True)
            path = [frozenset(ids) - set(dropped[:k]) for k in range(len(dropped) + 1)]
            expected = {(0,) * length}
            for g in (w for above in path for w in gens[above]):
                for _ in range(3):
                    expected |= {tuple((a + b) % 4 for a, b in zip(x, decode_word(g, length))) for x in expected}
            assert size == len(expected) == np.count_nonzero(flat)
            assert {decode_word(w, length) for w in np.flatnonzero(flat).tolist()} == expected
            seen.append(subset)

        oracle._walk(flat, words, 1, frozenset(ids), ids, gens.__getitem__, visit)
        assert sorted(seen, key=sorted) == sorted(gens, key=sorted)
        assert len(seen) == len(gens) and seen[0] == frozenset(ids) and seen[-1] == frozenset()
        assert np.flatnonzero(flat).tolist() == [0]


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

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9])
    def test_wrong_formulas_mismatch_every_partition_in_order(self, length, monkeypatch):
        # the brute-force side of every partition, against expand_code and
        # dual_bruteforce run on that partition alone
        real_hull, real_size = oracle.hull_report, oracle.code_size
        off_by_one = lambda spec: dataclasses.replace(real_hull(spec), hull_size=real_hull(spec).hull_size + 1)
        monkeypatch.setattr(oracle, "hull_report", off_by_one)
        monkeypatch.setattr(oracle, "code_size", lambda spec: real_size(spec) + 1)
        expected = []
        for spec in all_partitions(build_factor_table(length)):
            code = expand_code(spec)
            hull = np.count_nonzero(code.mask & dual_bruteforce(code).mask)
            expected.append(Mismatch(spec, f"hullSize={real_hull(spec).hull_size + 1}", f"hullSize={hull}"))
            expected.append(Mismatch(spec, f"codeSize={real_size(spec) + 1}", f"codeSize={len(code)}"))
        assert sweep_verify(length).mismatches == tuple(expected)

    @pytest.mark.parametrize("length", [7, 9])
    def test_one_scan_per_generator_subset(self, length, monkeypatch):
        # 3^r partitions, but only 2^r products f·g and 2^r products 2·f
        # to scan, from keys built in one pass; a second sweep must not see
        # state left by the first
        builds, scans = [], []
        real_keys, real_scan = oracle._dual_keys, oracle.dual_bruteforce
        monkeypatch.setattr(oracle, "_dual_keys", lambda length, sets: builds.append(sets) or real_keys(length, sets))
        monkeypatch.setattr(
            oracle, "dual_bruteforce", lambda code, bound, keys: scans.append(code) or real_scan(code, bound, keys)
        )
        r = len(build_factor_table(length).records)
        first = sweep_verify(length)
        assert (first.partitions, first.ok, r) == (27, True, 3)
        assert len(builds) == 1 and len(builds[0]) == len(scans)
        assert 0 < len(scans) <= 2 ** (r + 1)
        builds.clear(), scans.clear()
        assert sweep_verify(length) == first
        assert len(builds) == 1 and 0 < len(scans) <= 2 ** (r + 1)

    def test_wire_form(self):
        wire = sweep_to_wire(sweep_verify(3))
        assert wire == {"N": 3, "partitions": 9, "mismatches": [], "lcdCount": 4}


class TestSpanningVectors:
    """The shifts of a partition's two generators, held as words."""

    def test_shift_closed_and_nonzero(self):
        table = build_factor_table(5)
        for spec in all_partitions(table):
            gens = [decode_word(w, 5) for w in spanning_words(spec)]
            assert all(any(v) for v in gens)
            as_set = set(gens)
            for v in gens:
                assert v[-1:] + v[:-1] in as_set or len(as_set) == 0

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9])
    def test_matches_the_tuple_route(self, length):
        for spec in all_partitions(build_factor_table(length)):
            assert [decode_word(w, length) for w in spanning_words(spec)] == tuple_spanning(spec)


class TestLengthLimit:
    """Past N = 13 the brute force refuses whatever the bound, before numpy is used.

    At N = 15 a sweep would hold 4 GiB of packed duals before its 1 GiB
    mask and 2 GiB word list, and at N = 17 the ambient mask alone would be
    4^17 bytes (17 GB), so each refusal runs with the oracle's numpy
    replaced by a stub that fails on any use.
    """

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used for a refused length")

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(oracle, "np", self.NoNumpy())

    def test_limit_is_thirteen(self):
        _check_bound(13, 13)
        _check_bound(13, 100)
        for n in (15, 17):
            with pytest.raises(ValueError, match="limit 13"):
                _check_bound(n, 100)

    def test_sweep_verify(self):
        for n in (15, 17):
            with pytest.raises(ValueError, match="limit 13"):
                sweep_verify(n, n)

    def test_expand_code(self):
        for n in (15, 17):
            ambient = CodeSpec.of(build_factor_table(n), f=set(), g=set())
            with pytest.raises(ValueError, match="limit 13"):
                expand_code(ambient, n)

    def test_cli(self, capsys):
        for n in (15, 17):
            assert cli.main(["verify", str(n), "--max-bruteforce", str(n)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: length {n} exceeds the brute-force limit 13\n"
