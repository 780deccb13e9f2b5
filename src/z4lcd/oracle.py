"""Ground-truth brute force for small lengths.

Codes are expanded as the additive span of the cyclic shifts of their two
generators, duals are found by scanning Z4^N for words orthogonal to a
spanning set, and hulls are literal intersections.  Nothing here touches
the hull formula, so these results are an independent check of it.

A word is held as one base-4 integer, digit i the entry at position i,
from a generator's shifts to the dual scan: a generator is folded mod
X^N - 1 into that form, shifted by rotating it and doubled by moving each
digit's low bit up.  A `CodeSet` holds one boolean membership mask over the
4^N ambient words, shaped (4^H, 4^L) by the split x = hi·4^L + lo of the
encoding, L = N // 2 and H = N - L, so that its flat index is the encoding:

- the expansion also lists the span's encodings, four bytes each, and adds
  a generator step by their digit-wise sums with it, at O(|C|) a step;
- the dual scan tests every ambient word against every spanning word s,
  by x·s ≡ lo·s_lo + hi·s_hi (mod 4): a 4^L and a 4^H column of keys, each
  packing the residues of up to 16 words, give the zero test for all of
  Z4^N in one broadcast comparison.

A sweep shares this work among the 3^r partitions (f, g, h).  Their codes
are spanned by the shifts of 2^r products f·g and 2^r products 2·f, and a
code's dual is (f·g shifts)⊥ ∩ (2·f shifts)⊥, so Z4^N is scanned once per
generator subset, 2^(r+1) times, and each dual is kept at one bit a word.
The partitions that share h share the span of f·g: it is expanded once, and
each partition extends it in place by its 2·f shifts, counts its size and
hull, and clears the words it added.

On a 2-vCPU VM the sweep takes about 2.5 ms at N = 7 (27 partitions) and
9 ms at N = 9 in-process, under the default bound of 9.  N = 11 and N = 13
(9 partitions each) need a higher bound: a whole `verify` process takes
about 0.35 s wall at N = 11, 0.06 s of it the sweep, at a peak RSS of 45 MB,
and about 1.6 s wall at N = 13, at 240 MB.  No bound admits a length above
13 (see MAX_LENGTH).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, DivisorSet, code_size, divisor_poly, hull_report, reciprocal_set, spec_to_wire
from .cyclotomic import build_factor_table
from .lcdenum import all_partitions
from .z4poly import Z4Poly

DEFAULT_BOUND = 9
# a sweep peaks at 240 MB at N = 13; at N = 15 it would hold 2^5 packed
# duals of 128 MiB each (4 GiB) before a 1 GiB mask and a 2 GiB word list
MAX_LENGTH = 13
_SCATTER_CHUNK = 1 << 16  # words of the last expansion step made at a time, 256 KB
_KEY_WIDTH = 16  # residues packed into one dual-scan key, two bits each: a uint32
_COUNT_CHUNK = 1 << 20  # mask entries packed at a time when a hull is counted, 1 MB


def _check_bound(length: int, bound: int) -> None:
    if length > MAX_LENGTH:
        raise ValueError(f"length {length} exceeds the brute-force limit {MAX_LENGTH}")
    if length > bound:
        raise ValueError(f"length {length} exceeds brute-force bound {bound}")


@dataclass(frozen=True, eq=False)
class CodeSet:
    """A code as its membership mask, with a spanning set when one is known.

    mask is the (4^H, 4^L) boolean array whose flat index is the word's
    encoding, or None for a code given by its spanning set alone, as the
    sweep scans it; such a code has no words or size to report, and raises
    ValueError when asked.  spanning holds the encodings of the generator
    words that the code was spanned from; a dual has none, and
    dual_bruteforce refuses it.
    """

    length: int
    mask: np.ndarray | None
    spanning: tuple[int, ...] | None = None

    def _members(self) -> np.ndarray:
        if self.mask is None:
            raise ValueError("this code is given by its spanning set alone and has no mask")
        return self.mask

    @property
    def words(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._members()).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._members()))


def _shift_words(poly: Z4Poly, length: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct nonzero cyclic shifts of w and of 2w, w = poly mod X^N - 1.

    Digit i of the word w sums the coefficients of the exponents ≡ i
    (mod N).  The shift by X^s is (w << 2s | w >> 2(N - s)) mod 4^N, and
    2w moves the low bit of every digit up, as in _span.
    """
    full = 4**length - 1
    digits = [0] * length
    for k, c in enumerate(poly.coeffs):
        digits[k % length] += c
    word = sum((d & 3) << 2 * i for i, d in enumerate(digits))
    found = []
    for w in (word, (word & full // 3) << 1):
        shifts = dict.fromkeys((w << 2 * s | w >> 2 * (length - s)) & full for s in range(length))
        found.append(tuple(x for x in shifts if x))
    return tuple(found)


def spanning_words(spec: CodeSpec) -> tuple[int, ...]:
    """All cyclic shifts of the two generators f·g and 2·f as words, deduped, nonzero."""
    fg, _ = _shift_words(divisor_poly(spec.f_set | spec.g_set), spec.length)
    _, two_f = _shift_words(divisor_poly(spec.f_set), spec.length)
    return tuple(dict.fromkeys(fg + two_f))


def _digits(words: np.ndarray, count: int) -> np.ndarray:
    """Row j holds the lowest count base-4 digits of words[j], digit 0 first."""
    return (words[:, None] >> (2 * np.arange(count, dtype=np.int64))) & 3


@functools.cache
def _digit_table(count: int) -> np.ndarray:
    """Row x holds the count base-4 digits of x, for x < 4^count; read-only.

    Built once per count; a count is at most (MAX_LENGTH + 1) / 2 = 7, so
    all the tables held come to under 1.2 MB.
    """
    table = _digits(np.arange(4**count, dtype=np.int64), count)
    table.flags.writeable = False
    return table


def _add_words(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """Digit-wise sum mod 4 of the base-4 encodings in a and b, one dtype.

    Per digit: the XOR of the bits, with the carry of the low bits moved
    into the high bit and the carry of the high bit dropped.  With out
    given, the sum is written there, and the only temporary is the size of
    b, which the expansion gives as one word.
    """
    carry_bits = a.dtype.type(((1 << 8 * a.dtype.itemsize) - 1) // 3)  # 0b0101…01
    out = np.bitwise_and(a, b & carry_bits, out=out)
    out <<= 1
    out ^= a
    out ^= b
    return out


def _zero_code(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of {0}, and a word list for _span with room for half of Z4^N.

    The list is np.zeros, so only the pages a span fills are touched.
    """
    low = length // 2
    members = np.zeros((4 ** (length - low), 4**low), dtype=bool)
    members.flat[0] = True
    return members, np.zeros(4**length // 2, dtype=np.uint32)


def _span(flat: np.ndarray, words: np.ndarray, size: int, gens) -> int:
    """Extend a span by the encoded generators gens; return its new size.

    The span S is set in the flat mask and listed in words[:size].  Adding
    a generator g maps S to S + {0, g}, then to S + {0, 2g}.  A step in S
    adds nothing and is skipped (2g is in S + {0, g} only when it is in S);
    any other step t gives S + t disjoint from S.  So a step writes
    words[:k] ⊕ t, ⊕ the digit-wise sum, into words[k:2k] and sets them in
    the mask.  The list has room for half of Z4^N: a step that would
    overrun it is the one that fills Z4^N, whose image is set in the mask
    chunk by chunk and not listed, since no later step reads it.
    """
    ones = (flat.size - 1) // 3  # digit 1 in every place
    for gen in gens:
        for word in (gen, (gen & ones) << 1):  # g, then 2g: low bits moved up
            if flat[word]:
                continue  # already in the span, adds nothing
            if size == len(words):
                for start in range(0, size, _SCATTER_CHUNK):
                    flat[_add_words(words[start : start + _SCATTER_CHUNK], np.uint32(word))] = True
            else:
                flat[_add_words(words[:size], np.uint32(word), out=words[size : 2 * size])] = True
            size *= 2
    return size


def expand_code(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Smallest codeword set closed under addition mod 4 and cyclic shift.

    Computed as the additive span of the shifts of the two generators,
    grown from {0} by _span; the shift closure is automatic because the
    spanning set is shift-closed.
    """
    _check_bound(spec.length, bound)
    gens = spanning_words(spec)
    members, words = _zero_code(spec.length)
    _span(members.reshape(-1), words, 1, gens)
    return CodeSet(spec.length, members, gens)


def dual_bruteforce(code: CodeSet, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Every ambient word orthogonal (dot product mod 4) to the code.

    Checks orthogonality against the code's spanning set, which expand_code
    stores and which suffices because every codeword is a Z4-combination of
    it; a code without one, such as a dual, raises ValueError.  Every one of
    the 4^N ambient words x = hi·4^L + lo is tested against every spanning
    word s: x·s ≡ 0 (mod 4) exactly when lo·s_lo ≡ -hi·s_hi, the digits of
    s read by _digits as the tables' are.  The 2-bit residues of up to
    _KEY_WIDTH words are packed into one key per half-table row,
    so one broadcast comparison of a 4^H and a 4^L key column tests all of
    Z4^N against all of them at once.  Keys are as narrow as the block
    allows, since the comparison's time grows with their width.
    """
    length = code.length
    _check_bound(length, bound)
    if code.spanning is None:
        raise ValueError("dual scan needs the code's spanning set, and this code has none")
    basis = code.spanning or (0,)  # every word is orthogonal to 0
    low = length // 2
    lo_digits, hi_digits = _digit_table(low), _digit_table(length - low)
    orthogonal = np.empty((len(hi_digits), len(lo_digits)), dtype=bool)
    for start in range(0, len(basis), _KEY_WIDTH):
        block = _digits(np.array(basis[start : start + _KEY_WIDTH], dtype=np.int64), length).T
        places = 4 ** np.arange(block.shape[1], dtype=np.int64)  # two bits a residue
        key = np.min_scalar_type(4 ** block.shape[1] - 1)
        lo_key = (((lo_digits @ block[:low]) & 3) @ places).astype(key)
        hi_key = ((-(hi_digits @ block[low:]) & 3) @ places).astype(key)
        if start:
            orthogonal &= hi_key[:, None] == lo_key
        else:
            np.equal(hi_key[:, None], lo_key, out=orthogonal)
    return CodeSet(length, orthogonal, None)


@dataclass(frozen=True)
class Mismatch:
    spec: CodeSpec
    expected: str
    got: str


@dataclass(frozen=True)
class SweepReport:
    length: int
    partitions: int
    mismatches: tuple[Mismatch, ...]
    lcd_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _perp_bits(length: int, words) -> np.ndarray:
    """The dual scan of a set of words, bit-packed; bounded by N, as the sweep checked its bound."""
    return np.packbits(dual_bruteforce(CodeSet(length, None, words), length).mask)


def _count_common(flat: np.ndarray, *packed: np.ndarray) -> int:
    """Words set in the flat mask and in every bit-packed set, a chunk at a time."""
    count = 0
    for start in range(0, flat.size, _COUNT_CHUNK):
        bits = np.packbits(flat[start : start + _COUNT_CHUNK])
        for other in packed:
            bits &= other[start // 8 : start // 8 + len(bits)]
        count += np.count_nonzero(np.unpackbits(bits))
    return count


def _group_counts(length: int, fg_words, partitions) -> list[tuple[int, int]]:
    """(hull size, code size) of each partition of one group (f ∪ g fixed).

    fg_words are the shifts of the group's f·g; each partition is the
    words of its 2·f shifts and (2·f shifts)⊥ as bits.
    The span of f·g is grown once, and each partition extends it in place
    and then clears what it added.  (f·g shifts)⊥ is scanned before the
    word list is touched, so the scan's mask and the list are never held
    at once; partitions is read one at a time, so a dual that only it
    holds is released once its partition is counted.
    """
    fg_perp = _perp_bits(length, fg_words)
    members, words = _zero_code(length)
    flat = members.reshape(-1)
    prefix = _span(flat, words, 1, fg_words)
    counts = []
    for two_f, two_f_perp in partitions:
        size = _span(flat, words, prefix, two_f)
        counts.append((_count_common(flat, fg_perp, two_f_perp), int(np.count_nonzero(flat))))
        flat[words[prefix:size]] = False  # past the list's end when the span is Z4^N
    return counts


def sweep_verify(length: int, bound: int = DEFAULT_BOUND) -> SweepReport:
    """Check every (f, g, h) partition against the brute force.

    Per partition: the hull formula must match the brute-force hull size,
    the code-size formula must match the expanded codeword count, and the
    LCD verdict must coincide with (g empty and f reciprocal-closed).

    The code of (f, g, h) is spanned by the shifts of f·g and 2·f, so its
    dual is (f·g shifts)⊥ ∩ (2·f shifts)⊥, and each of those is the scan of
    one generator subset: 2^(r+1) scans for the 3^r partitions.  The
    partitions that share f ∪ g, and so h, form a group that shares the
    expansion of f·g and its dual (_group_counts).
    """
    _check_bound(length, bound)
    table = build_factor_table(length)
    specs = list(all_partitions(table))
    shifts = {}  # subset -> (the shifts of its product, the shifts of twice it)
    groups = {}  # f ∪ g -> indices of its partitions, in all_partitions order
    for index, spec in enumerate(specs):
        f = spec.f_set.members
        if f not in shifts:
            shifts[f] = _shift_words(divisor_poly(spec.f_set), length)
        groups.setdefault(f | spec.g_set.members, []).append(index)
    two_f_perps = {f: _perp_bits(length, two_f) for f, (_, two_f) in shifts.items()}
    counts = {}
    # Groups by decreasing degree of f ∪ g, so no later group holds a
    # superset of it, and the largest codes, with the longest word lists,
    # come last.  A group's first partition has f = f ∪ g, whose dual of
    # 2·f shifts no later partition needs: it is dropped once counted.
    for subset in sorted(groups, key=lambda ids: -DivisorSet(table, ids).degree):
        indices = groups[subset]
        fs = [specs[i].f_set.members for i in indices]
        partitions = ((shifts[f][1], two_f_perps.pop(f) if f == subset else two_f_perps[f]) for f in fs)
        counts.update(zip(indices, _group_counts(length, shifts[subset][0], partitions)))

    mismatches = []
    lcd_count = 0

    def check(spec, label, expected, got):
        if expected != got:
            mismatches.append(Mismatch(spec, f"{label}={expected}", f"{label}={got}"))

    for index, spec in enumerate(specs):
        hull, size = counts[index]
        report = hull_report(spec)
        check(spec, "hullSize", report.hull_size, hull)
        check(spec, "codeSize", code_size(spec), size)
        f_closed = reciprocal_set(spec.f_set).members == spec.f_set.members
        check(spec, "lcd", f_closed and not spec.g_set.members, report.lcd)
        if report.lcd:
            lcd_count += 1
    return SweepReport(length, len(specs), tuple(mismatches), lcd_count)


def sweep_to_wire(report: SweepReport) -> dict:
    return {
        "N": report.length,
        "partitions": report.partitions,
        "mismatches": [
            {"spec": spec_to_wire(m.spec), "expected": m.expected, "got": m.got}
            for m in report.mismatches
        ],
        "lcdCount": report.lcd_count,
    }
