"""Ground-truth brute force for small lengths.

Codes are expanded as the additive span of the cyclic shifts of their two
generators, duals are found by scanning Z4^N for vectors orthogonal to the
spanning set that the expansion keeps, and hulls are literal
intersections.  Nothing here touches the hull formula, so these results
are an independent check of it.

A word is identified with its base-4 integer encoding (digit i is the entry
at position i), and a `CodeSet` holds one boolean membership mask over the
4^N ambient words, shaped (4^H, 4^L) by the split x = hi·4^L + lo of the
encoding, L = N // 2 and H = N - L, so that its flat index is the encoding:

- the expansion also lists the span's encodings, four bytes each, and adds
  a generator step by their digit-wise sums with it, at O(|C|) a step;
- the dual scan tests every ambient word against every spanning vector s,
  by x·s ≡ lo·s_lo + hi·s_hi (mod 4): a 4^L and a 4^H column of keys, each
  packing the residues of up to 31 vectors, give the zero test for all of
  Z4^N in one broadcast comparison.

On a 2-vCPU VM a `verify` sweep takes about 10 ms at N = 7 (27 partitions)
and 25 ms at N = 9, under the default bound of 9; N = 11 and N = 13 (9
partitions each) need a higher bound and take about 0.1 s and 1.9 s, at a
peak RSS of 50 MB and 226 MB.  No bound admits a length above 16.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, code_size, divisor_poly, hull_report, reciprocal_set, spec_to_wire
from .cyclotomic import build_factor_table
from .lcdenum import all_partitions
from .z4poly import Z4Poly

DEFAULT_BOUND = 9
MAX_LENGTH = 16  # a word's encoding fits in uint32; N = 17 would need a 17 GB mask
_SCATTER_CHUNK = 1 << 16  # words of the last expansion step made at a time, 256 KB


def _check_bound(length: int, bound: int) -> None:
    if length > MAX_LENGTH:
        raise ValueError(f"length {length} exceeds the brute-force limit {MAX_LENGTH}")
    if length > bound:
        raise ValueError(f"length {length} exceeds brute-force bound {bound}")


def encode_word(vector) -> int:
    """Base-4 integer encoding of a residue vector."""
    value = 0
    for digit in reversed(vector):
        value = (value << 2) | (digit & 3)
    return value


@dataclass(frozen=True, eq=False)
class CodeSet:
    """A code as its membership mask, with a spanning set when one is known.

    mask is the (4^H, 4^L) boolean array whose flat index is the word's
    encoding.  spanning holds the generator vectors that expand_code
    spanned the code from; a dual has none, and dual_bruteforce refuses it.
    """

    length: int
    mask: np.ndarray
    spanning: tuple[tuple[int, ...], ...] | None = None

    @property
    def words(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def _vector_mod(poly: Z4Poly, length: int) -> tuple[int, ...]:
    """Coefficient vector of poly reduced mod X^N - 1 (fold exponents mod N)."""
    acc = [0] * length
    for k, c in enumerate(poly.coeffs):
        acc[k % length] = (acc[k % length] + c) % 4
    return tuple(acc)


def spanning_vectors(spec: CodeSpec) -> list[tuple[int, ...]]:
    """All cyclic shifts of the two generators f·g and 2·f, deduped, nonzero."""
    length = spec.length
    fg = divisor_poly(spec.f_set | spec.g_set)
    two_f = divisor_poly(spec.f_set).scale(2)
    vectors = []
    seen = set()
    for base in (_vector_mod(fg, length), _vector_mod(two_f, length)):
        for shift in range(length):
            vec = base[-shift:] + base[:-shift] if shift else base
            if any(vec) and vec not in seen:
                seen.add(vec)
                vectors.append(vec)
    return vectors


@functools.cache
def _digit_table(count: int) -> np.ndarray:
    """Row x holds the count base-4 digits of x, for x < 4^count; read-only.

    Built once per count; a count is at most MAX_LENGTH / 2 = 8, so all the
    tables held come to under 6 MB.
    """
    index = np.arange(4**count, dtype=np.int64)
    table = (index[:, None] >> (2 * np.arange(count, dtype=np.int64))) & 3
    table.flags.writeable = False
    return table


def _add_words(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """Digit-wise sum mod 4 of the base-4 encodings in a and b, one dtype.

    Per digit: the XOR of the bits, with the carry of the low bits moved
    into the high bit and the carry of the high bit dropped.  With out
    given, the sum is written there and no temporary is made.
    """
    carry_bits = a.dtype.type(((1 << 8 * a.dtype.itemsize) - 1) // 3)  # 0b0101…01
    out = np.bitwise_and(a, b, out=out)
    out &= carry_bits
    out <<= 1
    out ^= a
    out ^= b
    return out


def expand_code(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Smallest codeword set closed under addition mod 4 and cyclic shift.

    Computed as the additive span of the shifts of the two generators; the
    shift closure is automatic because the spanning set is shift-closed.
    Adding a generator g maps the span S to S + {0, g}, then to S + {0, 2g}.
    A step in S adds nothing and is skipped (2g is in S + {0, g} only when
    it is in S); any other step t gives S + t disjoint from S.  So the span
    is listed as words beside its mask, and a step writes words[:k] ⊕ t,
    ⊕ the digit-wise sum, into words[k:2k] and sets them in the mask.  The
    list has room for half of Z4^N: a step that would overrun it is the
    one that fills Z4^N, whose image is set in the mask chunk by chunk and
    not listed, since no later step reads it.
    """
    length = spec.length
    _check_bound(length, bound)
    gens = spanning_vectors(spec)
    low = length // 2
    members = np.zeros((4 ** (length - low), 4**low), dtype=bool)
    flat = members.reshape(-1)
    flat[0] = True
    # room for half of Z4^N; only the pages the span fills are touched
    half = 4**length // 2
    words = np.zeros(half, dtype=np.uint32)
    size = 1
    ones = (4**length - 1) // 3  # digit 1 in every place
    for gen in map(encode_word, gens):
        for word in (gen, (gen & ones) << 1):  # g, then 2g: low bits moved up
            if flat[word]:
                continue  # already in the span, adds nothing
            if size == half:
                for start in range(0, size, _SCATTER_CHUNK):
                    flat[_add_words(words[start : start + _SCATTER_CHUNK], np.uint32(word))] = True
            else:
                flat[_add_words(words[:size], np.uint32(word), out=words[size : 2 * size])] = True
            size *= 2
    return CodeSet(length, members, tuple(gens))


def dual_bruteforce(code: CodeSet, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Every ambient vector orthogonal (dot product mod 4) to the code.

    Checks orthogonality against the spanning set that expand_code stored,
    which suffices because every codeword is a Z4-combination of it; a code
    without one, such as a dual, raises ValueError.  Every one of the 4^N
    ambient vectors x = hi·4^L + lo is tested against every spanning vector
    s: x·s ≡ 0 (mod 4) exactly when lo·s_lo ≡ -hi·s_hi.  The 2-bit residues
    of up to 31 vectors are packed into one int64 key per half-table row,
    so one broadcast comparison of a 4^H and a 4^L key column tests all of
    Z4^N against all 31 at once.
    """
    length = code.length
    _check_bound(length, bound)
    basis = code.spanning
    if basis is None:
        raise ValueError("dual scan needs the code's spanning set, and this code has none")
    low = length // 2
    lo_digits, hi_digits = _digit_table(low), _digit_table(length - low)
    orthogonal = np.ones((len(hi_digits), len(lo_digits)), dtype=bool)
    for start in range(0, len(basis), 31):
        block = np.array(basis[start : start + 31], dtype=np.int64).T
        places = 4 ** np.arange(block.shape[1], dtype=np.int64)  # two bits a residue
        lo_key = ((lo_digits @ block[:low]) & 3) @ places
        hi_key = (-(hi_digits @ block[low:]) & 3) @ places
        orthogonal &= hi_key[:, None] == lo_key
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


def sweep_verify(length: int, bound: int = DEFAULT_BOUND) -> SweepReport:
    """Check every (f, g, h) partition against the brute force.

    Per partition: the hull formula must match the brute-force hull size,
    the code-size formula must match the expanded codeword count, and the
    LCD verdict must coincide with (g empty and f reciprocal-closed).
    """
    _check_bound(length, bound)
    table = build_factor_table(length)
    mismatches = []
    partitions = 0
    lcd_count = 0

    def check(spec, label, expected, got):
        if expected != got:
            mismatches.append(Mismatch(spec, f"{label}={expected}", f"{label}={got}"))

    for spec in all_partitions(table):
        partitions += 1
        code = expand_code(spec, bound)
        dual = dual_bruteforce(code, bound)
        report = hull_report(spec)
        check(spec, "hullSize", report.hull_size, np.count_nonzero(code.mask & dual.mask))
        check(spec, "codeSize", code_size(spec), len(code))
        del code, dual  # not held while the next partition expands
        f_closed = reciprocal_set(spec.f_set).members == spec.f_set.members
        check(spec, "lcd", f_closed and not spec.g_set.members, report.lcd)
        if report.lcd:
            lcd_count += 1
    return SweepReport(length, partitions, tuple(mismatches), lcd_count)


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
