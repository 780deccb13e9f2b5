"""Ground-truth brute force for small lengths.

Codes are expanded as the additive span of the cyclic shifts of their two
generators, duals are found by scanning Z4^N for vectors orthogonal to a
spanning set, and hulls are literal intersections.  Nothing here touches
the hull formula, so these results are an independent check of it.

A word is identified with its base-4 integer encoding (digit i is the entry
at position i), and a `CodeSet` holds one boolean membership mask over the
4^N ambient words, indexed through one split of the encoding,
x = hi·4^L + lo with L = N // 2 and H = N - L:

- the dual scan tests every ambient word against every spanning vector s,
  using x·s ≡ lo·s_lo + hi·s_hi (mod 4): a 4^L and a 4^H table of partial
  products give the zero test for all of Z4^N in one broadcast comparison;
- the expansion holds the span as a membership mask and adds a generator
  by translating the mask digit-wise, the low and high halves each by one
  4^L or 4^H index table.

Only the half tables are int64; the 4^N arrays are one byte per word.  On a
2-vCPU VM a full `verify` sweep costs about 25 ms at N = 7 (27 partitions)
and 0.2 s at N = 9, both under the default bound of 9; N = 11 and N = 13
(9 partitions each) need an explicit higher bound and take about 1 s and
50 MB, and 22 s and 350 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .codes import CodeSpec, code_size, divisor_poly, hull_report, reciprocal_set, spec_to_wire
from .cyclotomic import build_factor_table
from .lcdenum import all_partitions
from .z4poly import Z4Poly

DEFAULT_BOUND = 9


class BruteForceBoundError(ValueError):
    """Length exceeds the configured brute-force bound."""


def _check_bound(length: int, bound: int) -> None:
    if length > bound:
        raise BruteForceBoundError(
            f"length {length} exceeds brute-force bound {bound}"
        )


def encode_word(vector) -> int:
    """Base-4 integer encoding of a residue vector."""
    value = 0
    for digit in reversed(vector):
        value = (value << 2) | (digit & 3)
    return value


def decode_word(value: int, length: int) -> tuple[int, ...]:
    return tuple((value >> (2 * k)) & 3 for k in range(length))


@dataclass(frozen=True, eq=False)
class CodeSet:
    """A code as its membership mask, with a spanning set when one is known.

    mask is the (4^H, 4^L) boolean array of `_split`'s layout: its flat index
    is the word's encoding.  spanning=None means no small spanning set is
    available and orthogonality must be checked against every word.
    """

    length: int
    mask: np.ndarray
    spanning: tuple[tuple[int, ...], ...] | None = None

    @property
    def words(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def vectors(self) -> Iterator[tuple[int, ...]]:
        for value in np.flatnonzero(self.mask).tolist():
            yield decode_word(value, self.length)


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


def _digit_table(count: int) -> np.ndarray:
    """Row x holds the count base-4 digits of x, for x < 4^count."""
    index = np.arange(4**count, dtype=np.int64)
    return (index[:, None] >> (2 * np.arange(count, dtype=np.int64))) & 3


def _split(length: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Split x = hi·4^L + lo of the ambient index, L = N // 2.

    Returns L and the digit tables of the low and high halves; a boolean
    array of shape (4^H, 4^L) is then indexed by ambient words in row-major
    order, so that its flat index is the word's encoding.
    """
    low = length // 2
    return low, _digit_table(low), _digit_table(length - low)


def _translate(digits: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Encodings of each row of digits plus vector, digit-wise mod 4."""
    powers = 4 ** np.arange(digits.shape[1], dtype=np.int64)
    return ((digits + vector) % 4) @ powers


def expand_code(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Smallest codeword set closed under addition mod 4 and cyclic shift.

    Computed as the additive span of the shifts of the two generators; the
    shift closure is automatic because the spanning set is shift-closed.
    The span is held as a membership mask over Z4^N: adding a generator g
    maps C to C + {0, g} and then to C + {0, 2g}, that is C + {0, g, 2g, 3g},
    each step the union of the mask with its image under a digit-wise
    translation, gathered half by half through the split's tables.  A step
    already in the mask adds nothing and is skipped: C + g = C when g is in
    C, and 2g is in C + {0, g} only when it is in C.
    """
    length = spec.length
    _check_bound(length, bound)
    gens = spanning_vectors(spec)
    low, lo_digits, hi_digits = _split(length)
    members = np.zeros((len(hi_digits), len(lo_digits)), dtype=bool)
    members[0, 0] = True
    for gen in gens:
        for step in (gen, tuple(2 * d % 4 for d in gen)):
            if members.flat[encode_word(step)]:
                continue  # already in the span, adds nothing
            # the word at x - step moves to x
            minus = -np.array(step, dtype=np.int64)
            rows = _translate(hi_digits, minus[low:])
            cols = _translate(lo_digits, minus[:low])
            members |= members.take(rows, axis=0).take(cols, axis=1)
    return CodeSet(length, members, tuple(gens))


def dual_bruteforce(code: CodeSet, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Every ambient vector orthogonal (dot product mod 4) to the code.

    Checks orthogonality against the code's spanning set, which suffices
    because every codeword is a Z4-combination of it.  Every one of the 4^N
    ambient vectors x = hi·4^L + lo is tested against every spanning vector
    s: x·s ≡ 0 (mod 4) exactly when lo·s_lo ≡ -hi·s_hi, so one 4^L table and
    one 4^H table of partial products give the zero test for all of Z4^N as
    one broadcast comparison.
    """
    length = code.length
    _check_bound(length, bound)
    basis = code.spanning if code.spanning is not None else tuple(code.vectors())
    low, lo_digits, hi_digits = _split(length)
    orthogonal = np.ones((len(hi_digits), len(lo_digits)), dtype=bool)
    for vector in basis:
        s = np.array(vector, dtype=np.int64)
        lo_dots = ((lo_digits @ s[:low]) % 4).astype(np.uint8)
        minus_hi_dots = (-(hi_digits @ s[low:]) % 4).astype(np.uint8)
        orthogonal &= minus_hi_dots[:, None] == lo_dots
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
            mismatches.append(
                Mismatch(spec, f"{label}={expected}", f"{label}={got}")
            )

    for spec in all_partitions(table):
        partitions += 1
        code = expand_code(spec, bound)
        dual = dual_bruteforce(code, bound)
        report = hull_report(spec)
        check(spec, "hullSize", report.hull_size, np.count_nonzero(code.mask & dual.mask))
        check(spec, "codeSize", code_size(spec), len(code))
        reciprocal_closed = (
            not spec.g_set.members
            and reciprocal_set(spec.f_set).members == spec.f_set.members
        )
        check(spec, "lcd", reciprocal_closed, report.lcd)
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
