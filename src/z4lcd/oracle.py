"""Ground-truth brute force for small lengths.

Codes are expanded into explicit codeword sets (the additive span of the
cyclic shifts of their two generators), duals are found by scanning the
whole ambient space Z4^N for vectors orthogonal to a spanning set, and
hulls are literal set intersections.  Nothing here touches the hull
formula, so these results are an independent check of it.

Codewords are stored as base-4 integer encodings (digit i is the entry at
position i); the ambient scan is vectorized with numpy but stays a plain
exhaustive scan.  The default length bound of 9 keeps everything at
seconds scale (4^9 = 262144 ambient vectors); lengths 11 and 13 work but
need an explicit higher bound.
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
_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class CodeSet:
    """An explicit codeword set, with a spanning set when one is known.

    spanning=None means no small spanning set is available and orthogonality
    must be checked against every word.
    """

    length: int
    words: frozenset[int]
    spanning: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.words)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        for value in sorted(self.words):
            yield decode_word(value, self.length)

    def __contains__(self, vector) -> bool:
        return encode_word(vector) in self.words


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


def expand_code(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Smallest codeword set closed under addition mod 4 and cyclic shift.

    Computed as the additive span of the shifts of the two generators; the
    shift closure is automatic because the spanning set is shift-closed.
    """
    length = spec.length
    _check_bound(length, bound)
    gens = spanning_vectors(spec)
    powers = 4 ** np.arange(length, dtype=np.int64)
    words = np.zeros((1, length), dtype=np.int8)
    members = {0}
    for gen in gens:
        if encode_word(gen) in members:
            continue  # already in the span, adds nothing
        g = np.array(gen, dtype=np.int8)
        multiples = (np.arange(4, dtype=np.int8)[:, None, None] * g) % 4
        candidates = (words[None, :, :] + multiples) % 4
        encoded = candidates.reshape(-1, length).astype(np.int64) @ powers
        unique = np.unique(encoded)
        shifts = 2 * np.arange(length, dtype=np.int64)
        words = ((unique[:, None] >> shifts) & 3).astype(np.int8)
        members = set(unique.tolist())
    return CodeSet(
        length, frozenset(members), tuple(encode_word(v) for v in gens)
    )


def dual_bruteforce(code: CodeSet, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Every ambient vector orthogonal (dot product mod 4) to the code.

    Checks orthogonality against the code's spanning set, which suffices
    because every codeword is a Z4-combination of it; scans all 4^N ambient
    vectors in chunks.
    """
    length = code.length
    _check_bound(length, bound)
    basis = code.spanning if code.spanning is not None else sorted(code.words)
    span = np.array(
        [decode_word(v, length) for v in basis], dtype=np.int16
    ).reshape(len(basis), length)
    total = 4**length
    if not len(basis):
        return CodeSet(length, frozenset(range(total)), None)
    shifts = 2 * np.arange(length, dtype=np.int64)
    kept = []
    for lo in range(0, total, _CHUNK):
        encoded = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = ((encoded[:, None] >> shifts) & 3).astype(np.int16)
        residues = (digits @ span.T) % 4
        kept.append(encoded[~residues.any(axis=1)])
    return CodeSet(length, frozenset(np.concatenate(kept).tolist()), None)


def hull_bruteforce(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> int:
    """|C intersect C-perp| by explicit expansion and ambient scan."""
    code = expand_code(spec, bound)
    dual = dual_bruteforce(code, bound)
    return len(code.words & dual.words)


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
        check(spec, "hullSize", report.hull_size, len(code.words & dual.words))
        check(spec, "codeSize", code_size(spec), len(code.words))
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
