"""Ground-truth brute force for small lengths.

Codes are expanded as the additive span of the cyclic shifts of their two
generators, duals are found by scanning Z4^N for words orthogonal to a
spanning set, and hulls are literal intersections.  Nothing here touches
the hull formula, so these results are an independent check of it.

A word is held as one base-4 integer, digit i the entry at position i,
from a generator's shifts to the dual scan: a generator is folded mod
X^N - 1 into that form, shifted by rotating it and doubled by moving each
digit's low bit up.  A `CodeSet` holds one boolean membership mask over the
4^N ambient words, indexed by the encoding:

- the expansion also lists the span's encodings, four bytes each, and adds
  a generator step by their digit-wise sums with it, at O(|C|) a step; the
  step that completes Z4^N sets the whole mask instead;
- the dual scan splits each word as x = hi·4^L + lo and tests every
  ambient word against every spanning word s by x·s ≡ lo·s_lo + hi·s_hi
  (mod 4): a 4^L and a 4^H column of keys, each packing the residues of up
  to 16 words, give the zero test for all of Z4^N in one broadcast
  comparison, whose rows in order are the mask.

A sweep shares this work among the 3^r partitions (f, g, h).  Their codes
are spanned by the shifts of 2^r products f·g and 2^r products 2·f, and a
code's dual is (f·g shifts)⊥ ∩ (2·f shifts)⊥, so Z4^N is scanned once per
generator subset, 2^(r+1) times, from keys built for all of them at once,
and each dual is kept at one bit a word.  One mask and one word list hold
every code in turn: a walk down the subset lattice grows each code in
place from one that it contains, and clears what it added on the way back.
Its result is the dict that `verify N --json` prints, filled in as each
partition is checked.

On a 2-vCPU Xeon VM the sweep takes about 1.8 ms at N = 7 (27 partitions)
and 7 ms at N = 9 in-process, under the default bound of 9.  N = 11 and 13
(9 partitions each) need a higher bound: a `verify` process takes about
0.23 s wall and 46 MB at N = 11, 0.04 s of it the sweep, and 1.0 s and
247 MB at N = 13.  No bound admits a length above 13 (see MAX_LENGTH).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, DivisorSet, code_size, divisor_poly, hull_report, reciprocal_set, spec_to_wire
from .cyclotomic import build_factor_table
from .lcdenum import all_partitions
from .z4poly import Z4Poly

DEFAULT_BOUND = 9
# a sweep peaks at 247 MB at N = 13; at N = 15 it would hold 2^5 packed
# duals of 128 MiB each (4 GiB) before a 1 GiB mask and a 2 GiB word list
MAX_LENGTH = 13
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

    mask is the boolean array of length 4^N indexed by the word's
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
    """The mask of {0} over Z4^N, and a word list for _span with room for half of it.

    The list is np.zeros, so only the pages a span fills are touched.
    """
    members = np.zeros(4**length, dtype=bool)
    members[0] = True
    return members, np.zeros(4**length // 2, dtype=np.uint32)


def _span(flat: np.ndarray, words: np.ndarray, size: int, gens) -> int:
    """Extend a span by the encoded generators gens; return its new size.

    The span S is set in the flat mask and listed in words[:size].  Adding
    a generator g maps S to S + {0, g}, then to S + {0, 2g}.  A step in S
    adds nothing and is skipped (2g is in S + {0, g} only when it is in S);
    any other step t gives S + t disjoint from S.  So a step writes
    words[:k] ⊕ t, ⊕ the digit-wise sum, into words[k:2k] and sets them in
    the mask.  The list has room for half of Z4^N: a step that would
    overrun it adds a word outside a subgroup of index 2, so S + {0, t} is
    all of Z4^N; it sets the whole mask and lists nothing, since no later
    step reads the list.
    """
    ones = (flat.size - 1) // 3  # digit 1 in every place
    for gen in gens:
        for word in (gen, (gen & ones) << 1):  # g, then 2g: low bits moved up
            if flat[word]:
                continue  # already in the span, adds nothing
            if size == len(words):
                flat[:] = True
            else:
                flat[_add_words(words[:size], np.uint32(word), out=words[size : 2 * size])] = True
            size *= 2
    return size


def _walk(flat: np.ndarray, words: np.ndarray, size: int, top: frozenset, removable, gens, visit) -> None:
    """Visit top and each subset of it that drops removable ids, top first.

    The flat mask holds a span listed in words[:size], as _span keeps it.
    A subset that drops removable[k] may then drop removable[:k] only, so
    each is reached once and the one that drops them all comes last.  Each
    extends its parent's span in place by gens(subset), is visited with its
    size and, after its own subsets, clears the words it added.  Z4^N, half
    of it unlisted, is cleared whole, so it must be the last.
    """
    grown = _span(flat, words, size, gens(top))
    visit(top, grown)
    for k, i in enumerate(removable):
        _walk(flat, words, grown, top - {i}, removable[:k], gens, visit)
    if grown == flat.size > size:
        flat[1:] = False
    else:
        flat[words[size:grown]] = False


def expand_code(spec: CodeSpec, bound: int = DEFAULT_BOUND) -> CodeSet:
    """Smallest codeword set closed under addition mod 4 and cyclic shift.

    Computed as the additive span of the shifts of the two generators,
    grown from {0} by _span; the shift closure is automatic because the
    spanning set is shift-closed.
    """
    _check_bound(spec.length, bound)
    gens = spanning_words(spec)
    members, words = _zero_code(spec.length)
    _span(members, words, 1, gens)
    return CodeSet(spec.length, members, gens)


def _key_table(columns: np.ndarray) -> np.ndarray:
    """Row k, entry x: the digit-wise sum mod 4 of x_i·columns[k, i] over the digits x_i of x.

    x runs over 4^count, count = columns.shape[1]; the table doubles twice
    per digit, by the multiples 0, c, 2c and 3c of its column c.
    """
    twice = _add_words(columns, columns)
    multiples = np.stack([np.zeros_like(columns), columns, twice, _add_words(columns, twice)], axis=-1)
    table = np.zeros((len(columns), 1), dtype=columns.dtype)
    for i in range(columns.shape[1]):
        table = _add_words(multiples[:, i, :, None], table[:, None, :]).reshape(len(columns), -1)
    return table


def _dual_keys(length: int, word_sets) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per set of encoded words, the (hi, lo) key columns of its dual scan.

    A word x = hi·4^L + lo, L = N - N // 2, is orthogonal to every s in a
    set when lo·s_lo ≡ -hi·s_hi (mod 4) for each.  The low half takes the
    odd digit, so that the comparison runs the fewer and longer rows.  The
    sets are laid out in keys of up to _KEY_WIDTH words, as many as the
    largest set needs, each set padded with zero words to at least one
    whole key.  A key packs the 2-bit residues of its words: one per
    half-table row, built for every key of every set at once by _key_table
    from the words' digits (negated for hi).  Each key is cut to the
    narrowest dtype its words allow, since the comparison's time grows with
    its width.
    """
    low = length - length // 2
    width = min(_KEY_WIDTH, max(1, *map(len, word_sets)))
    key = np.min_scalar_type(4**width - 1)
    places = 2 * np.arange(width)[:, None]
    words, counts = [], []  # padded words; per set, the words in each of its keys
    for word_set in word_sets:
        keys = max(1, -(-len(word_set) // width))
        words += [*word_set] + [0] * (keys * width - len(word_set))
        counts.append([min(width, len(word_set) - k * width) for k in range(keys)])
    digits = _digits(np.array(words, dtype=np.int64), length).reshape(-1, width, length)
    lo_keys = iter(_key_table((digits[..., :low] << places).sum(axis=1).astype(key)))
    hi_keys = iter(_key_table(((-digits[..., low:] & 3) << places).sum(axis=1).astype(key)))
    narrow = [np.min_scalar_type(4**count - 1) for count in range(width + 1)]
    return [[(next(hi_keys).astype(narrow[c]), next(lo_keys).astype(narrow[c])) for c in keys] for keys in counts]


def dual_bruteforce(code: CodeSet, bound: int = DEFAULT_BOUND, keys=None) -> CodeSet:
    """Every ambient word orthogonal (dot product mod 4) to the code.

    Checks orthogonality against the code's spanning set, which expand_code
    stores and which suffices because every codeword is a Z4-combination of
    it; a code without one, such as a dual, raises ValueError.  Every one of
    the 4^N ambient words is tested against every spanning word: one
    broadcast comparison of a 4^H and a 4^L key column per key, the keys
    being those _dual_keys builds for the spanning set, or keys when given
    (the sweep builds them for all of its sets at once).  Its rows, hi
    after hi, are the mask in the order of the encoding.
    """
    _check_bound(code.length, bound)
    if code.spanning is None:
        raise ValueError("dual scan needs the code's spanning set, and this code has none")
    (hi, lo), *rest = _dual_keys(code.length, [code.spanning])[0] if keys is None else keys
    orthogonal = hi[:, None] == lo
    for hi, lo in rest:
        orthogonal &= hi[:, None] == lo
    return CodeSet(code.length, orthogonal.ravel(), None)


def sweep_verify(length: int, bound: int = DEFAULT_BOUND) -> dict:
    """Check every (f, g, h) partition against the brute force.

    Returns the object that `verify N --json` prints: {"N", "partitions",
    "mismatches", "lcdCount"}, each mismatch {"spec": spec_to_wire(spec),
    "expected": "label=value", "got": "label=value"}, in partition order.
    Per partition: the hull formula must match the brute-force hull size,
    the code-size formula must match the expanded codeword count, and the
    LCD verdict must coincide with (g empty and f reciprocal-closed).

    The 2^(r+1) generator subsets are scanned by dual_bruteforce, from keys
    that one _dual_keys call builds for all of them, before the word list
    is touched, and each packed dual is dropped after its last use.  With
    S = f ∪ g, A_S = span(f·g shifts) contains A_(S ∪ {i}), and
    A_S + span(2·f shifts) contains A_S + span(2·(f ∪ {i}) shifts), so one
    _walk over S grows each A_S, and within it one over f grows each code.
    """
    _check_bound(length, bound)
    table = build_factor_table(length)
    specs = list(all_partitions(table))
    uses = Counter(spec.f_set.members for spec in specs)  # f -> partitions left that read (2·f shifts)⊥
    # subset -> (the shifts of its product, the shifts of twice it)
    shifts = {f: _shift_words(divisor_poly(DivisorSet(table, f)), length) for f in uses}
    scanned = [(part, subset) for part in (0, 1) for subset in shifts]
    keys = _dual_keys(length, [shifts[s][p] for p, s in scanned])
    perps = {
        (p, s): np.packbits(dual_bruteforce(CodeSet(length, None, shifts[s][p]), length, keys=k).mask)
        for (p, s), k in zip(scanned, keys)
    }
    flat, words = _zero_code(length)
    counts = {}
    by_degree = sorted(table.ids(), key=table.degrees.__getitem__)

    def group(subset, size):
        fg_perp = perps.pop((0, subset))

        def count(f, _):
            uses[f] -= 1
            two_f_perp = perps[1, f] if uses[f] else perps.pop((1, f))
            hull = 0
            for start in range(0, flat.size, _COUNT_CHUNK):
                bits = np.packbits(flat[start : start + _COUNT_CHUNK])
                bits &= fg_perp[start // 8 : start // 8 + len(bits)]
                bits &= two_f_perp[start // 8 : start // 8 + len(bits)]
                hull += np.count_nonzero(np.unpackbits(bits))
            counts[f, subset] = hull, int(np.count_nonzero(flat))

        _walk(flat, words, size, subset, [i for i in by_degree if i in subset], lambda f: shifts[f][1], count)

    _walk(flat, words, 1, frozenset(by_degree), by_degree, lambda subset: shifts[subset][0], group)
    assert flat[0] and np.count_nonzero(flat) == 1, "the walk left words other than 0 in the mask"

    mismatches = []
    lcd_count = 0

    def check(spec, label, expected, got):
        if expected != got:
            mismatches.append({"spec": spec_to_wire(spec), "expected": f"{label}={expected}", "got": f"{label}={got}"})

    for spec in specs:
        hull, size = counts[spec.f_set.members, spec.f_set.members | spec.g_set.members]
        report = hull_report(spec)
        check(spec, "hullSize", report.hull_size, hull)
        check(spec, "codeSize", code_size(spec), size)
        f_closed = reciprocal_set(spec.f_set).members == spec.f_set.members
        check(spec, "lcd", f_closed and not spec.g_set.members, report.lcd)
        lcd_count += report.lcd
    return {"N": length, "partitions": len(specs), "mismatches": mismatches, "lcdCount": lcd_count}
