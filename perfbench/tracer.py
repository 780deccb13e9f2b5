"""Spans around calls into z4lcd's public functions, recorded from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, op id) while an op is
open, and restores the originals on `uninstall()`.  Modules import names
directly (`lcdenum.hull_report`, `oracle.all_partitions`), so every z4lcd
module attribute bound to the same object is replaced.  Spans stay in
memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly, so the self times of one op add up to the
op's root span.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name); the span name is the metric prefix
TRACED = (
    ("cli", "main", "cli.main"),
    ("z4poly", "Z4Poly.__mul__", "z4poly.mul"),
    ("z4poly", "Z4Poly.divmod_monic", "z4poly.divmod_monic"),
    ("z4poly", "Z4Poly.reciprocal", "z4poly.reciprocal"),
    ("cyclotomic", "factor_mod2", "cyclotomic.factor_mod2"),
    ("cyclotomic", "graeffe_lift", "cyclotomic.graeffe_lift"),
    ("cyclotomic", "cyclotomic_cosets", "cyclotomic.cyclotomic_cosets"),
    ("cyclotomic", "build_factor_table", "cyclotomic.build_factor_table"),
    ("cyclotomic", "classify_pair", "cyclotomic.classify_pair"),
    ("cyclotomic", "mult_order_of_2", "cyclotomic.mult_order_of_2"),
    ("codes", "CodeSpec.of", "codes.CodeSpec.of"),
    ("codes", "hull_report", "codes.hull_report"),
    ("codes", "factor_divisor", "codes.factor_divisor"),
    ("codes", "divisor_poly", "codes.divisor_poly"),
    ("lcdenum", "enumerate_lcd", "lcdenum.enumerate_lcd"),
    ("lcdenum", "count_nsrf", "lcdenum.count_nsrf"),
    ("oracle", "expand_code", "oracle.expand_code"),
    ("oracle", "dual_bruteforce", "oracle.dual_bruteforce"),
)
OP = "op"  # root span of each op: benchmark glue plus untraced program code


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.op = None
        self.partitions = 0  # items yielded by lcdenum.all_partitions
        self.entries = 0  # catalog entries returned by enumerate_lcd
        self.ambient_vectors = 0  # 4^N per dual_bruteforce call, computed
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._open(OP)

    def end_op(self) -> None:
        self._close()
        self.op = None

    def _open(self, name: str) -> None:
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-2], self.op])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def _wrap(self, name, fn, tally=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if tally is not None:
                tally(args, result)
            return result

        return traced

    def _count_partitions(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for spec in fn(*args, **kwargs):
                if self.op is not None:
                    self.partitions += 1
                yield spec

        return counted

    def _tally_entries(self, args, catalog):
        self.entries += len(catalog.entries)

    def _tally_ambient(self, args, dual):
        self.ambient_vectors += 4 ** args[0].length

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import z4lcd.cli  # noqa: F401  -- every module must be loaded to be patched
        import z4lcd.oracle  # noqa: F401

        tallies = {
            "lcdenum.enumerate_lcd": self._tally_entries,
            "oracle.dual_bruteforce": self._tally_ambient,
        }
        for module_name, path, name in TRACED:
            owner = sys.modules[f"z4lcd.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._patch_method(owner, attr, name)
            else:
                original = getattr(owner, attr)
                self._patch_everywhere(original, self._wrap(name, original, tallies.get(name)))
        original = sys.modules["z4lcd.lcdenum"].all_partitions
        self._patch_everywhere(original, self._count_partitions(original))

    def _patch_method(self, cls, attr, name) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "z4lcd" and not module_name.startswith("z4lcd."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def _self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s, over spans inside ops."""
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, parent, op), own in zip(self.spans, self._self_ns()):
            row = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own / 1e9
            row["total_s"] += (end - start) / 1e9
        return totals

    def op_self_sums(self) -> dict[int, tuple[float, float]]:
        """Per op id: (sum of self times, root span duration), in seconds."""
        sums: dict[int, list[float]] = {}
        for (name, start, end, parent, op), own in zip(self.spans, self._self_ns()):
            row = sums.setdefault(op, [0.0, 0.0])
            row[0] += own / 1e9
            if parent < 0:
                row[1] += (end - start) / 1e9
        return {op: (s, d) for op, (s, d) in sums.items()}
