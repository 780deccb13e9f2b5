"""Exact arithmetic for cyclic codes over Z4 of odd length.

Factorization of X^N - 1 into monic basic irreducibles, hull cardinalities
of cyclic codes from their three-divisor form, and enumeration of the codes
with trivial hull (LCD codes).  The `oracle` submodule holds the brute-force
cross-checks; import it explicitly, it pulls in numpy.
"""

from .codes import (
    CodeSpec,
    DivisorSet,
    HullReport,
    code_size,
    divisor_poly,
    factor_divisor,
    hull_report,
    is_lcd,
    reciprocal_set,
)
from .cyclotomic import (
    FactorRecord,
    FactorTable,
    PairClass,
    build_factor_table,
    classify_pair,
    cyclotomic_cosets,
    euler_phi,
    factor_label,
    factor_mod2,
    graeffe_lift,
    mult_order_of_2,
)
from .lcdenum import (
    LcdCatalog,
    LcdCensus,
    LcdEntry,
    count_nsrf,
    enumerate_lcd,
    lcd_census,
)
from .z4poly import NEG_INF, Z4Poly, format_terms

__version__ = "0.1.0"

__all__ = [
    "CodeSpec",
    "DivisorSet",
    "FactorRecord",
    "FactorTable",
    "HullReport",
    "LcdCatalog",
    "LcdCensus",
    "LcdEntry",
    "NEG_INF",
    "PairClass",
    "Z4Poly",
    "build_factor_table",
    "classify_pair",
    "code_size",
    "count_nsrf",
    "cyclotomic_cosets",
    "divisor_poly",
    "enumerate_lcd",
    "euler_phi",
    "factor_divisor",
    "factor_label",
    "factor_mod2",
    "format_terms",
    "graeffe_lift",
    "hull_report",
    "is_lcd",
    "lcd_census",
    "mult_order_of_2",
    "reciprocal_set",
]
