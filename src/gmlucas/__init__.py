"""Exact arithmetic for the Mersenne Lucas family m_n = 2**n + 1, its
Gaussian companion Gm_n = m_n + i m_{n-1}, and their polynomial analogues.

Every term can be computed by several independent routes (recurrence, closed
form, binomial expansion, symmetric function kernel, generating function)
over Z[1/2][i], and the routes are cross-checked bit-exactly by the test
suite and the `gmlucas verify` command.
"""

from .arith import (
    Dyadic,
    GaussianDyadic,
    Poly,
    binomial,
    poly_eval,
)
from .sequences import (
    explicit_summand,
    gml_binet,
    gml_explicit,
    gml_from_ml,
    gml_negative,
    gml_recurrence,
    ml_binet,
    ml_explicit,
    ml_negative,
    ml_recurrence,
    walk,
)
from .polyfam import (
    binet_numeric,
    gml_poly,
    gml_poly_explicit,
    gml_poly_from_ml,
    gml_poly_negative,
    iter_gml_poly,
    iter_ml_poly,
    ml_poly,
    ml_poly_explicit,
    ml_poly_negative,
)
from .symfun import (
    PowerSeries,
    SymKernel,
    gf_gml,
    gf_gml_even,
    gf_gml_odd,
    gf_gml_poly,
    gf_ml_poly,
    kernel_even_odd_series,
    kernel_series,
    kernel_term,
    kernel_term_explicit,
    s_diff_convolution,
    s_diff_series,
    s_neg_alphabet,
    series_div,
    sym_decompose_gml,
    sym_decompose_gml_poly,
    sym_decompose_ml_poly,
    two_letter_sn,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "Dyadic", "GaussianDyadic", "Poly", "PowerSeries",
    "SymKernel", "VerifyReport", "binet_numeric", "binomial",
    "explicit_summand", "gf_gml", "gf_gml_even", "gf_gml_odd",
    "gf_gml_poly", "gf_ml_poly", "gml_binet", "gml_explicit",
    "gml_from_ml", "gml_negative", "gml_poly", "gml_poly_explicit",
    "gml_poly_from_ml", "gml_poly_negative", "gml_recurrence",
    "iter_gml_poly", "iter_ml_poly", "kernel_even_odd_series",
    "kernel_series", "kernel_term", "kernel_term_explicit", "ml_binet",
    "ml_explicit", "ml_negative", "ml_poly", "ml_poly_explicit",
    "ml_poly_negative", "ml_recurrence", "poly_eval", "run_verify",
    "s_diff_convolution", "s_diff_series", "s_neg_alphabet", "series_div",
    "sym_decompose_gml", "sym_decompose_gml_poly", "sym_decompose_ml_poly",
    "two_letter_sn", "walk",
]
