"""Number family tests.

Reference values are frozen as literals: the first table rows, the closed
form 2**n + 1 computed inline with shifts, and the hand-expanded binomial
summands for small n.
"""

import pytest
from hypothesis import given, strategies as st

from gmlucas.arith import Dyadic, GaussianDyadic
from gmlucas.sequences import (
    _ml_explicit_int,
    GM0,
    GM1,
    M0,
    M1,
    Method,
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
    recurrence_term,
)

# First six rows of the number table.
TABLE_M = (2, 3, 5, 9, 17, 33)
TABLE_GM = (
    GaussianDyadic(2, Dyadic(3, 1)),
    GaussianDyadic(3, 2),
    GaussianDyadic(5, 3),
    GaussianDyadic(9, 5),
    GaussianDyadic(17, 9),
    GaussianDyadic(33, 17),
)

# Hand-expanded summands of the closed binomial form, n = 1..4:
#   n=1: 3                     -> 3
#   n=2: 9 - 4                 -> 5
#   n=3: 27 - 18               -> 9
#   n=4: 81 - 72 + 8           -> 17
SUMMANDS = {
    (1, 0): 3,
    (2, 0): 9, (2, 1): -4,
    (3, 0): 27, (3, 1): -18,
    (4, 0): 81, (4, 1): -72, (4, 2): 8,
}


def test_seeds():
    assert (M0, M1) == (2, 3)
    assert GM0 == GaussianDyadic(2, Dyadic(3, 1))
    assert GM1 == GaussianDyadic(3, 2)


def test_number_table():
    for n, want in enumerate(TABLE_M):
        assert ml_recurrence(n).value == GaussianDyadic(want)
    for n, want in enumerate(TABLE_GM):
        assert gml_recurrence(n).value == want


def test_closed_form_is_two_to_n_plus_one():
    for n in range(65):
        assert ml_binet(n).value == GaussianDyadic((1 << n) + 1)


def test_wordsize_boundary_value():
    assert int(ml_binet(64).value.re) == 18446744073709551617


def test_number_routes_agree():
    for n in range(81):
        rec = ml_recurrence(n).value
        assert ml_binet(n).value == rec
        assert ml_explicit(n).value == rec


def test_explicit_summands_match_hand_expansion():
    for (n, j), want in SUMMANDS.items():
        assert explicit_summand(n, j) == want


def test_explicit_sum_equals_summand_total():
    # the ratio-updated sum against the per-term reference
    for n in range(1, 61):
        total = sum(explicit_summand(n, j) for j in range(n // 2 + 1))
        assert ml_explicit(n).value == GaussianDyadic(total)


def test_ratio_updated_sum_matches_summands_and_closed_form():
    # Each summand is reached from the one before by an exact floor
    # division; a wrong ratio or a rounded quotient shows at some n <= 600.
    assert _ml_explicit_int(0) == 2
    for n in range(1, 601):
        total = sum(explicit_summand(n, j) for j in range(n // 2 + 1))
        assert _ml_explicit_int(n) == total == 2**n + 1, n


def test_explicit_summand_is_integral():
    # n * C(n-j, j) is always divisible by n - j
    from gmlucas.arith import binomial

    for n in range(1, 40):
        for j in range(n // 2 + 1):
            assert n * binomial(n - j, j) % (n - j) == 0


def test_explicit_zero_convention():
    assert ml_explicit(0).value == GaussianDyadic(2)


def test_gaussian_routes_agree():
    for n in range(61):
        rec = gml_recurrence(n).value
        assert gml_binet(n).value == rec
        if n >= 1:
            assert gml_from_ml(n).value == rec
            assert gml_explicit(n).value == rec


def test_gaussian_parts_are_adjacent_numbers():
    for n in range(1, 41):
        gm = gml_binet(n).value
        assert gm.re == ml_binet(n).value.re
        assert gm.im == ml_binet(n - 1).value.re


def test_gaussian_zero_has_fractional_imag_part():
    assert gml_binet(0).value == GaussianDyadic(2, Dyadic(3, 1))


def test_negative_numbers():
    assert ml_negative(1).value == GaussianDyadic(Dyadic(3, 1))
    assert ml_negative(2).value == GaussianDyadic(Dyadic(5, 2))
    assert ml_negative(3).value == GaussianDyadic(Dyadic(9, 3))
    assert gml_negative(1).value == GaussianDyadic(Dyadic(3, 1), Dyadic(5, 2))
    assert gml_negative(2).value == GaussianDyadic(Dyadic(5, 2), Dyadic(9, 3))


def test_negative_scaling_identity():
    for n in range(1, 31):
        assert ml_negative(n).value.mul_pow2(n) == ml_binet(n).value


def test_backward_closure_through_zero():
    def term(k: int) -> GaussianDyadic:
        return gml_binet(k).value if k >= 0 else gml_negative(-k).value

    for k in range(-20, 21):
        assert term(k) == 3 * term(k - 1) - 2 * term(k - 2)


def test_negative_denominators_are_bounded():
    for n in range(1, 31):
        v = gml_negative(n).value
        assert v.re.exp <= n
        assert v.im.exp <= n + 1


def test_term_records():
    t = ml_recurrence(5)
    assert (t.index, t.method) == (5, Method.RECURRENCE)
    assert ml_binet(5).method is Method.BINET
    assert ml_explicit(5).method is Method.EXPLICIT
    assert gml_from_ml(5).method is Method.RELATION
    neg = ml_negative(3)
    assert (neg.index, neg.method) == (-3, Method.BINET)
    with pytest.raises(AttributeError):
        t.index = 7


def test_preconditions():
    for fn in (ml_recurrence, ml_binet, ml_explicit, gml_recurrence, gml_binet):
        with pytest.raises(ValueError):
            fn(-1)
    for fn in (ml_negative, gml_negative, gml_explicit, gml_from_ml):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        explicit_summand(0, 0)
    with pytest.raises(ValueError):
        explicit_summand(3, 2)
    with pytest.raises(ValueError):
        explicit_summand(3, -1)
    with pytest.raises(ValueError):
        recurrence_term(0, 1, -1)


def test_generic_walker_on_mersenne_seeds():
    # seeds 0, 1 give 2**n - 1 under the same recurrence
    for n in range(21):
        assert recurrence_term(0, 1, n) == (1 << n) - 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(0, 30))
def test_generic_walker_closed_form(a, b, n):
    # x_n = (b - a) 2**n + (2a - b) solves x_n = 3 x_{n-1} - 2 x_{n-2}
    assert recurrence_term(a, b, n) == (b - a) * (1 << n) + (2 * a - b)


@given(st.integers(1, 200))
def test_negative_index_against_closed_form(n):
    want = GaussianDyadic(Dyadic((1 << n) + 1, n),
                          Dyadic((1 << (n + 1)) + 1, n + 1))
    assert gml_negative(n).value == want
