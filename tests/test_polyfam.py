"""Polynomial family tests.

The coefficient tables for n = 0..5 are frozen by hand from the recurrence:
    m: 2, 3x, 9x^2-4, 27x^3-18x, 81x^4-72x^2+8, 243x^5-270x^3+60x
    Gm_n(x) = m_n(x) + i m_{n-1}(x) for n >= 1, Gm_0(x) = 2 + (3i/2)x.
Specializing x = 1 must reproduce the number families exactly, and the
floating point closed form is only ever a spot check.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from gmlucas import polyfam as pf
from gmlucas.arith import Dyadic, GaussianDyadic, Poly, poly_eval
from gmlucas.polyfam import (
    binet_numeric,
    gml_poly,
    gml_poly_explicit,
    gml_poly_from_ml,
    gml_poly_negative,
    iter_gml_poly,
    iter_gml_poly_from_ml,
    iter_gml_poly_negative,
    iter_ml_poly,
    iter_ml_poly_negative,
    ml_poly,
    ml_poly_explicit,
    ml_poly_negative,
    poly_recurrence_term,
)
from gmlucas.sequences import gml_binet, ml_binet

I = GaussianDyadic.I

TABLE_M = (
    Poly((2,)),
    Poly((0, 3)),
    Poly((-4, 0, 9)),
    Poly((0, -18, 0, 27)),
    Poly((8, 0, -72, 0, 81)),
    Poly((0, 60, 0, -270, 0, 243)),
)
TABLE_GM = (
    Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
    Poly((GaussianDyadic(0, 2), 3)),
    Poly((-4, GaussianDyadic(0, 3), 9)),
    Poly((GaussianDyadic(0, -4), -18, GaussianDyadic(0, 9), 27)),
    Poly((8, GaussianDyadic(0, -18), -72, GaussianDyadic(0, 27), 81)),
    Poly((GaussianDyadic(0, 8), 60, GaussianDyadic(0, -72), -270,
          GaussianDyadic(0, 81), 243)),
)


def test_polynomial_table():
    for n in range(6):
        assert ml_poly(n) == TABLE_M[n]
        assert gml_poly(n) == TABLE_GM[n]


def test_iterators_match_direct_terms():
    for n, (m_val, gm_val) in enumerate(
            itertools.islice(zip(iter_ml_poly(), iter_gml_poly()), 12)):
        assert m_val == ml_poly(n)
        assert gm_val == gml_poly(n)


def test_derived_walks_match_single_terms():
    # the relation and negative walks start at n = 1
    for walk, term in ((iter_gml_poly_from_ml(), gml_poly_from_ml),
                       (iter_ml_poly_negative(), ml_poly_negative),
                       (iter_gml_poly_negative(), gml_poly_negative)):
        assert list(itertools.islice(walk, 40)) == [term(n) for n in range(1, 41)]


def test_explicit_equals_recurrence():
    for n in range(41):
        assert ml_poly_explicit(n) == ml_poly(n)
        if n >= 1:
            assert gml_poly_explicit(n) == gml_poly(n)


def test_relation_to_base_family():
    for n in range(1, 31):
        assert gml_poly_from_ml(n) == gml_poly(n)
        assert gml_poly(n) == ml_poly(n) + I * ml_poly(n - 1)


def test_degree_and_leading_coefficient():
    for n in range(1, 31):
        p = ml_poly(n)
        assert p.degree == n
        assert p.coeff(n) == GaussianDyadic(3**n)


def test_parity_structure():
    # only degrees n, n-2, n-4, ... appear
    for n in range(31):
        p = ml_poly(n)
        for j in range(n + 1):
            if (n - j) % 2 == 1:
                assert p.coeff(j) == GaussianDyadic.ZERO


def test_specialization_collapses_to_numbers():
    one = GaussianDyadic.ONE
    for n in range(51):
        assert poly_eval(ml_poly(n), one) == ml_binet(n)
        assert poly_eval(gml_poly(n), one) == gml_binet(n)


def test_evaluation_at_two():
    # m_3(x) = 27x^3 - 18x, so m_3(2) = 216 - 36 = 180; m_2(2) = 36 - 4 = 32
    assert poly_eval(ml_poly(3), 2) == GaussianDyadic(180)
    assert poly_eval(gml_poly(3), 2) == GaussianDyadic(180, 32)


def test_negative_polynomials():
    assert ml_poly_negative(1) == Poly((0, Dyadic(3, 1)))
    assert ml_poly_negative(2) == Poly((-1, 0, Dyadic(9, 2)))
    for n in range(1, 21):
        assert ml_poly_negative(n).mul_pow2(n) == ml_poly(n)


def test_negative_gaussian_splits_into_negative_base_terms():
    # Gm_{-n}(x) = m_{-n}(x) + i m_{-(n+1)}(x)
    for n in range(1, 21):
        want = ml_poly_negative(n) + I * ml_poly_negative(n + 1)
        assert gml_poly_negative(n) == want


def test_backward_closure_through_zero():
    three_x = Poly((0, 3))

    def term(k: int) -> Poly:
        return ml_poly(k) if k >= 0 else ml_poly_negative(-k)

    for k in range(-10, 12):
        assert term(k) == three_x * term(k - 1) - 2 * term(k - 2)


def test_negative_specialization_matches_negative_numbers():
    from gmlucas.sequences import gml_negative, ml_negative

    one = GaussianDyadic.ONE
    for n in range(1, 21):
        assert poly_eval(ml_poly_negative(n), one) == ml_negative(n)
        assert poly_eval(gml_poly_negative(n), one) == gml_negative(n)


def test_preconditions():
    for fn in (ml_poly, gml_poly, ml_poly_explicit):
        with pytest.raises(ValueError):
            fn(-1)
    for fn in (gml_poly_explicit, gml_poly_from_ml, ml_poly_negative,
               gml_poly_negative):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        poly_recurrence_term(Poly((1,)), Poly((1,)), -1)


def test_generic_poly_walker_seeds():
    # seeds 1, x: step 2 is 3x * x - 2 * 1 = 3x^2 - 2
    s2 = poly_recurrence_term(Poly.ONE, Poly.X, 2)
    assert s2 == Poly((-2, 0, 3))


def test_binet_numeric_spot_value():
    got = binet_numeric(3, 2)
    want = complex(180, 32)
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


def test_binet_numeric_exact_at_one():
    # roots are the integers 2 and 1, so floats stay exact
    for n in range(31):
        want = complex(poly_eval(gml_poly(n), 1))
        assert binet_numeric(n, 1) == want


def test_binet_numeric_tracks_exact_route():
    points = ((2, GaussianDyadic(2)), (3, GaussianDyadic(3)),
              (2.5, GaussianDyadic(Dyadic(5, 1))))
    for n in range(31):
        for x_float, x_exact in points:
            want = complex(poly_eval(gml_poly(n), x_exact))
            got = binet_numeric(n, x_float)
            assert abs(got - want) <= 1e-9 * (1 + abs(want))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 12))
def test_poly_walker_specializes_to_number_walker(a, b, n):
    from gmlucas.sequences import recurrence_term

    p = poly_recurrence_term(Poly((a,)), Poly((b,)), n)
    assert poly_eval(p, 1) == GaussianDyadic(recurrence_term(a, b, n))


@pytest.mark.parametrize("route", (
    lambda n: gml_poly_from_ml(n),
    lambda n: gml_poly_negative(n),
), ids=("gml_poly_from_ml", "gml_poly_negative"))
def test_adjacent_term_routes_walk_once(monkeypatch, route):
    # Counts, not timings: a route that needs two adjacent terms must take
    # both from one walk, about the steps of ml_poly(n), not twice that.
    steps = 0
    walk = pf.walk

    def counting(*args):
        nonlocal steps
        for k, term in enumerate(walk(*args)):
            if k >= 2:  # x_0 and x_1 are the seeds; each later term is a step
                steps += 1
            yield term

    monkeypatch.setattr(pf, "walk", counting)

    def walked(fn, n: int) -> int:
        nonlocal steps
        steps = 0
        fn(n)
        return steps

    n = 30
    one_walk = walked(ml_poly, n)
    assert one_walk == n - 1
    assert walked(route, n) <= one_walk + 4, (walked(route, n), one_walk)


@pytest.mark.parametrize("route, owner, combine", (
    (gml_poly_from_ml, pf, "_PLUS_I"),
    (gml_poly_negative, pf, "_PLUS_HALF_I"),
    (ml_poly_negative, Poly, "div_pow2"),
), ids=("gml_poly_from_ml", "gml_poly_negative", "ml_poly_negative"))
@pytest.mark.parametrize("n", (1, 7, 120))
def test_stream_routes_combine_once_per_term(monkeypatch, route, owner, combine, n):
    # Counts, not timings: the single-term function is its stream's first
    # item from n, and the stream walks to n without building an output,
    # so the route's combine step runs once, not once per index below n.
    want = route(n)
    calls = 0
    step = getattr(owner, combine)

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(owner, combine, counting)
    assert route(n) == want
    assert calls == 1
