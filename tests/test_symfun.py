"""Symmetric function and power series tests.

Independent oracles used here:
  * 1/(1-z) and long division done by hand for small series
  * the kernel (1, 1), whose terms are the Fibonacci numbers F_{n+1},
    with the classical bisection identities for even/odd indices
  * alphabet products expanded by hand
"""

import functools
import itertools
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from gmlucas import arith
from gmlucas import symfun as sf
from gmlucas.arith import Dyadic, GaussianDyadic, Poly, binomial
from gmlucas.symfun import (
    PowerSeries,
    SymKernel,
    gf_gml,
    gf_gml_even,
    gf_gml_odd,
    gf_gml_poly,
    gf_ml_poly,
    iter_kernel,
    iter_kernel_explicit,
    iter_sym_decompose_gml,
    iter_sym_decompose_gml_poly,
    iter_sym_decompose_ml_poly,
    iter_two_letter_sn,
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
from test_arith import (
    assert_gaussian_canonical,
    assert_poly_canonical,
    gaussian_parts,
    gaussian_polys,
)

I = GaussianDyadic.I
KER_NUM = SymKernel(3, -2)
KER_POLY = SymKernel(Poly((0, 3)), Poly((-2,)))
FIB = SymKernel(1, 1)  # S_n = F_{n+1}

FIBS = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)


def gvals(series):
    return [c for c in series]


def series_from_coeffs(coeffs, order):
    """A series of the given order from its leading coefficients, padded
    with zeros, lifted to one ring by PowerSeries."""
    cs = list(coeffs)[: order + 1]
    return PowerSeries(cs + [0] * (order + 1 - len(cs)))


# -------------------------------------------------------------- PowerSeries

def test_series_basics():
    s = series_from_coeffs([5], 3)
    assert s.order == 3
    assert len(s) == 4
    assert s.coeffs == (GaussianDyadic(5), GaussianDyadic.ZERO,
                        GaussianDyadic.ZERO, GaussianDyadic.ZERO)
    assert str(s) == "[5, 0, 0, 0]"


def test_series_index_bounds():
    s = series_from_coeffs([1, 2], 2)
    assert s[2] == GaussianDyadic.ZERO
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


def test_series_arithmetic_needs_matching_orders():
    a = series_from_coeffs([1], 2)
    b = series_from_coeffs([1], 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(TypeError):
        a * [1, 2, 3]


def test_series_cauchy_product():
    # (1 + z)(1 - z) = 1 - z^2, truncated at order 3
    a = series_from_coeffs([1, 1], 3)
    b = series_from_coeffs([1, -1], 3)
    assert gvals(a * b) == [GaussianDyadic(1), GaussianDyadic(0),
                           GaussianDyadic(-1), GaussianDyadic(0)]


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        PowerSeries(())


# --------------------------------------------------------------- series_div

def test_geometric_series():
    s = series_div([1], [1, -1], 5)
    assert all(c == GaussianDyadic.ONE for c in s)


def test_division_by_hand_expansion():
    # (1 + z)/(1 - z) = 1 + 2z + 2z^2 + ...
    s = series_div([1, 1], [1, -1], 4)
    assert gvals(s) == [GaussianDyadic(1)] + [GaussianDyadic(2)] * 4


def test_division_with_constant_two():
    # (2 - 3z)/(2 - 2z) has the expansion 1 - (1/2) z - (1/2) z^2 - ...
    s = series_div([2, -3], [2, -2], 3)
    half = GaussianDyadic(Dyadic(-1, 1))
    assert gvals(s) == [GaussianDyadic.ONE, half, half, half]


def test_division_round_trip():
    num = [2, -3]
    den = [2, -6, 4]
    s = series_div(num, den, 8)
    den_series = series_from_coeffs(den, 8)
    num_series = series_from_coeffs(num, 8)
    assert den_series * s == num_series


def test_division_rejects_non_invertible_constant():
    with pytest.raises(ValueError):
        series_div([1], [3, 1], 3)
    with pytest.raises(ValueError):
        series_div([1], [0, 1], 3)
    with pytest.raises(ZeroDivisionError):
        series_div([1], [], 3)
    with pytest.raises(ValueError):
        series_div([1], [1], -1)


def test_division_lifts_mixed_rings():
    # an int numerator over a Poly denominator lands in the Poly ring
    s = series_div([1], [1, Poly((0, -1))], 3)
    assert gvals(s) == [Poly.ONE, Poly.X, Poly.X ** 2, Poly.X ** 3]


@settings(max_examples=60)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), min_size=0, max_size=3),
    st.sampled_from([1, -1, 2, -2, 4]),
)
def test_division_round_trip_property(num, den_tail, den_head):
    den = [den_head] + den_tail
    order = 6
    s = series_div(num, den, order)
    assert series_from_coeffs(den, order) * s == series_from_coeffs(num, order)


# Scalar series run on Gaussian-integer pairs and Poly series on Z[i][x]
# vectors.  The generic ring loop that series_div once ran on both is the
# reference for division; for the Cauchy product it is the same series lifted
# to constant Polys, which take the product's generic loop.

def reference_series_div(num, den, order):
    inv = den[0].inverse()
    zero = 0 * den[0]
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else zero
        for k in range(1, min(n, len(den) - 1) + 1):
            acc = acc - den[k] * out[n - k]
        out.append(inv * acc)
    return out


scalar_coeffs = st.builds(lambda parts: GaussianDyadic(*parts), gaussian_parts())
UNIT_HEADS = (GaussianDyadic(1), GaussianDyadic(2), GaussianDyadic(1, 1),
              GaussianDyadic(0, -1), GaussianDyadic(Dyadic(1, 1)))


def lifted(coeffs):
    return [Poly((c,)) for c in coeffs]


def assert_scalars_match(got, want):
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert type(c) is GaussianDyadic
        assert_gaussian_canonical(c)
        assert Poly((c,)) == w


@settings(max_examples=80)
@given(st.lists(scalar_coeffs, max_size=4), st.sampled_from(UNIT_HEADS),
       st.lists(scalar_coeffs, max_size=3), st.integers(0, 8))
# An imaginary second tap over 2: random draws do not always reach one.
@example([GaussianDyadic(1)], GaussianDyadic(1), [GaussianDyadic(0), GaussianDyadic(0, Dyadic(1, 1))], 4)
def test_scalar_division_matches_generic_path(num, head, tail, order):
    den = [head] + tail
    got = series_div(num, den, order)
    assert_scalars_match(got, reference_series_div(num, den, order))
    assert series_from_coeffs(den, order) * got == series_from_coeffs(num, order)


@settings(max_examples=80)
@given(st.lists(scalar_coeffs, min_size=1, max_size=6),
       st.lists(scalar_coeffs, min_size=1, max_size=6), st.integers(0, 8))
def test_scalar_cauchy_product_matches_generic_path(a, b, order):
    got = series_from_coeffs(a, order) * series_from_coeffs(b, order)
    want = series_from_coeffs(lifted(a), order) * series_from_coeffs(lifted(b), order)
    assert_scalars_match(got, want)


POLY_HEADS = (1, 2, GaussianDyadic(1, 1), GaussianDyadic(0, Dyadic(1, 1)), Dyadic(-1, 2))


@settings(max_examples=80, deadline=None)
@given(st.lists(gaussian_polys, max_size=4), st.sampled_from(POLY_HEADS),
       st.lists(gaussian_polys, max_size=3), st.integers(0, 16))
# The gm-poly generating function: constant 2, imaginary numerator terms.
@example([Poly((4, GaussianDyadic(0, 3))),
          Poly((GaussianDyadic(0, 4), -6, GaussianDyadic(0, -9)))],
         2, [Poly((0, -6)), Poly((4,))], 12)
# Imaginary and complex tap terms over a complex T_{n-k}.
@example([Poly((GaussianDyadic(1, 1), 2))], 1,
         [Poly((GaussianDyadic(0, 1), GaussianDyadic(1, 2)))], 6)
def test_poly_division_matches_generic_loop(num, head, tail, order):
    den = [Poly((head,))] + tail
    got = series_div(num, den, order)
    want = reference_series_div(num, den, order)
    assert len(got) == order + 1
    for c, w in zip(got, want):
        assert type(c) is Poly
        assert_poly_canonical(c)
        assert c == w


# ---------------------------------------------------------------- alphabets

# An alphabet is a plain tuple of letters, lifted to one ring.

def test_alphabet_container():
    # (1 - z)(1 - z/2) = 1 - (3/2)z + (1/2)z^2
    s = s_neg_alphabet((1, Dyadic(1, 1)), 2)
    assert gvals(s) == [GaussianDyadic(1), GaussianDyadic(Dyadic(-3, 1)),
                        GaussianDyadic(Dyadic(1, 1))]
    assert all(type(c) is GaussianDyadic for c in s)


def test_alphabet_lifts_to_common_ring():
    # Letters are scalars: a Poly letter, alone or among scalars, is refused
    # by every alphabet route, on either side of S_n(lambda - mu).
    for poly_letters in ((Poly.X, 2), (Poly.X,), (1, Poly((3,)))):
        routes = (lambda: s_neg_alphabet(poly_letters, 2),
                  lambda: s_diff_series(poly_letters, (1,), 2),
                  lambda: s_diff_series((1,), poly_letters, 2),
                  lambda: s_diff_convolution(poly_letters, (), 2),
                  lambda: s_diff_convolution((), poly_letters, 2))
        for route in routes:
            with pytest.raises(TypeError, match="alphabet letters must be GaussianDyadic"):
                route()
    with pytest.raises(TypeError, match="not a ring element"):
        s_neg_alphabet((1, "x"), 2)


def test_neg_alphabet_product():
    # (1 - z)(1 - 2z) = 1 - 3z + 2z^2
    s = s_neg_alphabet((1, 2), 4)
    assert gvals(s) == [GaussianDyadic(1), GaussianDyadic(-3), GaussianDyadic(2),
                       GaussianDyadic(0), GaussianDyadic(0)]


def test_neg_alphabet_repeated_letter():
    # (1 - z)^2 = 1 - 2z + z^2
    s = s_neg_alphabet((1, 1), 3)
    assert gvals(s) == [GaussianDyadic(1), GaussianDyadic(-2), GaussianDyadic(1),
                       GaussianDyadic(0)]


def test_diff_series_two_letters_no_mu():
    # letters 2 and 1: complete homogeneous sums 2^{n+1} - 1
    s = s_diff_series((2, 1), (), 5)
    assert gvals(s) == [GaussianDyadic((1 << (n + 1)) - 1) for n in range(6)]


def test_diff_series_with_mu():
    # (1 - z)/(1 - 2z): coefficient n is 2^{n-1} for n >= 1
    s = s_diff_series((2,), (1,), 5)
    assert gvals(s) == [GaussianDyadic(1)] + [GaussianDyadic(1 << (n - 1))
                                              for n in range(1, 6)]


def test_convolution_matches_series_on_fixed_alphabets():
    cases = (
        ((2,), (1,)),
        ((2, 1), ()),
        ((), (1, 1)),
        ((Dyadic(1, 1), 3), (-1,)),
        ((), ()),
    )
    for lam, mu in cases:
        series = s_diff_series(lam, mu, 8)
        for n in range(9):
            assert s_diff_convolution(lam, mu, n) == series[n]


def test_convolution_empty_alphabets():
    assert s_diff_convolution((), (), 0) == GaussianDyadic.ONE
    assert s_diff_convolution((), (), 3) == GaussianDyadic.ZERO


def test_convolution_rejects_negative_index():
    with pytest.raises(ValueError):
        s_diff_convolution((1,), (), -1)


_letters = st.lists(
    st.builds(GaussianDyadic,
              st.builds(Dyadic, st.integers(-3, 3), st.integers(0, 1)),
              st.builds(Dyadic, st.integers(-3, 3), st.integers(0, 1))),
    min_size=0, max_size=3)


@settings(max_examples=60)
@given(_letters, _letters, st.integers(0, 8))
def test_convolution_identity_property(lam, mu, n):
    assert s_diff_convolution(lam, mu, n) == s_diff_series(lam, mu, n)[n]


# Both sides of the convolution identity read prod(1 - letter z), so it is
# checked here against the ring loop that multiplied it out before the
# Gaussian letters ran on aligned Gaussian integers.

def reference_alphabet_poly(letters):
    coeffs = [GaussianDyadic.ONE]
    for letter in letters:
        nxt = coeffs + [GaussianDyadic.ZERO]
        for j in range(len(coeffs)):
            nxt[j + 1] = nxt[j + 1] - letter * coeffs[j]
        coeffs = nxt
    return coeffs


# The convolution check's own shape, order 12 and up to three letters a
# side: half-integer letters on each side, so both products run over 2**3;
# an all-integer lambda, over 2**0, whose series skips the final shift; and
# an empty lambda.
_HALVES = [GaussianDyadic(Dyadic(1, 1), Dyadic(3, 1)), GaussianDyadic(Dyadic(-3, 1), 1),
           GaussianDyadic(2, Dyadic(-1, 1))]
_HALVES_MU = [GaussianDyadic(Dyadic(-1, 1), Dyadic(1, 1)), GaussianDyadic(0, Dyadic(5, 1)),
              GaussianDyadic(Dyadic(3, 1), -2)]
_INTEGERS = [GaussianDyadic(1, 1), GaussianDyadic(2, -1), GaussianDyadic(-3)]
VERIFY_SHAPES = ((_HALVES, _HALVES_MU), (_INTEGERS, _HALVES_MU), ([], _HALVES_MU))


def at_verify_shapes(test):
    for lam, mu in VERIFY_SHAPES:
        test = example(lam, mu, 12)(test)
    return test


@settings(max_examples=60)
@given(st.lists(scalar_coeffs, max_size=4), st.lists(scalar_coeffs, max_size=4),
       st.integers(0, 8))
@example([GaussianDyadic(Dyadic(1, 1), Dyadic(3, 2)), GaussianDyadic(0, -1)], [], 3)
@at_verify_shapes
def test_alphabet_series_match_ring_loop(lam, mu, order):
    want_mu = reference_alphabet_poly(mu)
    want_mu += [GaussianDyadic.ZERO] * (order + 1 - len(want_mu))
    got_mu = s_neg_alphabet(mu, order)
    assert_scalars_match(got_mu, want_mu[: order + 1])
    got = s_diff_series(lam, mu, order)
    assert_scalars_match(got, reference_series_div(reference_alphabet_poly(mu),
                                                   reference_alphabet_poly(lam), order))


# The ring loops above divide as series_div does.  These closed routes
# share no code with the alphabet path: with mu empty, S_n of one letter is
# l**n, and of two letters two_letter_sn, summed through _product_sum, and
# kernel_term's doubling over (l1 + l2, -l1 l2), whose series is
# 1 / ((1 - l1 z)(1 - l2 z)).  A nonempty mu multiplies each by
# prod(1 - mu_j z), whose coefficient k is (-1)**k e_k(mu), the products of
# k distinct letters summed.

def elementary(mu, k):
    return sum((functools.reduce(operator.mul, letters, GaussianDyadic.ONE)
                for letters in itertools.combinations(mu, k)), GaussianDyadic.ZERO)


_QUARTERS = (GaussianDyadic(Dyadic(1, 2), Dyadic(-3, 1)), GaussianDyadic(Dyadic(-5, 2), 1))


@settings(max_examples=40, deadline=None)
@given(scalar_coeffs, scalar_coeffs, st.lists(scalar_coeffs, max_size=3), st.integers(0, 12))
# The convolution check's shape: order 12 with letters over 2, a zero
# letter, letters over 4 (e = 2), and mu longer than order + 1.
@example(_HALVES[0], _HALVES[1], [], 12)
@example(GaussianDyadic(0), _HALVES[2], [], 12)
@example(*_QUARTERS, [], 12)
@example(_HALVES[0], _QUARTERS[1], _HALVES_MU + [GaussianDyadic(1, -1)], 2)
def test_diff_series_matches_closed_routes(l1, l2, mu, order):
    neg_mu = [(-1) ** k * elementary(mu, k) for k in range(order + 1)]

    def times_neg_mu(closed):
        return [sum((neg_mu[k] * closed[n - k] for k in range(n + 1)), GaussianDyadic.ZERO)
                for n in range(order + 1)]

    kernel = SymKernel(l1 + l2, -(l1 * l2))
    two = s_diff_series((l1, l2), mu, order)
    assert list(two) == times_neg_mu([two_letter_sn(l1, l2, n) for n in range(order + 1)])
    assert list(two) == times_neg_mu([kernel_term(kernel, n) for n in range(order + 1)])
    assert list(s_diff_series((l1,), mu, order)) == times_neg_mu([l1**n for n in range(order + 1)])
    assert list(s_diff_series((), mu, order)) == neg_mu


# A Gaussian series is also a Poly in z.  The alphabet routes and the Cauchy
# product build only that view, so each must read exactly as the series
# built from its coefficients, which the ring loops above compute.

def reference_cauchy(a, b, order):
    return [sum((a[j] * b[n - j] for j in range(n + 1)), GaussianDyadic.ZERO)
            for n in range(order + 1)]


def padded(coeffs, order):
    return (coeffs + [GaussianDyadic.ZERO] * (order + 1))[: order + 1]


def series_built_in_z(lam, mu, order):
    """(build, coefficients) for each route that builds the view in z."""
    s_mu = padded(reference_alphabet_poly(mu), order)
    s_lam = reference_series_div([GaussianDyadic.ONE], reference_alphabet_poly(lam), order)
    return (
        (lambda: s_neg_alphabet(mu, order), s_mu),
        (lambda: s_diff_series(lam, mu, order),
         reference_series_div(reference_alphabet_poly(mu), reference_alphabet_poly(lam), order)),
        (lambda: s_neg_alphabet(mu, order) * s_diff_series(lam, (), order),
         reference_cauchy(s_mu, s_lam, order)),
    )


@settings(max_examples=60)
@given(st.lists(scalar_coeffs, max_size=4), st.lists(scalar_coeffs, max_size=4),
       st.integers(0, 5))
# Orders below the alphabet, a zero letter and multiples of 1 + i.
@example([GaussianDyadic(1, 1), GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1)), GaussianDyadic(0)],
         [GaussianDyadic(Dyadic(3, 2), Dyadic(-1, 2)), GaussianDyadic(1, -1), GaussianDyadic(2)], 1)
@example([], [GaussianDyadic(Dyadic(1, 1)), GaussianDyadic(3, Dyadic(1, 2))], 0)
@at_verify_shapes
def test_series_built_in_z_reads_as_its_coefficients(lam, mu, order):
    for build, want in series_built_in_z(lam, mu, order):
        ref = PowerSeries(want)
        # A fresh series for each reading, so none sees a view another built.
        assert build() == ref and ref == build()
        assert build() != PowerSeries(want + [GaussianDyadic.ZERO])
        assert hash(build()) == hash(ref)
        assert build().order == ref.order == order
        assert len(build()) == len(ref) == order + 1
        assert [build()[n] for n in range(order + 1)] == want
        assert_scalars_match(build().coeffs, lifted(want))
        assert str(build()) == str(ref)
        assert repr(build()) == repr(ref)


@settings(max_examples=30)
@given(st.lists(scalar_coeffs, max_size=3), st.lists(scalar_coeffs, max_size=3),
       st.integers(0, 5))
def test_series_built_in_z_meets_constant_poly_series(lam, mu, order):
    # Against constant Polys, == compares coefficients and * takes the
    # generic loop into Poly coefficients, as for any Gaussian series.
    one = PowerSeries(lifted(padded([GaussianDyadic.ONE], order)))
    for build, want in series_built_in_z(lam, mu, order):
        as_polys = PowerSeries(lifted(want))
        assert build() == as_polys and as_polys == build()
        assert hash(build()) == hash(as_polys)
        for got in (build() * one, one * build(), build() * as_polys):
            assert all(type(c) is Poly for c in got)
        assert build() * one == one * build() == as_polys
        assert build() * as_polys == PowerSeries(lifted(reference_cauchy(want, want, order)))


@pytest.mark.parametrize("mu", ((), (1, Dyadic(1, 1)), (Poly.X, 2)),
                         ids=("empty", "gaussian", "poly"))
def test_negative_order_is_rejected_on_every_ring_path(mu):
    # A Poly alphabet is refused for its letters (above), so Poly values
    # reach a negative order through series_div alone.  Below -1, a
    # half-integer lambda would shift terms by a negative count.
    for order in (-1, -2):
        routes = [lambda: series_div(mu or (1,), (1, *mu), order)]
        if not any(isinstance(letter, Poly) for letter in mu):
            routes += [lambda: s_neg_alphabet(mu, order), lambda: s_diff_series(mu, (), order),
                       lambda: s_diff_series((), mu, order),
                       lambda: s_diff_series((Dyadic(1, 1),), mu, order)]
        for route in routes:
            with pytest.raises(ValueError, match="series order must be non-negative"):
                route()


def test_two_letter_power_sums():
    assert two_letter_sn(2, 1, 3) == GaussianDyadic(15)
    assert two_letter_sn(3, -1, 2) == GaussianDyadic(7)
    assert two_letter_sn(2, 1, 0) == GaussianDyadic.ONE
    with pytest.raises(ValueError):
        two_letter_sn(1, 1, -1)


def test_two_letter_with_poly_letter():
    assert two_letter_sn(Poly.X, 2, 2) == Poly((4, 2, 1))


@pytest.mark.parametrize("l1, l2", [
    (2, 1), (3, -1), (Dyadic(3, 1), Dyadic(-1, 2)), (2, Dyadic(1, 1)),
    (GaussianDyadic(1, 1), GaussianDyadic(Dyadic(1, 1), -2)), (I, -I),
])
def test_two_letter_walk_matches_single_terms(l1, l2):
    walk = itertools.islice(iter_two_letter_sn(l1, l2), 31)
    assert list(walk) == [two_letter_sn(l1, l2, n) for n in range(31)]


def test_two_letter_bridges_to_kernel():
    # letters (2, 1) have sum 3 and product 2, hence kernel (3, -2)
    for n in range(31):
        assert two_letter_sn(2, 1, n) == kernel_term(KER_NUM, n)


# ------------------------------------------------------------------ kernels

def test_kernel_terms_are_shifted_mersenne():
    # S_n of (3, -2) is 2^{n+1} - 1
    assert [kernel_term(KER_NUM, n) for n in range(4)] == [
        GaussianDyadic(1), GaussianDyadic(3), GaussianDyadic(7), GaussianDyadic(15)]


def test_kernel_negative_index_is_zero():
    assert kernel_term(KER_NUM, -1) == GaussianDyadic.ZERO
    assert kernel_term_explicit(KER_NUM, -2) == GaussianDyadic.ZERO
    assert kernel_term(KER_POLY, -1) == Poly.ZERO


def test_fibonacci_kernel():
    for n, f in enumerate(FIBS):
        assert kernel_term(FIB, n) == GaussianDyadic(f)
        assert kernel_term_explicit(FIB, n) == GaussianDyadic(f)


def test_kernel_explicit_agrees_with_recurrence():
    for n in range(61):
        assert kernel_term_explicit(KER_NUM, n) == kernel_term(KER_NUM, n)
    for n in range(26):
        assert kernel_term_explicit(KER_POLY, n) == kernel_term(KER_POLY, n)


def test_kernel_walk_matches_kernel_term():
    for kernel, hi in ((KER_NUM, 60), (KER_POLY, 40), (FIB, 15)):
        walk = itertools.islice(iter_kernel(kernel), hi + 1)
        assert list(walk) == [kernel_term(kernel, n) for n in range(hi + 1)]


@settings(max_examples=20)
@given(scalar_coeffs, scalar_coeffs)
@example(KER_NUM.d, KER_NUM.p)
@example(KER_POLY.d, KER_POLY.p)
@example(FIB.d, FIB.p)
def test_explicit_kernel_walk_matches_single_terms(d, p):
    kernel = SymKernel(d, p)
    walk = itertools.islice(iter_kernel_explicit(kernel), 61)
    assert list(walk) == [kernel_term_explicit(kernel, n) for n in range(61)]


# kernel_term doubles; the reference builds S_{-1}, S_0, ... in a list, one
# recurrence step at a time.

def reference_kernel_term(k, n):
    zero = Poly.ZERO if isinstance(k.d, Poly) else GaussianDyadic.ZERO
    terms = [zero, zero + 1]
    while len(terms) < n + 2:
        terms.append(k.d * terms[-1] + k.p * terms[-2])
    return terms[n + 1] if n >= -1 else zero


small_poly_coeffs = st.one_of(
    st.integers(-3, 3),
    st.builds(Dyadic, st.integers(-3, 3), st.integers(0, 2)),
    st.builds(GaussianDyadic, st.integers(-2, 2), st.integers(-2, 2)),
)
kernel_weights = st.one_of(
    st.integers(-4, 4),
    st.builds(Dyadic, st.integers(-9, 9), st.integers(0, 3)),
    scalar_coeffs,
    st.builds(Poly, st.lists(small_poly_coeffs, min_size=2, max_size=3)),
)


@settings(max_examples=60, deadline=None)
@given(kernel_weights, kernel_weights, st.integers(-2, 130))
@example(KER_POLY.d, KER_POLY.p, 130)
@example(KER_NUM.d, KER_NUM.p, 129)
@example(Poly((1, I, -2)), Poly((Dyadic(1, 1), 3)), 64)
@example(2, 0, 7)
def test_kernel_term_matches_reference_recurrence(d, p, n):
    k = SymKernel(d, p)
    got = kernel_term(k, n)
    want = reference_kernel_term(k, n)
    assert type(got) is type(want)
    assert got == want


def test_kernel_term_at_the_caps_matches_the_walk():
    for kernel, n in ((KER_POLY, 500), (KER_NUM, 20000)):
        walked = next(itertools.islice(iter_kernel(kernel), n, None))
        assert kernel_term(kernel, n) == walked


# The closed sums (the binomial route and the two-letter sum) run on
# Gaussian-integer vectors.  The ring loops they replaced are the reference:
# powers built one product at a time, summed as ring elements.  The
# verifier's kernels are one-term, so only these tests reach dense terms.

def ring_lift(*values):
    if any(isinstance(v, Poly) for v in values):
        return [v if isinstance(v, Poly) else Poly((v,)) for v in values]
    return [v if isinstance(v, GaussianDyadic) else GaussianDyadic(v) for v in values]


def reference_powers(x, count):
    out = [Poly.ONE if isinstance(x, Poly) else GaussianDyadic.ONE]
    for _ in range(count):
        out.append(out[-1] * x)
    return out


def reference_binomial_sums(d, p, hi):
    d, p = ring_lift(d, p)
    d_pows, p_pows = reference_powers(d, hi), reference_powers(p, hi // 2)
    out = []
    for n in range(hi + 1):
        acc = 0 * d_pows[0]
        for j in range(n // 2 + 1):
            acc = acc + binomial(n - j, j) * p_pows[j] * d_pows[n - 2 * j]
        out.append(acc)
    return out


def reference_two_letter_sums(l1, l2, hi):
    l1, l2 = ring_lift(l1, l2)
    pows1, pows2 = reference_powers(l1, hi), reference_powers(l2, hi)
    out = []
    for n in range(hi + 1):
        acc = 0 * pows1[0]
        for j in range(n + 1):
            acc = acc + pows1[j] * pows2[n - j]
        out.append(acc)
    return out


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        assert type(g) is type(w), n
        assert g == w, n


DENSE_POLY = Poly((GaussianDyadic(Dyadic(1, 1), Dyadic(-3, 2)), 0, I, Dyadic(5, 3)))


@settings(max_examples=20, deadline=None)
@given(kernel_weights, kernel_weights)
@example(0, 3)
@example(Poly((0, 3)), 0)
@example(0, 0)
@example(0, DENSE_POLY)
@example(DENSE_POLY, GaussianDyadic(Dyadic(1, 1), Dyadic(-1, 1)))
@example(KER_POLY.d, KER_POLY.p)
def test_explicit_kernel_matches_ring_loop(d, p):
    want = reference_binomial_sums(d, p, 40)
    kernel = SymKernel(d, p)
    assert_same_terms([kernel_term_explicit(kernel, n) for n in range(41)], want)
    assert_same_terms(list(itertools.islice(iter_kernel_explicit(kernel), 41)), want)


@settings(max_examples=20, deadline=None)
@given(kernel_weights, kernel_weights)
@example(0, 2)
@example(GaussianDyadic(Dyadic(3, 1), -1), 0)
@example(Poly.X, 0)
@example(DENSE_POLY, GaussianDyadic(0, Dyadic(1, 2)))
@example(Poly((Dyadic(1, 1), I)), DENSE_POLY)
def test_two_letter_sum_matches_ring_loop(l1, l2):
    want = reference_two_letter_sums(l1, l2, 40)
    assert_same_terms([two_letter_sn(l1, l2, n) for n in range(41)], want)
    assert_same_terms(list(itertools.islice(iter_two_letter_sn(l1, l2), 41)), want)


def test_closed_sums_build_no_poly_per_summand(monkeypatch):
    # Counts, not timings: extending the powers costs at most two Poly
    # products a term, and the sums themselves add no Poly, so a sum that
    # went back to a ring-element accumulator fails here.
    calls = {"add": 0, "mul": 0}

    def counting(kind, op):
        def wrapped(self, other):
            calls[kind] += 1
            return op(self, other)
        return wrapped

    for name, kind in (("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"),
                       ("__rsub__", "add"), ("__mul__", "mul"), ("__rmul__", "mul")):
        monkeypatch.setattr(Poly, name, counting(kind, getattr(Poly, name)))
    walks = (iter_kernel_explicit(KER_POLY), iter_two_letter_sn(Poly((0, 2)), Poly((1, 1))))
    for walk in walks:
        calls.update(add=0, mul=0)
        terms = list(itertools.islice(walk, 61))
        assert calls["add"] == 0
        assert calls["mul"] <= 2 * len(terms), calls
    assert terms[3] == Poly((1, 5, 11, 15))  # (1 + x)**3 + ... + (2x)**3


# Each closed sum has one body, its stream: a stream from start builds the
# powers below start without summing them, and the single-term function is
# the stream's first item from n.

STREAM_STARTS = (*range(13), 40)


@pytest.mark.parametrize("kernel", (KER_NUM, KER_POLY, FIB),
                         ids=("3,-2", "3x,-2", "1,1"))
def test_explicit_kernel_stream_from_each_start(kernel):
    for start in STREAM_STARTS:
        assert_same_terms(list(itertools.islice(iter_kernel_explicit(kernel, start), 6)),
                          list(itertools.islice(iter_kernel_explicit(kernel), start, start + 6)))


@pytest.mark.parametrize("l1, l2", ((2, 1), (Poly.X, 2), (3, -1)), ids=("2,1", "x,2", "3,-1"))
def test_two_letter_stream_from_each_start(l1, l2):
    for start in STREAM_STARTS:
        assert_same_terms(list(itertools.islice(iter_two_letter_sn(l1, l2, start), 6)),
                          list(itertools.islice(iter_two_letter_sn(l1, l2), start, start + 6)))


@pytest.mark.parametrize("term", (lambda: kernel_term_explicit(KER_POLY, 40),
                                  lambda: two_letter_sn(2, 1, 40)),
                         ids=("kernel_term_explicit", "two_letter_sn"))
def test_single_closed_sum_takes_one_sum(monkeypatch, term):
    sums = []
    product_sum = sf._product_sum

    def counted(products, like):
        sums.append(like)
        return product_sum(products, like)

    monkeypatch.setattr(sf, "_product_sum", counted)
    term()
    assert len(sums) == 1


def test_closed_sum_streams_refuse_a_negative_start():
    with pytest.raises(ValueError, match="two_letter_sn requires n >= 0"):
        next(iter_two_letter_sn(2, 1, -1))
    with pytest.raises(ValueError, match="iter_kernel_explicit requires start >= 0"):
        next(iter_kernel_explicit(KER_NUM, -1))


def test_poly_kernel_small_terms():
    assert kernel_term(KER_POLY, 1) == Poly((0, 3))
    assert kernel_term(KER_POLY, 2) == Poly((-2, 0, 9))


def test_kernel_series_matches_terms():
    series = kernel_series(KER_NUM, 20)
    for n in range(21):
        assert series[n] == kernel_term(KER_NUM, n)


def test_kernel_accepts_dyadic_weights():
    k = SymKernel(Dyadic(3, 1), 1)
    # S_0 = 1, S_1 = 3/2, S_2 = 9/4 + 1 = 13/4
    assert kernel_term(k, 2) == GaussianDyadic(Dyadic(13, 2))


@settings(max_examples=40)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 12))
def test_kernel_routes_agree_property(d, p, n):
    k = SymKernel(d, p)
    rec = kernel_term(k, n)
    assert kernel_term_explicit(k, n) == rec
    assert kernel_series(k, n)[n] == rec


def test_fibonacci_bisection():
    # classical identities: the three decimated series pick out
    # F_{2n}, F_{2n+1}, F_{2n+2}
    odd_back, even, odd_fwd = kernel_even_odd_series(FIB, 5)
    assert gvals(odd_back) == [GaussianDyadic(f) for f in (0, 1, 3, 8, 21, 55)]
    assert gvals(even) == [GaussianDyadic(f) for f in (1, 2, 5, 13, 34, 89)]
    assert gvals(odd_fwd) == [GaussianDyadic(f) for f in (1, 3, 8, 21, 55, 144)]


def test_decimation_number_kernel():
    odd_back, even, odd_fwd = kernel_even_odd_series(KER_NUM, 12)
    for n in range(13):
        assert odd_back[n] == kernel_term(KER_NUM, 2 * n - 1)
        assert even[n] == kernel_term(KER_NUM, 2 * n)
        assert odd_fwd[n] == kernel_term(KER_NUM, 2 * n + 1)


def test_decimation_poly_kernel():
    odd_back, even, odd_fwd = kernel_even_odd_series(KER_POLY, 10)
    for n in range(11):
        assert odd_back[n] == kernel_term(KER_POLY, 2 * n - 1)
        assert even[n] == kernel_term(KER_POLY, 2 * n)
        assert odd_fwd[n] == kernel_term(KER_POLY, 2 * n + 1)


# --------------------------------------------------- generating functions

def test_gf_number_family():
    want = (GaussianDyadic(2, Dyadic(3, 1)), GaussianDyadic(3, 2),
            GaussianDyadic(5, 3), GaussianDyadic(9, 5))
    assert tuple(gf_gml(3)) == want


def test_gf_even_and_odd():
    even = gf_gml_even(2)
    assert gvals(even) == [GaussianDyadic(2, Dyadic(3, 1)), GaussianDyadic(5, 3),
                          GaussianDyadic(17, 9)]
    odd = gf_gml_odd(2)
    assert gvals(odd) == [GaussianDyadic(3, 2), GaussianDyadic(9, 5),
                         GaussianDyadic(33, 17)]


def test_gf_polynomial_families():
    m_series = gf_ml_poly(3)
    assert gvals(m_series) == [Poly((2,)), Poly((0, 3)), Poly((-4, 0, 9)),
                              Poly((0, -18, 0, 27))]
    gm_series = gf_gml_poly(2)
    assert gvals(gm_series) == [
        Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
        Poly((GaussianDyadic(0, 2), 3)),
        Poly((-4, GaussianDyadic(0, 3), 9)),
    ]


# ------------------------------------------------------------ decompositions

def test_number_decomposition():
    assert sym_decompose_gml(0) == GaussianDyadic(2, Dyadic(3, 1))
    assert sym_decompose_gml(1) == GaussianDyadic(3, 2)
    assert sym_decompose_gml(4) == GaussianDyadic(17, 9)


def test_poly_decompositions():
    assert sym_decompose_ml_poly(2) == Poly((-4, 0, 9))
    assert sym_decompose_gml_poly(2) == Poly((-4, GaussianDyadic(0, 3), 9))
    assert sym_decompose_gml_poly(0) == Poly((2, GaussianDyadic(0, Dyadic(3, 1))))


def test_decompositions_match_recurrences():
    from gmlucas.polyfam import gml_poly, ml_poly
    from gmlucas.sequences import gml_recurrence

    for n in range(21):
        assert sym_decompose_gml(n) == gml_recurrence(n)
        assert sym_decompose_ml_poly(n) == ml_poly(n)
        assert sym_decompose_gml_poly(n) == gml_poly(n)


def test_decomposition_walks_match_single_terms():
    # one walk of the kernel against two doubling kernel_term calls per n
    for walk, term, hi in (
            (iter_sym_decompose_gml(), sym_decompose_gml, 60),
            (iter_sym_decompose_ml_poly(), sym_decompose_ml_poly, 40),
            (iter_sym_decompose_gml_poly(), sym_decompose_gml_poly, 40)):
        assert list(itertools.islice(walk, hi + 1)) == [term(n) for n in range(hi + 1)]


def test_gml_poly_decomposition_step_builds_one_poly(monkeypatch):
    # Counts, not timings: the two- and three-term coefficients of the
    # gmpoly decomposition take the fused step, which adds both products
    # into one output, where a S_n + b S_{n-1} would build three Polys.
    s_prev, s_n = itertools.islice(iter_kernel(sf._KERNEL_POLY), 9, 11)
    want = sf._GML_POLY_C0 * s_n + sf._GML_POLY_C1 * s_prev
    built = 0
    make_poly = arith._make_poly

    def counting(re, im, exp):
        nonlocal built
        built += 1
        return make_poly(re, im, exp)

    monkeypatch.setattr(arith, "_make_poly", counting)
    got = sf._gml_poly_from_kernel(s_n, s_prev)
    assert built == 1
    assert (got.re, got.im, got.exp) == (want.re, want.im, want.exp)


def test_decomposition_preconditions():
    for fn in (sym_decompose_gml, sym_decompose_ml_poly, sym_decompose_gml_poly):
        with pytest.raises(ValueError):
            fn(-1)
