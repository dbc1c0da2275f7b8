"""Arithmetic kernel tests: dyadics, Gaussian dyadics, polynomials.

The Fraction-based cross-checks are the independent oracle here: every
Dyadic and GaussianDyadic operation must agree with exact rational
arithmetic done by the standard library.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gmlucas.arith import (
    Dyadic,
    GaussianDyadic,
    Poly,
    binomial,
    linear_step,
    poly_eval,
)

dyadics = st.builds(Dyadic, st.integers(-2**40, 2**40), st.integers(0, 12))
gaussians = st.builds(GaussianDyadic, dyadics, dyadics)
# Integer-valued operands take the operators' own fast paths; draw them often.
dyadic_operands = st.one_of(dyadics, st.builds(Dyadic, st.integers(-99, 99)))
gaussian_operands = st.one_of(
    gaussians, st.builds(GaussianDyadic, st.integers(-99, 99), st.integers(-99, 99))
)
small_polys = st.builds(
    Poly, st.lists(st.integers(-9, 9), min_size=0, max_size=5)
)
# Coefficients over Z[1/2][i] with denominators up to 2**6; zeros, integers
# and pure imaginaries are drawn often so that trimming and each of the
# product's real/imaginary paths are hit.
small_dyadics = st.builds(Dyadic, st.integers(-40, 40), st.integers(0, 6))
small_gaussians = st.builds(GaussianDyadic, small_dyadics, small_dyadics)
poly_coeffs = st.one_of(st.just(0), st.integers(-9, 9), small_gaussians,
                        st.builds(GaussianDyadic, st.just(0), small_dyadics))
gaussian_polys = st.builds(Poly, st.lists(poly_coeffs, min_size=0, max_size=6))


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def assert_canonical(d: Dyadic) -> None:
    # Equality compares (num, exp) pairs, so every result must be canonical.
    assert d.exp == 0 or d.num % 2 == 1, (d.num, d.exp)
    assert d.num != 0 or d.exp == 0, (d.num, d.exp)


# ------------------------------------------------------------------ binomial

def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


# -------------------------------------------------------------------- Dyadic

def test_normalization_cancels_shared_twos():
    for d, pair in ((Dyadic(6, 1), (3, 0)), (Dyadic(12, 2), (3, 0)),
                    (Dyadic(12, 5), (3, 3)), (Dyadic(5, 0), (5, 0))):
        assert (d.num, d.exp) == pair


def test_zero_normalizes_to_exponent_zero():
    d = Dyadic(0, 7)
    assert (d.num, d.exp) == (0, 0)
    assert not d


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@given(dyadics)
def test_normalization_is_canonical(d):
    # num odd or exp zero, and rebuilding from parts is the identity
    assert d.exp == 0 or d.num % 2 == 1
    assert Dyadic(d.num, d.exp) == d


@given(dyadic_operands, dyadic_operands)
def test_add_matches_fractions(a, b):
    assert frac(a + b) == frac(a) + frac(b)
    assert_canonical(a + b)


@given(dyadic_operands, dyadic_operands)
def test_mul_matches_fractions(a, b):
    assert frac(a * b) == frac(a) * frac(b)
    assert_canonical(a * b)


@given(dyadics, dyadics, dyadics)
def test_dyadic_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Dyadic(0) == a
    assert a * Dyadic(1) == a


def test_int_coercion_in_ops():
    assert Dyadic(3, 1) + 1 == Dyadic(5, 1)
    assert 2 * Dyadic(3, 1) == 3


def test_foreign_types_are_not_implemented():
    with pytest.raises(TypeError):
        Dyadic(1) + 0.5
    assert Dyadic(1).__eq__("1") is NotImplemented


def test_inverse_of_power_of_two():
    assert Dyadic(4).inverse() == Dyadic(1, 2)
    assert Dyadic(1, 3).inverse() == Dyadic(8)
    assert Dyadic(-2).inverse() == Dyadic(-1, 1)
    assert Dyadic(1).inverse() == Dyadic(1)


@given(st.integers(-12, 12).filter(lambda t: t != 0), st.integers(0, 12))
def test_inverse_law_on_units(t, e):
    num = (1 << abs(t)) * (1 if t > 0 else -1)
    u = Dyadic(num, e)
    assert u * u.inverse() == Dyadic(1)


def test_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        Dyadic(3).inverse()
    with pytest.raises(ValueError):
        Dyadic(6, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        Dyadic(0).inverse()


def test_integer_protocol():
    assert int(Dyadic(7)) == 7
    with pytest.raises(ValueError):
        int(Dyadic(1, 1))


def test_float_conversion():
    assert float(Dyadic(3, 1)) == 1.5
    assert float(Dyadic(-9, 3)) == -1.125
    assert float(Dyadic(2**200 + 1, 1)) == pytest.approx(2.0**199)


@given(st.integers(-2**1100, 2**1100), st.integers(0, 1200))
@example(2**1100 + 1, 0)   # past the float range: both raise OverflowError
@example(2**1100 + 1, 3)
@example(1, 1100)          # below the least subnormal: 0.0
@example(1, 1075)          # half the least subnormal: a tie, rounded to 0.0
@example(3, 1075)          # 1.5 subnormal units: a tie, rounded to even
def test_float_matches_fraction(num, exp):
    d = Dyadic(num, exp)
    try:
        want = float(Fraction(num, 2**exp))
    except OverflowError:
        with pytest.raises(OverflowError):
            float(d)
    else:
        assert float(d) == want


def test_hash_agrees_with_equal_ints():
    assert Dyadic(5) == 5
    assert hash(Dyadic(5)) == hash(5)
    table = {Dyadic(5): "hit"}
    assert table[5] == "hit"


def test_dyadic_text():
    assert str(Dyadic(5)) == "5"
    assert str(Dyadic(0)) == "0"
    assert str(Dyadic(3, 1)) == "3/2"
    assert str(Dyadic(9, 3)) == "9/2^3"
    assert str(Dyadic(-7, 4)) == "-7/2^4"


# ------------------------------------------------------------ GaussianDyadic

def test_gaussian_product_oracle():
    # (3 + 2i)(1 + i) = 3 + 3i + 2i - 2 = 1 + 5i
    assert GaussianDyadic(3, 2) * GaussianDyadic(1, 1) == GaussianDyadic(1, 5)


@given(gaussian_operands, gaussian_operands)
def test_gaussian_ops_match_fractions(a, b):
    ar, ai, br, bi = frac(a.re), frac(a.im), frac(b.re), frac(b.im)
    for got, want in (
        (a + b, (ar + br, ai + bi)),
        (a - b, (ar - br, ai - bi)),
        (a * b, (ar * br - ai * bi, ar * bi + ai * br)),
    ):
        assert (frac(got.re), frac(got.im)) == want
        assert_canonical(got.re)
        assert_canonical(got.im)


def test_i_squared_is_minus_one():
    assert GaussianDyadic.I * GaussianDyadic.I == GaussianDyadic(-1)
    assert GaussianDyadic.I ** 2 == GaussianDyadic(-1)
    assert (GaussianDyadic(1, 1)) ** 4 == GaussianDyadic(-4)


def test_conj_and_norm():
    g = GaussianDyadic(3, 2)
    assert g.conj() == GaussianDyadic(3, -2)
    assert g.norm() == Dyadic(13)
    assert g * g.conj() == GaussianDyadic(13)


@given(gaussians)
def test_norm_is_multiplicative_under_conj(g):
    assert g * g.conj() == GaussianDyadic(g.norm())


def test_gaussian_inverse_of_units():
    u = GaussianDyadic(1, 1)  # norm 2
    assert u.inverse() == GaussianDyadic(Dyadic(1, 1), Dyadic(-1, 1))
    assert u * u.inverse() == GaussianDyadic.ONE
    v = GaussianDyadic(0, 2)  # norm 4
    assert v * v.inverse() == GaussianDyadic.ONE
    w = GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1))  # norm 1/2
    assert w * w.inverse() == GaussianDyadic.ONE


def test_gaussian_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        GaussianDyadic(3, 2).inverse()  # norm 13
    with pytest.raises(ZeroDivisionError):
        GaussianDyadic.ZERO.inverse()
    with pytest.raises(ValueError):
        GaussianDyadic(5).inverse() ** 1


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + GaussianDyadic.ZERO == a
    assert a * GaussianDyadic.ONE == a
    assert a + (-a) == GaussianDyadic.ZERO


@given(gaussians, st.integers(0, 8))
def test_square_and_multiply_matches_repeated_product(g, k):
    by_hand = GaussianDyadic.ONE
    for _ in range(k):
        by_hand = by_hand * g
    assert g**k == by_hand


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        GaussianDyadic(2) ** -1


@given(st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_complex_conversion_matches_float_arithmetic(a, b, c, d):
    # Small integers: complex arithmetic over floats is exact here.
    x = GaussianDyadic(a, b)
    y = GaussianDyadic(c, d)
    assert complex(x * y) == complex(x) * complex(y)
    assert complex(x + y) == complex(x) + complex(y)


@given(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80), st.integers(0, 1100))
@example(3, -5, 1)
@example(2**1000 + 1, -(2**900) - 1, 0)
@example(1, -3, 1074)
@example(2**1100 + 1, 2**1090 - 1, 1080)
def test_complex_conversion_is_correctly_rounded(a, b, exp):
    # Small, large (past 2**53, so rounded), subnormal and high-exponent
    # values each round as the Fraction of each part does.
    x = GaussianDyadic(Dyadic(a, exp), Dyadic(b, exp))
    assert complex(x) == complex(float(Fraction(a, 2**exp)), float(Fraction(b, 2**exp)))


def test_gaussian_text():
    assert str(GaussianDyadic(2, Dyadic(3, 1))) == "2+3i/2"
    assert str(GaussianDyadic(3, -2)) == "3-2i"
    assert str(GaussianDyadic(0, 1)) == "i"
    assert str(GaussianDyadic(0, -1)) == "-i"
    assert str(GaussianDyadic(5)) == "5"
    assert str(GaussianDyadic(0, Dyadic(3, 3))) == "3i/2^3"
    assert str(GaussianDyadic(1, -1)) == "1-i"
    assert str(GaussianDyadic(Dyadic(5, 2), Dyadic(9, 3))) == "5/2^2+9i/2^3"


def test_gaussian_hash_matches_real_values():
    assert GaussianDyadic(5) == 5
    assert hash(GaussianDyadic(5)) == hash(Dyadic(5)) == hash(5)
    assert GaussianDyadic(Dyadic(3, 1)) == Dyadic(3, 1)


def test_gaussian_part_types_guarded():
    with pytest.raises(TypeError):
        GaussianDyadic(0.5, 0)


def test_bools_are_rejected():
    # bool is an int subclass; without a guard Dyadic(True) printed "True".
    for build in (lambda: Dyadic(True), lambda: Dyadic(False, 2),
                  lambda: Dyadic(1) + True, lambda: Dyadic(3, 1) * False,
                  lambda: GaussianDyadic(True), lambda: GaussianDyadic(1, False),
                  lambda: GaussianDyadic(2) - True,
                  lambda: Poly((1, True)), lambda: Poly((2,)) * True):
        with pytest.raises(TypeError):
            build()
    # Not a ring value, so comparing with one answers instead of raising.
    for value in (Dyadic(1), GaussianDyadic(1), Poly((1,)), Poly.ZERO):
        assert value != True and not value == True
        assert value not in (True, False)


def test_non_int_numerators_are_rejected():
    # Dyadic(2.5) printed "2.5", and Dyadic(5.0, 1) failed inside its
    # normalization with an unrelated TypeError about &.
    for build in (lambda: Dyadic(2.5), lambda: Dyadic(5.0, 1), lambda: Dyadic(Fraction(1, 2)),
                  lambda: GaussianDyadic(Dyadic(2.5))):
        with pytest.raises(TypeError, match="^Dyadic numerator must be an int, not "):
            build()


# The reference Gaussian: each part is its own Fraction, and every
# operation is done part by part in Fraction arithmetic.  Text, repr and
# hash are spelled out from each part's (num, exp), read off the Fraction.

def ref_den_text(exp: int) -> str:
    return "2" if exp == 1 else f"2^{exp}"


def ref_pair(f: Fraction) -> tuple:
    """(num, exp) with f == num / 2**exp, num odd or exp == 0."""
    exp = f.denominator.bit_length() - 1
    assert f.denominator == 1 << exp, f
    return f.numerator, exp


def ref_part_text(f: Fraction) -> str:
    num, exp = ref_pair(f)
    return str(num) if exp == 0 else f"{num}/{ref_den_text(exp)}"


class RefGaussian:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = frac(re) if isinstance(re, Dyadic) else Fraction(re)
        self.im = frac(im) if isinstance(im, Dyadic) else Fraction(im)

    def __add__(self, other):
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return RefGaussian(a * c - b * d, a * d + b * c)

    def mul_pow2(self, k):
        return RefGaussian(self.re * 2**k, self.im * 2**k)

    def div_pow2(self, k):
        return RefGaussian(self.re / 2**k, self.im / 2**k)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("zero")
        if n.numerator & (n.numerator - 1):
            raise ValueError("not a unit")
        return RefGaussian(self.re / n, -self.im / n)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value hashes like the int it equals, else like (num, exp);
        # a tuple hashes by its items' hashes, so the parts enter as Dyadics.
        num, exp = ref_pair(self.re)
        if self.im == 0:
            return hash(num) if exp == 0 else hash((num, exp))
        return hash((Dyadic(num, exp), Dyadic(*ref_pair(self.im))))

    def __str__(self):
        if self.im == 0:
            return ref_part_text(self.re)
        num, exp = ref_pair(self.im)
        mag = abs(num)
        imag = ("-" if num < 0 else "") + ("i" if mag == 1 else f"{mag}i")
        if exp:
            imag += "/" + ref_den_text(exp)
        if self.re == 0:
            return imag
        real = ref_part_text(self.re)
        return f"{real}{imag}" if imag.startswith("-") else f"{real}+{imag}"

    def __repr__(self):
        (a, e), (b, f) = ref_pair(self.re), ref_pair(self.im)
        return f"GaussianDyadic(Dyadic({a}, {e}), Dyadic({b}, {f}))"


odd_ints = st.integers(-40, 40).map(lambda k: 2 * k + 1)


@st.composite
def gaussian_parts(draw):
    """A (re, im) pair of Dyadics.  Integers, pure imaginaries and pairs of
    odd parts over one exponent (the multiples of 1+i, whose products
    cancel a two, as (1+i)**2 / 2 = i) are drawn often."""
    shape = draw(st.sampled_from(("any", "big", "int", "imag", "odd-pair", "zero")))
    if shape == "int":
        return Dyadic(draw(st.integers(-99, 99))), Dyadic(0)
    if shape == "imag":
        return Dyadic(0), draw(small_dyadics)
    if shape == "odd-pair":
        e = draw(st.integers(0, 6))
        return Dyadic(draw(odd_ints), e), Dyadic(draw(odd_ints), e)
    if shape == "zero":
        return Dyadic(0), Dyadic(0)
    if shape == "big":
        return draw(dyadics), draw(dyadics)
    return draw(small_dyadics), draw(small_dyadics)


def assert_gaussian_canonical(g: GaussianDyadic) -> None:
    assert g.exp == 0 or (g.a | g.b) & 1, (g.a, g.b, g.exp)
    assert g.a or g.b or g.exp == 0, (g.a, g.b, g.exp)
    assert GaussianDyadic(g.re, g.im) == g


def assert_matches_reference(got: GaussianDyadic, want: RefGaussian) -> None:
    assert_gaussian_canonical(got)
    assert (got.re.num, got.re.exp) == ref_pair(want.re)
    assert (got.im.num, got.im.exp) == ref_pair(want.im)
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert repr(got) == repr(want)


@given(gaussian_parts(), gaussian_parts())
def test_gaussian_ops_match_reference(x, y):
    a, b = GaussianDyadic(*x), GaussianDyadic(*y)
    ra, rb = RefGaussian(*x), RefGaussian(*y)
    assert_matches_reference(a, ra)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (a ** 0, RefGaussian(1)), (a ** 3, ra * ra * ra),
                      (-a, -ra), (a.conj(), RefGaussian(ra.re, -ra.im))):
        assert_matches_reference(got, want)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@given(gaussian_parts(), st.integers(-9, 9), small_dyadics)
def test_gaussian_scalar_operands_match_reference(x, k, d):
    a, ra = GaussianDyadic(*x), RefGaussian(*x)
    rk, rd = RefGaussian(k), RefGaussian(d)
    for got, want in ((a + k, ra + rk), (k + a, rk + ra), (a - k, ra - rk),
                      (k - a, rk - ra), (k * a, rk * ra), (a * d, ra * rd),
                      (d - a, rd - ra), (a + d, ra + rd)):
        assert_matches_reference(got, want)


@given(gaussian_parts(), st.integers(0, 8))
def test_gaussian_pow2_shifts_match_reference(x, k):
    a, ra = GaussianDyadic(*x), RefGaussian(*x)
    assert_matches_reference(a.mul_pow2(k), ra.mul_pow2(k))
    assert_matches_reference(a.div_pow2(k), ra.div_pow2(k))
    # A shift that keeps both numerators and moves only exp is a new value.
    assert (a.div_pow2(k) == a) == (k == 0 or not a)


@given(st.integers(0, 3), st.integers(0, 6), st.integers(-6, 6))
def test_gaussian_inverse_of_units_matches_reference(m, k, t):
    # Every unit of Z[1/2][i] is i**m (1+i)**k 2**t.
    u = GaussianDyadic.I ** m * GaussianDyadic(1, 1) ** k
    u = u.mul_pow2(t) if t >= 0 else u.div_pow2(-t)
    ru = RefGaussian(u.re, u.im)
    assert_matches_reference(u.inverse(), ru.inverse())
    assert u * u.inverse() == GaussianDyadic.ONE


@given(gaussian_parts())
def test_gaussian_inverse_refusals_match_reference(x):
    a, ra = GaussianDyadic(*x), RefGaussian(*x)
    try:
        want = ra.inverse()
    except (ValueError, ZeroDivisionError) as err:
        with pytest.raises(type(err)):
            a.inverse()
    else:
        assert_matches_reference(a.inverse(), want)


def test_gaussian_products_cancel_shared_twos():
    half_unit = GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1))  # (1+i)/2
    for got, parts in ((half_unit * GaussianDyadic(1, 1), (0, 1, 0)),  # i
                       (half_unit * half_unit, (0, 1, 1)),  # i/2
                       (half_unit * GaussianDyadic(1, -1), (1, 0, 0)),  # 1
                       (half_unit + half_unit, (1, 1, 0)),
                       (half_unit - half_unit, (0, 0, 0)),
                       (GaussianDyadic(4, 6).div_pow2(3), (2, 3, 2))):
        assert (got.a, got.b, got.exp) == parts
        assert_gaussian_canonical(got)


def test_gaussian_storage_is_canonical():
    g = GaussianDyadic(Dyadic(3, 1), Dyadic(5, 3))
    assert (g.a, g.b, g.exp) == (12, 5, 3)
    assert ((g.re.num, g.re.exp), (g.im.num, g.im.exp)) == ((3, 1), (5, 3))
    assert (GaussianDyadic.ZERO.a, GaussianDyadic.ZERO.b, GaussianDyadic.ZERO.exp) == (0, 0, 0)
    assert GaussianDyadic(Dyadic(4, 1), 6).exp == 0


def test_gaussian_parts_are_read_only():
    g = GaussianDyadic(1, 2)
    with pytest.raises(AttributeError):
        g.re = Dyadic(3)


def test_one_equality_rule_across_ring_types():
    # Equal values compare equal and hash alike whatever their types; a
    # constant polynomial is the scalar it holds.
    classes = (
        (5, Dyadic(5), GaussianDyadic(5), Poly((5,))),
        (0, Dyadic(0), GaussianDyadic.ZERO, Poly.ZERO, Poly(())),
        (Dyadic(3, 1), GaussianDyadic(Dyadic(3, 1)), Poly((Dyadic(3, 1),))),
        (GaussianDyadic(1, 1), Poly((GaussianDyadic(1, 1),))),
        (GaussianDyadic(0, Dyadic(1, 2)), Poly((GaussianDyadic(0, Dyadic(1, 2)),))),
    )
    for values in classes:
        for x in values:
            for y in values:
                assert x == y and not x != y, (x, y)
                assert hash(x) == hash(y), (x, y)
    for i, values in enumerate(classes):
        for other in classes[i + 1:]:
            for x in values:
                for y in other:
                    assert x != y and not x == y, (x, y)
    for x in (Poly((5, 1)), Poly((0, 5))):
        for y in classes[0]:
            assert x != y and y != x
    table = {Poly((5,)): "hit"}
    assert table[5] == table[Dyadic(5)] == table[GaussianDyadic(5)] == "hit"


# ---------------------------------------------------------------------- Poly

def test_poly_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == Poly((1, 2)).coeffs
    assert Poly((1, 2, 0, 0)).degree == 1
    assert not Poly(())
    assert str(Poly(())) == "0"


def test_poly_product_oracle():
    # (1 + x)(1 - x) = 1 - x**2
    assert Poly((1, 1)) * Poly((1, -1)) == Poly((1, 0, -1))


def test_poly_powers():
    assert Poly.X ** 3 == Poly((0, 0, 0, 1))
    assert Poly((1, 1)) ** 2 == Poly((1, 2, 1))
    assert Poly((1, 1)) ** 0 == Poly.ONE


def test_poly_scalar_coercion():
    assert 2 * Poly((0, 1)) == Poly((0, 2))
    assert Poly((1, 1)) + 1 == Poly((2, 1))
    assert 1 - Poly((0, 1)) == Poly((1, -1))
    assert GaussianDyadic.I * Poly((2,)) == Poly((GaussianDyadic(0, 2),))


def test_poly_coeff_accessor():
    p = Poly((1, 2))
    assert p.coeff(0) == GaussianDyadic(1)
    assert p.coeff(5) == GaussianDyadic.ZERO
    with pytest.raises(IndexError):
        p.coeff(-1)


def test_poly_evaluation_is_exact():
    p = Poly((1, 2, 3))
    assert p(2) == GaussianDyadic(17)
    assert poly_eval(p, 2) == GaussianDyadic(17)
    assert Poly((0, 3))(Dyadic(1, 1)) == GaussianDyadic(Dyadic(3, 1))
    assert Poly((0, 0, 1))(GaussianDyadic.I) == GaussianDyadic(-1)


def test_poly_eval_type_guards():
    with pytest.raises(TypeError):
        poly_eval("x", 1)
    with pytest.raises(TypeError):
        Poly((1,))(0.5)


def test_poly_inverse_constants_only():
    assert Poly((2,)).inverse() == Poly((Dyadic(1, 1),))
    with pytest.raises(ValueError):
        Poly((0, 1)).inverse()
    with pytest.raises(ZeroDivisionError):
        Poly.ZERO.inverse()
    with pytest.raises(ValueError):
        Poly((3,)).inverse()


def test_poly_pow2_shifts():
    p = Poly((1, 3))
    assert p.div_pow2(1) == Poly((Dyadic(1, 1), Dyadic(3, 1)))
    assert p.div_pow2(2).mul_pow2(2) == p


@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Poly.ZERO == a
    assert a * Poly.ONE == a
    assert a + (-a) == Poly.ZERO


@given(small_polys, small_polys, st.integers(-4, 4))
def test_poly_ops_commute_with_evaluation(a, b, x):
    gx = GaussianDyadic(x)
    assert (a + b)(gx) == a(gx) + b(gx)
    assert (a * b)(gx) == a(gx) * b(gx)


def test_poly_text():
    assert str(Poly((-4, GaussianDyadic(0, 3), 9))) == "-4 + 3ix + 9x^2"
    assert str(Poly((0, 3))) == "3x"
    assert str(Poly((2, GaussianDyadic(0, Dyadic(3, 1))))) == "2 + (3i/2)x"
    assert str(Poly((0, -18, 0, 27))) == "-18x + 27x^3"
    assert str(Poly((1, GaussianDyadic(1, 1)))) == "1 + (1+i)x"
    assert str(Poly((0, 1))) == "x"
    assert str(Poly((0, -1))) == "-x"
    assert str(Poly((Dyadic(1, 1),))) == "1/2"
    assert str(Poly((0, Dyadic(-3, 1)))) == "-(3/2)x"
    assert str(Poly((0, 0, GaussianDyadic(0, 1)))) == "ix^2"


# Reference schoolbook arithmetic on GaussianDyadic coefficient tuples: the
# object-per-coefficient algorithm that Poly's int vectors must reproduce.

def ref_trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1) -> tuple:
    size = max(len(a), len(b))
    a = list(a) + [GaussianDyadic.ZERO] * (size - len(a))
    b = list(b) + [GaussianDyadic.ZERO] * (size - len(b))
    return ref_trim(x + y if sign > 0 else x - y for x, y in zip(a, b))


def ref_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [GaussianDyadic.ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return ref_trim(out)


def ref_eval(a, x) -> GaussianDyadic:
    acc = GaussianDyadic.ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def assert_poly_canonical(p: Poly) -> None:
    assert len(p.re) == len(p.im)
    assert not p.re or p.re[-1] or p.im[-1], (p.re, p.im)
    assert p.exp == 0 or any(c & 1 for c in p.re + p.im), (p.re, p.im, p.exp)
    assert p.re or p.exp == 0
    assert Poly(p.coeffs) == p
    assert hash(Poly(p.coeffs)) == hash(p)


@given(gaussian_polys, gaussian_polys)
# Each case of the shared Z[i] loop: real times real; a real term, an
# imaginary term and a complex term over a complex b; a zero term between
# two nonzero ones, over a complex b and over a real one.
@example(Poly((1, -2)), Poly((3, 0, Dyadic(5, 1))))
@example(Poly((3, -1)), Poly((GaussianDyadic(1, 2), GaussianDyadic(0, -1), 4)))
@example(Poly((GaussianDyadic(0, 2), GaussianDyadic(0, Dyadic(-1, 1)))),
         Poly((GaussianDyadic(1, 2), 5, GaussianDyadic(0, 3))))
@example(Poly((GaussianDyadic(1, 1), GaussianDyadic(2, -3))),
         Poly((GaussianDyadic(Dyadic(1, 1), 2), GaussianDyadic(-1, 4), 7)))
@example(Poly((1, 0, GaussianDyadic(0, 2))),
         Poly((GaussianDyadic(1, 1), 3, GaussianDyadic(0, -1))))
@example(Poly((GaussianDyadic(1, 1), 0, GaussianDyadic(0, 2))), Poly((3, -1, 2)))
def test_poly_ops_match_reference(a, b):
    for got, want in (
        (a + b, ref_add(a.coeffs, b.coeffs)),
        (a - b, ref_add(a.coeffs, b.coeffs, -1)),
        (a * b, ref_mul(a.coeffs, b.coeffs)),
        # The shared power must start from the ONE of its own class.
        (a ** 0, (GaussianDyadic.ONE,)),
        (a ** 3, ref_mul(a.coeffs, ref_mul(a.coeffs, a.coeffs))),
        (-a, tuple(-c for c in a.coeffs)),
    ):
        assert got.coeffs == want
        assert_poly_canonical(got)


# One-term operands c x**j, like the recurrence multipliers 3x and -2 and
# the powers d**k: c is real, imaginary or both, often with a denominator.
nonzero_dyadics = st.builds(Dyadic, st.integers(-40, 40).filter(bool),
                            st.integers(0, 6))
one_term_coeffs = st.one_of(
    st.builds(GaussianDyadic, nonzero_dyadics),
    st.builds(GaussianDyadic, st.just(0), nonzero_dyadics),
    st.builds(GaussianDyadic, nonzero_dyadics, nonzero_dyadics),
)
one_term_polys = st.one_of(
    st.just(Poly.ZERO),
    st.builds(lambda c, j: Poly((0,) * j + (c,)), one_term_coeffs,
              st.integers(0, 6)),
)


@given(one_term_polys, gaussian_polys)
# i + x is not one term: its lower coefficient is imaginary only.
@example(Poly.X, Poly((GaussianDyadic.I, 1)))
def test_one_term_products_match_reference(t, b):
    want = ref_mul(t.coeffs, b.coeffs)
    for got in (t * b, b * t):
        assert got.coeffs == want
        assert_poly_canonical(got)


@given(st.one_of(one_term_coeffs, st.just(GaussianDyadic.ZERO)), gaussian_polys)
# (1 + i)/2 times a multiple of 1 + i shares a two with the denominator.
@example(GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1)), Poly((GaussianDyadic(1, 1),)))
def test_scalar_products_match_reference(c, b):
    # A GaussianDyadic factor scales the Poly without becoming one.
    want = ref_mul((c,), b.coeffs)
    for got in (c * b, b * c):
        assert type(got) is Poly
        assert got.coeffs == want
        assert_poly_canonical(got)


@given(gaussian_polys, small_gaussians)
def test_poly_eval_matches_reference(a, x):
    assert a(x) == ref_eval(a.coeffs, x)
    assert poly_eval(a, 3) == ref_eval(a.coeffs, GaussianDyadic(3))


# x = 1 sums each part; every other point, real integers included, takes
# the Z[i] Horner chain.
eval_points = st.one_of(st.sampled_from((1, -1, 0, 2, 3)), st.integers(-99, 99),
                        small_dyadics, small_gaussians)


@given(gaussian_polys, eval_points)
# Odd parts over 2 whose sum (x = 1) or alternating sum (x = -1) is even.
@example(Poly((Dyadic(1, 1), GaussianDyadic(Dyadic(3, 1), 1))), 1)
@example(Poly((Dyadic(1, 1), Dyadic(1, 1))), -1)
# Real integer points on a complex poly.
@example(Poly((GaussianDyadic(1, 2), GaussianDyadic(Dyadic(3, 1), -1), GaussianDyadic(0, 5))), 2)
@example(Poly((GaussianDyadic(1, 2), GaussianDyadic(Dyadic(3, 1), -1), GaussianDyadic(0, 5))), -3)
def test_poly_eval_at_real_and_dyadic_points_matches_reference(a, x):
    got = a(x)
    assert_gaussian_canonical(got)
    assert got == ref_eval(a.coeffs, GaussianDyadic._coerce(x))


@given(gaussian_polys, st.integers(0, 8))
def test_poly_pow2_shifts_match_reference(a, k):
    for got, want in ((a.mul_pow2(k), tuple(c.mul_pow2(k) for c in a.coeffs)),
                      (a.div_pow2(k), tuple(c.div_pow2(k) for c in a.coeffs))):
        assert got.coeffs == want
        assert_poly_canonical(got)


@given(gaussian_polys, gaussian_polys)
def test_equal_polys_hash_equal(a, b):
    assert_poly_canonical(a)
    c = (a + b) - b
    assert c == a
    assert hash(c) == hash(a)
    assert (a == b) == (a.coeffs == b.coeffs)
    # A change to any one of the three parts makes a different polynomial.
    for d in (GaussianDyadic.I, Dyadic(1, 7), 1):
        assert a + Poly((d,)) != a


def test_poly_product_cancels_shared_twos():
    # (1+i)/2 has an odd part, but its square (1+i)**2 / 4 = 2i/4 = i/2 does not
    # keep the factor 4: the product must renormalize to one factor of two.
    half_unit = GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1))
    p = Poly((half_unit, half_unit))
    square = p * p
    assert (square.re, square.im, square.exp) == ((0, 0, 0), (1, 2, 1), 1)
    assert square == Poly((GaussianDyadic(0, Dyadic(1, 1)), GaussianDyadic.I,
                           GaussianDyadic(0, Dyadic(1, 1))))
    # (1+i)/2 * (1-i) = 1: all the twos cancel.
    unit = Poly((half_unit,)) * Poly((GaussianDyadic(1, -1),))
    assert (unit.re, unit.im, unit.exp) == ((1,), (0,), 0)
    assert_poly_canonical(square)
    assert_poly_canonical(unit)


def test_poly_storage_is_canonical():
    p = Poly((Dyadic(2, 1), GaussianDyadic(0, Dyadic(3, 2)), 0))
    assert (p.re, p.im, p.exp) == ((4, 0), (0, 3), 2)
    assert (Poly.ZERO.re, Poly.ZERO.im, Poly.ZERO.exp) == ((), (), 0)
    assert Poly((Dyadic(2, 1), 4)).exp == 0
    assert Poly((0, 0)) == Poly.ZERO


def test_poly_equality_is_strict_about_type():
    # Ring scalars compare as constants; anything else is not a ring value.
    assert Poly((5,)).__eq__("5") is NotImplemented
    assert Poly((5,)).__eq__(5.0) is NotImplemented
    assert Poly((5,)) != Poly((5, 1))


def test_poly_coefficient_type_guard():
    with pytest.raises(TypeError):
        Poly((0.5,))


# linear_step: the fused a x + b y that the recurrence walks and the
# decompositions take.  Coefficients are scalars of every type, zeros
# included, and over Poly also polys of one term c x**j or of several, with
# dyadic and Gaussian coefficients; the terms are drawn with dyadic
# exponents, Gaussian parts and the zero polynomial.
step_scalars = st.one_of(st.integers(-9, 9), small_dyadics, one_term_coeffs,
                         st.just(GaussianDyadic.ZERO),
                         st.builds(lambda parts: GaussianDyadic(*parts), gaussian_parts()))
step_terms = st.builds(lambda parts: GaussianDyadic(*parts), gaussian_parts())
half_unit = GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1))


@given(step_scalars, step_scalars, step_terms, step_terms)
# (1+i)/2 times (1+i)/2 is i/2: the product cancels a two.
@example(half_unit, 0, half_unit, GaussianDyadic.ZERO)
# 1/2 + 1/2 = 1: the sum cancels every two of the denominator.
@example(Dyadic(1, 1), Dyadic(1, 1), GaussianDyadic(1), GaussianDyadic(1))
# 3 (3/2) - 2 (9/4) = 0 over 2**2.
@example(3, -2, GaussianDyadic(Dyadic(3, 1)), GaussianDyadic(Dyadic(9, 2)))
def test_gaussian_linear_step_matches_operators(a, b, x, y):
    got = linear_step(a, b, GaussianDyadic)(x, y)
    want = a * x + b * y
    assert type(got) is GaussianDyadic
    assert (got.a, got.b, got.exp) == (want.a, want.b, want.exp)
    assert_gaussian_canonical(got)


step_coeffs = st.one_of(step_scalars, one_term_polys, gaussian_polys)


@given(step_coeffs, step_coeffs, gaussian_polys, gaussian_polys)
@example(Poly.X * half_unit, 0, Poly((half_unit, half_unit)), Poly.ZERO)
@example(Dyadic(1, 1), Dyadic(1, 1), Poly((1, 3)), Poly((1, -1)))
# The recurrence taps: 3x m_1 - 2 m_0 and the backward (3x/2) x_0 - (1/2) x_1.
@example(Poly((0, 3)), -2, Poly((0, 3)), Poly((2,)))
@example(Poly((0, Dyadic(3, 1))), Dyadic(-1, 1), Poly((2,)), Poly((0, 3)))
# m_n + i m_{n-1}, the relation; both terms zero.
@example(1, GaussianDyadic.I, Poly((-4, 0, 9)), Poly((0, 3)))
@example(Poly((0, 3)), -2, Poly.ZERO, Poly.ZERO)
# Complex a and b over complex x and y.
@example(GaussianDyadic(1, 2), Poly((0, GaussianDyadic(Dyadic(3, 1), -1))),
         Poly((GaussianDyadic(1, 1), 2)), Poly((GaussianDyadic(0, 3), GaussianDyadic(1, -1))))
# Two-term a (1 + x) and b (i + x).
@example(Poly((1, 1)), -2, Poly((2, 3)), Poly((0, Dyadic(1, 1))))
@example(Poly((0, 3)), Poly((GaussianDyadic.I, 1)), Poly((1, 2)), Poly((GaussianDyadic(1, 1),)))
# The gmpoly decomposition: 2 + (3i/2)x and i(2 - (9/2)x**2) - 3x over S_n, S_{n-1}.
@example(Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
         Poly((GaussianDyadic(0, 2), -3, GaussianDyadic(0, Dyadic(-9, 1)))),
         Poly((-4, 0, 9)), Poly((0, 3)))
def test_poly_linear_step_matches_operators(a, b, x, y):
    got = linear_step(a, b, Poly)(x, y)
    want = a * x + b * y
    assert type(got) is Poly
    assert (got.re, got.im, got.exp) == (want.re, want.im, want.exp)
    assert got.coeffs == ref_add(ref_mul(Poly._coerce(a).coeffs, x.coeffs),
                                 ref_mul(Poly._coerce(b).coeffs, y.coeffs))
    assert_poly_canonical(got)


@pytest.mark.parametrize("a, b, x, y", (
    (3, -2, 5, 7),                                            # the m walks stay on ints
    (3, -2, Dyadic(3, 1), Dyadic(5, 2)),
    (Poly((0, 3)), -2, GaussianDyadic(1, 2), GaussianDyadic(3)),  # a Poly is no scalar
    (Poly((3,)), -2, GaussianDyadic(1, 2), GaussianDyadic(3)),    # not even a constant one
    (0.5, 1, Poly((1, 2)), Poly((3,))),
    (True, 1, GaussianDyadic(1, 2), GaussianDyadic(3)),
), ids=("int ring", "Dyadic ring", "poly over scalars",
        "constant poly over scalars", "float", "bool"))
def test_linear_step_falls_back_to_the_operators(a, b, x, y):
    # Outside ring coefficients over Poly or GaussianDyadic the step is
    # a x + b y itself: the same value and type, or the same TypeError.
    step = linear_step(a, b, type(x))
    try:
        want = a * x + b * y
    except TypeError:
        with pytest.raises(TypeError):
            step(x, y)
        return
    got = step(x, y)
    assert type(got) is type(want) and got == want
