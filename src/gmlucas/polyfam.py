"""Polynomial analogues of the number families.

m_0(x) = 2, m_1(x) = 3x, m_n(x) = 3x m_{n-1}(x) - 2 m_{n-2}(x); the Gaussian
family starts from Gm_0(x) = 2 + (3i/2)x and Gm_1(x) = 3x + 2i and satisfies
Gm_n(x) = m_n(x) + i m_{n-1}(x) for n >= 1.  Specializing x = 1 collapses
both families onto the number sequences.  Each route returns its Poly, and
the recurrence routes and iterators walk sequences.walk with d = 3x, p = -2.

The characteristic roots (3x +- sqrt(9x**2 - 8)) / 2 are irrational in x, so
the closed form is exposed only as a floating point spot check
(binet_numeric); every exact route stays in Z[1/2][i][x].

Each walked route and the Gm explicit route is one stream, iter_*(start),
that refuses a start below the route's first n.  A walk gets to start
without building an output, and the explicit stream pairs one m sum per n
through _PLUS_I, as the relation route pairs walk terms.  A single-term
function is its stream's first item from n, so a term and a sweep run one
code path.
"""

from __future__ import annotations

import cmath
import itertools
from collections.abc import Iterator

from .arith import Dyadic, GaussianDyadic, Poly, linear_step
from .sequences import explicit_summand, walk


# Recurrence seeds.
MP0 = Poly((2,))
MP1 = Poly((0, 3))
GMP0 = Poly((2, GaussianDyadic(0, Dyadic(3, 1))))
GMP1 = Poly((GaussianDyadic(0, 2), 3))

_THREE_X = Poly((0, 3))
_HALF_I = GaussianDyadic(0, Dyadic(1, 1))
# (m_n(x), m_{n-1}(x)) -> m_n(x) + i m_{n-1}(x), and (m_n(x), m_{n+1}(x)) ->
# m_n(x) + (i/2) m_{n+1}(x), each in one pass.
_PLUS_I = linear_step(1, GaussianDyadic.I, Poly)
_PLUS_HALF_I = linear_step(1, _HALF_I, Poly)


def iter_ml_poly(start: int = 0) -> Iterator[Poly]:
    """Yields m_start(x), m_{start+1}(x), ... from one walk of the recurrence."""
    if start < 0:
        raise ValueError("ml_poly requires n >= 0")
    yield from itertools.islice(walk(MP0, MP1, _THREE_X, -2), start, None)


def iter_gml_poly(start: int = 0) -> Iterator[Poly]:
    """Yields Gm_start(x), Gm_{start+1}(x), ... from one walk of the recurrence."""
    if start < 0:
        raise ValueError("gml_poly requires n >= 0")
    yield from itertools.islice(walk(GMP0, GMP1, _THREE_X, -2), start, None)


def iter_gml_poly_from_ml(start: int = 1) -> Iterator[Poly]:
    """Yields Gm_n(x) = m_n(x) + i m_{n-1}(x) from n = start on, from one walk of m."""
    if start < 1:
        raise ValueError("gml_poly_from_ml requires n >= 1")
    for m_prev, m_n in itertools.pairwise(iter_ml_poly(start - 1)):
        yield _PLUS_I(m_n, m_prev)


def iter_ml_poly_negative(start: int = 1) -> Iterator[Poly]:
    """Yields m_{-n}(x) = m_n(x) / 2**n from n = start on (backward recurrence closure)."""
    if start < 1:
        raise ValueError("ml_poly_negative requires n >= 1")
    for n, m_n in enumerate(iter_ml_poly(start), start):
        yield m_n.div_pow2(n)


def iter_gml_poly_negative(start: int = 1) -> Iterator[Poly]:
    """Yields Gm_{-n}(x) = (m_n(x) + (i/2) m_{n+1}(x)) / 2**n from n = start on."""
    if start < 1:
        raise ValueError("gml_poly_negative requires n >= 1")
    for n, (m_n, m_next) in enumerate(itertools.pairwise(iter_ml_poly(start)), start):
        yield _PLUS_HALF_I(m_n, m_next).div_pow2(n)


def ml_poly(n: int) -> Poly:
    return next(iter_ml_poly(n))


def gml_poly(n: int) -> Poly:
    return next(iter_gml_poly(n))


def gml_poly_from_ml(n: int) -> Poly:
    return next(iter_gml_poly_from_ml(n))


def ml_poly_explicit(n: int) -> Poly:
    """Closed binomial expansion: the x**(n-2j) coefficient is the same
    integer summand that the number family adds up."""
    if n < 0:
        raise ValueError("ml_poly_explicit requires n >= 0")
    if n == 0:
        return MP0
    coeffs = [0] * (n + 1)
    for j in range(n // 2 + 1):
        coeffs[n - 2 * j] = explicit_summand(n, j)
    return Poly(coeffs)


def iter_gml_poly_explicit(start: int = 1) -> Iterator[Poly]:
    """Yields Gm_n(x) = m_n(x) + i m_{n-1}(x) for n = start, start + 1, ...,
    one m explicit sum per n; the shifted imaginary sum needs n >= 1."""
    if start < 1:
        raise ValueError("gml_poly_explicit requires n >= 1")
    for m_prev, m_n in itertools.pairwise(map(ml_poly_explicit, itertools.count(start - 1))):
        yield _PLUS_I(m_n, m_prev)


def gml_poly_explicit(n: int) -> Poly:
    return next(iter_gml_poly_explicit(n))


def ml_poly_negative(n: int) -> Poly:
    return next(iter_ml_poly_negative(n))


def gml_poly_negative(n: int) -> Poly:
    return next(iter_gml_poly_negative(n))


def _cpow(base: complex, k: int) -> complex:
    # Repeated multiplication keeps integer-valued cases exact in floats.
    if k < 0:
        return 1.0 / _cpow(base, -k)
    out = complex(1.0)
    for _ in range(k):
        out *= base
    return out


def binet_numeric(n: int, x: float) -> complex:
    """Floating point Gm_n(x) from the characteristic roots.

    This is the only inexact route in the package; it exists purely as an
    independent numeric spot check of the exact polynomial routes.  The
    roots of t**2 - 3x t + 2 are complex for |x| < sqrt(8)/3.
    """
    x = float(x)
    root = cmath.sqrt(complex(9.0 * x * x - 8.0))
    l1, l2 = (3.0 * x + root) / 2.0, (3.0 * x - root) / 2.0
    re = _cpow(l1, n) + _cpow(l2, n)
    im = _cpow(l1, n - 1) + _cpow(l2, n - 1)
    return re + 1j * im

