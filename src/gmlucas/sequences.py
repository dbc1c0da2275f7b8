"""Mersenne Lucas numbers and their Gaussian companions.

The integer family is m_0 = 2, m_1 = 3, m_n = 3 m_{n-1} - 2 m_{n-2}, whose
closed form is m_n = 2**n + 1.  The Gaussian family shares the recurrence
with seeds Gm_0 = 2 + (3/2)i and Gm_1 = 3 + 2i, and satisfies
Gm_n = m_n + i m_{n-1} for n >= 1.  Every term can be produced by several
independent routes which must agree exactly; the cross-checks live in the
test suite and in the verify command.  Each route returns its term as a
GaussianDyadic.

walk is the one producer of the order-2 recurrence x_k = d x_{k-1} +
p x_{k-2}: the recurrence and relation routes here and in polyfam,
symfun.iter_kernel, table 1 of the CLI and the verifier's seed sweeps and
backward walks all take their terms from it.  Over GaussianDyadic and Poly
seeds each step is one arith.linear_step pass that builds one ring
element; the m walks run on ints.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .arith import Dyadic, GaussianDyadic, binomial, linear_step

# Recurrence seeds.
M0 = 2
M1 = 3
GM0 = GaussianDyadic(2, Dyadic(3, 1))
GM1 = GaussianDyadic(3, 2)


def walk(x0, x1, d, p) -> Iterator:
    """Yields x_0, x_1, x_2, ... of x_k = d x_{k-1} + p x_{k-2}.

    Works over any ring whose elements support + and * (ints mix in), and
    computes x_k only when it is asked for.  The step is
    arith.linear_step(d, p, ring), picked once from the ring of the seeds:
    over GaussianDyadic or Poly seeds with one-term d and p it is the fused
    pass, and otherwise (int seeds, a d or p of several terms, or mixed
    seeds, which name no one ring) it is d x1 + p x0.
    """
    step = linear_step(d, p, type(x0) if type(x1) is type(x0) else None)
    yield x0
    while True:
        yield x1
        x0, x1 = x1, step(x1, x0)


def recurrence_term(seed0, seed1, n: int):
    """n-th entry of x_k = 3 x_{k-1} - 2 x_{k-2} from arbitrary seeds."""
    if n < 0:
        raise ValueError("recurrence_term requires n >= 0")
    return next(itertools.islice(walk(seed0, seed1, 3, -2), n, None))


def explicit_summand(n: int, j: int) -> int:
    """The degree n-2j integer term of the closed binomial expansion.

    Equals (-1)**j * n/(n-j) * C(n-j, j) * 3**(n-2j) * 2**j, which is an
    integer for 0 <= j <= n // 2 and n >= 1.
    """
    if n < 1 or j < 0 or 2 * j > n:
        raise ValueError("explicit_summand requires n >= 1 and 0 <= 2j <= n")
    c = n * binomial(n - j, j) // (n - j)
    term = c * 3 ** (n - 2 * j) * 2**j
    return -term if j & 1 else term


def _ml_int(n: int) -> int:
    return 2**n + 1


def _ml_explicit_int(n: int) -> int:
    # The lone n = 0 summand is 0/0 * C(0,0); the Lucas convention reads
    # it as 2, matching the recurrence seed.  Summand j + 1 is summand j
    # times -2 (n-2j)(n-2j-1) / (9 (j+1)(n-j-1)); both summands are
    # integers, so the floor division is exact.  explicit_summand above
    # stays the term-by-term reference.
    if n == 0:
        return 2
    total = term = 3**n
    for j in range(n // 2):
        term = -term * (2 * (n - 2 * j) * (n - 2 * j - 1)) // (9 * (j + 1) * (n - j - 1))
        total += term
    return total


def ml_recurrence(n: int) -> GaussianDyadic:
    if n < 0:
        raise ValueError("ml_recurrence requires n >= 0")
    return GaussianDyadic(recurrence_term(M0, M1, n))


def ml_binet(n: int) -> GaussianDyadic:
    """Closed form 2**n + 1 (the roots of the recurrence are 2 and 1)."""
    if n < 0:
        raise ValueError("ml_binet requires n >= 0; use ml_negative below zero")
    return GaussianDyadic(_ml_int(n))


def ml_explicit(n: int) -> GaussianDyadic:
    """Alternating binomial sum over j <= n/2; n = 0 returns 2 by convention."""
    if n < 0:
        raise ValueError("ml_explicit requires n >= 0")
    return GaussianDyadic(_ml_explicit_int(n))


def ml_negative(n: int) -> GaussianDyadic:
    """m_{-n} = m_n / 2**n for n >= 1, the backward closure of the recurrence."""
    if n < 1:
        raise ValueError("ml_negative requires n >= 1")
    return GaussianDyadic(Dyadic(_ml_int(n), n))


def gml_recurrence(n: int) -> GaussianDyadic:
    if n < 0:
        raise ValueError("gml_recurrence requires n >= 0")
    return recurrence_term(GM0, GM1, n)


def gml_binet(n: int) -> GaussianDyadic:
    """Gm_n = (2**n + 1) + i (2**(n-1) + 1), with the n = 0 imaginary part 3/2."""
    if n < 0:
        raise ValueError("gml_binet requires n >= 0; use gml_negative below zero")
    im = Dyadic(_ml_int(n - 1)) if n >= 1 else Dyadic(3, 1)
    return GaussianDyadic(Dyadic(_ml_int(n)), im)


def iter_gml_from_ml() -> Iterator[GaussianDyadic]:
    """Yields gml_from_ml(1), (2), ... from one walk of the m recurrence."""
    for m_prev, m_n in itertools.pairwise(walk(M0, M1, 3, -2)):
        yield GaussianDyadic(m_n, m_prev)


def gml_from_ml(n: int) -> GaussianDyadic:
    """Gm_n = m_n + i m_{n-1}, valid for n >= 1.

    Both m terms come from one walk of the m recurrence, so this route
    shares no code with gml_binet's closed form.
    """
    if n < 1:
        raise ValueError("gml_from_ml requires n >= 1")
    pairs = itertools.pairwise(walk(M0, M1, 3, -2))
    m_prev, m_n = next(itertools.islice(pairs, n - 1, None))
    return GaussianDyadic(m_n, m_prev)


def gml_explicit(n: int) -> GaussianDyadic:
    """Binomial sums for both parts; the shifted imaginary sum needs n >= 1."""
    if n < 1:
        raise ValueError("gml_explicit requires n >= 1")
    return GaussianDyadic(_ml_explicit_int(n), _ml_explicit_int(n - 1))


def gml_negative(n: int) -> GaussianDyadic:
    """Gm_{-n} = (m_n + (i/2) m_{n+1}) / 2**n for n >= 1."""
    if n < 1:
        raise ValueError("gml_negative requires n >= 1")
    return GaussianDyadic(Dyadic(_ml_int(n), n), Dyadic(_ml_int(n + 1), n + 1))
