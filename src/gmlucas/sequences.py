"""Mersenne Lucas numbers and their Gaussian companions.

The integer family is m_0 = 2, m_1 = 3, m_n = 3 m_{n-1} - 2 m_{n-2}, whose
closed form is m_n = 2**n + 1.  The Gaussian family shares the recurrence
with seeds Gm_0 = 2 + (3/2)i and Gm_1 = 3 + 2i, and satisfies
Gm_n = m_n + i m_{n-1} for n >= 1.  Every term can be produced by several
independent routes which must agree exactly; the cross-checks live in the
test suite and in the verify command.  Each route returns its term as a
GaussianDyadic; the closed forms build theirs straight from ints.

walk is the one producer of the order-2 recurrence x_k = d x_{k-1} +
p x_{k-2}: the recurrence and relation routes here and in polyfam,
symfun.iter_kernel, and the verifier's seed-fault and backward walks all
take their terms from it.  Over GaussianDyadic and Poly seeds each step is
one arith.linear_step pass that builds one ring element; the m walks run
on ints.  A route that a sweep walks is an iter_* stream from a start
index, and its single-term function is the stream's first item.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .arith import Dyadic, GaussianDyadic, _canonical, binomial, linear_step

# Recurrence seeds.
M0 = 2
M1 = 3
GM0 = GaussianDyadic(2, Dyadic(3, 1))
GM1 = GaussianDyadic(3, 2)
# (m_n, m_{n-1}) -> m_n + i m_{n-1}, in one pass.
_PLUS_I = linear_step(1, GaussianDyadic.I, GaussianDyadic)


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
    # it as 2, matching the recurrence seed.  Summand j is b_j 3**(n-2j)
    # with b_j = (-2)**j n/(n-j) C(n-j, j), so with h = n // 2 the sum is
    # 3**(n % 2) * sum_j b_j 9**(h-j), taken by Horner's rule.  b_0 = 1 and
    # b_{j+1} = b_j * -2 (n-2j)(n-2j-1) / ((j+1)(n-j-1)); b_{j+1} is an
    # integer, so the floor division is exact, and it divides the small
    # b_j rather than a summand carrying its power of 3.  explicit_summand
    # above computes each summand on its own, from a binomial.
    if n == 0:
        return 2
    total = b = 1
    for j in range(n // 2):
        b = b * (-2 * (n - 2 * j) * (n - 2 * j - 1)) // ((j + 1) * (n - j - 1))
        total = total * 9 + b
    return total * 3 if n & 1 else total


def iter_ml_recurrence(start: int = 0) -> Iterator[GaussianDyadic]:
    """Yields m_start, m_{start+1}, ... from one walk of the recurrence on ints."""
    if start < 0:
        raise ValueError("ml_recurrence requires n >= 0")
    for m in itertools.islice(walk(M0, M1, 3, -2), start, None):
        yield GaussianDyadic(m)


def ml_recurrence(n: int) -> GaussianDyadic:
    return next(iter_ml_recurrence(n))


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
    return _canonical(_ml_int(n), 0, n)


def iter_gml_recurrence(start: int = 0) -> Iterator[GaussianDyadic]:
    """Yields Gm_start, Gm_{start+1}, ... from one walk of the recurrence."""
    if start < 0:
        raise ValueError("gml_recurrence requires n >= 0")
    yield from itertools.islice(walk(GM0, GM1, 3, -2), start, None)


def gml_recurrence(n: int) -> GaussianDyadic:
    return next(iter_gml_recurrence(n))


def gml_binet(n: int) -> GaussianDyadic:
    """Gm_n = (2**n + 1) + i (2**(n-1) + 1), with the n = 0 imaginary part 3/2."""
    if n < 0:
        raise ValueError("gml_binet requires n >= 0; use gml_negative below zero")
    if n == 0:
        return _canonical(4, 3, 1)
    return _canonical(_ml_int(n), _ml_int(n - 1), 0)


def iter_gml_from_ml(start: int = 1) -> Iterator[GaussianDyadic]:
    """Yields Gm_n = m_n + i m_{n-1} for n = start, start + 1, ..., from one
    walk of the m recurrence on ints, which gml_binet's closed form skips."""
    if start < 1:
        raise ValueError("gml_from_ml requires n >= 1")
    for m_prev, m_n in itertools.pairwise(itertools.islice(walk(M0, M1, 3, -2), start - 1, None)):
        yield GaussianDyadic(m_n, m_prev)


def gml_from_ml(n: int) -> GaussianDyadic:
    return next(iter_gml_from_ml(n))


def iter_gml_explicit(start: int = 1) -> Iterator[GaussianDyadic]:
    """Yields Gm_n = m_n + i m_{n-1} for n = start, start + 1, ..., one m
    explicit sum per n; the shifted imaginary sum needs n >= 1."""
    if start < 1:
        raise ValueError("gml_explicit requires n >= 1")
    for m_prev, m_n in itertools.pairwise(map(ml_explicit, itertools.count(start - 1))):
        yield _PLUS_I(m_n, m_prev)


def gml_explicit(n: int) -> GaussianDyadic:
    return next(iter_gml_explicit(n))


def gml_negative(n: int) -> GaussianDyadic:
    """Gm_{-n} = (m_n + (i/2) m_{n+1}) / 2**n for n >= 1."""
    if n < 1:
        raise ValueError("gml_negative requires n >= 1")
    return _canonical(_ml_int(n) << 1, _ml_int(n + 1), n + 1)
