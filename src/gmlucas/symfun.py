"""Symmetric function calculus over exact rings.

S_n(lambda - mu) is coefficient n of prod(1 - mu_i z) / prod(1 - lambda_i z),
with S_n = 0 for n < 0.  A SymKernel (d, p) is the two-parameter special
case S_0 = 1, S_n = d S_{n-1} + p S_{n-2}, whose generating series is
1 / (1 - d z - p z**2); the number families arise from (3, -2) and the
polynomial families from (3x, -2).

Alphabets take scalar letters: int, Dyadic or GaussianDyadic, lifted to
GaussianDyadic, and a Poly letter is a TypeError.  Kernels and series run
over GaussianDyadic or Poly, as does the closed sum of two_letter_sn, and
truncated series division only ever inverts constant terms that are units
(in practice 1 or 2).

Series run on ints.  A series over GaussianDyadic is also a Poly in z (see
PowerSeries), and the alphabet routes build that view and nothing else, one
Poly per series.  prod(1 - letter z) multiplies its linear factors in place
into a Gaussian-integer vector over 2**(e k), for k letters over 2**e;
letters that are all GaussianDyadic are read as they are.  s_neg_alphabet
cuts that vector to the order.  s_diff_series expands mu's product alone and
divides it by lambda's factors one at a time, each a running sum on Gaussian
integers that shares no code with series_div, then shifts its terms over one
denominator unless lambda's letters are integers.  The Cauchy product is
Poly.__mul__, cut to the order.  series_div keeps coefficients (see
PowerSeries) and over Poly runs on Z[i] vectors; Poly series otherwise keep
the generic ring loops.  The closed sums run on ints in every ring: the
binomial sum of kernel_term_explicit and the two-letter sum of two_letter_sn
keep their nonzero products, finding the common denominator and the degree
in the same pass, multiply them out term by term over the nonzero terms of
each power into Gaussian-integer vectors, and build one GaussianDyadic or
Poly per sum.

kernel_term computes S_n by doubling on the pair (S_{j-1}, S_j), in about
log2 n steps of three products each; it never runs the recurrence,
which iter_kernel walks.  iter_kernel_explicit and iter_two_letter_sn walk
their closed sums: each extends its powers by one factor per term, keeps
every power as its nonzero terms and exponent, and sums each term from
those, so no summand builds a ring element.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Iterator

from .arith import Dyadic, GaussianDyadic, Poly, _canonical, _poly, binomial, linear_step
from .sequences import walk


def _as_ring(value):
    if isinstance(value, (Poly, GaussianDyadic)):
        return value
    g = GaussianDyadic._coerce(value)
    if g is None:
        raise TypeError(f"not a ring element: {value!r}")
    return g


def _one_like(value):
    return Poly.ONE if isinstance(value, Poly) else GaussianDyadic.ONE


def _zero_like(value):
    return Poly.ZERO if isinstance(value, Poly) else GaussianDyadic.ZERO


def _common_ring(entries: list) -> list:
    """Coerce a mixed int/Dyadic/GaussianDyadic/Poly list into one ring;
    a list already in one ring comes back as it is."""
    if entries:
        ring = type(entries[0])
        if (ring is GaussianDyadic or ring is Poly) and all(type(e) is ring for e in entries):
            return entries
    entries = [_as_ring(e) for e in entries]
    if any(isinstance(e, Poly) for e in entries):
        entries = [e if isinstance(e, Poly) else Poly((e,)) for e in entries]
    return entries


def _align(values) -> tuple[list, list, int]:
    """GaussianDyadic values as Gaussian integers over their largest
    denominator 2**e: value j is (re[j] + im[j] i) / 2**e."""
    e = max((v.exp for v in values), default=0)
    return ([v.a << (e - v.exp) for v in values],
            [v.b << (e - v.exp) for v in values], e)


def _align_polys(polys) -> tuple[list, list, int]:
    """Poly values as Gaussian-integer vectors over their largest
    denominator 2**e: value j is (re[j] + im[j] i) / 2**e, coefficientwise."""
    e = max((q.exp for q in polys), default=0)
    return ([[c << (e - q.exp) for c in q.re] for q in polys],
            [[c << (e - q.exp) for c in q.im] for q in polys], e)


class PowerSeries:
    """A truncated power series: coefficients 0..order, one ring throughout.

    Over GaussianDyadic it is also a Poly in z of degree at most the order;
    either view is built from the other on first use and kept, and products
    and equality of two such series run in z.  series_div builds coefficients
    only: their denominators grow with n, and a shared one would double the ints.
    """

    __slots__ = ("_coeffs", "_z", "order")

    def __init__(self, coeffs):
        cs = tuple(_common_ring(list(coeffs)))
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs, self._z, self.order = cs, None, len(cs) - 1

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = self._z.coeffs + (GaussianDyadic.ZERO,) * (self.order - self._z.degree)
        return self._coeffs

    def _zview(self) -> Poly | None:
        """The series as a Poly in z, or None if its coefficients are Polys."""
        if self._z is None and type(self._coeffs[0]) is GaussianDyadic:
            self._z = _poly(*_align(self._coeffs))
        return self._z

    def __len__(self) -> int:
        return self.order + 1

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def _check_order(self, other):
        if not isinstance(other, PowerSeries):
            raise TypeError("series arithmetic needs two PowerSeries")
        if other.order != self.order:
            raise ValueError("series orders differ")

    def __mul__(self, other):
        """Cauchy product truncated back to the shared order."""
        self._check_order(other)
        z, w = self._zview(), other._zview()
        if z is not None and w is not None:
            return _series(None, z * w, self.order)
        size = self.order + 1
        zero = _zero_like(self.coeffs[0])
        out = [zero] * size
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            for k in range(size - j):
                b = other.coeffs[k]
                if b:
                    out[j + k] = out[j + k] + a * b
        return PowerSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        z, w = self._zview(), other._zview()
        if z is None or w is None:
            return self.coeffs == other.coeffs
        return self.order == other.order and z == w

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"


def _series(coeffs: tuple | None, z: Poly | None = None, order: int = 0) -> PowerSeries:
    """A PowerSeries from coefficients the caller knows to share one ring, or,
    with coeffs None, a GaussianDyadic series from its Poly in z, cut to order."""
    if coeffs is not None:
        order = len(coeffs) - 1
    elif order < 0:
        raise ValueError("series order must be non-negative")
    elif z.degree > order:
        z = _poly(list(z.re[: order + 1]), list(z.im[: order + 1]), z.exp)
    out = object.__new__(PowerSeries)
    out._coeffs, out._z, out.order = coeffs, z, order
    return out


def series_div(num, den, order: int) -> PowerSeries:
    """Unique s with den * s = num modulo z**(order+1).

    num and den are coefficient lists in ascending powers of z.  The
    constant term of den must be invertible (for GaussianDyadic: a unit,
    meaning its norm is a power of two; for Poly: an invertible constant).
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    num = list(num)
    den = list(den)
    if not den:
        raise ZeroDivisionError("empty denominator")
    mixed = _common_ring(num + den)
    num, den = mixed[: len(num)], mixed[len(num):]
    inv = den[0]
    if inv != _one_like(inv):
        try:
            inv = inv.inverse()
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"denominator constant term is not invertible: {err}") from None
    if type(inv) is GaussianDyadic:
        return _series(_series_div_gaussian(num, den, inv, order))
    return _series(_series_div_poly(num, den, inv, order))


def _series_div_gaussian(num: list, den: list, inv: GaussianDyadic, order: int) -> tuple:
    """series_div's coefficients on Gaussian integers.

    Scaled by inv, den starts with 1.  With inv * num over 2**g and inv * den
    over 2**f, coefficient n is T_n / 2**(g + n*f) for the Gaussian integer
    T_n = N_n 2**(n*f) - sum_k D_k T_{n-k} 2**((k - 1) f), so each step is
    int multiplies and shifts only.
    """
    if inv != GaussianDyadic.ONE:
        num = [inv * c for c in num]
        den = [inv * c for c in den]
    nr, ni, g = _align(num)
    dr, di, f = _align(den)
    taps = [(dr[k] << (k - 1) * f, di[k] << (k - 1) * f) for k in range(1, len(dr))]
    out = []
    # T_{n-1}, T_{n-2}, ...: tap k = 1, 2, ... meets the k-th of them.
    recent: deque = deque(maxlen=len(taps))
    for n in range(order + 1):
        if n < len(nr):
            ar, ai = nr[n] << n * f, ni[n] << n * f
        else:
            ar = ai = 0
        for (cr, ci), (xr, xi) in zip(taps, recent):
            ar -= cr * xr - ci * xi
            ai -= cr * xi + ci * xr
        out.append(_canonical(ar, ai, g + n * f))
        recent.appendleft((ar, ai))
    return tuple(out)


def _series_div_poly(num: list, den: list, inv: Poly, order: int) -> tuple:
    """series_div's coefficients on Z[i][x] vectors.

    The same scheme as _series_div_gaussian, with T_n a vector of Gaussian
    integers: each nonzero term of D_k subtracts one shifted, scaled copy of
    T_{n-k}, and each coefficient becomes a Poly once.
    """
    if inv != Poly.ONE:
        num = [inv * c for c in num]
        den = [inv * c for c in den]
    nr, ni, g = _align_polys(num)
    dr, di, f = _align_polys(den)
    # The nonzero terms (j, re, im) of each D_k, k >= 1, times 2**((k - 1) f).
    taps = [[(j, r << (k - 1) * f, i << (k - 1) * f)
             for j, (r, i) in enumerate(zip(dr[k], di[k])) if r or i]
            for k in range(1, len(den))]
    # T_{n-1}, T_{n-2}, ...: only as many as there are taps, so the vectors
    # held stay one per tap, not one per coefficient.
    recent: deque = deque(maxlen=len(taps))
    out: list = []
    for n in range(order + 1):
        if n < len(nr):
            ar = [c << n * f for c in nr[n]]
            ai = [c << n * f for c in ni[n]]
        else:
            ar, ai = [], []
        for (xr, xi), terms in zip(recent, taps):
            if not (xr and terms):
                continue
            grow = terms[-1][0] + len(xr) - len(ar)
            if grow > 0:
                ar += [0] * grow
                ai += [0] * grow
            x_imag = any(xi)
            for j, cr, ci in terms:
                end = j + len(xr)
                if cr:
                    ar[j:end] = [o - cr * x for o, x in zip(ar[j:end], xr)]
                    if x_imag:
                        ai[j:end] = [o - cr * y for o, y in zip(ai[j:end], xi)]
                if ci:
                    ai[j:end] = [o - ci * x for o, x in zip(ai[j:end], xr)]
                    if x_imag:
                        ar[j:end] = [o + ci * y for o, y in zip(ar[j:end], xi)]
        # _poly trims trailing zeros from ar and ai in place, so T_n is kept
        # at the length of coefficient n.
        out.append(_poly(ar, ai, g + n * f))
        recent.appendleft((ar, ai))
    return tuple(out)


def _letters(alpha) -> tuple:
    """The letters of an alphabet as GaussianDyadic values."""
    letters = tuple(alpha)
    if all(type(letter) is GaussianDyadic for letter in letters):
        return letters
    letters = _common_ring(list(letters))
    if type(letters[0]) is Poly:
        raise TypeError("alphabet letters must be GaussianDyadic, Dyadic or int")
    return tuple(letters)


def _alphabet_z(alpha) -> tuple[list, list, int]:
    """prod(1 - letter z) for the letters of alpha, as Gaussian-integer
    vectors over 2**(e k) for k letters over 2**e: over 2**e the product is
    prod(2**e - (letter 2**e) z), so coefficient 0 is 2**(e k)."""
    lr, li, e = _align(_letters(alpha))
    cr, ci = [1], [0]
    for a, b in zip(lr, li):
        # Times 2**e - (a + b i) z, in place: c_j becomes
        # c_j 2**e - (a + b i) c_{j-1}, from the top down, so that c_{j-1}
        # is still the old one.
        cr.append(0)
        ci.append(0)
        for j in range(len(cr) - 1, 0, -1):
            xr, xi = cr[j - 1], ci[j - 1]
            cr[j] = (cr[j] << e) - (a * xr - b * xi)
            ci[j] = (ci[j] << e) - (a * xi + b * xr)
        cr[0] <<= e
    return cr, ci, e * len(lr)


def s_neg_alphabet(mu, order: int) -> PowerSeries:
    """S_n(-mu): coefficients of prod(1 - mu_i z), zero beyond len(mu)."""
    cr, ci, e = _alphabet_z(mu)
    return _series(None, _poly(cr[: order + 1], ci[: order + 1], e), order)


def s_diff_series(lam, mu, order: int) -> PowerSeries:
    """S_n(lambda - mu) for n = 0..order: prod(1 - mu_j z) divided by the
    factors 1 - lambda_i z one at a time.

    With lambda's letters c_i / 2**e over one denominator, z = 2**e y makes
    each factor 1 - c_i y, and dividing by it is the running sum
    T_n += c_i T_{n-1} on Gaussian integers, with no shifts.  prod(1 - mu_j z)
    is over 2**g, so coefficient n is T_n / 2**(g + n e).
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    lr, li, e = _align(_letters(lam))
    nr, ni, g = _alphabet_z(mu)
    size = order + 1
    pad = [0] * (size - len(nr))
    tr = [c << n * e for n, c in enumerate(nr[:size])] + pad
    ti = [c << n * e for n, c in enumerate(ni[:size])] + pad
    for a, b in zip(lr, li):
        # Divide by 1 - (a + b i) y in place: T_n becomes T_n + c T_{n-1},
        # from the bottom up, so that T_{n-1} is already the new one.
        xr = xi = 0
        for n in range(size):
            xr, xi = tr[n] + a * xr - b * xi, ti[n] + a * xi + b * xr
            tr[n], ti[n] = xr, xi
    # Over 2**(g + order e), T_n moves up by (order - n) e, which is no
    # move at all when e = 0.
    if e:
        tr = [t << (order - n) * e for n, t in enumerate(tr)]
        ti = [t << (order - n) * e for n, t in enumerate(ti)]
    return _series(None, _poly(tr, ti, g + order * e), order)


def s_diff_convolution(lam, mu, n: int) -> GaussianDyadic:
    """S_n(lambda - mu) = sum_j S_{n-j}(-mu) S_j(lambda).

    An independent route to the same coefficient as s_diff_series, used to
    cross-check the series expansion.
    """
    if n < 0:
        raise ValueError("s_diff_convolution requires n >= 0")
    s_mu = s_neg_alphabet(mu, n).coeffs
    s_lam = s_diff_series(lam, (), n).coeffs
    return sum((s_mu[n - j] * s_lam[j] for j in range(n + 1)), GaussianDyadic.ZERO)


def _terms(x) -> tuple[list, int]:
    """The nonzero terms (j, re, im) of a GaussianDyadic or Poly, with its
    exponent: the value is the sum of (re + im i) x**j / 2**exp over them."""
    if type(x) is GaussianDyadic:
        return ([(0, x.a, x.b)] if x.a or x.b else []), x.exp
    return [(j, r, i) for j, (r, i) in enumerate(zip(x.re, x.im)) if r or i], x.exp


def _powers(x) -> Iterator:
    """Yields the _terms of x**0, x**1, x**2, ..., one product apart."""
    power = _one_like(x)
    while True:
        yield _terms(power)
        power = power * x


def _first_powers(x, count: int) -> list:
    """The _terms of x**0, x**1, ..., x**count."""
    return list(itertools.islice(_powers(x), count + 1))


def _product_sum(products, like):
    """sum c u w over the products (c, u, w) of an int c and two _terms u, w,
    as one element of like's ring.

    Every product is aligned over the largest denominator 2**e among them and
    multiplied out term by term into Gaussian-integer vectors, so the sum
    builds one GaussianDyadic or Poly, at the end.
    """
    # One pass keeps the nonzero products, each with its exponent, and
    # finds the largest exponent and the highest power of x among them.
    kept, e, top = [], 0, 0
    for c, (u, ue), (w, we) in products:
        if u and w:
            uw = ue + we
            kept.append((c, u, w, uw))
            if uw > e:
                e = uw
            if u[-1][0] + w[-1][0] > top:
                top = u[-1][0] + w[-1][0]
    re, im = [0] * (top + 1), [0] * (top + 1)
    for c, u, w, uw in kept:
        c <<= e - uw
        for j, ur, ui in u:
            ar, ai = c * ur, c * ui
            for k, wr, wi in w:
                re[j + k] += ar * wr - ai * wi
                im[j + k] += ar * wi + ai * wr
    if type(like) is GaussianDyadic:
        return _canonical(re[0], im[0], e)
    return _poly(re, im, e)


def _two_letter_sum(n: int, pows1: list, pows2: list, like):
    """sum_j l1**j l2**(n-j) from the _terms of l1**0..l1**n and l2**0..l2**n."""
    return _product_sum(((1, pows1[j], pows2[n - j]) for j in range(n + 1)), like)


def two_letter_sn(l1, l2, n: int):
    """S_n of a two-letter alphabet: sum of l1**j * l2**(n-j)."""
    if n < 0:
        raise ValueError("two_letter_sn requires n >= 0")
    l1, l2 = _common_ring([l1, l2])
    return _two_letter_sum(n, _first_powers(l1, n), _first_powers(l2, n), l1)


def iter_two_letter_sn(l1, l2) -> Iterator:
    """Yields two_letter_sn(l1, l2, 0), (1), ...: each step extends both
    lists of powers by one factor instead of rebuilding them."""
    l1, l2 = _common_ring([l1, l2])
    pows1, pows2 = [], []
    for n, pow1, pow2 in zip(itertools.count(), _powers(l1), _powers(l2)):
        pows1.append(pow1)
        pows2.append(pow2)
        yield _two_letter_sum(n, pows1, pows2, l1)


class SymKernel(namedtuple("SymKernel", "d p")):
    """The weight pair (d, p) of S_0 = 1, S_n = d S_{n-1} + p S_{n-2}."""

    __slots__ = ()

    def __new__(cls, d, p):
        return super().__new__(cls, *_common_ring([d, p]))


def kernel_term(k: SymKernel, n: int):
    """S_n of the kernel by doubling; zero for n < 0.

    From S_{a+b} = S_a S_b + p S_{a-1} S_{b-1}, the pair (S_{j-1}, S_j)
    gives S_{2j-1} = S_{j-1} (2 S_j - d S_{j-1}), S_{2j} = S_j**2 + p S_{j-1}**2
    and S_{2j+1} = S_j (d S_j + 2p S_{j-1}).  Starting from (S_0, S_1) =
    (1, d), each bit of n below the leading one moves j to 2j or 2j + 1.
    No step of the recurrence is taken, so checking this route against the
    iter_kernel walk compares two algorithms.
    """
    if n < 0:
        return _zero_like(k.d)
    if n == 0:
        return _one_like(k.d)
    d, p = k.d, k.p
    two_p = 2 * p
    prev, cur = _one_like(d), d
    for bit in bin(n)[3:]:
        if bit == "1":
            prev, cur = cur * cur + p * (prev * prev), cur * (d * cur + two_p * prev)
        else:
            prev, cur = prev * (2 * cur - d * prev), cur * cur + p * (prev * prev)
    return cur


def iter_kernel(k: SymKernel) -> Iterator:
    """Yields S_0, S_1, S_2, ... of the kernel in one walk of its recurrence."""
    return walk(_one_like(k.d), k.d, k.d, k.p)


def _binomial_sum(n: int, d_pows: list, p_pows: list, like):
    """sum_j C(n-j, j) d**(n-2j) p**j from the _terms of d**0..d**n and
    p**0..p**(n//2)."""
    return _product_sum(((binomial(n - j, j), p_pows[j], d_pows[n - 2 * j])
                         for j in range(n // 2 + 1)), like)


def kernel_term_explicit(k: SymKernel, n: int):
    """S_n = sum_j C(n-j, j) d**(n-2j) p**j, the closed binomial route."""
    if n < 0:
        return _zero_like(k.d)
    return _binomial_sum(n, _first_powers(k.d, n), _first_powers(k.p, n // 2), k.d)


def iter_kernel_explicit(k: SymKernel) -> Iterator:
    """Yields kernel_term_explicit(k, 0), (1), ...: each step extends the
    powers of d and p by one factor instead of rebuilding them."""
    d_powers, p_powers = _powers(k.d), _powers(k.p)
    d_pows, p_pows = [], []
    for n, d_pow in enumerate(d_powers):
        d_pows.append(d_pow)
        if n % 2 == 0:
            p_pows.append(next(p_powers))
        yield _binomial_sum(n, d_pows, p_pows, k.d)


def kernel_series(k: SymKernel, order: int) -> PowerSeries:
    """The generating series 1 / (1 - d z - p z**2) to the given order."""
    one = _one_like(k.d)
    return series_div([one], [one, -k.d, -k.p], order)


def kernel_even_odd_series(k: SymKernel, order: int):
    """Decimated series (sum S_{2n-1} z**n, sum S_{2n} z**n, sum S_{2n+1} z**n).

    All three share the denominator D = 1 - (d**2 + 2p) z + p**2 z**2; the
    numerators are d z, 1 - p z, and d respectively.
    """
    one = _one_like(k.d)
    zero = _zero_like(k.d)
    den = [one, -(k.d * k.d + 2 * k.p), k.p * k.p]
    odd_back = series_div([zero, k.d], den, order)
    even = series_div([one, -k.p], den, order)
    odd_fwd = series_div([k.d], den, order)
    return odd_back, even, odd_fwd


# Fixed rational generating functions for the Gaussian number family.

def gf_gml(order: int) -> PowerSeries:
    """Sum of Gm_n z**n: (4 + 3i - (6 + 5i) z) / (2 - 6z + 4z**2)."""
    num = [GaussianDyadic(4, 3), GaussianDyadic(-6, -5)]
    den = [GaussianDyadic(2), GaussianDyadic(-6), GaussianDyadic(4)]
    return series_div(num, den, order)


def gf_gml_even(order: int) -> PowerSeries:
    """Sum of Gm_{2n} z**n: (4 + 3i - (10 + 9i) z) / (2 - 10z + 8z**2)."""
    num = [GaussianDyadic(4, 3), GaussianDyadic(-10, -9)]
    den = [GaussianDyadic(2), GaussianDyadic(-10), GaussianDyadic(8)]
    return series_div(num, den, order)


def gf_gml_odd(order: int) -> PowerSeries:
    """Sum of Gm_{2n+1} z**n: (6 + 4i - (12 + 10i) z) / (2 - 10z + 8z**2)."""
    num = [GaussianDyadic(6, 4), GaussianDyadic(-12, -10)]
    den = [GaussianDyadic(2), GaussianDyadic(-10), GaussianDyadic(8)]
    return series_div(num, den, order)


_GF_ML_POLY_NUM = (Poly((2,)), Poly((0, -3)))
_GF_ML_POLY_DEN = (Poly((1,)), Poly((0, -3)), Poly((2,)))


def gf_ml_poly(order: int) -> PowerSeries:
    """Sum of m_n(x) z**n: (2 - 3x z) / (1 - 3x z + 2 z**2)."""
    return series_div(_GF_ML_POLY_NUM, _GF_ML_POLY_DEN, order)


_GF_GML_POLY_NUM = (
    Poly((4, GaussianDyadic(0, 3))),
    Poly((GaussianDyadic(0, 4), -6, GaussianDyadic(0, -9))),
)
_GF_GML_POLY_DEN = (Poly((2,)), Poly((0, -6)), Poly((4,)))


def gf_gml_poly(order: int) -> PowerSeries:
    """Sum of Gm_n(x) z**n:
    (4 + 3ix + (i(4 - 9x**2) - 6x) z) / (2 - 6x z + 4 z**2)."""
    return series_div(_GF_GML_POLY_NUM, _GF_GML_POLY_DEN, order)


# Decompositions of the families over their kernels, c0 S_n +- c1 S_{n-1}.
# The single-term routes and the iterators share coefficients and formulas.

_KERNEL_NUM = SymKernel(3, -2)
_KERNEL_POLY = SymKernel(Poly((0, 3)), Poly((-2,)))

_GML_C0 = GaussianDyadic(2, Dyadic(3, 1))
_GML_C1 = GaussianDyadic(3, Dyadic(5, 1))
_ML_POLY_C0 = 2
_ML_POLY_C1 = Poly((0, 3))
_GML_POLY_C0 = Poly((2, GaussianDyadic(0, Dyadic(3, 1))))
_GML_POLY_C1 = Poly((GaussianDyadic(0, 2), -3, GaussianDyadic(0, Dyadic(-9, 1))))


# Each decomposition is one linear_step: the one-term pairs take its fused
# pass, and _GML_POLY_C1, of three terms, the ring operators.
_gml_from_kernel = linear_step(_GML_C0, -_GML_C1, GaussianDyadic)
_ml_poly_from_kernel = linear_step(_ML_POLY_C0, -_ML_POLY_C1, Poly)
_gml_poly_from_kernel = linear_step(_GML_POLY_C0, _GML_POLY_C1, Poly)


def _iter_decompose(kernel: SymKernel, combine) -> Iterator:
    s_prev = _zero_like(kernel.d)
    for s_n in iter_kernel(kernel):
        yield combine(s_n, s_prev)
        s_prev = s_n


def sym_decompose_gml(n: int) -> GaussianDyadic:
    """Gm_n = (2 + 3i/2) S_n - (3 + 5i/2) S_{n-1} over the kernel (3, -2)."""
    if n < 0:
        raise ValueError("sym_decompose_gml requires n >= 0")
    return _gml_from_kernel(kernel_term(_KERNEL_NUM, n), kernel_term(_KERNEL_NUM, n - 1))


def sym_decompose_ml_poly(n: int) -> Poly:
    """m_n(x) = 2 S_n - 3x S_{n-1} over the kernel (3x, -2)."""
    if n < 0:
        raise ValueError("sym_decompose_ml_poly requires n >= 0")
    s_n = kernel_term(_KERNEL_POLY, n)
    s_prev = kernel_term(_KERNEL_POLY, n - 1)
    return _ml_poly_from_kernel(s_n, s_prev)


def sym_decompose_gml_poly(n: int) -> Poly:
    """Gm_n(x) = (2 + (3i/2)x) S_n + (i(2 - (9/2)x**2) - 3x) S_{n-1}."""
    if n < 0:
        raise ValueError("sym_decompose_gml_poly requires n >= 0")
    s_n = kernel_term(_KERNEL_POLY, n)
    s_prev = kernel_term(_KERNEL_POLY, n - 1)
    return _gml_poly_from_kernel(s_n, s_prev)


def iter_sym_decompose_gml() -> Iterator[GaussianDyadic]:
    """Yields sym_decompose_gml(0), (1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_NUM, _gml_from_kernel)


def iter_sym_decompose_ml_poly() -> Iterator[Poly]:
    """Yields sym_decompose_ml_poly(0), (1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_POLY, _ml_poly_from_kernel)


def iter_sym_decompose_gml_poly() -> Iterator[Poly]:
    """Yields sym_decompose_gml_poly(0), (1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_POLY, _gml_poly_from_kernel)
