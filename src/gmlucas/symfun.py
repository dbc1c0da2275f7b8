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
Poly per series.  Each alphabet route reads the letters once through
_align, the aligner of the z view and series_div too, as Gaussian-integer
pairs over their largest denominator 2**e, shifted only when e is not zero;
letters that are all GaussianDyadic are read as they are.  prod(1 - letter
z) multiplies its linear factors in place into a Gaussian-integer vector
over 2**(e k), for k letters over 2**e, and s_neg_alphabet cuts that vector
to the order.  s_diff_series expands mu's product alone, shifts it once
over the final denominator, and divides it by lambda's factors one at a
time, each a running sum on Gaussian integers that shares no code with
series_div.
The Cauchy product is Poly.__mul__, cut to the order.  series_div keeps
coefficients (see PowerSeries) and over Poly runs on Z[i] vectors, adding
each tap through arith._mac, the loop Poly.__mul__ runs; Poly series
otherwise keep the generic ring loops.

kernel_term computes S_n by doubling on the pair (S_{j-1}, S_j), in about
log2 n steps of three products each; it never runs the recurrence, which
iter_kernel walks.  The sym_decompose_* functions share one doubling body,
_decompose, and their streams one walk of the kernel, _iter_decompose.
The closed sums are streams from a start index, iter_kernel_explicit (the
binomial sum) and iter_two_letter_sn (the two-letter sum), and
kernel_term_explicit and two_letter_sn are their first items.  A stream
builds its powers below start without a sum, extends them by one factor
per term and keeps each as its nonzero terms and exponent.  Each sum runs
on ints in every ring: it keeps its nonzero products, finding the common
denominator and the degree in the same pass, multiplies them out term by
term into Gaussian-integer vectors, and builds one GaussianDyadic or Poly.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Iterator

from .arith import Dyadic, GaussianDyadic, Poly, _canonical, _mac, _poly, binomial, linear_step
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
    denominator 2**e: value j is (re[j] + im[j] i) / 2**e.  With e = 0 they
    are the values' own ints, unshifted."""
    re, im, e = [], [], 0
    for v in values:
        re.append(v.a)
        im.append(v.b)
        if v.exp > e:
            e = v.exp
    if e:
        for j, v in enumerate(values):
            re[j] <<= e - v.exp
            im[j] <<= e - v.exp
    return re, im, e


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
        size = self.order + 1
        z, w = self._zview(), other._zview()
        if z is not None and w is not None:
            re, im = [0] * size, [0] * size
            _mac(re, im, z.re, z.im, w.re, w.im)
            return _series(None, _poly(re, im, z.exp + w.exp), self.order)
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
    with coeffs None, a GaussianDyadic series from its Poly in z of degree at
    most order."""
    if coeffs is not None:
        order = len(coeffs) - 1
    elif order < 0:
        raise ValueError("series order must be non-negative")
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
    integers: the taps loop is _mac, which adds the product of the tap
    -D_k 2**((k - 1) f) and T_{n-k} into T_n, and each coefficient becomes
    a Poly once.
    """
    if inv != Poly.ONE:
        num = [inv * c for c in num]
        den = [inv * c for c in den]
    nr, ni, g = _align_polys(num)
    dr, di, f = _align_polys(den)
    # -D_k 2**((k - 1) f) for each k >= 1, as its re and im vectors.
    taps = [([-(c << (k - 1) * f) for c in dr[k]], [-(c << (k - 1) * f) for c in di[k]])
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
        for (xr, xi), (tr, ti) in zip(recent, taps):
            if not (xr and tr):
                continue
            grow = len(tr) + len(xr) - 1 - len(ar)
            if grow > 0:
                ar += [0] * grow
                ai += [0] * grow
            _mac(ar, ai, tr, ti, xr, xi)
        # _poly trims trailing zeros from ar and ai in place, so T_n is kept
        # at the length of coefficient n.
        out.append(_poly(ar, ai, g + n * f))
        recent.appendleft((ar, ai))
    return tuple(out)


def _letters(alpha) -> tuple:
    """The letters of an alphabet as GaussianDyadic values."""
    letters = tuple(alpha)
    for letter in letters:
        if type(letter) is not GaussianDyadic:
            break
    else:
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

    With lambda's letters c_i / 2**e over one denominator and
    prod(1 - mu_j z) over 2**g, coefficient n is T_n / 2**(g + order e)
    for every n.  T_n starts as the numerator's coefficient n shifted up
    by order e, and dividing by 1 - c_i z is the running sum
    T_n += (c_i T_{n-1}) / 2**e on Gaussian integers, exact because
    T_{n-1} carries 2**((order - n + 1) e).
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    lr, li, e = _align(_letters(lam))
    nr, ni, g = _alphabet_z(mu)
    size, top = order + 1, order * e
    pad = [0] * (size - len(nr))
    tr = [c << top for c in nr[:size]] + pad
    ti = [c << top for c in ni[:size]] + pad
    for a, b in zip(lr, li):
        # Divide by 1 - (a + b i) z in place, from the bottom up, so that
        # T_{n-1} is already the new one.
        xr = xi = 0
        for n in range(size):
            xr, xi = tr[n] + ((a * xr - b * xi) >> e), ti[n] + ((a * xi + b * xr) >> e)
            tr[n], ti[n] = xr, xi
    return _series(None, _poly(tr, ti, g + top), order)


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


def iter_two_letter_sn(l1, l2, start: int = 0) -> Iterator:
    """Yields two_letter_sn(l1, l2, start), (start + 1), ...: each step
    extends both lists of powers by one factor instead of rebuilding them."""
    if start < 0:
        raise ValueError("two_letter_sn requires n >= 0")
    l1, l2 = _common_ring([l1, l2])
    powers1, powers2 = _powers(l1), _powers(l2)
    pows1, pows2 = list(itertools.islice(powers1, start)), list(itertools.islice(powers2, start))
    for n, pow1, pow2 in zip(itertools.count(start), powers1, powers2):
        pows1.append(pow1)
        pows2.append(pow2)
        yield _product_sum(((1, pows1[j], pows2[n - j]) for j in range(n + 1)), l1)


def two_letter_sn(l1, l2, n: int):
    """S_n of a two-letter alphabet: sum of l1**j * l2**(n-j)."""
    return next(iter_two_letter_sn(l1, l2, n))


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


def iter_kernel_explicit(k: SymKernel, start: int = 0) -> Iterator:
    """Yields kernel_term_explicit(k, start), (start + 1), ...: each step
    extends the powers of d and p by one factor instead of rebuilding them."""
    if start < 0:
        raise ValueError("iter_kernel_explicit requires start >= 0")
    d_powers, p_powers = _powers(k.d), _powers(k.p)
    # d**0..d**(start-1) and p**0..p**((start-1)//2), as steps 0..start-1 leave them.
    d_pows = list(itertools.islice(d_powers, start))
    p_pows = list(itertools.islice(p_powers, (start + 1) // 2))
    for n, d_pow in enumerate(d_powers, start):
        d_pows.append(d_pow)
        if n % 2 == 0:
            p_pows.append(next(p_powers))
        yield _product_sum(((binomial(n - j, j), p_pows[j], d_pows[n - 2 * j])
                            for j in range(n // 2 + 1)), k.d)


def kernel_term_explicit(k: SymKernel, n: int):
    """S_n = sum_j C(n-j, j) d**(n-2j) p**j, the closed binomial route."""
    if n < 0:
        return _zero_like(k.d)
    return next(iter_kernel_explicit(k, n))


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


# Each decomposition is one linear_step, whose fused pass builds one term
# per step for every coefficient pair, _GML_POLY_C1's three terms too.
_gml_from_kernel = linear_step(_GML_C0, -_GML_C1, GaussianDyadic)
_ml_poly_from_kernel = linear_step(_ML_POLY_C0, -_ML_POLY_C1, Poly)
_gml_poly_from_kernel = linear_step(_GML_POLY_C0, _GML_POLY_C1, Poly)


def _iter_decompose(kernel: SymKernel, combine, start: int, route: str) -> Iterator:
    if start < 0:
        raise ValueError(f"{route} requires n >= 0")
    # (S_{n-1}, S_n) for n = start, start + 1, ..., with S_{-1} = 0.
    pairs = itertools.pairwise(itertools.chain((_zero_like(kernel.d),), iter_kernel(kernel)))
    for s_prev, s_n in itertools.islice(pairs, start, None):
        yield combine(s_n, s_prev)


def _decompose(kernel: SymKernel, combine, n: int, route: str):
    if n < 0:
        raise ValueError(f"{route} requires n >= 0")
    return combine(kernel_term(kernel, n), kernel_term(kernel, n - 1))


def sym_decompose_gml(n: int) -> GaussianDyadic:
    """Gm_n = (2 + 3i/2) S_n - (3 + 5i/2) S_{n-1} over the kernel (3, -2)."""
    return _decompose(_KERNEL_NUM, _gml_from_kernel, n, "sym_decompose_gml")


def sym_decompose_ml_poly(n: int) -> Poly:
    """m_n(x) = 2 S_n - 3x S_{n-1} over the kernel (3x, -2)."""
    return _decompose(_KERNEL_POLY, _ml_poly_from_kernel, n, "sym_decompose_ml_poly")


def sym_decompose_gml_poly(n: int) -> Poly:
    """Gm_n(x) = (2 + (3i/2)x) S_n + (i(2 - (9/2)x**2) - 3x) S_{n-1}."""
    return _decompose(_KERNEL_POLY, _gml_poly_from_kernel, n, "sym_decompose_gml_poly")


def iter_sym_decompose_gml(start: int = 0) -> Iterator[GaussianDyadic]:
    """Yields sym_decompose_gml(start), (start + 1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_NUM, _gml_from_kernel, start, "sym_decompose_gml")


def iter_sym_decompose_ml_poly(start: int = 0) -> Iterator[Poly]:
    """Yields sym_decompose_ml_poly(start), (start + 1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_POLY, _ml_poly_from_kernel, start, "sym_decompose_ml_poly")


def iter_sym_decompose_gml_poly(start: int = 0) -> Iterator[Poly]:
    """Yields sym_decompose_gml_poly(start), (start + 1), ... from one walk of the kernel."""
    yield from _iter_decompose(_KERNEL_POLY, _gml_poly_from_kernel, start, "sym_decompose_gml_poly")
