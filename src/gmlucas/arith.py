"""Exact arithmetic kernels: dyadic rationals, Gaussian dyadics, and dense
univariate polynomials over them.

The coefficient universe for the whole package is Z[1/2][i]: complex numbers
a + bi whose parts are integers divided by a power of two.  Addition,
subtraction and multiplication are closed; division is deliberately
restricted to powers of two and to units (elements whose norm is a power of
two), which is all the sequence and series machinery ever needs.  Nothing in
this module touches floating point.

Dyadic is one object per value: num / 2**exp.  GaussianDyadic is one
object with three int slots, a, b and exp, for the value (a + b i) / 2**exp,
so its add, sub and mul run on Python ints.  It is kept canonical (exp == 0
or a or b odd; zero has exp == 0), so equality compares the three ints.  Its
re and im are read-only Dyadic views, built only when asked for.

Dyadic is the real value that constructors take and that .re, .im and
norm() return, for rendering and for GaussianDyadic.inverse; the package
computes in GaussianDyadic and Poly.  Each scalar operator of GaussianDyadic
has one plain path: align the exponents, combine the ints, and normalize
once through _canonical; subtraction adds the negation.  Only Poly's
operators and linear_step keep fast paths, because the walks (over
GaussianDyadic too), the series and the term requests run through them.

Poly is not a tuple of GaussianDyadic objects either: it stores two int
vectors over one power-of-two denominator, re, im and exp, and the
coefficient of x**j is (re[j] + im[j] i) / 2**exp.  Its add, sub, mul and
evaluation therefore run on Python ints.  A Poly is kept canonical (no
trailing zero coefficient; exp == 0 or some part odd; zero has exp == 0), so
equality and hashing compare the three parts, and GaussianDyadic
coefficients are built only when asked for (coeffs, coeff, str, repr).

Poly mul is schoolbook through _mac, the one loop that adds the product
of two Z[i] vectors into an output in place; linear_step's complex step
and series_div over Poly (in symfun) run through it too.  Poly mul keeps
one fast path, the one-term path: when the shorter operand is a single
term c x**j, as the recurrence multipliers 3x and -2 and the powers d**k
are, or a GaussianDyadic scalar c, the product is the other operand scaled
by c and shifted by j, built directly.

linear_step(a, b, ring) fuses a x + b y for one-term a and b into one
element per term: real a and b take one two-term pass per part, and
complex ones add a x and b y into one output through _mac.  Other
coefficients take a x + b y through the operators.  The recurrence walks
and the kernel decompositions take each term from it.

Poly evaluation is one Horner chain in Z[i]; at x = 1 it just sums each
vector.

One equality rule covers int, Dyadic, GaussianDyadic and Poly: values that
are equal in Z[1/2][i][x] compare equal and hash alike, whatever their
types, so a constant Poly equals the scalar it holds.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import zip_longest
from operator import add, or_, sub


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with out-of-range k giving 0."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


_new = object.__new__


def _den_text(exp: int) -> str:
    return "2" if exp == 1 else f"2^{exp}"


class Dyadic:
    """A real dyadic num / 2**exp, kept normalized: what constructors take
    and what GaussianDyadic's re, im and norm() return.  Arithmetic belongs
    to GaussianDyadic.

    Normalized means exp == 0, or num is odd; num == 0 forces exp == 0.
    Instances are treated as immutable.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if type(num) is bool or not isinstance(num, int):
            raise TypeError(f"Dyadic numerator must be an int, not {type(num).__name__}")
        if exp < 0:
            raise ValueError("dyadic exponent must be non-negative")
        if num == 0:
            exp = 0
        elif exp:
            twos = (num & -num).bit_length() - 1
            cancel = twos if twos < exp else exp
            if cancel:
                num >>= cancel
                exp -= cancel
        self.num = num
        self.exp = exp

    @staticmethod
    def _coerce(value) -> "Dyadic | None":
        if isinstance(value, Dyadic):
            return value
        # A bool is not a ring value: operators refuse it, == answers False.
        if isinstance(value, int) and type(value) is not bool:
            return Dyadic(value)
        return None

    # Nothing in the package adds or multiplies Dyadic values; these stay
    # because perfbench's tracer patches them by name.
    def __add__(self, other):
        if type(other) is not Dyadic:
            other = Dyadic._coerce(other)
            if other is None:
                return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not Dyadic:
            other = Dyadic._coerce(other)
            if other is None:
                return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def inverse(self) -> "Dyadic":
        """Multiplicative inverse, defined only for +-2**t / 2**exp."""
        if self.num == 0:
            raise ZeroDivisionError("dyadic zero has no inverse")
        mag = abs(self.num)
        if mag & (mag - 1):
            raise ValueError(f"{self} is not invertible in Z[1/2]")
        t = mag.bit_length() - 1
        sign = 1 if self.num > 0 else -1
        return Dyadic(sign << self.exp, t)

    def __int__(self) -> int:
        if self.exp:
            raise ValueError(f"{self} is not an integer")
        return self.num

    def __float__(self) -> float:
        # Int true division is correctly rounded, even for huge num.
        return self.num / (1 << self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        if type(other) is not Dyadic:
            other = Dyadic._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        # Integer-valued dyadics hash like the integer they equal.
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{_den_text(self.exp)}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"


def _power(x, k: int):
    """x**k by square and multiply, for k >= 0; the __pow__ of
    GaussianDyadic and Poly."""
    if not isinstance(k, int):
        return NotImplemented
    if k < 0:
        raise ValueError("negative powers need an explicit inverse()")
    out = type(x).ONE
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _imag_text(d: Dyadic) -> str:
    mag = abs(d.num)
    sign = "-" if d.num < 0 else ""
    head = "i" if mag == 1 else f"{mag}i"
    if d.exp:
        head += "/" + _den_text(d.exp)
    return sign + head


class GaussianDyadic:
    """An element (a + b i) / 2**exp of Z[1/2][i], with i*i = -1.

    Canonical form: exp == 0 or one of a, b is odd, and zero has exp == 0.
    The parts re and im are read-only Dyadic views built on demand.
    """

    __slots__ = ("a", "b", "exp")

    ZERO: "GaussianDyadic"
    ONE: "GaussianDyadic"
    I: "GaussianDyadic"

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.exp = re, im, 0
            return
        r = Dyadic._coerce(re)
        m = Dyadic._coerce(im)
        if r is None or m is None:
            raise TypeError("GaussianDyadic parts must be Dyadic or int")
        # The part with the larger exponent keeps its odd numerator, so
        # aligning the other one by a shift gives the canonical form.
        e = r.exp if r.exp > m.exp else m.exp
        self.a = r.num << (e - r.exp)
        self.b = m.num << (e - m.exp)
        self.exp = e

    @property
    def re(self) -> Dyadic:
        return Dyadic(self.a, self.exp)

    @property
    def im(self) -> Dyadic:
        return Dyadic(self.b, self.exp)

    @staticmethod
    def _coerce(value) -> "GaussianDyadic | None":
        if isinstance(value, GaussianDyadic):
            return value
        if isinstance(value, (int, Dyadic)) and type(value) is not bool:
            return GaussianDyadic(value)
        return None

    def __add__(self, other):
        if type(other) is not GaussianDyadic:
            other = GaussianDyadic._coerce(other)
            if other is None:
                return NotImplemented
        e = max(self.exp, other.exp)
        s, t = e - self.exp, e - other.exp
        return _canonical((self.a << s) + (other.a << t), (self.b << s) + (other.b << t), e)

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self.a, -self.b, self.exp)

    def __sub__(self, other):
        other = GaussianDyadic._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = GaussianDyadic._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianDyadic:
            other = GaussianDyadic._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        return _canonical(a * c - b * d, a * d + b * c, self.exp + other.exp)

    __rmul__ = __mul__
    __pow__ = _power

    def conj(self) -> "GaussianDyadic":
        return _gaussian(self.a, -self.b, self.exp)

    def norm(self) -> Dyadic:
        """re**2 + im**2, a non-negative dyadic."""
        return Dyadic(self.a * self.a + self.b * self.b, 2 * self.exp)

    def inverse(self) -> "GaussianDyadic":
        """Inverse, defined exactly for units: norm must be a power of two."""
        n = self.norm()
        if n.num == 0:
            raise ZeroDivisionError("gaussian zero has no inverse")
        if n.num & (n.num - 1):
            raise ValueError(f"{self} is not a unit of Z[1/2][i]")
        return self.conj() * GaussianDyadic(n.inverse())

    def mul_pow2(self, k: int) -> "GaussianDyadic":
        """self * 2**k for k >= 0."""
        if k < 0:
            raise ValueError("use div_pow2 for negative shifts")
        return _canonical(self.a << k, self.b << k, self.exp)

    def div_pow2(self, k: int) -> "GaussianDyadic":
        """self / 2**k for k >= 0; always exact in this ring."""
        if k < 0:
            raise ValueError("use mul_pow2 for negative shifts")
        return _canonical(self.a, self.b, self.exp + k)

    def __complex__(self) -> complex:
        # Int true division is correctly rounded, as Dyadic.__float__ is.
        return complex(self.a / (1 << self.exp), self.b / (1 << self.exp))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianDyadic:
            other = GaussianDyadic._coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.exp == other.exp

    def __hash__(self):
        # Real values hash like the Dyadic they equal (which hashes like an
        # int when integer-valued), keeping mixed-type dict lookups coherent.
        if self.b == 0:
            return hash(self.a) if self.exp == 0 else hash((self.a, self.exp))
        return hash((self.re, self.im))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im.num == 0:
            return str(re)
        imag = _imag_text(im)
        if re.num == 0:
            return imag
        return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"

    def __repr__(self) -> str:
        return f"GaussianDyadic({self.re!r}, {self.im!r})"


def _gaussian(a: int, b: int, exp: int) -> GaussianDyadic:
    """A GaussianDyadic from parts the caller knows to be canonical."""
    out = _new(GaussianDyadic)
    out.a = a
    out.b = b
    out.exp = exp
    return out


def _canonical(a: int, b: int, exp: int) -> GaussianDyadic:
    """(a + b i) / 2**exp as a GaussianDyadic, cancelling the twos that a, b
    and the denominator share."""
    bits = a | b
    if not bits:
        exp = 0
    elif exp:
        twos = (bits & -bits).bit_length() - 1
        if twos:
            cancel = twos if twos < exp else exp
            a >>= cancel
            b >>= cancel
            exp -= cancel
    return _gaussian(a, b, exp)


GaussianDyadic.ZERO = GaussianDyadic(0, 0)
GaussianDyadic.ONE = GaussianDyadic(1, 0)
GaussianDyadic.I = GaussianDyadic(0, 1)


def _poly_term_text(c: GaussianDyadic, j: int) -> str:
    """c x^j as Poly.__str__ writes it: a complex c is bracketed; otherwise
    the sign leads, and past x^0 a unit is left out and a fraction bracketed."""
    base = "" if j == 0 else "x" if j == 1 else f"x^{j}"
    if c.a and c.b:
        return f"({c}){base}"
    sign, mag = ("-", str(-c)) if c.a < 0 or c.b < 0 else ("", str(c))
    if base and mag == "1":
        mag = ""
    elif base and "/" in mag:
        mag = f"({mag})"
    return sign + mag + base


class Poly:
    """Dense univariate polynomial over Z[1/2][i]: the coefficient of x**j
    is (re[j] + im[j] i) / 2**exp.

    Canonical form: re and im have the same length with no trailing pair
    of zeros, and exp == 0 or some re[j] or im[j] is odd (the zero
    polynomial has exp == 0).  Equality and hashing compare the three parts.
    """

    __slots__ = ("re", "im", "exp")

    ZERO: "Poly"
    ONE: "Poly"
    X: "Poly"

    def __init__(self, coeffs=()):
        parts = []
        for c in coeffs:
            if type(c) is int:
                parts.append((c, 0, 0))
                continue
            g = GaussianDyadic._coerce(c)
            if g is None:
                raise TypeError("Poly coefficients must be GaussianDyadic, Dyadic or int")
            parts.append((g.a, g.b, g.exp))
        exp = max((e for _, _, e in parts), default=0)
        p = _poly([a << (exp - e) for a, _, e in parts],
                  [b << (exp - e) for _, b, e in parts], exp)
        self.re, self.im, self.exp = p.re, p.im, p.exp

    @staticmethod
    def _coerce(value) -> "Poly | None":
        if isinstance(value, Poly):
            return value
        if type(value) is int:
            return _make_poly((value,), (0,), 0) if value else Poly.ZERO
        g = GaussianDyadic._coerce(value)
        if g is not None:
            return Poly((g,))
        return None

    @property
    def coeffs(self) -> tuple:
        """The coefficients as GaussianDyadic values, lowest power first."""
        e = self.exp
        return tuple(_canonical(r, i, e) for r, i in zip(self.re, self.im))

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    def coeff(self, j: int) -> GaussianDyadic:
        if j < 0:
            raise IndexError("coefficient index must be non-negative")
        if j >= len(self.re):
            return GaussianDyadic.ZERO
        return _canonical(self.re[j], self.im[j], self.exp)

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return _poly_sum(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return _make_poly(tuple(-c for c in self.re), tuple(-c for c in self.im), self.exp)

    def __sub__(self, other):
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return _poly_sum(self, other, sub)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return _poly_sum(other, self, sub)

    def __mul__(self, other):
        if type(other) is not Poly:
            if type(other) is GaussianDyadic:
                # A scalar factor is one term c x**0; it never becomes a Poly.
                return _scaled(self, other.a, other.b, 0, other.exp)
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        # Schoolbook over Z[i] into one output of the product's length.
        a, b = (self, other) if len(self.re) <= len(other.re) else (other, self)
        if not a.re:
            return Poly.ZERO
        j = len(a.re) - 1
        if not (any(a.re[:j]) or any(a.im[:j])):
            # a is one term c x**j: scale b by c and shift it by j, with no
            # zero vector to add into.
            return _scaled(b, a.re[j], a.im[j], j, a.exp)
        size = len(a.re) + len(b.re) - 1
        out_re, out_im = [0] * size, [0] * size
        _mac(out_re, out_im, a.re, a.im, b.re, b.im)
        # Z[i] has no zero divisors, so the leading term survives; only
        # shared twos (such as (1+i)**2 = 2i) can need cancelling.
        return _poly(out_re, out_im, a.exp + b.exp)

    __rmul__ = __mul__
    __pow__ = _power

    def mul_pow2(self, k: int) -> "Poly":
        """self * 2**k for k >= 0."""
        if k < 0:
            raise ValueError("use div_pow2 for negative shifts")
        return _poly([c << k for c in self.re], [c << k for c in self.im], self.exp)

    def div_pow2(self, k: int) -> "Poly":
        """self / 2**k for k >= 0; always exact over Z[1/2][i]."""
        if k < 0:
            raise ValueError("use mul_pow2 for negative shifts")
        if self.exp:
            # An odd part is already present, so the result stays canonical.
            return _make_poly(self.re, self.im, self.exp + k)
        return _poly(list(self.re), list(self.im), k)

    def inverse(self) -> "Poly":
        """Inverse, defined only for invertible constants."""
        if not self.re:
            raise ZeroDivisionError("zero polynomial has no inverse")
        if self.degree > 0:
            raise ValueError("only constant polynomials are invertible")
        return Poly((self.coeff(0).inverse(),))

    def __call__(self, x) -> GaussianDyadic:
        gx = GaussianDyadic._coerce(x)
        if gx is None:
            raise TypeError("polynomial argument must be GaussianDyadic, Dyadic or int")
        if not self.re:
            return GaussianDyadic.ZERO
        if gx.a == 1 and not (gx.b or gx.exp):
            # x = 1: the value is the sum of the coefficients, part by part.
            return _canonical(sum(self.re), sum(self.im), self.exp)
        # Every other point, real integers too: Horner in Z[i] with
        # x = (xr + xi i) / 2**f.  The accumulator holds the partial sum
        # times 2**shift, so coefficient c enters as c << shift.
        xr, xi, f = gx.a, gx.b, gx.exp
        ar = ai = 0
        shift = -f
        for cr, ci in zip(reversed(self.re), reversed(self.im)):
            shift += f
            ar, ai = (ar * xr - ai * xi + (cr << shift),
                      ar * xi + ai * xr + (ci << shift))
        return _canonical(ar, ai, shift + self.exp)

    def __bool__(self) -> bool:
        return bool(self.re)

    def __eq__(self, other) -> bool:
        # A scalar compares as the constant polynomial it makes.
        if type(other) is not Poly:
            other = Poly._coerce(other)
            if other is None:
                return NotImplemented
        return self.exp == other.exp and self.re == other.re and self.im == other.im

    def __hash__(self):
        # A constant hashes like the scalar it equals.
        if len(self.re) <= 1:
            return hash(self.coeff(0))
        return hash((self.re, self.im, self.exp))

    def __str__(self) -> str:
        if not self.re:
            return "0"
        parts = [
            _poly_term_text(c, j) for j, c in enumerate(self.coeffs) if c
        ]
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += f" - {part[1:]}"
            else:
                out += f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"Poly([{', '.join(map(repr, self.coeffs))}])"


def _make_poly(re: tuple, im: tuple, exp: int) -> Poly:
    """A Poly from parts the caller knows to be canonical."""
    out = _new(Poly)
    out.re = re
    out.im = im
    out.exp = exp
    return out


def _poly(re: list, im: list, exp: int) -> Poly:
    """A canonical Poly from equal-length coefficient lists over 2**exp.

    Trims trailing zero pairs in place, then cancels the twos that every
    coefficient shares with the denominator.
    """
    while re and not (re[-1] or im[-1]):
        re.pop()
        im.pop()
    if not re:
        exp = 0
    elif exp:
        bits = reduce(or_, im, reduce(or_, re, 0))
        cancel = min((bits & -bits).bit_length() - 1, exp)
        if cancel:
            re = [c >> cancel for c in re]
            im = [c >> cancel for c in im]
            exp -= cancel
    return _make_poly(tuple(re), tuple(im), exp)


def _mac(out_re: list, out_im: list, ar, ai, br, bi) -> None:
    """Add the schoolbook product of the Z[i] vectors a and b into out, in
    place, cut to the length of out.  Term j of a adds (ar[j] + ai[j] i) b,
    shifted by j.  A zero term or a zero part costs no pass: a real b takes
    one pass per nonzero part of the term, a real or an imaginary term over a
    complex b two, and a complex term over a complex b two fused ones."""
    b_real = not any(bi)
    n = len(br)
    for j, (sr, si) in enumerate(zip(ar, ai)):
        end = j + n
        if b_real:
            if sr:
                out_re[j:end] = [o + sr * x for o, x in zip(out_re[j:end], br)]
            if si:
                out_im[j:end] = [o + si * x for o, x in zip(out_im[j:end], br)]
        elif not si:
            if sr:
                out_re[j:end] = [o + sr * x for o, x in zip(out_re[j:end], br)]
                out_im[j:end] = [o + sr * y for o, y in zip(out_im[j:end], bi)]
        elif not sr:
            out_re[j:end] = [o - si * y for o, y in zip(out_re[j:end], bi)]
            out_im[j:end] = [o + si * x for o, x in zip(out_im[j:end], br)]
        else:
            out_re[j:end] = [o + sr * x - si * y
                             for o, x, y in zip(out_re[j:end], br, bi)]
            out_im[j:end] = [o + sr * y + si * x
                             for o, x, y in zip(out_im[j:end], br, bi)]


def _scaled(p: Poly, sr: int, si: int, j: int, exp: int) -> Poly:
    """p times the one term (sr + si i) x**j / 2**exp, built directly."""
    br, bi, pad = p.re, p.im, [0] * j
    if not si:
        out_re = pad + [sr * x for x in br]
        out_im = pad + [sr * y for y in bi]
    elif not sr:
        out_re = pad + [-si * y for y in bi]
        out_im = pad + [si * x for x in br]
    else:
        out_re = pad + [sr * x - si * y for x, y in zip(br, bi)]
        out_im = pad + [sr * y + si * x for x, y in zip(br, bi)]
    return _poly(out_re, out_im, p.exp + exp)


def _poly_sum(a: Poly, b: Poly, op) -> Poly:
    """a + b or a - b, for op = operator.add or operator.sub, on a shared
    denominator."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    if a.exp > b.exp:
        k = a.exp - b.exp
        br, bi = [c << k for c in br], [c << k for c in bi]
    elif b.exp > a.exp:
        k = b.exp - a.exp
        ar, ai = [c << k for c in ar], [c << k for c in ai]
    re = list(map(op, ar, br))
    im = list(map(op, ai, bi))
    n = len(re)
    if len(ar) > n:
        re += ar[n:]
        im += ai[n:]
    else:
        re += [op(0, c) for c in br[n:]]
        im += [op(0, c) for c in bi[n:]]
    return _poly(re, im, max(a.exp, b.exp))


Poly.ZERO = _make_poly((), (), 0)
Poly.ONE = Poly((1,))
Poly.X = Poly((0, 1))


def linear_step(a, b, ring):
    """The map (x, y) -> a x + b y on elements of ring, fused into one pass
    where a and b allow it.

    The fused form needs ring Poly or GaussianDyadic and one-term
    coefficients a and b: a scalar (int, Dyadic or GaussianDyadic), or,
    over Poly, a Poly with at most one nonzero term c x**j.  It puts a x and
    b y over one power-of-two denominator by shifting the coefficients, not
    the terms, computes the real and imaginary parts by zipping the
    Gaussian-integer parts of x and y (one pass per part when a and b are
    real, through _mac otherwise), and canonicalizes once, so it builds one
    ring element where a x + b y builds three.  Its value and its canonical
    parts are those of a x + b y.  For any other ring (int, say) or
    coefficient (a Poly of two or more terms, or a Poly over GaussianDyadic)
    the map is a x + b y.
    """
    ta, tb = _one_term(a, ring), _one_term(b, ring)
    if ta is None or tb is None:
        return lambda x, y: a * x + b * y
    if ring is GaussianDyadic:
        return _gaussian_step(*ta[:3], *tb[:3])
    return _poly_step(*ta, *tb)


def _one_term(c, ring) -> tuple | None:
    """c as (re, im, exp, j) for the term (re + im i) x**j / 2**exp, or None
    if c is not one term of ring or ring is neither Poly nor GaussianDyadic."""
    if ring is not Poly and ring is not GaussianDyadic:
        return None
    if type(c) is int:
        # The walks' constant weights, such as 3 and -2, build nothing.
        return (c, 0, 0, 0)
    if type(c) is Poly:
        j = len(c.re) - 1
        if ring is GaussianDyadic or any(c.re[:j]) or any(c.im[:j]):
            return None
        return (c.re[j], c.im[j], c.exp, j) if c.re else (0, 0, 0, 0)
    g = GaussianDyadic._coerce(c)
    return None if g is None else (g.a, g.b, g.exp, 0)


def _gaussian_step(ar: int, ai: int, ea: int, br: int, bi: int, eb: int):
    def step(x: GaussianDyadic, y: GaussianDyadic) -> GaussianDyadic:
        e, f = ea + x.exp, eb + y.exp
        xa, xb, ya, yb = x.a, x.b, y.a, y.b
        re, im = ar * xa - ai * xb, ar * xb + ai * xa
        yr, yi = br * ya - bi * yb, br * yb + bi * ya
        if e > f:
            return _canonical(re + (yr << (e - f)), im + (yi << (e - f)), e)
        return _canonical((re << (f - e)) + yr, (im << (f - e)) + yi, f)

    return step


def _poly_step(ar: int, ai: int, ea: int, ja: int, br: int, bi: int, eb: int, jb: int):
    pad_a, pad_b = (0,) * ja, (0,) * jb
    real = not (ai or bi)

    def step(x: Poly, y: Poly) -> Poly:
        e, f = ea + x.exp, eb + y.exp
        exp = e if e > f else f
        sr, si, tr, ti = ar << (exp - e), ai << (exp - e), br << (exp - f), bi << (exp - f)
        xr, xi, yr, yi = pad_a + x.re, pad_a + x.im, pad_b + y.re, pad_b + y.im
        if real:
            # The walks' case: each part is one two-term pass, and real
            # terms give an imaginary part of zeros.
            re = [sr * u + tr * v for u, v in zip_longest(xr, yr, fillvalue=0)]
            if any(xi) or any(yi):
                im = [sr * u + tr * v for u, v in zip_longest(xi, yi, fillvalue=0)]
            else:
                im = [0] * len(re)
        else:
            size = max(len(xr), len(yr))
            re, im = [0] * size, [0] * size
            _mac(re, im, (sr,), (si,), xr, xi)
            _mac(re, im, (tr,), (ti,), yr, yi)
        return _poly(re, im, exp)

    return step


def poly_eval(p: Poly, x) -> GaussianDyadic:
    """Horner evaluation of p at a GaussianDyadic point (exact)."""
    if not isinstance(p, Poly):
        raise TypeError("poly_eval expects a Poly")
    return p(x)
