"""Cross-method verification: every identity the package claims, checked
over explicit ranges, with the first counterexample reported by index.

The report is deterministic for a given (max_n, max_poly_n, seed) triple;
the seed drives only the random-alphabet convolution check.  A fault can be
injected into the recurrence seeds to confirm that the checks actually bite.

Sizes follow the request.  run_verify derives every check's top index from
max_n or max_poly_n in one place, and its caps keep the default report
(500, 40) and every larger one as they are.  kernel/explicit-* and
kernel/two-letter-bridge run 0..min(60, max_n), decimation/kernel-scalar
0..min(30, max_n), decimation/kernel-poly 0..min(30, max_poly_n),
numeric-binet n <= min(30, max_poly_n), and convolution/definition1 draws
min(200, 5 max_poly_n) alphabets from one seeded stream, so a smaller run
checks the first alphabets of a larger one.  Only tables/* read six frozen
rows at every size.  Each draw is the one random.Random.randrange would
make, read straight from getrandbits by CPython's rule (k = n.bit_length()
bits, drawn again while n or more), so the alphabets are randrange's
without its call layers.

Every sweep over indices walks each recurrence once, through the iter_*
routes of polyfam and symfun, so a sweep to n costs one pass rather than a
rerun from index 0 per term; the identities checked are exactly the per-term
ones.  The iterators are looked up on their modules at call time, so a test
can substitute a corrupted route and see the sweep catch it.

ROUTES is the one table of each family's routes: method, first valid n,
single-term function and stream(start).  A walked route has only a stream:
`term` reads the first item of stream(n) and a check walks stream(first),
one function for both; the symmetric rows keep a doubling term beside the
kernel walk.  `term` runs the table, and route-agreement/*, negative/* and
tables/polynomials compare its routes.  A check that compares streams
term by term runs through one helper, _check_streams: each group pairs a
stream with the routes compared against it, each from its own first index,
so a route's domain is data, and every such check reports its first
mismatch in one format.  It, negative/backward-closure and
convolution/definition1 compare terms by their canonical ints (_parts), not
by the == of arith, so a fault in the ring's equality cannot pass a wrong
term.
route-agreement/numbers compares each family's recurrence stream with the
family's other routes but genfun, m before Gm at each n, and the m stream
with the int 2**n + 1 too.  A seed fault adds to its family's recurrence
stream the walk from the unit seed it perturbs, which by linearity makes it
the walk from the perturbed seeds.  The m group leaves out its explicit
route: the Gm explicit stream reads ml_explicit at every n, so each m
explicit sum is computed once, when a comparison first needs it.
decimation/* probes kernel_term by hand first.  Three checks stay
hand-written: negative/backward-closure (a residual over k across zero,
which writes out the recurrence it checks), convolution/definition1 (random
trials, compared as whole series by the parts of their Polys in z, reading
coefficients only to name the first n at which a failing trial differs)
and numeric-binet (a float tolerance).
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple

from .arith import Dyadic, GaussianDyadic, Poly, _canonical, poly_eval
from . import sequences as seq
from . import polyfam as pf
from . import symfun as sf

FAULTS = ("m1", "gm0", "gm1")
_THREE_HALVES = GaussianDyadic(Dyadic(3, 1))
_MINUS_HALF = GaussianDyadic(Dyadic(-1, 1))


class Route(namedtuple("Route", "method first single stream", defaults=(None, None))):
    """A route: its --method, first n, single(n), and the stream(start) that
    yields its terms from start on, downwards for a negative route."""
    __slots__ = ()

    def term(self, n):
        """The n-th term: single(n), or else the first item of stream(n)."""
        return self.single(n) if self.single else next(self.stream(n))


# Each family's routes in `term --method auto` order, then its route for
# negative n, which answers from n = -1 down: the closed form for numbers,
# the backward recurrence for polynomials.  A walked route names only its
# stream, so `term` and every check run the same code.  Each function is
# looked up on its module at call time, so a patched or traced route runs.
ROUTES = {
    "m": ((Route("recurrence", 0, stream=lambda start: seq.iter_ml_recurrence(start)),
           Route("binet", 0, lambda n: seq.ml_binet(n)),
           Route("explicit", 0, lambda n: seq.ml_explicit(n))),
          Route("binet", -1, lambda n: seq.ml_negative(-n))),
    "gm": ((Route("recurrence", 0, stream=lambda start: seq.iter_gml_recurrence(start)),
            Route("binet", 0, lambda n: seq.gml_binet(n)),
            Route("symmetric", 0, lambda n: sf.sym_decompose_gml(n),
                  lambda start: sf.iter_sym_decompose_gml(start)),
            Route("genfun", 0, lambda n: sf.gf_gml(n)[n]),
            Route("explicit", 1, stream=lambda start: seq.iter_gml_explicit(start)),
            Route("relation", 1, stream=lambda start: seq.iter_gml_from_ml(start))),
           Route("binet", -1, lambda n: seq.gml_negative(-n))),
    "mpoly": ((Route("recurrence", 0, stream=lambda start: pf.iter_ml_poly(start)),
               Route("explicit", 0, lambda n: pf.ml_poly_explicit(n)),
               Route("symmetric", 0, lambda n: sf.sym_decompose_ml_poly(n),
                     lambda start: sf.iter_sym_decompose_ml_poly(start)),
               Route("genfun", 0, lambda n: sf.gf_ml_poly(n)[n])),
              Route("recurrence", -1, stream=lambda start: pf.iter_ml_poly_negative(-start))),
    "gmpoly": ((Route("recurrence", 0, stream=lambda start: pf.iter_gml_poly(start)),
                Route("symmetric", 0, lambda n: sf.sym_decompose_gml_poly(n),
                      lambda start: sf.iter_sym_decompose_gml_poly(start)),
                Route("genfun", 0, lambda n: sf.gf_gml_poly(n)[n]),
                Route("explicit", 1, lambda n: pf.gml_poly_explicit(n)),
                Route("relation", 1, stream=lambda start: pf.iter_gml_poly_from_ml(start))),
               Route("recurrence", -1, stream=lambda start: pf.iter_gml_poly_negative(-start))),
}


CheckResult = namedtuple("CheckResult", "name range passed detail", defaults=("",))


class VerifyReport(namedtuple("VerifyReport", "checks")):
    """The checks of one run, a tuple of CheckResult, in report order."""
    __slots__ = ()

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _ok(name: str, rng: str) -> CheckResult:
    return CheckResult(name, rng, True)


def _fail(name: str, rng: str, detail: str) -> CheckResult:
    return CheckResult(name, rng, False, detail)


# The first six rows of both families, frozen as independent literals.
_TABLE_GM = (
    GaussianDyadic(2, Dyadic(3, 1)),
    GaussianDyadic(3, 2),
    GaussianDyadic(5, 3),
    GaussianDyadic(9, 5),
    GaussianDyadic(17, 9),
    GaussianDyadic(33, 17),
)
_TABLE_M_POLY = tuple(map(Poly, (
    (2,),
    (0, 3),
    (-4, 0, 9),
    (0, -18, 0, 27),
    (8, 0, -72, 0, 81),
    (0, 60, 0, -270, 0, 243),
)))
# Gm_n(x) = m_n(x) + i m_{n-1}(x) for n >= 1, from the m rows.
_TABLE_GM_POLY = (Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
                  *(m + GaussianDyadic.I * prev for prev, m in itertools.pairwise(_TABLE_M_POLY)))


def _parts(x) -> tuple:
    """The canonical ints of a term: (a, b, exp) of a GaussianDyadic, (re,
    im, exp) of a Poly, (x, 0, 0) of an int.  Both sides of a comparison
    are canonical, so equal values have equal parts, and the comparison
    reads ints, not the == of the ring whose routes it checks."""
    if type(x) is GaussianDyadic:
        return x.a, x.b, x.exp
    if type(x) is Poly:
        return x.re, x.im, x.exp
    if type(x) is int:
        return x, 0, 0
    raise TypeError(f"no canonical parts for {type(x).__name__}")


def _check_streams(name: str, lo: int, hi: int, *groups) -> CheckResult:
    """Terms lo..hi of each group's stream against its others, term by term.

    A group is (label, stream, others) and each other is (label, first,
    stream): a stream is a callable that returns an iterable of terms from
    lo (a group's own) or from first (an other's), so an other that starts
    later joins the comparison at its first index.  The first mismatch reads
    "n=<n>: <label>=<term> vs <label>=<term>", group first; a label may name
    an index as {n}, {even} (2n) or {odd} (2n + 1).
    """
    rng = f"{lo}..{hi}"
    walks = [(label, iter(stream()), [(other, first, iter(s())) for other, first, s in others])
             for label, stream, others in groups]
    for n in range(lo, hi + 1):
        for label, stream, others in walks:
            term = next(stream)
            for other, first, s in others:
                if n >= first and _parts(other_term := next(s)) != _parts(term):
                    at = {"n": n, "even": 2 * n, "odd": 2 * n + 1}
                    return _fail(name, rng, f"n={n}: {label.format(**at)}={term} "
                                            f"vs {other.format(**at)}={other_term}")
    return _ok(name, rng)


def _terms(route, first=0, step=1):
    """A stream of route(first), route(first + step), ..."""
    return lambda: map(route, itertools.count(first, step))


def _stream(route: Route, step: int = 1):
    """The route's own stream from its first index, or one of its single-term function."""
    if route.stream:
        return lambda: route.stream(route.first)
    return _terms(route.single, route.first, step)


def _compared(routes) -> list:
    """The routes but genfun, each as (method, first, stream) for _check_streams."""
    return [(r.method, r.first, _stream(r)) for r in routes if r.method != "genfun"]


# The unit walk that a seed fault adds to its family's recurrence stream;
# by linearity the sum is the walk from the perturbed seeds.
_FAULT_WALKS = {"m1": ("m", 0, 1), "gm0": ("gm", 1, 0), "gm1": ("gm", 0, 1)}


def _check_route_numbers(max_n: int, fault: str | None) -> CheckResult:
    """Each family's recurrence stream, plus the walk of a seed fault,
    against its other routes, m before Gm at each n, and the m stream
    against the int 2**n + 1 too; genfun/gm compares the genfun route in
    full.  The m group leaves out its explicit route: the Gm explicit
    stream reads ml_explicit at every n <= max_n, each sum once."""
    (m_head, *m_routes), _ = ROUTES["m"]
    (gm_head, *gm_routes), _ = ROUTES["gm"]
    heads = {"m": _stream(m_head), "gm": _stream(gm_head)}
    if fault:
        family, x0, x1 = _FAULT_WALKS[fault]
        head = heads[family]
        heads[family] = lambda: map(operator.add, head(), seq.walk(x0, x1, 3, -2))
    return _check_streams(
        "route-agreement/numbers", 0, max_n,
        ("recurrence", heads["m"],
         [*_compared(r for r in m_routes if r.method != "explicit"),
          ("2**{n} + 1", 0, lambda: (2**n + 1 for n in itertools.count()))]),
        ("recurrence", heads["gm"], _compared(gm_routes)))


def _check_route_polynomials(max_poly_n: int) -> CheckResult:
    """Each polynomial family's first route against its other routes, each
    from its first index; genfun/* compares the genfun routes in full."""
    groups = [(f"{label} {head.method}", _stream(head), _compared(rest))
              for label, (head, *rest) in (("m", ROUTES["mpoly"][0]), ("Gm", ROUTES["gmpoly"][0]))]
    return _check_streams("route-agreement/polynomials", 0, max_poly_n, *groups)


def _backward(x1, x0, d):
    """A stream of x_{-1}, x_{-2}, ...: the walk of the recurrence run
    backwards, x_{k-2} = (d x_{k-1} - x_k) / 2, down from (x_1, x_0).  The
    walk runs in Z[1/2][i], so the seeds are given there too."""
    return lambda: itertools.islice(seq.walk(x1, x0, d, _MINUS_HALF), 2, None)


def _check_negative(name: str, hi: int, d, *families) -> CheckResult:
    """Each family's negative route against the backward walk from the
    family's seeds x_1, x_0, at indices -1..-hi, reported as n = 1..hi."""
    return _check_streams(name, 1, hi, *(
        (label, _stream(ROUTES[family][1], -1), (("backward walk", 1, _backward(x1, x0, d)),))
        for label, family, x1, x0 in families))


def _check_negative_numbers(hi: int) -> CheckResult:
    return _check_negative("negative/numbers", hi, _THREE_HALVES,
                           ("m(-{n})", "m", GaussianDyadic(seq.M1), GaussianDyadic(seq.M0)),
                           ("Gm(-{n})", "gm", seq.GM1, seq.GM0))


def _check_negative_polynomials(hi: int) -> CheckResult:
    return _check_negative("negative/polynomials", hi, Poly((0, _THREE_HALVES)),
                           ("m(-{n})(x)", "mpoly", pf.MP1, pf.MP0),
                           ("Gm(-{n})(x)", "gmpoly", pf.GMP1, pf.GMP0))


def _check_backward_closure(hi: int) -> CheckResult:
    lo = -(hi - 2)
    name, rng = "negative/backward-closure", f"{lo}..{hi}"

    def term(k: int) -> GaussianDyadic:
        return seq.gml_binet(k) if k >= 0 else seq.gml_negative(-k)

    prev2 = term(lo - 2)
    prev1 = term(lo - 1)
    for k in range(lo, hi + 1):
        cur = term(k)
        want = 3 * prev1 - 2 * prev2
        if _parts(cur) != _parts(want):
            return _fail(name, rng, f"k={k}: term={cur} vs 3x_(k-1) - 2x_(k-2)={want}")
        prev2, prev1 = prev1, cur
    return _ok(name, rng)


def _check_specialization(hi: int) -> CheckResult:
    def at_one(walk):
        return lambda: (poly_eval(p, GaussianDyadic.ONE) for p in walk())

    return _check_streams(
        "specialization/x=1", 0, hi,
        ("m_{n}(1)", at_one(pf.iter_ml_poly), (("m_{n}", 0, _terms(seq.ml_binet)),)),
        ("Gm_{n}(1)", at_one(pf.iter_gml_poly), (("Gm_{n}", 0, _terms(seq.gml_binet)),)))


def _below(bits, n: int) -> int:
    """The draw of rng.randrange(n), taken from bits = rng.getrandbits by the
    rule of CPython's Random._randbelow_with_getrandbits: draw k =
    n.bit_length() bits, and draw again while the result is n or more."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_letter(bits) -> GaussianDyadic:
    """(a / 2**ea) + (b / 2**eb) i for a, b in -3..3 and ea, eb in 0..1,
    built over 2 as one GaussianDyadic.  These are the draws of
    randint(-3, 3), randint(0, 1), randint(-3, 3) and randint(0, 1):
    Python defines randint(lo, hi) as randrange(lo, hi + 1), which draws
    lo + _randbelow(hi + 1 - lo)."""
    a, ea, b, eb = _below(bits, 7) - 3, _below(bits, 2), _below(bits, 7) - 3, _below(bits, 2)
    return _canonical(a << (1 - ea), b << (1 - eb), 1)


def _check_convolution(seed: int, trials: int) -> CheckResult:
    name, rng_text = "convolution/definition1", f"{trials} alphabets, n<=12"
    # Each draw is the one rng.randrange would make, read straight from
    # the generator's bits.
    bits = random.Random(seed).getrandbits
    for trial in range(trials):
        lam = [_random_letter(bits) for _ in range(_below(bits, 4))]
        mu = [_random_letter(bits) for _ in range(_below(bits, 4))]
        series = sf.s_diff_series(lam, mu, 12)
        # Definition 1, sum_j S_{n-j}(-mu) S_j(lambda), for every n <= 12
        # at once: the Cauchy product of the two factor series.
        convolution = sf.s_neg_alphabet(mu, 12) * sf.s_diff_series(lam, (), 12)
        if _parts(convolution._zview()) == _parts(series._zview()):
            continue
        for n in range(13):
            conv = convolution[n]
            if _parts(conv) != _parts(series[n]):
                return _fail(
                    name, rng_text,
                    f"trial={trial} n={n}: convolution={conv} vs series={series[n]}",
                )
    return _ok(name, rng_text)


def _check_kernel_explicit(kernel: sf.SymKernel, which: str, hi: int) -> CheckResult:
    return _check_streams(
        f"kernel/explicit-{which}", 0, hi,
        ("recurrence", lambda: sf.iter_kernel(kernel),
         (("explicit", 0, lambda: sf.iter_kernel_explicit(kernel)),
          ("series", 0, lambda: sf.kernel_series(kernel, hi)))))


def _check_decimation(kernel: sf.SymKernel, which: str, hi: int) -> CheckResult:
    name = f"decimation/kernel-{which}"
    odd_back, even, odd_fwd = sf.kernel_even_odd_series(kernel, hi)
    # S_{-1} .. S_{2hi+1}
    terms = [sf.kernel_term(kernel, -1), *itertools.islice(sf.iter_kernel(kernel), 2 * hi + 2)]
    if terms[hi + 1] != sf.kernel_term(kernel, hi):
        return _fail(name, f"0..{hi}", "recurrence walk disagrees with kernel_term")
    return _check_streams(name, 0, hi,
                          ("S(2n-1) coefficient", lambda: odd_back, (("term", 0, lambda: terms[0::2]),)),
                          ("S(2n) coefficient", lambda: even, (("term", 0, lambda: terms[1::2]),)),
                          ("S(2n+1) coefficient", lambda: odd_fwd, (("term", 0, lambda: terms[2::2]),)))


def _check_numeric_binet(hi: int) -> CheckResult:
    name, rng = "numeric-binet", f"n<={hi}, x in {{1, 2, 3, 5/2}}"
    points = ((1, GaussianDyadic(1)), (2, GaussianDyadic(2)),
              (3, GaussianDyadic(3)), (2.5, GaussianDyadic(Dyadic(5, 1))))
    walker = pf.iter_gml_poly()
    for n in range(hi + 1):
        gm = next(walker)
        for x_float, x_exact in points:
            exact = complex(poly_eval(gm, x_exact))
            approx = pf.binet_numeric(n, x_float)
            err = abs(approx - exact)
            if x_float == 1:
                if err != 0.0:
                    return _fail(name, rng, f"n={n} x=1: error {err} (must be exactly 0)")
            elif err > 1e-9 * (1.0 + abs(exact)):
                return _fail(name, rng, f"n={n} x={x_float}: relative error {err / (1.0 + abs(exact))}")
    return _ok(name, rng)


def run_verify(
    max_n: int = 500,
    max_poly_n: int = 40,
    seed: int = 0,
    inject_fault: str | None = None,
) -> VerifyReport:
    """Run every check suite; the report is sorted by check name.

    inject_fault in {"m1", "gm0", "gm1"} perturbs the corresponding
    recurrence seed inside the route-agreement check, simulating a
    corrupted build; a healthy tree then reports a failure at index <= 2.
    """
    if max_n < 6:
        raise ValueError("max_n must be at least 6 to cover the reference tables")
    if max_poly_n < 6:
        raise ValueError("max_poly_n must be at least 6 to cover the reference tables")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; choose from {FAULTS}")
    kernel_num, kernel_poly = sf._KERNEL_NUM, sf._KERNEL_POLY
    # Every capped top index, and the convolution trial count.
    hi_num, hi_half, hi_spec = min(100, max_n), min(50, max(max_n // 2, 1)), min(200, max_n)
    hi_kernel, hi_decimation = min(60, max_n), min(30, max_n)
    hi_poly, hi_gf_poly = min(40, max_poly_n), min(30, max_poly_n)
    trials = min(200, 5 * max_poly_n)

    gm_binet = _terms(seq.gml_binet)
    gm, m_poly, gm_poly = (_stream(ROUTES[family][0][0]) for family in ("gm", "mpoly", "gmpoly"))
    checks = [
        _check_convolution(seed, trials),
        _check_decimation(kernel_num, "scalar", hi_decimation),
        _check_decimation(kernel_poly, "poly", hi_gf_poly),
        _check_streams("decomposition/gm", 0, hi_num,
                       ("decomposition", sf.iter_sym_decompose_gml, (("binet", 0, gm_binet),))),
        _check_streams("decomposition/gm-poly", 0, hi_poly,
                       ("decomposition", sf.iter_sym_decompose_gml_poly,
                        (("recurrence", 0, pf.iter_gml_poly),))),
        _check_streams("decomposition/m-poly", 0, hi_poly,
                       ("decomposition", sf.iter_sym_decompose_ml_poly,
                        (("recurrence", 0, pf.iter_ml_poly),))),
        _check_streams("genfun/gm", 0, hi_num,
                       ("coefficient", lambda: sf.gf_gml(hi_num), (("term", 0, gm_binet),))),
        _check_streams("genfun/gm-even", 0, hi_half,
                       ("coefficient", lambda: sf.gf_gml_even(hi_half),
                        (("Gm({even})", 0, _terms(seq.gml_binet, 0, 2)),))),
        _check_streams("genfun/gm-odd", 0, hi_half,
                       ("coefficient", lambda: sf.gf_gml_odd(hi_half),
                        (("Gm({odd})", 0, _terms(seq.gml_binet, 1, 2)),))),
        _check_streams("genfun/gm-poly", 0, hi_gf_poly,
                       ("coefficient", lambda: sf.gf_gml_poly(hi_gf_poly),
                        (("term", 0, pf.iter_gml_poly),))),
        _check_streams("genfun/m-poly", 0, hi_gf_poly,
                       ("coefficient", lambda: sf.gf_ml_poly(hi_gf_poly),
                        (("term", 0, pf.iter_ml_poly),))),
        _check_kernel_explicit(kernel_num, "scalar", hi_kernel),
        _check_kernel_explicit(kernel_poly, "poly", hi_kernel),
        _check_streams("kernel/two-letter-bridge", 0, hi_kernel,
                       ("two-letter", lambda: sf.iter_two_letter_sn(2, 1),
                        (("kernel", 0, lambda: sf.iter_kernel(kernel_num)),))),
        _check_backward_closure(hi_num),
        _check_negative_numbers(hi_num),
        _check_negative_polynomials(hi_poly),
        _check_numeric_binet(hi_gf_poly),
        _check_route_numbers(max_n, inject_fault),
        _check_route_polynomials(max_poly_n),
        _check_specialization(hi_spec),
        _check_streams("tables/numbers", 0, 5,
                       ("recurrence", gm, (("table", 0, lambda: _TABLE_GM),))),
        _check_streams("tables/polynomials", 0, 5,
                       ("m recurrence", m_poly, (("table", 0, lambda: _TABLE_M_POLY),)),
                       ("gm recurrence", gm_poly, (("table", 0, lambda: _TABLE_GM_POLY),))),
    ]
    checks.sort(key=lambda c: c.name)
    return VerifyReport(tuple(checks))
