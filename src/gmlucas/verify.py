"""Cross-method verification: every identity the package claims, checked
over explicit ranges, with the first counterexample reported by index.

The report is deterministic for a given (max_n, max_poly_n, seed) triple;
the seed drives only the random-alphabet convolution check.  A fault can be
injected into the recurrence seeds to confirm that the checks actually bite.

Every sweep over indices walks each recurrence once, through the iter_*
routes of polyfam and symfun, so a sweep to n costs one pass rather than a
rerun from index 0 per term; the identities checked are exactly the per-term
ones.  The iterators are looked up on their modules at call time, so a test
can substitute a corrupted route and see the sweep catch it.

ROUTES is the one table of each family's routes: method, first valid n,
single-term function and, where a check walks one, stream.  `term` runs it,
and route-agreement/polynomials and negative/* compare its routes.  A check
that compares streams term by term runs through one helper, _check_streams:
each group pairs a stream with the routes compared against it, each from
its own first index, so a route's domain is data, and every such check
reports its first mismatch in one format.
Five checks stay hand-written: route-agreement/numbers (the seed faults land
there, and its m line shows three routes at once), negative/backward-closure
(a residual over k across zero), decimation/* (a kernel_term probe and three
series), convolution/definition1 (random trials) and numeric-binet (a float
tolerance).  The seed sweeps of route-agreement/numbers and the backward
walks of negative/* walk sequences.walk, and route-agreement/numbers takes
its relation terms from sequences.iter_gml_from_ml; the backward-closure
check writes out the recurrence it checks.  convolution/definition1 compares whole
series with ==, in z, reading coefficients only to name the first n at
which a failing trial differs.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .arith import Dyadic, GaussianDyadic, Poly, _canonical, poly_eval
from . import sequences as seq
from . import polyfam as pf
from . import symfun as sf

FAULTS = ("m1", "gm0", "gm1")
_THREE_HALVES = GaussianDyadic(Dyadic(3, 1))
_MINUS_HALF = GaussianDyadic(Dyadic(-1, 1))


class Route(namedtuple("Route", "method first term stream", defaults=(None,))):
    """A route: its --method, first n, term(n), and the stream from first that a check walks."""
    __slots__ = ()


# Each family's routes in `term --method auto` order, then its route for
# negative n, which answers from n = -1 down: the closed form for numbers,
# the backward recurrence for polynomials.  Terms and streams look their
# function up on its module at call time, so a patched or traced route runs.
ROUTES = {
    "m": ((Route("recurrence", 0, lambda n: seq.ml_recurrence(n)),
           Route("binet", 0, lambda n: seq.ml_binet(n)),
           Route("explicit", 0, lambda n: seq.ml_explicit(n))),
          Route("binet", -1, lambda n: seq.ml_negative(-n))),
    "gm": ((Route("recurrence", 0, lambda n: seq.gml_recurrence(n)),
            Route("binet", 0, lambda n: seq.gml_binet(n)),
            Route("symmetric", 0, lambda n: sf.sym_decompose_gml(n)),
            Route("genfun", 0, lambda n: sf.gf_gml(n)[n]),
            Route("explicit", 1, lambda n: seq.gml_explicit(n)),
            Route("relation", 1, lambda n: seq.gml_from_ml(n))),
           Route("binet", -1, lambda n: seq.gml_negative(-n))),
    "mpoly": ((Route("recurrence", 0, lambda n: pf.ml_poly(n), lambda: pf.iter_ml_poly()),
               Route("explicit", 0, lambda n: pf.ml_poly_explicit(n)),
               Route("symmetric", 0, lambda n: sf.sym_decompose_ml_poly(n),
                     lambda: sf.iter_sym_decompose_ml_poly()),
               Route("genfun", 0, lambda n: sf.gf_ml_poly(n)[n])),
              Route("recurrence", -1, lambda n: pf.ml_poly_negative(-n),
                    lambda: pf.iter_ml_poly_negative())),
    "gmpoly": ((Route("recurrence", 0, lambda n: pf.gml_poly(n), lambda: pf.iter_gml_poly()),
                Route("symmetric", 0, lambda n: sf.sym_decompose_gml_poly(n),
                      lambda: sf.iter_sym_decompose_gml_poly()),
                Route("genfun", 0, lambda n: sf.gf_gml_poly(n)[n]),
                Route("explicit", 1, lambda n: pf.gml_poly_explicit(n)),
                Route("relation", 1, lambda n: pf.gml_poly_from_ml(n),
                      lambda: pf.iter_gml_poly_from_ml())),
               Route("recurrence", -1, lambda n: pf.gml_poly_negative(-n),
                     lambda: pf.iter_gml_poly_negative())),
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
_TABLE_M_POLY = (
    (2,),
    (0, 3),
    (-4, 0, 9),
    (0, -18, 0, 27),
    (8, 0, -72, 0, 81),
    (0, 60, 0, -270, 0, 243),
)


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
                if n >= first and (other_term := next(s)) != term:
                    at = {"n": n, "even": 2 * n, "odd": 2 * n + 1}
                    return _fail(name, rng, f"n={n}: {label.format(**at)}={term} "
                                            f"vs {other.format(**at)}={other_term}")
    return _ok(name, rng)


def _terms(route, first=0, step=1):
    """A stream of route(first), route(first + step), ..."""
    return lambda: map(route, itertools.count(first, step))


def _stream(route: Route, step: int = 1):
    """The route's own stream, or one of its single-term function."""
    return route.stream or _terms(route.term, route.first, step)


def _check_tables_polynomials() -> CheckResult:
    table_m = [Poly(row) for row in _TABLE_M_POLY]
    table_gm = [Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
                *(m + GaussianDyadic.I * prev for prev, m in itertools.pairwise(table_m))]
    return _check_streams("tables/polynomials", 0, 5,
                          ("m recurrence", _terms(pf.ml_poly), (("table", 0, lambda: table_m),)),
                          ("gm recurrence", _terms(pf.gml_poly), (("table", 0, lambda: table_gm),)))


def _check_route_numbers(max_n: int, fault: str | None) -> CheckResult:
    """Every number route must agree at every index up to max_n."""
    name, rng = "route-agreement/numbers", f"0..{max_n}"
    m0, m1 = seq.M0, seq.M1
    g0, g1 = seq.GM0, seq.GM1
    if fault == "m1":
        m1 = m1 + 1
    elif fault == "gm0":
        g0 = g0 + 1
    elif fault == "gm1":
        g1 = g1 + 1
    m_walk = seq.walk(m0, m1, 3, -2)
    g_walk = seq.walk(g0, g1, 3, -2)
    symmetric = sf.iter_sym_decompose_gml()
    relation = seq.iter_gml_from_ml()
    e_prev = None
    for n in range(max_n + 1):
        rec = next(m_walk)
        binet = seq.ml_binet(n)
        explicit = seq.ml_explicit(n)
        if not (GaussianDyadic(rec) == binet == explicit):
            return _fail(
                name, rng,
                f"n={n}: recurrence={rec} binet={binet} explicit={explicit}",
            )
        b = binet.a  # binet equals the integer rec here
        if n >= 1 and (b % 2 == 0 or ((b - 1) & (b - 2))):
            return _fail(name, rng, f"n={n}: {b} is not 1 + a power of two")
        grec = next(g_walk)
        routes = [("binet", seq.gml_binet(n)),
                  ("symmetric", next(symmetric))]
        if n >= 1:
            routes.append(("explicit", GaussianDyadic(explicit.a, e_prev.a)))
            routes.append(("relation", next(relation)))
        for label, got in routes:
            if got != grec:
                return _fail(name, rng, f"n={n}: recurrence={grec} vs {label}={got}")
        e_prev = explicit
    return _ok(name, rng)


def _check_route_polynomials(max_poly_n: int) -> CheckResult:
    """Each polynomial family's first route against its other routes, each
    from its first index; genfun/* compares the genfun routes in full."""
    groups = [(f"{label} {head.method}", _stream(head),
               [(r.method, r.first, _stream(r)) for r in rest if r.method != "genfun"])
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


def _check_negative_numbers(max_n: int) -> CheckResult:
    return _check_negative("negative/numbers", min(100, max_n), _THREE_HALVES,
                           ("m(-{n})", "m", GaussianDyadic(seq.M1), GaussianDyadic(seq.M0)),
                           ("Gm(-{n})", "gm", seq.GM1, seq.GM0))


def _check_negative_polynomials(max_poly_n: int) -> CheckResult:
    return _check_negative("negative/polynomials", min(40, max_poly_n), Poly((0, _THREE_HALVES)),
                           ("m(-{n})(x)", "mpoly", pf.MP1, pf.MP0),
                           ("Gm(-{n})(x)", "gmpoly", pf.GMP1, pf.GMP0))


def _check_backward_closure(max_n: int) -> CheckResult:
    hi = min(100, max_n)
    lo = -(hi - 2)
    name, rng = "negative/backward-closure", f"{lo}..{hi}"

    def term(k: int) -> GaussianDyadic:
        return seq.gml_binet(k) if k >= 0 else seq.gml_negative(-k)

    prev2 = term(lo - 2)
    prev1 = term(lo - 1)
    for k in range(lo, hi + 1):
        cur = term(k)
        want = 3 * prev1 - 2 * prev2
        if cur != want:
            return _fail(name, rng, f"k={k}: term={cur} vs 3x_(k-1) - 2x_(k-2)={want}")
        prev2, prev1 = prev1, cur
    return _ok(name, rng)


def _check_specialization(max_n: int) -> CheckResult:
    def at_one(walk):
        return lambda: (poly_eval(p, GaussianDyadic.ONE) for p in walk())

    return _check_streams(
        "specialization/x=1", 0, min(200, max_n),
        ("m_{n}(1)", at_one(pf.iter_ml_poly), (("m_{n}", 0, _terms(seq.ml_binet)),)),
        ("Gm_{n}(1)", at_one(pf.iter_gml_poly), (("Gm_{n}", 0, _terms(seq.gml_binet)),)))


def _random_letter(rng: random.Random) -> GaussianDyadic:
    """(a / 2**ea) + (b / 2**eb) i for a, b in -3..3 and ea, eb in 0..1,
    built over 2 as one GaussianDyadic.  Python defines randint(lo, hi) as
    randrange(lo, hi + 1), so these are the draws of randint(-3, 3) and
    randint(0, 1)."""
    a, ea, b, eb = rng.randrange(-3, 4), rng.randrange(2), rng.randrange(-3, 4), rng.randrange(2)
    return _canonical(a << (1 - ea), b << (1 - eb), 1)


def _check_convolution(seed: int) -> CheckResult:
    name, rng_text = "convolution/definition1", "200 alphabets, n<=12"
    rng = random.Random(seed)
    for trial in range(200):
        lam = [_random_letter(rng) for _ in range(rng.randrange(4))]
        mu = [_random_letter(rng) for _ in range(rng.randrange(4))]
        series = sf.s_diff_series(lam, mu, 12)
        # Definition 1, sum_j S_{n-j}(-mu) S_j(lambda), for every n <= 12
        # at once: the Cauchy product of the two factor series.
        convolution = sf.s_neg_alphabet(mu, 12) * sf.s_diff_series(lam, (), 12)
        if convolution == series:
            continue
        for n in range(13):
            conv = convolution[n]
            if conv != series[n]:
                return _fail(
                    name, rng_text,
                    f"trial={trial} n={n}: convolution={conv} vs series={series[n]}",
                )
    return _ok(name, rng_text)


def _check_kernel_explicit(kernel: sf.SymKernel, which: str) -> CheckResult:
    return _check_streams(
        f"kernel/explicit-{which}", 0, 60,
        ("recurrence", lambda: sf.iter_kernel(kernel),
         (("explicit", 0, lambda: sf.iter_kernel_explicit(kernel)),
          ("series", 0, lambda: sf.kernel_series(kernel, 60)))))


def _check_decimation(kernel: sf.SymKernel, which: str) -> CheckResult:
    name, rng = f"decimation/kernel-{which}", "0..30"
    odd_back, even, odd_fwd = sf.kernel_even_odd_series(kernel, 30)
    # S_{-1} .. S_61
    terms = [sf.kernel_term(kernel, -1), *itertools.islice(sf.iter_kernel(kernel), 62)]
    if terms[31] != sf.kernel_term(kernel, 30):
        return _fail(name, rng, "recurrence walk disagrees with kernel_term")
    for n in range(31):
        trio = (
            (odd_back[n], terms[2 * n], "S(2n-1)"),
            (even[n], terms[2 * n + 1], "S(2n)"),
            (odd_fwd[n], terms[2 * n + 2], "S(2n+1)"),
        )
        for got, want, label in trio:
            if got != want:
                return _fail(name, rng, f"n={n}: {label} coefficient={got} vs term={want}")
    return _ok(name, rng)


def _check_numeric_binet() -> CheckResult:
    name, rng = "numeric-binet", "n<=30, x in {1, 2, 3, 5/2}"
    points = ((1, GaussianDyadic(1)), (2, GaussianDyadic(2)),
              (3, GaussianDyadic(3)), (2.5, GaussianDyadic(Dyadic(5, 1))))
    walker = pf.iter_gml_poly()
    for n in range(31):
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
    kernel_num = sf.SymKernel(3, -2)
    kernel_poly = sf.SymKernel(Poly((0, 3)), Poly((-2,)))
    hi_gm, hi_half = min(100, max_n), min(50, max(max_n // 2, 1))
    hi_gf_poly, hi_dec_poly = min(30, max_poly_n), min(40, max_poly_n)

    gm_binet = _terms(seq.gml_binet)
    checks = [
        _check_convolution(seed),
        _check_decimation(kernel_num, "scalar"),
        _check_decimation(kernel_poly, "poly"),
        _check_streams("decomposition/gm", 0, hi_gm,
                       ("decomposition", sf.iter_sym_decompose_gml, (("binet", 0, gm_binet),))),
        _check_streams("decomposition/gm-poly", 0, hi_dec_poly,
                       ("decomposition", sf.iter_sym_decompose_gml_poly,
                        (("recurrence", 0, pf.iter_gml_poly),))),
        _check_streams("decomposition/m-poly", 0, hi_dec_poly,
                       ("decomposition", sf.iter_sym_decompose_ml_poly,
                        (("recurrence", 0, pf.iter_ml_poly),))),
        _check_streams("genfun/gm", 0, hi_gm,
                       ("coefficient", lambda: sf.gf_gml(hi_gm), (("term", 0, gm_binet),))),
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
        _check_kernel_explicit(kernel_num, "scalar"),
        _check_kernel_explicit(kernel_poly, "poly"),
        _check_streams("kernel/two-letter-bridge", 0, 60,
                       ("two-letter", lambda: sf.iter_two_letter_sn(2, 1),
                        (("kernel", 0, lambda: sf.iter_kernel(kernel_num)),))),
        _check_backward_closure(max_n),
        _check_negative_numbers(max_n),
        _check_negative_polynomials(max_poly_n),
        _check_numeric_binet(),
        _check_route_numbers(max_n, inject_fault),
        _check_route_polynomials(max_poly_n),
        _check_specialization(max_n),
        _check_streams("tables/numbers", 0, 5,
                       ("recurrence", _terms(seq.gml_recurrence), (("table", 0, lambda: _TABLE_GM),))),
        _check_tables_polynomials(),
    ]
    checks.sort(key=lambda c: c.name)
    return VerifyReport(tuple(checks))
