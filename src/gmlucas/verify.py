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

A check that compares one produced stream with one reference stream, term
by term, runs through _check_stream, which run_verify calls once per check
name.  The seed sweeps of route-agreement/numbers walk sequences.walk; the
backward-closure check writes out the recurrence it checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .arith import Dyadic, GaussianDyadic, Poly, poly_eval
from . import sequences as seq
from . import polyfam as pf
from . import symfun as sf

FAULTS = ("m1", "gm0", "gm1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    range: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

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


def _check_tables_polynomials() -> CheckResult:
    name, rng = "tables/polynomials", "0..5"
    for n, row in enumerate(_TABLE_M_POLY):
        want_m = Poly(row)
        got_m = pf.ml_poly(n)
        if got_m != want_m:
            return _fail(name, rng, f"n={n}: m recurrence={got_m} vs table={want_m}")
        if n == 0:
            want_gm = Poly((2, GaussianDyadic(0, Dyadic(3, 1))))
        else:
            want_gm = want_m + GaussianDyadic.I * Poly(_TABLE_M_POLY[n - 1])
        got_gm = pf.gml_poly(n)
        if got_gm != want_gm:
            return _fail(name, rng, f"n={n}: gm recurrence={got_gm} vs table={want_gm}")
    return _ok(name, rng)


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
            routes.append(("relation", seq.gml_from_ml(n)))
        for label, got in routes:
            if got != grec:
                return _fail(name, rng, f"n={n}: recurrence={grec} vs {label}={got}")
        gbinet = routes[0][1]
        if n >= 1 and gbinet != GaussianDyadic(b, seq.ml_binet(n - 1).a):
            return _fail(name, rng, f"n={n}: Gm parts do not split into m terms")
        e_prev = explicit
    return _ok(name, rng)


def _check_route_polynomials(max_poly_n: int) -> CheckResult:
    name, rng = "route-agreement/polynomials", f"0..{max_poly_n}"
    ml_iter = pf.iter_ml_poly()
    gml_iter = pf.iter_gml_poly()
    ml_sym = sf.iter_sym_decompose_ml_poly()
    gml_sym = sf.iter_sym_decompose_gml_poly()
    relation = pf.iter_gml_poly_from_ml()
    for n in range(max_poly_n + 1):
        rec = next(ml_iter)
        explicit = pf.ml_poly_explicit(n)
        dec = next(ml_sym)
        if not (rec == explicit == dec):
            return _fail(
                name, rng,
                f"n={n}: m recurrence={rec} explicit={explicit} symmetric={dec}",
            )
        grec = next(gml_iter)
        groutes = [("symmetric", next(gml_sym))]
        if n >= 1:
            groutes.append(("explicit", pf.gml_poly_explicit(n)))
            groutes.append(("relation", next(relation)))
        for label, got in groutes:
            if got != grec:
                return _fail(name, rng, f"n={n}: Gm recurrence={grec} vs {label}={got}")
    return _ok(name, rng)


def _check_stream(name: str, hi: int, produced, reference, what: str,
                  against: str) -> CheckResult:
    """Terms 0..hi of produced() against reference(); the first mismatch
    reads "n=<n>: <what>=<term> vs <against>=<term>", where against may name
    the reference term's own index as {even} (2n) or {odd} (2n + 1)."""
    rng = f"0..{hi}"
    for n, got, want in zip(range(hi + 1), produced(), reference()):
        if got != want:
            label = against.format(even=2 * n, odd=2 * n + 1)
            return _fail(name, rng, f"n={n}: {what}={got} vs {label}={want}")
    return _ok(name, rng)


def _check_negative_numbers(max_n: int) -> CheckResult:
    hi = min(100, max_n)
    name, rng = "negative/numbers", f"1..{hi}"
    half_i = GaussianDyadic(0, Dyadic(1, 1))
    for n in range(1, hi + 1):
        m_pos = seq.ml_binet(n)
        m_neg = seq.ml_negative(n)
        if m_neg.mul_pow2(n) != m_pos:
            return _fail(name, rng, f"n={n}: 2^{n} * m(-{n}) = {m_neg.mul_pow2(n)} vs {m_pos}")
        gm_neg = seq.gml_negative(n)
        want = m_pos + half_i * seq.ml_binet(n + 1)
        if gm_neg.mul_pow2(n) != want:
            return _fail(name, rng, f"n={n}: 2^{n} * Gm(-{n}) = {gm_neg.mul_pow2(n)} vs {want}")
    return _ok(name, rng)


def _check_negative_polynomials(max_poly_n: int) -> CheckResult:
    hi = min(40, max_poly_n)
    name, rng = "negative/polynomials", f"1..{hi}"
    half_i = GaussianDyadic(0, Dyadic(1, 1))
    positives = itertools.pairwise(itertools.islice(pf.iter_ml_poly(), 1, None))
    ml_neg = pf.iter_ml_poly_negative()
    gml_neg = pf.iter_gml_poly_negative()
    for n in range(1, hi + 1):
        m_pos, m_next = next(positives)
        m_neg = next(ml_neg)
        if m_neg.mul_pow2(n) != m_pos:
            return _fail(name, rng, f"n={n}: 2^{n} * m(-{n})(x) differs from m_{n}(x)")
        gm_neg = next(gml_neg)
        want = m_pos + half_i * m_next
        if gm_neg.mul_pow2(n) != want:
            return _fail(name, rng, f"n={n}: 2^{n} * Gm(-{n})(x) has the wrong closed form")
    return _ok(name, rng)


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
    hi = min(200, max_n)
    name, rng = "specialization/x=1", f"0..{hi}"
    one = GaussianDyadic.ONE
    ml_iter = pf.iter_ml_poly()
    gml_iter = pf.iter_gml_poly()
    for n in range(hi + 1):
        m_val = poly_eval(next(ml_iter), one)
        if m_val != seq.ml_binet(n):
            return _fail(name, rng, f"n={n}: m_{n}(1)={m_val} vs m_{n}={seq.ml_binet(n)}")
        gm_val = poly_eval(next(gml_iter), one)
        if gm_val != seq.gml_binet(n):
            return _fail(name, rng, f"n={n}: Gm_{n}(1)={gm_val} vs Gm_{n}={seq.gml_binet(n)}")
    return _ok(name, rng)


def _random_letter(rng: random.Random) -> GaussianDyadic:
    def part() -> Dyadic:
        return Dyadic(rng.randint(-3, 3), rng.randint(0, 1))

    return GaussianDyadic(part(), part())


def _check_convolution(seed: int) -> CheckResult:
    name, rng_text = "convolution/definition1", "200 alphabets, n<=12"
    rng = random.Random(seed)
    for trial in range(200):
        lam = [_random_letter(rng) for _ in range(rng.randint(0, 3))]
        mu = [_random_letter(rng) for _ in range(rng.randint(0, 3))]
        series = sf.s_diff_series(lam, mu, 12)
        # Definition 1, sum_j S_{n-j}(-mu) S_j(lambda), for every n <= 12
        # at once: the Cauchy product of the two factor series.
        convolution = sf.s_neg_alphabet(mu, 12) * sf.s_diff_series(lam, (), 12)
        if convolution.coeffs == series.coeffs:
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
    name, rng = f"kernel/explicit-{which}", "0..60"
    series = sf.kernel_series(kernel, 60)
    walk = sf.iter_kernel(kernel)
    explicit_walk = sf.iter_kernel_explicit(kernel)
    for n in range(61):
        rec = next(walk)
        explicit = next(explicit_walk)
        if not (rec == explicit == series[n]):
            return _fail(
                name, rng,
                f"n={n}: recurrence={rec} explicit={explicit} series={series[n]}",
            )
    return _ok(name, rng)


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

    def gm_binet(first=0, step=1):
        return lambda: map(seq.gml_binet, itertools.count(first, step))

    checks = [
        _check_convolution(seed),
        _check_decimation(kernel_num, "scalar"),
        _check_decimation(kernel_poly, "poly"),
        _check_stream("decomposition/gm", hi_gm, lambda: sf.iter_sym_decompose_gml(),
                      gm_binet(), "decomposition", "binet"),
        _check_stream("decomposition/gm-poly", hi_dec_poly,
                      lambda: sf.iter_sym_decompose_gml_poly(), lambda: pf.iter_gml_poly(),
                      "decomposition", "recurrence"),
        _check_stream("decomposition/m-poly", hi_dec_poly,
                      lambda: sf.iter_sym_decompose_ml_poly(), lambda: pf.iter_ml_poly(),
                      "decomposition", "recurrence"),
        _check_stream("genfun/gm", hi_gm, lambda: sf.gf_gml(hi_gm), gm_binet(),
                      "coefficient", "term"),
        _check_stream("genfun/gm-even", hi_half, lambda: sf.gf_gml_even(hi_half),
                      gm_binet(0, 2), "coefficient", "Gm({even})"),
        _check_stream("genfun/gm-odd", hi_half, lambda: sf.gf_gml_odd(hi_half),
                      gm_binet(1, 2), "coefficient", "Gm({odd})"),
        _check_stream("genfun/gm-poly", hi_gf_poly, lambda: sf.gf_gml_poly(hi_gf_poly),
                      lambda: pf.iter_gml_poly(), "coefficient", "term"),
        _check_stream("genfun/m-poly", hi_gf_poly, lambda: sf.gf_ml_poly(hi_gf_poly),
                      lambda: pf.iter_ml_poly(), "coefficient", "term"),
        _check_kernel_explicit(kernel_num, "scalar"),
        _check_kernel_explicit(kernel_poly, "poly"),
        _check_stream("kernel/two-letter-bridge", 60,
                      lambda: sf.iter_two_letter_sn(2, 1),
                      lambda: sf.iter_kernel(kernel_num), "two-letter", "kernel"),
        _check_backward_closure(max_n),
        _check_negative_numbers(max_n),
        _check_negative_polynomials(max_poly_n),
        _check_numeric_binet(),
        _check_route_numbers(max_n, inject_fault),
        _check_route_polynomials(max_poly_n),
        _check_specialization(max_n),
        _check_stream("tables/numbers", 5, lambda: map(seq.gml_recurrence, itertools.count()),
                      lambda: _TABLE_GM, "recurrence", "table"),
        _check_tables_polynomials(),
    ]
    checks.sort(key=lambda c: c.name)
    return VerifyReport(tuple(checks))
