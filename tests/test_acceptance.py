"""Acceptance gate: every advertised guarantee, at its stated bound.

Each criterion runs inside a stopwatch and prints one pass line with the
measured time; the assertion fires if the work is wrong OR over budget.
Run with -s to see the lines as they pass.
"""

import contextlib
import io
import random
import time

from gmlucas.arith import Dyadic, GaussianDyadic, Poly, poly_eval
from gmlucas.cli import main as cli_main
from gmlucas.polyfam import (
    binet_numeric,
    gml_poly,
    gml_poly_explicit,
    gml_poly_from_ml,
    gml_poly_negative,
    iter_gml_poly,
    iter_ml_poly,
    ml_poly,
    ml_poly_explicit,
    ml_poly_negative,
)
from gmlucas.sequences import (
    gml_binet,
    gml_explicit,
    gml_from_ml,
    gml_negative,
    gml_recurrence,
    ml_binet,
    ml_explicit,
    ml_negative,
    ml_recurrence,
)
from gmlucas.symfun import (
    SymKernel,
    gf_gml,
    gf_gml_even,
    gf_gml_odd,
    gf_gml_poly,
    gf_ml_poly,
    kernel_even_odd_series,
    kernel_series,
    kernel_term,
    kernel_term_explicit,
    s_diff_convolution,
    s_diff_series,
    sym_decompose_gml,
    sym_decompose_gml_poly,
    sym_decompose_ml_poly,
)
from gmlucas.verify import run_verify

I = GaussianDyadic.I


def _criterion(num: int, desc: str, limit: float, body) -> None:
    start = time.perf_counter()
    body()
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit}s"
    print(f"[pass] criterion {num}: {desc} ({elapsed:.2f}s < {limit:g}s)")


def test_criterion_01_number_table_byte_exact():
    want = ("n  Gm_n\n"
            "0  2+3i/2\n"
            "1  3+2i\n"
            "2  5+3i\n"
            "3  9+5i\n"
            "4  17+9i\n"
            "5  33+17i\n")

    def body():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["table", "1"])
        assert code == 0
        assert out.getvalue() == want

    _criterion(1, "number table, six rows byte-exact", 1.0, body)


def test_criterion_02_polynomial_table_coefficient_exact():
    rows_m = (
        Poly((2,)),
        Poly((0, 3)),
        Poly((-4, 0, 9)),
        Poly((0, -18, 0, 27)),
        Poly((8, 0, -72, 0, 81)),
        Poly((0, 60, 0, -270, 0, 243)),
    )

    def body():
        for n, want in enumerate(rows_m):
            assert ml_poly(n) == want
            want_gm = (Poly((2, GaussianDyadic(0, Dyadic(3, 1)))) if n == 0
                       else want + I * rows_m[n - 1])
            assert gml_poly(n) == want_gm

    _criterion(2, "polynomial table, six rows coefficient-exact", 1.0, body)


def test_criterion_03_number_routes_to_500():
    def body():
        ma, mb = 2, 3
        ga, gb = GaussianDyadic(2, Dyadic(3, 1)), GaussianDyadic(3, 2)
        for n in range(501):
            m_rec = ma if n == 0 else mb
            assert ml_binet(n) == GaussianDyadic(m_rec)
            assert ml_explicit(n) == GaussianDyadic(m_rec)
            gm_rec = ga if n == 0 else gb
            assert gml_binet(n) == gm_rec
            assert sym_decompose_gml(n) == gm_rec
            if n >= 1:
                assert gml_from_ml(n) == gm_rec
                assert gml_explicit(n) == gm_rec
                ma, mb = mb, 3 * mb - 2 * ma
                ga, gb = gb, 3 * gb - 2 * ga
        assert ml_recurrence(500) == ml_binet(500)
        assert gml_recurrence(500) == gml_binet(500)

    _criterion(3, "all number routes agree for n <= 500", 5.0, body)


def test_criterion_04_polynomial_routes_to_40():
    def body():
        m_iter = iter_ml_poly()
        gm_iter = iter_gml_poly()
        for n in range(41):
            m_rec = next(m_iter)
            assert ml_poly_explicit(n) == m_rec
            assert sym_decompose_ml_poly(n) == m_rec
            gm_rec = next(gm_iter)
            assert sym_decompose_gml_poly(n) == gm_rec
            if n >= 1:
                assert gml_poly_explicit(n) == gm_rec
                assert gml_poly_from_ml(n) == gm_rec

    _criterion(4, "all polynomial routes agree for n <= 40", 10.0, body)


def test_criterion_05_generating_functions():
    def body():
        series = gf_gml(100)
        for n in range(101):
            assert series[n] == gml_binet(n)
        even = gf_gml_even(50)
        odd = gf_gml_odd(50)
        for n in range(51):
            assert even[n] == gml_binet(2 * n)
            assert odd[n] == gml_binet(2 * n + 1)
        m_series = gf_ml_poly(30)
        gm_series = gf_gml_poly(30)
        m_iter = iter_ml_poly()
        gm_iter = iter_gml_poly()
        for n in range(31):
            assert m_series[n] == next(m_iter)
            assert gm_series[n] == next(gm_iter)

    _criterion(5, "generating function coefficients match terms", 5.0, body)


def test_criterion_06_negative_indices():
    def body():
        half_i = GaussianDyadic(0, Dyadic(1, 1))
        for n in range(1, 101):
            m_pos = ml_binet(n)
            assert ml_negative(n).mul_pow2(n) == m_pos
            want = m_pos + half_i * ml_binet(n + 1)
            assert gml_negative(n).mul_pow2(n) == want
        for n in range(1, 41):
            assert ml_poly_negative(n).mul_pow2(n) == ml_poly(n)
            want_p = (ml_poly_negative(n)
                      + I * ml_poly_negative(n + 1))
            assert gml_poly_negative(n) == want_p

        def term(k: int) -> GaussianDyadic:
            return gml_binet(k) if k >= 0 else gml_negative(-k)

        prev2, prev1 = term(-100), term(-99)
        for k in range(-98, 101):
            cur = term(k)
            assert cur == 3 * prev1 - 2 * prev2
            prev2, prev1 = prev1, cur

    _criterion(6, "negative indices and backward closure", 5.0, body)


def test_criterion_07_specialization_at_one():
    def body():
        one = GaussianDyadic.ONE
        m_iter = iter_ml_poly()
        gm_iter = iter_gml_poly()
        for n in range(201):
            assert poly_eval(next(m_iter), one) == ml_binet(n)
            assert poly_eval(next(gm_iter), one) == gml_binet(n)

    _criterion(7, "x = 1 specialization for n <= 200", 5.0, body)


def test_criterion_08_symmetric_function_calculus():
    def body():
        rng = random.Random(0)

        def letter() -> GaussianDyadic:
            return GaussianDyadic(Dyadic(rng.randint(-3, 3), rng.randint(0, 1)),
                                  Dyadic(rng.randint(-3, 3), rng.randint(0, 1)))

        for _ in range(200):
            lam = [letter() for _ in range(rng.randint(0, 3))]
            mu = [letter() for _ in range(rng.randint(0, 3))]
            series = s_diff_series(lam, mu, 12)
            for n in range(13):
                assert s_diff_convolution(lam, mu, n) == series[n]
        for kernel in (SymKernel(3, -2), SymKernel(Poly((0, 3)), Poly((-2,)))):
            series = kernel_series(kernel, 60)
            for n in range(61):
                assert kernel_term_explicit(kernel, n) == series[n]
            odd_back, even, odd_fwd = kernel_even_odd_series(kernel, 30)
            for n in range(31):
                assert odd_back[n] == kernel_term(kernel, 2 * n - 1)
                assert even[n] == kernel_term(kernel, 2 * n)
                assert odd_fwd[n] == kernel_term(kernel, 2 * n + 1)

    _criterion(8, "alphabet convolution, kernel routes, decimation", 10.0, body)


def test_criterion_09_numeric_closed_form():
    def body():
        points = ((1, GaussianDyadic(1)), (2, GaussianDyadic(2)),
                  (3, GaussianDyadic(3)), (2.5, GaussianDyadic(Dyadic(5, 1))))
        for n in range(31):
            for x_float, x_exact in points:
                exact = complex(poly_eval(gml_poly(n), x_exact))
                approx = binet_numeric(n, x_float)
                if x_float == 1:
                    assert approx == exact
                else:
                    assert abs(approx - exact) <= 1e-9 * (1 + abs(exact))

    _criterion(9, "numeric closed form within 1e-9, exact at x = 1", 1.0, body)


def test_criterion_10_fault_injection_bites():
    def body():
        for fault in ("m1", "gm0", "gm1"):
            report = run_verify(max_n=12, max_poly_n=6, inject_fault=fault)
            assert not report.overall
            failed = [c for c in report.checks if not c.passed]
            assert failed, fault
            detail = failed[0].detail
            index = int(detail.split(":", 1)[0].removeprefix("n="))
            assert index <= 2, f"{fault}: first disagreement at {detail!r}"

    _criterion(10, "every injected seed fault is caught at n <= 2", 5.0, body)
