"""Tests of the cross-method check suite itself.

The important property is that the suite bites: perturbing any recurrence
seed must make it fail, and fail early (at index 2 or lower), because that
is where a corrupted build would first disagree with the closed forms.
Perturbing one term of a route the sweeps walk must make exactly the checks
that use it fail, at that term's index.
"""

import collections
import contextlib
import hashlib
import io
import re

import pytest

from gmlucas import arith
from gmlucas import polyfam as pf
from gmlucas import sequences as seq
from gmlucas import symfun as sf
from gmlucas import verify
from gmlucas.arith import Poly
from gmlucas.cli import main
from gmlucas.verify import FAULTS, CheckResult, VerifyReport, run_verify

N_CHECKS = 23


@pytest.fixture(scope="module")
def small_report() -> VerifyReport:
    return run_verify(max_n=12, max_poly_n=6, seed=7)


def test_clean_run_passes(small_report):
    assert small_report.overall
    assert len(small_report.checks) == N_CHECKS
    assert all(isinstance(c, CheckResult) for c in small_report.checks)
    assert all(c.passed and c.detail == "" for c in small_report.checks)


def test_report_is_sorted_by_name(small_report):
    names = [c.name for c in small_report.checks]
    assert names == sorted(names)
    assert len(set(names)) == N_CHECKS


def test_report_is_deterministic(small_report):
    again = run_verify(max_n=12, max_poly_n=6, seed=7)
    assert again == small_report


def test_another_seed_also_passes():
    assert run_verify(max_n=8, max_poly_n=6, seed=42).overall


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_injection_bites_early(fault):
    report = run_verify(max_n=12, max_poly_n=6, inject_fault=fault)
    assert not report.overall
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["route-agreement/numbers"]
    match = re.match(r"n=(\d+):", failed[0].detail)
    assert match, failed[0].detail
    assert int(match.group(1)) <= 2


def test_fault_names_are_the_three_seeds():
    assert FAULTS == ("m1", "gm0", "gm1")


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_verify(max_n=3)
    with pytest.raises(ValueError):
        run_verify(max_poly_n=3)
    with pytest.raises(ValueError):
        run_verify(inject_fault="bogus")


def test_check_ranges_follow_bounds(small_report):
    by_name = {c.name: c for c in small_report.checks}
    assert by_name["route-agreement/numbers"].range == "0..12"
    assert by_name["route-agreement/polynomials"].range == "0..6"
    assert by_name["specialization/x=1"].range == "0..12"
    assert by_name["negative/backward-closure"].range == "-10..12"
    assert by_name["kernel/explicit-poly"].range == "0..60"


# (module, iterator, index of its first term, {check: first failing index})
ROUTE_WALKS = (
    (sf, "iter_sym_decompose_gml", 0,
     {"decomposition/gm": 3, "route-agreement/numbers": 3}),
    (sf, "iter_sym_decompose_ml_poly", 0,
     {"decomposition/m-poly": 3, "route-agreement/polynomials": 3}),
    (sf, "iter_sym_decompose_gml_poly", 0,
     {"decomposition/gm-poly": 3, "route-agreement/polynomials": 3}),
    (pf, "iter_gml_poly_from_ml", 1, {"route-agreement/polynomials": 3}),
    (seq, "iter_gml_from_ml", 1, {"route-agreement/numbers": 3}),
    (pf, "iter_ml_poly_negative", 1, {"negative/polynomials": 3}),
    (pf, "iter_gml_poly_negative", 1, {"negative/polynomials": 3}),
    (sf, "iter_kernel_explicit", 0,
     {"kernel/explicit-scalar": 3, "kernel/explicit-poly": 3}),
    (sf, "iter_two_letter_sn", 0, {"kernel/two-letter-bridge": 3}),
    # The decomposition walks run on the kernel walk too. S_3 is coefficient
    # 1 of the S(2n+1) series and 2 of the S(2n-1) one.
    (sf, "iter_kernel", 0,
     {"kernel/explicit-scalar": 3, "kernel/explicit-poly": 3,
      "kernel/two-letter-bridge": 3, "decimation/kernel-scalar": 1,
      "decimation/kernel-poly": 1, "decomposition/gm": 3,
      "decomposition/m-poly": 3, "decomposition/gm-poly": 3,
      "route-agreement/numbers": 3, "route-agreement/polynomials": 3}),
)


@pytest.mark.parametrize("module, attr, first, expected", ROUTE_WALKS,
                         ids=[walk[1] for walk in ROUTE_WALKS])
def test_corrupted_route_walk_is_caught_at_its_index(monkeypatch, module, attr, first, expected):
    walk = getattr(module, attr)

    def corrupted(*args):
        for n, term in enumerate(walk(*args), first):
            yield term + 1 if n == 3 else term

    monkeypatch.setattr(module, attr, corrupted)
    report = run_verify(max_n=12, max_poly_n=6)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert set(failed) == set(expected)
    for name, index in expected.items():
        assert failed[name].startswith(f"n={index}:"), failed[name]


# (single-term route, {check: how its detail starts}): the negative routes
# are compared with backward walks of the recurrence, and backward-closure
# reads Gm_{-3} as the term k = -3.
NEGATIVE_ROUTES = (
    ("ml_negative", {"negative/numbers": "n=3:"}),
    ("gml_negative", {"negative/numbers": "n=3:", "negative/backward-closure": "k=-3:"}),
)


@pytest.mark.parametrize("attr, expected", NEGATIVE_ROUTES,
                         ids=[route[0] for route in NEGATIVE_ROUTES])
def test_corrupted_negative_route_is_caught_at_its_index(monkeypatch, attr, expected):
    route = getattr(seq, attr)

    def corrupted(n):
        return route(n) + 1 if n == 3 else route(n)

    monkeypatch.setattr(seq, attr, corrupted)
    report = run_verify(max_n=12, max_poly_n=6)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert set(failed) == set(expected)
    for name, start in expected.items():
        assert failed[name].startswith(start), failed[name]


# (series route, coefficient made one too large, the check that reads it,
# its detail): the reference term is named by its own index, and the last
# coefficient of the range is compared too.
SERIES_FAULTS = (
    ("gf_gml", 4, "genfun/gm", "n=4: coefficient=18+9i vs term=17+9i"),
    ("gf_gml", 12, "genfun/gm", "n=12: coefficient=4098+2049i vs term=4097+2049i"),
    ("gf_gml_even", 4, "genfun/gm-even", "n=4: coefficient=258+129i vs Gm(8)=257+129i"),
    ("gf_gml_odd", 4, "genfun/gm-odd", "n=4: coefficient=514+257i vs Gm(9)=513+257i"),
)


@pytest.mark.parametrize("attr, index, check, detail", SERIES_FAULTS,
                         ids=[f"{fault[0]}@{fault[1]}" for fault in SERIES_FAULTS])
def test_corrupted_series_coefficient_is_reported_exactly(monkeypatch, attr, index, check,
                                                          detail):
    series = getattr(sf, attr)

    def corrupted(order):
        coeffs = list(series(order))
        coeffs[index] += 1
        return sf.PowerSeries(coeffs)

    monkeypatch.setattr(sf, attr, corrupted)
    report = run_verify(max_n=12, max_poly_n=6)
    assert {c.name: c.detail for c in report.checks if not c.passed} == {check: detail}


def test_corrupted_alphabet_series_is_reported_at_its_first_mismatch(monkeypatch):
    # The convolution check compares whole coefficient tuples first; a
    # mismatch must still be reported at the first coefficient that differs.
    series = sf.s_neg_alphabet

    def corrupted(mu, order):
        coeffs = list(series(mu, order))
        coeffs[3] += 1
        return sf.PowerSeries(coeffs)

    monkeypatch.setattr(sf, "s_neg_alphabet", corrupted)
    report = run_verify(max_n=12, max_poly_n=6)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert list(failed) == ["convolution/definition1"]
    assert failed["convolution/definition1"].startswith("trial=0 n=3:")


def one_too_large_at_3(series):
    coeffs = list(series)
    coeffs[3] += 1
    return sf.PowerSeries(coeffs)


@pytest.mark.parametrize("route", ("s_diff_series", "PowerSeries.__mul__"))
def test_corrupted_convolution_route_is_reported_at_its_first_mismatch(monkeypatch, route):
    if route == "s_diff_series":
        # Only S_n(lambda - mu) is corrupted: a +1 in S_3(lambda) as well
        # would reach the convolution at n = 3 too, times S_0(-mu) = 1.
        series = sf.s_diff_series
        monkeypatch.setattr(sf, "s_diff_series", lambda lam, mu, order: (
            one_too_large_at_3(series(lam, mu, order)) if mu else series(lam, mu, order)))
    else:
        product = sf.PowerSeries.__mul__
        monkeypatch.setattr(sf.PowerSeries, "__mul__",
                            lambda a, b: one_too_large_at_3(product(a, b)))
    report = run_verify(max_n=12, max_poly_n=6)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert list(failed) == ["convolution/definition1"]
    assert failed["convolution/definition1"].startswith("trial=0 n=3:")


# sha256 of the repr of the 200 (lambda, mu) draws of the convolution check.
CONVOLUTION_DRAWS = {
    0: "ee668a5a57c0e784db758beda286eb7aa1437ee595589768180e64d26d13c1d7",
    1: "c42910e0388df0978a1019e476ff88d39ce862d45d270788876cd36b0e7785db",
}


@pytest.mark.parametrize("seed", sorted(CONVOLUTION_DRAWS))
def test_convolution_check_does_the_same_work(monkeypatch, seed):
    # Counts, not timings: every trial draws the same alphabets and calls
    # the same routes, however the series are held.
    calls = collections.Counter()
    diff_args = []

    def counting(owner, name):
        route = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            if name == "s_diff_series":
                diff_args.append(args)
            return route(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(sf, "s_diff_series")
    counting(sf, "s_neg_alphabet")
    counting(sf.PowerSeries, "__mul__")
    assert verify._check_convolution(seed).passed
    assert calls == {"s_diff_series": 400, "s_neg_alphabet": 200, "__mul__": 200}
    # Each trial asks for S(lambda - mu), then for S(lambda) alone.
    draws = [(list(lam), list(mu)) for lam, mu, _ in diff_args[::2]]
    assert diff_args[1::2] == [(lam, (), 12) for lam, _ in draws]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == CONVOLUTION_DRAWS[seed]


def test_convolution_trial_builds_few_polys(monkeypatch):
    # Counts, not timings: a trial holds its four series as Polys in z, and
    # the Cauchy product may cut its own back to the order, so five Polys a
    # trial at most.  The products of the alphabets stay Gaussian-integer
    # vectors and build none.
    calls = 0
    poly = arith._poly

    def counting(re, im, exp):
        nonlocal calls
        calls += 1
        return poly(re, im, exp)

    monkeypatch.setattr(arith, "_poly", counting)
    monkeypatch.setattr(sf, "_poly", counting)
    assert verify._check_convolution(0).passed
    assert calls <= 5 * 200, calls


def test_polynomial_route_sweep_is_linear(monkeypatch):
    # Counts, not timings: a sweep that reruns a recurrence from index 0 for
    # every n does about 4x the multiplications when n doubles, a single
    # walk about 2x.
    calls = 0
    mul = Poly.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)

    def muls(max_poly_n: int) -> int:
        nonlocal calls
        calls = 0
        assert verify._check_route_polynomials(max_poly_n).passed
        return calls

    small, large = muls(40), muls(80)
    assert large / small < 2.5, (small, large)


GOLDEN_CSV = """\
name,range,status,detail
convolution/definition1,"200 alphabets, n<=12",pass,
decimation/kernel-poly,0..30,pass,
decimation/kernel-scalar,0..30,pass,
decomposition/gm,0..12,pass,
decomposition/gm-poly,0..6,pass,
decomposition/m-poly,0..6,pass,
genfun/gm,0..12,pass,
genfun/gm-even,0..6,pass,
genfun/gm-odd,0..6,pass,
genfun/gm-poly,0..6,pass,
genfun/m-poly,0..6,pass,
kernel/explicit-poly,0..60,pass,
kernel/explicit-scalar,0..60,pass,
kernel/two-letter-bridge,0..60,pass,
negative/backward-closure,-10..12,pass,
negative/numbers,1..12,pass,
negative/polynomials,1..6,pass,
numeric-binet,"n<=30, x in {1, 2, 3, 5/2}",pass,
route-agreement/numbers,0..12,pass,
route-agreement/polynomials,0..6,pass,
specialization/x=1,0..12,pass,
tables/numbers,0..5,pass,
tables/polynomials,0..5,pass,
"""
GOLDEN_FAULT_LINES = {
    "m1": "route-agreement/numbers,0..12,fail,n=1: recurrence=4 binet=3 explicit=3",
    "gm0": "route-agreement/numbers,0..12,fail,n=0: recurrence=3+3i/2 vs binet=2+3i/2",
    "gm1": "route-agreement/numbers,0..12,fail,n=1: recurrence=4+2i vs binet=3+2i",
}


@pytest.mark.parametrize("fault", (None, *FAULTS))
def test_small_csv_report_is_golden(fault):
    argv = ["verify", "--max-n", "12", "--max-poly-n", "6", "--format", "csv"]
    want, want_code = GOLDEN_CSV, 0
    if fault:
        argv += ["--inject-fault", fault]
        want = want.replace("route-agreement/numbers,0..12,pass,",
                            GOLDEN_FAULT_LINES[fault])
        want_code = 1
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (want_code, want, "")


# sha256 of `verify` stdout, with its exit code: a change that only makes
# the checks faster must leave every report byte for byte as it is, in every
# format, at the defaults and at a small size with and without each seed
# fault.  A change that alters a report on purpose updates its digest here.
VERIFY_DIGESTS = (
    ("--format text", 0,
     "41d42c898b532d8bc6770cb1cf6ee3bcb342f381ade809d387cb71e565d14657"),
    ("--format json", 0,
     "f1d4bc694277c2ca71827ced6cde83b4bd3687e588609e74a9e6b02514b9d7d2"),
    ("--format csv", 0,
     "bf919111df5df317913e1b3d30e31aeda6780a3f1db49f4bceb2c12235839754"),
    ("--max-n 12 --max-poly-n 6 --format text", 0,
     "78155f3dcea0e48a9a161c157519a6a8109a735d50bc475ac649bdaf26451aa8"),
    ("--max-n 12 --max-poly-n 6 --format json", 0,
     "e1377d3765526a4f452ad9334a4fa872e86b7f1213690db8a8c2a205e34eac00"),
    ("--max-n 12 --max-poly-n 6 --format csv", 0,
     "0b783cd3539aac876aefb73c9bfaa985f86d40dc95c498b5496a98ce696f951e"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault m1", 1,
     "ace07c9715da60cda322acd018e5807bb1c17a5d1e25c34d4918ab97cf225e9b"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault m1", 1,
     "ae2798a91eb791c06f3bc54e44e7ce444316b1e63381c53cf0015bae7c66be3e"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault m1", 1,
     "09679771d399b7f976011cf78ad8ee60941c8dd956188cd1cde37dae36c2dcbb"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault gm0", 1,
     "72e69c04a9dfd3c51eee11df9b1c32567bb61af9547c844f86352bb1678ee2a2"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault gm0", 1,
     "5abf88a771897b185c27fd5a3b6f7f37230683908bc90dc2ad42ca821fe9d1f7"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault gm0", 1,
     "12b838e4d64bf1fa2ee0cb77d7035901ede4c079277eadf2f5b64847e5ba407f"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault gm1", 1,
     "49ce7674a33ca78225e133bb54d6f5e046b768d3532163e1fee6b426f17cc7fb"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault gm1", 1,
     "1150ee5cc09881d6b2d2a1db829da2cc333f5e67dcd831ada908300466a71e0a"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault gm1", 1,
     "7ab49673d79dd6f84a54cb22cb962daf1c31241c4bee8c04308b5cb0f161b900"),
)


@pytest.mark.parametrize("args, want_code, want_digest", VERIFY_DIGESTS,
                         ids=[case[0] for case in VERIFY_DIGESTS])
def test_verify_output_matches_its_digest(args, want_code, want_digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", *args.split()])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest, err.getvalue()) == (want_code, want_digest, "")
