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
import itertools
import random
import re
from pathlib import Path

import pytest

from gmlucas import arith
from gmlucas import polyfam as pf
from gmlucas import sequences as seq
from gmlucas import symfun as sf
from gmlucas import verify
from gmlucas.arith import Dyadic, GaussianDyadic, Poly
from gmlucas.cli import main
from gmlucas.verify import FAULTS, CheckResult, VerifyReport, run_verify

N_CHECKS = 23
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_checks_table_is_the_report():
    # CHECKS lists the checks in report order, so run_verify needs no sort.
    names = [name for name, _, _, _ in verify.CHECKS]
    assert len(set(names)) == len(names) == N_CHECKS
    assert names == sorted(names)
    for size in ((6, 6), (2000, 200)):
        assert [c.name for c in run_verify(*size).checks] == names, size


def test_readme_table_of_checks_is_checks():
    rows = re.findall(r"^\| `([^`]+)` \| `(max_n|max_poly_n)` \| (\d+|—) \|$",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    assert rows == [(name, option, "—" if cap is None else str(cap))
                    for name, option, cap, _ in verify.CHECKS]


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
    assert by_name["kernel/explicit-poly"].range == "0..12"


# (max_n, max_poly_n) -> the range of each check whose size is capped; the
# last two are the ranges these checks had when their sizes were fixed.
CHECK_SIZES = {
    (6, 6): ("0..6", "0..6", "0..6", "0..6", "0..6", "n<=6", "30 alphabets"),
    (12, 6): ("0..12", "0..12", "0..12", "0..12", "0..6", "n<=6", "30 alphabets"),
    (500, 40): ("0..60", "0..60", "0..60", "0..30", "0..30", "n<=30", "200 alphabets"),
    (2000, 200): ("0..60", "0..60", "0..60", "0..30", "0..30", "n<=30", "200 alphabets"),
}


@pytest.mark.parametrize("size", sorted(CHECK_SIZES), ids=lambda size: "%dx%d" % size)
def test_check_sizes_follow_the_request(size):
    kernel_scalar, kernel_poly, bridge, dec_scalar, dec_poly, numeric, trials = CHECK_SIZES[size]
    by_name = {c.name: c.range for c in run_verify(*size).checks}
    assert by_name["kernel/explicit-scalar"] == kernel_scalar
    assert by_name["kernel/explicit-poly"] == kernel_poly
    assert by_name["kernel/two-letter-bridge"] == bridge
    assert by_name["decimation/kernel-scalar"] == dec_scalar
    assert by_name["decimation/kernel-poly"] == dec_poly
    assert by_name["numeric-binet"] == f"{numeric}, x in {{1, 2, 3, 5/2}}"
    assert by_name["convolution/definition1"] == f"{trials}, n<=12"


# The sizes at which a corrupted route must still be caught at its index:
# the checks sized by the request are smallest at (6, 6).
FAULT_SIZES = ((12, 6), (6, 6))


def at_fault_sizes(argnames, cases, ids):
    """Parametrize over cases at each of FAULT_SIZES, passed as `size`; a
    case keeps its own id at (12, 6) and gains a -6x6 suffix at (6, 6)."""
    return pytest.mark.parametrize(f"{argnames}, size", [
        pytest.param(*case, size, id=case_id if size == (12, 6) else f"{case_id}-6x6")
        for size in FAULT_SIZES for case, case_id in zip(cases, ids)])


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


@at_fault_sizes("module, attr, first, expected", ROUTE_WALKS, [walk[1] for walk in ROUTE_WALKS])
def test_corrupted_route_walk_is_caught_at_its_index(monkeypatch, module, attr, first, expected,
                                                      size):
    walk = getattr(module, attr)

    def corrupted(*args):
        for n, term in enumerate(walk(*args), first):
            yield term + 1 if n == 3 else term

    monkeypatch.setattr(module, attr, corrupted)
    report = run_verify(*size)
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


@at_fault_sizes("attr, expected", NEGATIVE_ROUTES, [route[0] for route in NEGATIVE_ROUTES])
def test_corrupted_negative_route_is_caught_at_its_index(monkeypatch, attr, expected, size):
    route = getattr(seq, attr)

    def corrupted(n):
        return route(n) + 1 if n == 3 else route(n)

    monkeypatch.setattr(seq, attr, corrupted)
    report = run_verify(*size)
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


# (the coefficient made one too large in the S(2n-1), S(2n) and S(2n+1)
# series of kernel_even_odd_series, the detail of decimation/kernel-scalar,
# the detail of decimation/kernel-poly): the first n wins, and at one n the
# series are compared in that order.
DECIMATION_FAULTS = (
    ((2, 3, 3), "n=2: S(2n-1) coefficient=16 vs term=15",
     "n=2: S(2n-1) coefficient=1 - 12x + 27x^3 vs term=-12x + 27x^3"),
    ((3, 2, 2), "n=2: S(2n) coefficient=32 vs term=31",
     "n=2: S(2n) coefficient=5 - 54x^2 + 81x^4 vs term=4 - 54x^2 + 81x^4"),
    ((3, 3, 2), "n=2: S(2n+1) coefficient=64 vs term=63",
     "n=2: S(2n+1) coefficient=1 + 36x - 216x^3 + 243x^5 vs term=36x - 216x^3 + 243x^5"),
)


@at_fault_sizes("indices, scalar, poly", DECIMATION_FAULTS,
                ["S(2n-1)", "S(2n)", "S(2n+1)"])
def test_corrupted_decimation_series_is_reported_exactly(monkeypatch, indices, scalar, poly,
                                                         size):
    series = sf.kernel_even_odd_series

    def corrupted(kernel, order):
        out = []
        for part, index in zip(series(kernel, order), indices):
            coeffs = list(part)
            coeffs[index] += 1
            out.append(sf.PowerSeries(coeffs))
        return tuple(out)

    monkeypatch.setattr(sf, "kernel_even_odd_series", corrupted)
    report = run_verify(*size)
    assert {c.name: c.detail for c in report.checks if not c.passed} == {
        "decimation/kernel-scalar": scalar, "decimation/kernel-poly": poly}


def route_one_too_large_at(module, attr, first, index):
    """Replace a single-term route (first None) or a stream, which starts at
    first unless told where, by one whose term at index is one too large."""
    route = getattr(module, attr)
    if first is None:
        return lambda n: route(n) + 1 if n == index else route(n)

    def corrupted(start=first):
        for n, term in enumerate(route(start), start):
            yield term + 1 if n == index else term

    return corrupted


# (module, route, first index of its stream or None, the detail of
# route-agreement/numbers when the route is one too large at n = 3): a Gm
# route is named against the Gm recurrence stream, a wrong recurrence stream
# against the family's binet route, and a wrong m explicit sum, which the m
# group leaves to the Gm explicit stream, as the Gm term that it enters.
ROUTE_NUMBER_FAULTS = (
    (seq, "iter_ml_recurrence", 0, "n=3: recurrence=10 vs binet=9"),
    (seq, "iter_gml_recurrence", 0, "n=3: recurrence=10+5i vs binet=9+5i"),
    (seq, "gml_binet", None, "n=3: recurrence=9+5i vs binet=10+5i"),
    (sf, "iter_sym_decompose_gml", 0, "n=3: recurrence=9+5i vs symmetric=10+5i"),
    (seq, "iter_gml_explicit", 1, "n=3: recurrence=9+5i vs explicit=10+5i"),
    (seq, "iter_gml_from_ml", 1, "n=3: recurrence=9+5i vs relation=10+5i"),
    (seq, "ml_explicit", None, "n=3: recurrence=9+5i vs explicit=10+5i"),
)


@pytest.mark.parametrize("module, attr, first, detail", ROUTE_NUMBER_FAULTS,
                         ids=[fault[1] for fault in ROUTE_NUMBER_FAULTS])
def test_corrupted_number_route_is_reported_exactly(monkeypatch, module, attr, first, detail):
    monkeypatch.setattr(module, attr, route_one_too_large_at(module, attr, first, 3))
    failed = {c.name: c.detail for c in run_verify(max_n=12, max_poly_n=6).checks if not c.passed}
    assert failed["route-agreement/numbers"] == detail


def test_number_routes_report_the_first_index_of_two_faults(monkeypatch):
    # The m group is compared first at each n, but a Gm failure at a lower
    # n is the first counterexample.
    monkeypatch.setattr(seq, "gml_binet", route_one_too_large_at(seq, "gml_binet", None, 2))
    monkeypatch.setattr(seq, "ml_binet", route_one_too_large_at(seq, "ml_binet", None, 4))
    failed = {c.name: c.detail for c in run_verify(max_n=12, max_poly_n=6).checks if not c.passed}
    assert failed["route-agreement/numbers"] == "n=2: recurrence=5+3i vs binet=6+3i"


def test_m_explicit_sum_off_by_i_is_caught(monkeypatch):
    # The Gm explicit stream pairs two m sums as m_n + i m_{n-1}, so an m_7
    # off by i reaches both parts of Gm_7; a pairing that read only the
    # real part of each sum would let it through.
    explicit = seq.ml_explicit
    monkeypatch.setattr(seq, "ml_explicit",
                        lambda n: explicit(n) + GaussianDyadic.I if n == 7 else explicit(n))
    failed = {c.name: c.detail for c in run_verify(max_n=12, max_poly_n=6).checks if not c.passed}
    assert failed == {"route-agreement/numbers": "n=7: recurrence=129+65i vs explicit=129+66i"}


@pytest.mark.parametrize("fault, seeds", [
    ("m1", {"m": (seq.M0, seq.M1 + 1), "gm": (seq.GM0, seq.GM1)}),
    ("gm0", {"m": (seq.M0, seq.M1), "gm": (seq.GM0 + 1, seq.GM1)}),
    ("gm1", {"m": (seq.M0, seq.M1), "gm": (seq.GM0, seq.GM1 + 1)}),
], ids=FAULTS)
def test_seed_fault_heads_walk_from_the_perturbed_seeds(monkeypatch, fault, seeds):
    # route-agreement/numbers adds the walk of a unit seed to the family's
    # recurrence stream rather than walking the perturbed seeds itself; by
    # linearity the two are one walk, and here that is checked term by term.
    groups = []
    check_streams = verify._check_streams

    def capture(name, lo, hi, *compared):
        groups.extend(compared)
        return check_streams(name, lo, hi, *compared)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert not verify._check_route_numbers("route-agreement/numbers", 64, fault).passed
    for (_, head, _), family in zip(groups, ("m", "gm"), strict=True):
        want = itertools.islice(seq.walk(*seeds[family], 3, -2), 65)
        got = itertools.islice(head(), 65)
        assert list(map(verify._parts, got)) == list(map(verify._parts, want)), family


def route_function(route):
    """(module, name) of the function that a ROUTES row names: its
    single-term function or, for a walked row, its stream."""
    code = route.single or route.stream
    module, name = code.__code__.co_names[:2]
    return code.__globals__[module], name


# Every row of verify.ROUTES, forward and negative, with its family and the
# function it names.
ROUTE_ROWS = [(family, route, *route_function(route))
              for family, (routes, negative) in verify.ROUTES.items()
              for route in (*routes, negative)]
# The functions whose fault at n = 7 no check catches: the three
# sym_decompose_*, whose single-term functions double to S_n while the
# checks walk the kernel instead (ROADMAP direction 1).  A change that
# closes an escape takes it off this list.
ESCAPES = {"sym_decompose_gml", "sym_decompose_ml_poly", "sym_decompose_gml_poly"}


def test_route_fault_matrix_covers_every_row():
    names = [name for _, _, _, name in ROUTE_ROWS]
    assert len(names) == len(set(names)) == 22
    assert ESCAPES < set(names)
    assert len(set(names) - ESCAPES) == 19
    # A walked row names its stream, which term and the checks both run.
    walked = {name for _, route, _, name in ROUTE_ROWS if route.single is None}
    assert walked == {"iter_ml_recurrence", "iter_gml_recurrence", "iter_gml_explicit",
                      "iter_gml_from_ml", "iter_ml_poly", "iter_gml_poly",
                      "iter_gml_poly_explicit", "iter_gml_poly_from_ml",
                      "iter_ml_poly_negative", "iter_gml_poly_negative"}


def row_one_too_large_at(route, index):
    """A copy of a ROUTES row whose stream, or else its single-term
    function, is one too large at index."""
    if route.stream:
        stream = route.stream

        def corrupted(start):
            for n, term in enumerate(stream(start), start):
                yield term + 1 if n == index else term

        return route._replace(stream=corrupted)
    single = route.single
    return route._replace(single=lambda n: single(n) + 1 if n == index else single(n))


# (family, method of the row made one too large at n = 3, or None for the
# family's negative row, made one too large at n = -3, the checks that
# fail): every check that compares the row reads it from verify.ROUTES.
ROW_FAULTS = (
    ("gm", "binet", {"decomposition/gm", "genfun/gm", "genfun/gm-odd",
                     "negative/backward-closure", "route-agreement/numbers",
                     "specialization/x=1"}),
    ("m", "binet", {"route-agreement/numbers", "specialization/x=1"}),
    ("gm", None, {"negative/backward-closure", "negative/numbers"}),
    ("gmpoly", "recurrence", {"decomposition/gm-poly", "genfun/gm-poly", "numeric-binet",
                              "route-agreement/polynomials", "specialization/x=1",
                              "tables/polynomials"}),
    ("mpoly", "recurrence", {"decomposition/m-poly", "genfun/m-poly",
                             "route-agreement/polynomials", "specialization/x=1",
                             "tables/polynomials"}),
    ("gm", "symmetric", {"decomposition/gm", "route-agreement/numbers"}),
    ("mpoly", "symmetric", {"decomposition/m-poly", "route-agreement/polynomials"}),
    ("gmpoly", "symmetric", {"decomposition/gm-poly", "route-agreement/polynomials"}),
)


@pytest.mark.parametrize("family, method, expected", ROW_FAULTS,
                         ids=[f"{family}-{method or 'negative'}" for family, method, _ in ROW_FAULTS])
def test_checks_follow_the_rows_of_routes(monkeypatch, family, method, expected):
    routes, negative = verify.ROUTES[family]
    if method is None:
        negative = row_one_too_large_at(negative, -3)
    else:
        routes = tuple(row_one_too_large_at(route, 3) if route.method == method else route
                       for route in routes)
    monkeypatch.setitem(verify.ROUTES, family, (routes, negative))
    assert {c.name for c in run_verify(12, 6).checks if not c.passed} == expected


def _term_output(family: str, n: int, method: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["term", family, str(n), "--method", method])
    return out.getvalue()


@pytest.mark.parametrize("family, route, module, attr", [
    pytest.param(*row, id=row[3], marks=pytest.mark.xfail(
        strict=True, reason="no check reads this function") if row[3] in ESCAPES else ())
    for row in ROUTE_ROWS])
def test_route_fault_at_7_is_caught(monkeypatch, family, route, module, attr):
    # The function is one too large at n = 7 (its term -7 for a negative
    # row) or, for a genfun series, in its coefficient 7.  term prints the
    # wrong value, and verify must fail.
    function = getattr(module, attr)
    if attr.startswith("gf_"):
        def corrupted(order):
            coeffs = list(function(order))
            coeffs[7] += 1
            return sf.PowerSeries(coeffs)
    else:
        first = abs(route.first) if route.single is None else None
        corrupted = route_one_too_large_at(module, attr, first, 7)
    n = 7 if route.first >= 0 else -7
    right = _term_output(family, n, route.method)
    monkeypatch.setattr(module, attr, corrupted)
    assert _term_output(family, n, route.method) != right
    assert not run_verify(max_n=12, max_poly_n=8).overall


def test_comparator_fault_does_not_hide_a_wrong_term(monkeypatch):
    # GaussianDyadic == reads only the real parts, and gml_binet(7) is off
    # by i.  The checks compare canonical ints, not ==, so every check that
    # reads Gm_7 through gml_binet still fails.
    def real_parts_only(self, other):
        other = GaussianDyadic._coerce(other)
        return NotImplemented if other is None else self.re == other.re

    binet = seq.gml_binet
    monkeypatch.setattr(GaussianDyadic, "__eq__", real_parts_only)
    monkeypatch.setattr(seq, "gml_binet", lambda n: binet(n) + GaussianDyadic.I if n == 7 else binet(n))
    assert seq.gml_binet(7) == binet(7)
    report = run_verify(12, 8)
    assert not report.overall
    assert {c.name for c in report.checks if not c.passed} == {
        "decomposition/gm", "genfun/gm", "genfun/gm-odd", "negative/backward-closure",
        "route-agreement/numbers", "specialization/x=1"}


def test_equality_fault_does_not_hide_a_wrong_convolution(monkeypatch):
    # Poly == and GaussianDyadic == always say equal, and S_3(lambda - mu)
    # is one too large.  convolution/definition1 compares canonical ints, so
    # it still fails at the first trial, at n = 3.
    series = sf.s_diff_series
    monkeypatch.setattr(sf, "s_diff_series", lambda lam, mu, order: (
        one_too_large_at_3(series(lam, mu, order)) if mu else series(lam, mu, order)))
    monkeypatch.setattr(Poly, "__eq__", lambda self, other: True)
    monkeypatch.setattr(GaussianDyadic, "__eq__", lambda self, other: True)
    result = verify._check_convolution("convolution/definition1", 0, 200)
    assert not result.passed
    assert result.detail.startswith("trial=0 n=3:")


def test_equality_fault_does_not_hide_a_wrong_kernel_term(monkeypatch):
    # Poly == and GaussianDyadic == always say equal, and kernel_term(k, 12)
    # is one too large.  The decimation probe compares canonical ints, so
    # decimation/kernel-scalar, which probes S_12, still fails.
    term = sf.kernel_term
    monkeypatch.setattr(sf, "kernel_term", lambda k, n: term(k, n) + 1 if n == 12 else term(k, n))
    monkeypatch.setattr(Poly, "__eq__", lambda self, other: True)
    monkeypatch.setattr(GaussianDyadic, "__eq__", lambda self, other: True)
    failed = {c.name: c.detail for c in run_verify(12, 6).checks if not c.passed}
    assert failed["decimation/kernel-scalar"] == "recurrence walk disagrees with kernel_term"


def test_parts_reads_canonical_ints():
    assert verify._parts(5) == (5, 0, 0)
    assert verify._parts(GaussianDyadic(Dyadic(3, 1), 2)) == (3, 4, 1)
    assert verify._parts(Poly((1, GaussianDyadic(0, Dyadic(1, 1))))) == ((2, 0), (0, 1), 1)
    with pytest.raises(TypeError):
        verify._parts(Dyadic(1, 1))


def test_corrupted_alphabet_series_is_reported_at_its_first_mismatch(monkeypatch):
    # The convolution check compares whole coefficient tuples first; a
    # mismatch must still be reported at the first coefficient that differs.
    series = sf.s_neg_alphabet

    def corrupted(mu, order):
        coeffs = list(series(mu, order))
        coeffs[3] += 1
        return sf.PowerSeries(coeffs)

    monkeypatch.setattr(sf, "s_neg_alphabet", corrupted)
    for size in FAULT_SIZES:
        report = run_verify(*size)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert list(failed) == ["convolution/definition1"], size
        assert failed["convolution/definition1"].startswith("trial=0 n=3:"), size


def one_too_large_at_3(series):
    coeffs = list(series)
    coeffs[3] += 1
    return sf.PowerSeries(coeffs)


@at_fault_sizes("route", [("s_diff_series",), ("PowerSeries.__mul__",)],
                ["s_diff_series", "PowerSeries.__mul__"])
def test_corrupted_convolution_route_is_reported_at_its_first_mismatch(monkeypatch, route, size):
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
    report = run_verify(*size)
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert list(failed) == ["convolution/definition1"]
    assert failed["convolution/definition1"].startswith("trial=0 n=3:")


def test_number_routes_compute_each_m_sum_once_as_needed(monkeypatch):
    # Counts, not timings: only the Gm explicit stream reads the m explicit
    # sums, each computed as a comparison first needs it and kept in no
    # list, so a seed fault at a large max_n computes the sums up to the
    # fault's index, and no run computes a sum twice.
    sums = []
    explicit = seq._ml_explicit_int

    def counting(n):
        sums.append(n)
        return explicit(n)

    monkeypatch.setattr(seq, "_ml_explicit_int", counting)
    for fault, detail, most in (("m1", "n=1: recurrence=4 vs binet=3", 2),
                                ("gm0", "n=0: recurrence=3+3i/2 vs binet=2+3i/2", 3),
                                ("gm1", "n=1: recurrence=4+2i vs binet=3+2i", 3)):
        sums.clear()
        assert verify._check_route_numbers("route-agreement/numbers", 500, fault) == CheckResult(
            "route-agreement/numbers", "0..500", False, detail)
        assert len(sums) <= most and len(sums) == len(set(sums)), (fault, sums)
    sums.clear()
    assert verify._check_route_numbers("route-agreement/numbers", 500, None).passed
    assert sums == list(range(501))


def test_compared_streams_replay_from_their_start(monkeypatch):
    # The stream guard of test_routes calls each stream of a finished check
    # again; a stream that hands back one shared, spent iterator would show
    # it nothing.  Each call must give a fresh stream with its first terms.
    calls = []
    check_streams = verify._check_streams

    def capture(name, lo, hi, *groups):
        calls.append((name, lo, groups))
        return check_streams(name, lo, hi, *groups)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert run_verify(max_n=12, max_poly_n=6).overall
    for name, lo, groups in calls:
        for label, stream, others in groups:
            for other, first, s in ((label, lo, stream), *others):
                head = list(itertools.islice(s(), 3))
                assert head == list(itertools.islice(s(), 3)), (name, other)
                assert len(head) == 3, (name, other)


# sha256 of the repr of the 200 (lambda, mu) draws of the convolution check.
CONVOLUTION_DRAWS = {
    0: "ee668a5a57c0e784db758beda286eb7aa1437ee595589768180e64d26d13c1d7",
    1: "c42910e0388df0978a1019e476ff88d39ce862d45d270788876cd36b0e7785db",
}


@pytest.mark.parametrize("seed", sorted(CONVOLUTION_DRAWS))
def test_convolution_check_does_the_same_work(monkeypatch, seed):
    # Counts, not timings: every trial draws the same alphabets and calls
    # the same routes, however the series are held, and a check of fewer
    # trials draws the first alphabets of a longer one.
    calls = collections.Counter()
    diff_args = []

    def draws_of(trials):
        calls.clear()
        diff_args.clear()
        assert verify._check_convolution("convolution/definition1", seed, trials).passed
        assert calls == {"s_diff_series": 2 * trials, "s_neg_alphabet": trials, "__mul__": trials}
        # Each trial asks for S(lambda - mu), then for S(lambda) alone.
        draws = [(list(lam), list(mu)) for lam, mu, _ in diff_args[::2]]
        assert diff_args[1::2] == [(lam, (), 12) for lam, _ in draws]
        return draws

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
    draws = draws_of(200)
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == CONVOLUTION_DRAWS[seed]
    assert draws_of(30) == draws[:30]


def test_letter_draws_are_the_draws_of_randrange():
    # The convolution check draws through _below, which reads getrandbits by
    # the rule of CPython's Random._randbelow_with_getrandbits.  Should that
    # rule change, this test names it before CONVOLUTION_DRAWS fails.
    for seed in range(20):
        for n in (2, 4, 7):
            rng, bits = random.Random(seed), random.Random(seed).getrandbits
            assert [verify._below(bits, n) for _ in range(1000)] == [
                rng.randrange(n) for _ in range(1000)], (seed, n)
        rng, bits = random.Random(seed), random.Random(seed).getrandbits
        for _ in range(1000):
            a, ea, b, eb = rng.randint(-3, 3), rng.randint(0, 1), rng.randint(-3, 3), rng.randint(0, 1)
            assert verify._random_letter(bits) == GaussianDyadic(Dyadic(a, ea), Dyadic(b, eb))


def test_convolution_trial_builds_few_polys(monkeypatch):
    # Counts, not timings: a trial holds its four series as Polys in z, and
    # the Cauchy product adds into a vector cut to the order, so four Polys
    # a trial at most.  The products of the alphabets stay Gaussian-integer
    # vectors and build none.
    calls = 0
    poly = arith._poly

    def counting(re, im, exp):
        nonlocal calls
        calls += 1
        return poly(re, im, exp)

    monkeypatch.setattr(arith, "_poly", counting)
    monkeypatch.setattr(sf, "_poly", counting)
    for trials in (30, 200):
        calls = 0
        assert verify._check_convolution("convolution/definition1", 0, trials).passed
        assert calls <= 4 * trials, (trials, calls)


def test_polynomial_routes_compute_each_m_sum_once(monkeypatch):
    # Counts, not timings: only the Gm explicit stream reads the m explicit
    # sums, one per n, as route-agreement/numbers reads its m sums.
    sums = []
    explicit = pf.ml_poly_explicit

    def counting(n):
        sums.append(n)
        return explicit(n)

    monkeypatch.setattr(pf, "ml_poly_explicit", counting)
    for max_poly_n in (6, 40):
        sums.clear()
        assert verify._check_route_polynomials("route-agreement/polynomials", max_poly_n).passed
        assert sums == list(range(max_poly_n + 1))


def test_polynomial_route_sweep_is_linear(monkeypatch):
    # Counts, not timings: a sweep that reruns a recurrence from index 0 for
    # every n builds about 4x the Polys when n doubles, a single walk about
    # 2x.  Every walk step, sum and decomposition builds its Poly through
    # arith._poly.
    calls = 0
    poly = arith._poly

    def counting(re, im, exp):
        nonlocal calls
        calls += 1
        return poly(re, im, exp)

    monkeypatch.setattr(arith, "_poly", counting)
    monkeypatch.setattr(sf, "_poly", counting)

    def builds(max_poly_n: int) -> int:
        nonlocal calls
        calls = 0
        assert verify._check_route_polynomials("route-agreement/polynomials", max_poly_n).passed
        return calls

    small, large = builds(40), builds(80)
    assert large / small < 2.5, (small, large)


GOLDEN_CSV = """\
name,range,status,detail
convolution/definition1,"30 alphabets, n<=12",pass,
decimation/kernel-poly,0..6,pass,
decimation/kernel-scalar,0..12,pass,
decomposition/gm,0..12,pass,
decomposition/gm-poly,0..6,pass,
decomposition/m-poly,0..6,pass,
genfun/gm,0..12,pass,
genfun/gm-even,0..6,pass,
genfun/gm-odd,0..6,pass,
genfun/gm-poly,0..6,pass,
genfun/m-poly,0..6,pass,
kernel/explicit-poly,0..12,pass,
kernel/explicit-scalar,0..12,pass,
kernel/two-letter-bridge,0..12,pass,
negative/backward-closure,-10..12,pass,
negative/numbers,1..12,pass,
negative/polynomials,1..6,pass,
numeric-binet,"n<=6, x in {1, 2, 3, 5/2}",pass,
route-agreement/numbers,0..12,pass,
route-agreement/polynomials,0..6,pass,
specialization/x=1,0..12,pass,
tables/numbers,0..5,pass,
tables/polynomials,0..5,pass,
"""
GOLDEN_FAULT_LINES = {
    "m1": "route-agreement/numbers,0..12,fail,n=1: recurrence=4 vs binet=3",
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
     "1e3c9ae585c199007ba3154ec855dd44b978180ef4cf7bda4e697df08f74c879"),
    ("--max-n 12 --max-poly-n 6 --format json", 0,
     "19199bcc14cf3fc8b5cb436a682c905ede9885c459d4cc00d5c8ce8b0114c115"),
    ("--max-n 12 --max-poly-n 6 --format csv", 0,
     "a8b3368ee1cd83b119575d5739856351de7dac4ad80b2b10db36a9a0bdda1f70"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault m1", 1,
     "1e189d057cf39feeb05d83b1028eb5b3919fc8c041e5c20ff30e51561ded8757"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault m1", 1,
     "7c5cdf12765bfe82ac86ee011813a955f39616572ca090ae2678c3353289bf0a"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault m1", 1,
     "953e719f47c67213424ee9566a8cc8e75ee8861d7f4638cd422cc5b2337c8973"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault gm0", 1,
     "2c675f91b569713491133918eba41e303ad2f6b4d3ac8a7f3f8a129953f8e77c"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault gm0", 1,
     "42960fc2b54f4b0d9bb618f31461e30fd7ecd8228392b936d8c26f1c868e632a"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault gm0", 1,
     "2218914819a0a4103477567fee719b5227b2c8ce8cdd00e629629c754dfa2f06"),
    ("--max-n 12 --max-poly-n 6 --format text --inject-fault gm1", 1,
     "c1182684bb2dbf0c65071f57e3d9418af0c1e97f3007b9686b54f9abe0fc9885"),
    ("--max-n 12 --max-poly-n 6 --format json --inject-fault gm1", 1,
     "0f9d428f23561bbfe9820cd92776f56ae9a5fd1ced49999a4058e2e577ae3b65"),
    ("--max-n 12 --max-poly-n 6 --format csv --inject-fault gm1", 1,
     "c58ef4360013b0d36d823d200ccc76779fe74f950f6b8d48c9cb51f0b7dd7308"),
)


@pytest.mark.parametrize("args, want_code, want_digest", VERIFY_DIGESTS,
                         ids=[case[0] for case in VERIFY_DIGESTS])
def test_verify_output_matches_its_digest(args, want_code, want_digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", *args.split()])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest, err.getvalue()) == (want_code, want_digest, "")
