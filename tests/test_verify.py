"""Tests of the cross-method check suite itself.

The important property is that the suite bites: perturbing any recurrence
seed must make it fail, and fail early (at index 2 or lower), because that
is where a corrupted build would first disagree with the closed forms.
Perturbing one term of a route the sweeps walk must make exactly the checks
that use it fail, at that term's index.
"""

import re

import pytest

from gmlucas import polyfam as pf
from gmlucas import symfun as sf
from gmlucas import verify
from gmlucas.arith import Poly
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
    (pf, "iter_ml_poly_negative", 1, {"negative/polynomials": 3}),
    (pf, "iter_gml_poly_negative", 1, {"negative/polynomials": 3}),
    (sf, "iter_kernel_explicit", 0,
     {"kernel/explicit-scalar": 3, "kernel/explicit-poly": 3}),
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
