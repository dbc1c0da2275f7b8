"""Number family tests.

Reference values are frozen as literals: the first table rows, the closed
form 2**n + 1 computed inline with shifts, and the hand-expanded binomial
summands for small n.
"""

import collections
import contextlib
import io
import itertools

import pytest
from hypothesis import given, strategies as st

from gmlucas import cli
from gmlucas import polyfam as pf
from gmlucas import symfun as sf
from gmlucas import verify
from gmlucas.arith import Dyadic, GaussianDyadic, Poly
from gmlucas.sequences import (
    _ml_explicit_int,
    GM0,
    GM1,
    M0,
    M1,
    explicit_summand,
    gml_binet,
    gml_explicit,
    gml_from_ml,
    gml_negative,
    gml_recurrence,
    iter_gml_explicit,
    iter_gml_from_ml,
    iter_ml_recurrence,
    ml_binet,
    ml_explicit,
    ml_negative,
    ml_recurrence,
    recurrence_term,
    walk,
)

# First six rows of the number table.
TABLE_M = (2, 3, 5, 9, 17, 33)
TABLE_GM = (
    GaussianDyadic(2, Dyadic(3, 1)),
    GaussianDyadic(3, 2),
    GaussianDyadic(5, 3),
    GaussianDyadic(9, 5),
    GaussianDyadic(17, 9),
    GaussianDyadic(33, 17),
)

# Hand-expanded summands of the closed binomial form, n = 1..4:
#   n=1: 3                     -> 3
#   n=2: 9 - 4                 -> 5
#   n=3: 27 - 18               -> 9
#   n=4: 81 - 72 + 8           -> 17
SUMMANDS = {
    (1, 0): 3,
    (2, 0): 9, (2, 1): -4,
    (3, 0): 27, (3, 1): -18,
    (4, 0): 81, (4, 1): -72, (4, 2): 8,
}


def test_seeds():
    assert (M0, M1) == (2, 3)
    assert GM0 == GaussianDyadic(2, Dyadic(3, 1))
    assert GM1 == GaussianDyadic(3, 2)


def test_number_table():
    for n, want in enumerate(TABLE_M):
        assert ml_recurrence(n) == GaussianDyadic(want)
    for n, want in enumerate(TABLE_GM):
        assert gml_recurrence(n) == want


def test_closed_form_is_two_to_n_plus_one():
    for n in range(65):
        assert ml_binet(n) == GaussianDyadic((1 << n) + 1)


def test_wordsize_boundary_value():
    assert int(ml_binet(64).re) == 18446744073709551617


def test_number_routes_agree():
    for n in range(81):
        rec = ml_recurrence(n)
        assert ml_binet(n) == rec
        assert ml_explicit(n) == rec


def test_explicit_summands_match_hand_expansion():
    for (n, j), want in SUMMANDS.items():
        assert explicit_summand(n, j) == want


def test_explicit_sum_equals_summand_total():
    # the ratio-updated sum against the per-term reference
    for n in range(1, 61):
        total = sum(explicit_summand(n, j) for j in range(n // 2 + 1))
        assert ml_explicit(n) == GaussianDyadic(total)


def test_ratio_updated_sum_matches_summands_and_closed_form():
    # Each coefficient b_j is reached from the one before by an exact floor
    # division; a wrong ratio or a rounded quotient shows at some n <= 600.
    assert _ml_explicit_int(0) == 2
    for n in range(1, 601):
        total = sum(explicit_summand(n, j) for j in range(n // 2 + 1))
        assert _ml_explicit_int(n) == total == 2**n + 1, n


@pytest.mark.parametrize("n", (1023, 1024, 1025, 2000, 4001))
def test_explicit_sum_past_600_matches_closed_form(n):
    # Past the summand sweep above: both parities, either side of a power
    # of two, and the Gm route that reads two sums.
    assert _ml_explicit_int(n) == 2**n + 1
    assert gml_explicit(n) == gml_binet(n)


def test_explicit_summand_is_integral():
    # n * C(n-j, j) is always divisible by n - j
    from gmlucas.arith import binomial

    for n in range(1, 40):
        for j in range(n // 2 + 1):
            assert n * binomial(n - j, j) % (n - j) == 0


def test_explicit_zero_convention():
    assert ml_explicit(0) == GaussianDyadic(2)


def test_gaussian_routes_agree():
    for n in range(61):
        rec = gml_recurrence(n)
        assert gml_binet(n) == rec
        if n >= 1:
            assert gml_from_ml(n) == rec
            assert gml_explicit(n) == rec


def test_gaussian_parts_are_adjacent_numbers():
    for n in range(1, 41):
        gm = gml_binet(n)
        assert gm.re == ml_binet(n).re
        assert gm.im == ml_binet(n - 1).re


def test_gaussian_zero_has_fractional_imag_part():
    assert gml_binet(0) == GaussianDyadic(2, Dyadic(3, 1))


def test_negative_numbers():
    assert ml_negative(1) == GaussianDyadic(Dyadic(3, 1))
    assert ml_negative(2) == GaussianDyadic(Dyadic(5, 2))
    assert ml_negative(3) == GaussianDyadic(Dyadic(9, 3))
    assert gml_negative(1) == GaussianDyadic(Dyadic(3, 1), Dyadic(5, 2))
    assert gml_negative(2) == GaussianDyadic(Dyadic(5, 2), Dyadic(9, 3))


def test_negative_scaling_identity():
    for n in range(1, 31):
        assert ml_negative(n).mul_pow2(n) == ml_binet(n)


def test_backward_closure_through_zero():
    def term(k: int) -> GaussianDyadic:
        return gml_binet(k) if k >= 0 else gml_negative(-k)

    for k in range(-20, 21):
        assert term(k) == 3 * term(k - 1) - 2 * term(k - 2)


def test_negative_denominators_are_bounded():
    for n in range(1, 31):
        v = gml_negative(n)
        assert v.re.exp <= n
        assert v.im.exp <= n + 1


def test_preconditions():
    for fn in (ml_recurrence, ml_binet, ml_explicit, gml_recurrence, gml_binet):
        with pytest.raises(ValueError):
            fn(-1)
    for fn in (ml_negative, gml_negative, gml_explicit, gml_from_ml):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        explicit_summand(0, 0)
    with pytest.raises(ValueError):
        explicit_summand(3, 2)
    with pytest.raises(ValueError):
        explicit_summand(3, -1)
    with pytest.raises(ValueError):
        recurrence_term(0, 1, -1)


def test_generic_walker_on_mersenne_seeds():
    # seeds 0, 1 give 2**n - 1 under the same recurrence
    for n in range(21):
        assert recurrence_term(0, 1, n) == (1 << n) - 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.integers(0, 30))
def test_generic_walker_closed_form(a, b, n):
    # x_n = (b - a) 2**n + (2a - b) solves x_n = 3 x_{n-1} - 2 x_{n-2}
    assert recurrence_term(a, b, n) == (b - a) * (1 << n) + (2 * a - b)


@given(st.integers(1, 200))
def test_negative_index_against_closed_form(n):
    want = GaussianDyadic(Dyadic((1 << n) + 1, n),
                          Dyadic((1 << (n + 1)) + 1, n + 1))
    assert gml_negative(n) == want


def test_closed_forms_match_values_built_from_dyadic_parts():
    # gml_binet, ml_negative and gml_negative build their values from ints;
    # each must have the canonical parts of the value built from Dyadic parts.
    def parts(g):
        return g.a, g.b, g.exp

    for n in range(2001):
        m = (1 << n) + 1
        im = Dyadic((1 << (n - 1)) + 1) if n else Dyadic(3, 1)
        assert parts(gml_binet(n)) == parts(GaussianDyadic(Dyadic(m), im))
        if n:
            assert parts(ml_negative(n)) == parts(GaussianDyadic(Dyadic(m, n)))
            assert parts(gml_negative(n)) == parts(
                GaussianDyadic(Dyadic(m, n), Dyadic((1 << (n + 1)) + 1, n + 1)))
    refusals = ((gml_binet, -1, "gml_binet requires n >= 0; use gml_negative below zero"),
                (ml_negative, 0, "ml_negative requires n >= 1"),
                (gml_negative, 0, "gml_negative requires n >= 1"))
    for route, first_bad, message in refusals:
        for n in (first_bad, first_bad - 1, -100):
            with pytest.raises(ValueError) as refused:
                route(n)
            assert str(refused.value) == message

WALK_CASES = {
    "int seeds, int weights": (2, 3, 3, -2),
    "int seeds, dyadic weights": (1, -2, Dyadic(3, 1), Dyadic(-5, 2)),
    "gaussian seeds, dyadic weights": (
        GaussianDyadic(2, Dyadic(3, 1)), GaussianDyadic(-1, 2),
        Dyadic(-7, 3), Dyadic(1, 1)),
    "gaussian seeds, gaussian weights": (
        GaussianDyadic(1), GaussianDyadic(0, 1),
        GaussianDyadic(Dyadic(1, 1), -1), GaussianDyadic(2, Dyadic(3, 2))),
    "poly seeds, poly weights": (
        Poly((2,)), Poly((0, 3)), Poly((0, 3)), Poly((-2,))),
    "poly seeds, mixed weights": (
        Poly((2, GaussianDyadic(0, Dyadic(3, 1)))), Poly((GaussianDyadic(0, 2), 3)),
        Poly((Dyadic(1, 1), 0, -1)), Dyadic(-3, 2)),
    "poly seeds, backward weights": (
        Poly((GaussianDyadic(0, 2), 3)), Poly((2, GaussianDyadic(0, Dyadic(3, 1)))),
        Poly((0, Dyadic(3, 1))), GaussianDyadic(Dyadic(-1, 1))),
    "poly seeds, gaussian one-term weights": (
        Poly((1, Dyadic(1, 2))), Poly((GaussianDyadic(1, 1),)),
        Poly((0, 0, GaussianDyadic(Dyadic(1, 1), Dyadic(1, 1)))), GaussianDyadic(0, Dyadic(3, 1))),
    "mixed seeds": (2, GaussianDyadic(3, 2), 3, -2),
}


@pytest.mark.parametrize("x0, x1, d, p", WALK_CASES.values(), ids=WALK_CASES)
def test_walk_matches_a_list_built_reference(x0, x1, d, p):
    ref = [x0, x1]
    for _ in range(29):
        ref.append(d * ref[-1] + p * ref[-2])
    for count in range(32):
        assert list(itertools.islice(walk(x0, x1, d, p), count)) == ref[:count]


def test_walk_over_int_seeds_takes_the_ring_of_its_weights():
    # 3 == GaussianDyadic(3), so no step may be shared between int and
    # GaussianDyadic weights: int seeds give int terms under int weights and
    # GaussianDyadic terms under GaussianDyadic ones, in either order.
    want = [2, 3, 5, 9, 17, 33, 65, 129]
    for _ in range(2):
        ints = list(itertools.islice(walk(2, 3, 3, -2), 8))
        gaussians = list(itertools.islice(walk(2, 3, GaussianDyadic(3), GaussianDyadic(-2)), 8))
        assert ints == gaussians == want
        assert {type(x) for x in ints} == {int}
        assert {type(x) for x in gaussians[2:]} == {GaussianDyadic}


def test_relation_iterator_yields_the_relation_route():
    swept = list(itertools.islice(iter_gml_from_ml(), 40))
    assert swept == [gml_from_ml(n) for n in range(1, 41)]
    assert swept == [gml_binet(n) for n in range(1, 41)]


@pytest.mark.parametrize("n", (1, 2, 3, 500))
def test_relation_route_builds_one_gaussian(monkeypatch, n):
    # Counts, not timings: the route walks the m recurrence on ints and
    # builds Gm_n alone, not a GaussianDyadic for every index below n.
    want = gml_binet(n)
    built = 0
    init = GaussianDyadic.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(GaussianDyadic, "__init__", counting)
    assert gml_from_ml(n) == want
    assert built == 1


def _table(rows: int) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["table", "1", "--rows", str(rows)]) == 0


def _first(terms):
    return lambda n: list(itertools.islice(terms(), n))


# The package's walks over GaussianDyadic and Poly, forward and backward,
# each as a run of a given length: the iterators walk that many terms, and
# the checks sweep that far.  sym_decompose_gml_poly is left out: its
# coefficient (i(2 - (9/2)x**2) - 3x) has three terms, so it keeps the ring
# operators by design.
PACKAGE_WALKS = {
    "gml_recurrence": gml_recurrence,
    "iter_ml_recurrence": _first(iter_ml_recurrence),
    "iter_gml_explicit": _first(iter_gml_explicit),
    "iter_ml_poly": _first(pf.iter_ml_poly),
    "iter_gml_poly": _first(pf.iter_gml_poly),
    "iter_gml_poly_from_ml": _first(pf.iter_gml_poly_from_ml),
    "iter_gml_poly_negative": _first(pf.iter_gml_poly_negative),
    "iter_kernel scalar": _first(lambda: sf.iter_kernel(sf.SymKernel(3, -2))),
    "iter_kernel poly": _first(lambda: sf.iter_kernel(sf.SymKernel(Poly((0, 3)), Poly((-2,))))),
    "iter_sym_decompose_gml": _first(sf.iter_sym_decompose_gml),
    "iter_sym_decompose_ml_poly": _first(sf.iter_sym_decompose_ml_poly),
    "table 1": _table,
    "route-agreement/numbers": lambda n: verify._check_route_numbers(n, None),
    "negative/numbers": verify._check_negative_numbers,
    "negative/polynomials": verify._check_negative_polynomials,
}
RING_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize("run", PACKAGE_WALKS.values(), ids=list(PACKAGE_WALKS))
def test_walks_call_no_ring_operator_per_step(monkeypatch, run):
    calls = collections.Counter()
    for cls in (GaussianDyadic, Poly):
        for name in RING_OPERATORS:
            def counting(self, other, op=getattr(cls, name), key=f"{cls.__name__}.{name}"):
                calls[key] += 1
                return op(self, other)

            monkeypatch.setattr(cls, name, counting)

    def count(n: int) -> collections.Counter:
        calls.clear()
        result = run(n)
        assert getattr(result, "passed", True)
        return collections.Counter(calls)

    assert count(24) == count(8)
