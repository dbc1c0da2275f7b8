"""The routes of a family must be independent in fact, not only in name.

Each route of a family in verify.ROUTES, the table that `term` runs, is
run under sys.setprofile, and the gmlucas functions it enters outside the
arithmetic layer are collected.
Two routes of one family that enter a common function compute their term
through shared code, so their agreement would check that code against
itself.  The allow-list names the functions that may be shared, and why.

The streams that each verify check compares are held to the same rule,
outside arith and verify.
"""

import inspect
import itertools
import sys

import pytest

from gmlucas import polyfam as pf
from gmlucas import sequences as seq
from gmlucas import symfun as sf
from gmlucas import verify

ALLOWED = {
    # Ring constants (the one and the zero of the letters' ring), read by
    # the symmetric, generating function and kernel routes alike.
    "gmlucas.symfun._one_like",
    "gmlucas.symfun._zero_like",
    # The gm and gmpoly recurrence routes and their relation routes both
    # walk the recurrence, but from different seeds (the Gm seeds and the m
    # seeds); a wrong tap in walk still makes the two disagree at n = 3.
    "gmlucas.sequences.walk",
}


def _entered(route, n: int) -> set[str]:
    """The gmlucas functions outside arith that route.term(n) enters, past
    the row's own entries in the table: Route.term and the row's lambdas."""
    own = {verify.Route.term.__code__, *(f.__code__ for f in (route.single, route.stream) if f)}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code not in own:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("gmlucas.") and module != "gmlucas.arith":
                seen.add(f"{module}.{frame.f_code.co_qualname}")

    sys.setprofile(profile)
    try:
        route.term(n)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("family", sorted(verify.ROUTES))
def test_routes_of_a_family_share_no_code(family):
    routes, _ = verify.ROUTES[family]
    for n in (1, 3, 9):
        entered = {route.method: _entered(route, n) for route in routes if n >= route.first}
        for a, b in itertools.combinations(entered, 2):
            shared = (entered[a] & entered[b]) - ALLOWED
            assert not shared, f"{family} n={n}: {a} and {b} both enter {sorted(shared)}"


# Each mutant changes one tap of walk's step x_k = d x_{k-1} + p x_{k-2}.
WALK_MUTANTS = {
    "p reads x_(k-1)": lambda x0, x1, d, p: d * x1 + p * x1,
    "d reads x_(k-2)": lambda x0, x1, d, p: d * x0 + p * x0,
    "p negated": lambda x0, x1, d, p: d * x1 - p * x0,
    "off by one": lambda x0, x1, d, p: d * x1 + p * x0 + 1,
}


@pytest.mark.parametrize("step", WALK_MUTANTS.values(), ids=list(WALK_MUTANTS))
def test_wrong_walk_splits_recurrence_from_relation(monkeypatch, step):
    # The reason walk is on the allow-list: the recurrence and relation
    # routes walk from different seeds, so a wrong walk makes them disagree.
    def walk(x0, x1, d, p):
        yield x0
        while True:
            yield x1
            x0, x1 = x1, step(x0, x1, d, p)

    monkeypatch.setattr(seq, "walk", walk)
    monkeypatch.setattr(pf, "walk", walk)
    assert any(seq.gml_recurrence(n) != seq.gml_from_ml(n) for n in (1, 2, 3))
    assert any(pf.gml_poly(n) != pf.gml_poly_from_ml(n) for n in (1, 2, 3))


def test_every_route_stream_is_a_generator_function():
    # perfbench's tracer counts one route span per `term` call only if the
    # stream a row names is a generator function: it records one span per
    # item of a generator function, but one per call of any other function,
    # so a stream that returned a plain iterator (an islice of walk, say)
    # would put every walk step under `term` as a route of its own.
    for family, (routes, negative) in verify.ROUTES.items():
        for route in (*routes, negative):
            if route.stream:
                module, name = route.stream.__code__.co_names[:2]
                stream = getattr(route.stream.__globals__[module], name)
                assert inspect.isgeneratorfunction(stream), f"{family} {route.method}: {name}"


def _entered_by_stream(stream, terms: int = 4) -> set[str]:
    """The gmlucas functions outside arith and verify that the first terms
    of a verify stream enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("gmlucas.") and module not in ("gmlucas.arith", "gmlucas.verify"):
                seen.add(f"{module}.{frame.f_code.co_qualname}")

    sys.setprofile(profile)
    try:
        list(itertools.islice(stream(), terms))
    finally:
        sys.setprofile(None)
    return seen


# The checks whose comparisons run through verify._check_streams, once each
# in a clean run; a check that compares routes in a loop of its own fails
# the guard by name.  decimation/* builds its three series and its term list
# before the call, as tables/* builds its rows, so the guard sees no route
# code behind those streams; test_decimation_series_share_no_code_with_the_
# kernel_walk profiles the decimation builders instead.  The guard compares
# streams within a group, so test_m_explicit_sums_share_no_code_with_the_
# number_routes holds the Gm explicit stream of route-agreement/numbers,
# which alone reads the m explicit sums, against the m group too.
STREAM_CHECKS = (
    "decimation/kernel-poly",
    "decimation/kernel-scalar",
    "decomposition/gm",
    "decomposition/gm-poly",
    "decomposition/m-poly",
    "genfun/gm",
    "genfun/gm-even",
    "genfun/gm-odd",
    "genfun/gm-poly",
    "genfun/m-poly",
    "kernel/explicit-poly",
    "kernel/explicit-scalar",
    "kernel/two-letter-bridge",
    "negative/numbers",
    "negative/polynomials",
    "route-agreement/numbers",
    "route-agreement/polynomials",
    "specialization/x=1",
    "tables/numbers",
    "tables/polynomials",
)


def test_streams_that_verify_compares_share_no_code(monkeypatch):
    # Each group that verify._check_streams compares is a stream and the
    # streams it is compared with; no two of them may share code beyond
    # ALLOWED, or their agreement would check that code against itself.
    calls = []
    check_streams = verify._check_streams

    def capture(name, lo, hi, *groups):
        calls.append((name, groups))
        return check_streams(name, lo, hi, *groups)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert verify.run_verify(max_n=12, max_poly_n=6).overall
    assert sorted(name for name, _ in calls) == list(STREAM_CHECKS)
    for name, groups in calls:
        for label, stream, others in groups:
            entered = {label: _entered_by_stream(stream)}
            entered.update((other, _entered_by_stream(s)) for other, _, s in others)
            for a, b in itertools.combinations(entered, 2):
                shared = (entered[a] & entered[b]) - ALLOWED
                assert not shared, f"{name}: {label}: {a} and {b} both enter {sorted(shared)}"


@pytest.mark.parametrize("kernel", [sf._KERNEL_NUM, sf._KERNEL_POLY], ids=["scalar", "poly"])
def test_decimation_series_share_no_code_with_the_kernel_walk(kernel):
    # decimation/* compares the three series of kernel_even_odd_series with
    # terms taken from kernel_term and the kernel walk, both built before
    # its _check_streams call, so the builders themselves are profiled here.
    series = _entered_by_stream(lambda: sf.kernel_even_odd_series(kernel, 4), 3)
    terms = _entered_by_stream(
        lambda: (sf.kernel_term(kernel, -1), *itertools.islice(sf.iter_kernel(kernel), 10)), 11)
    shared = (series & terms) - ALLOWED
    assert not shared, sorted(shared)


def test_m_explicit_sums_share_no_code_with_the_number_routes(monkeypatch):
    # route-agreement/numbers reads the m explicit sums only through its Gm
    # explicit stream, which is profiled against every other stream of the
    # check's m and Gm groups.
    groups = {}
    check_streams = verify._check_streams

    def capture(name, lo, hi, *compared):
        groups[name] = compared
        return check_streams(name, lo, hi, *compared)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert verify._check_route_numbers(12, None).passed
    streams = []
    for label, stream, others in groups["route-agreement/numbers"]:
        streams += [(label, stream), *((other, s) for other, _, s in others)]
    [explicit] = [_entered_by_stream(s) for label, s in streams if label == "explicit"]
    assert "gmlucas.sequences._ml_explicit_int" in explicit
    # The m walk, binet and 2**n + 1; the Gm walk, binet, symmetric and relation.
    streams = [(label, s) for label, s in streams if label != "explicit"]
    assert len(streams) == 7
    for label, stream in streams:
        shared = (explicit & _entered_by_stream(stream)) - ALLOWED
        assert not shared, f"explicit and {label} both enter {sorted(shared)}"
