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

import itertools
import sys

import pytest

from gmlucas import polyfam as pf
from gmlucas import sequences as seq
from gmlucas import verify

ALLOWED = {
    # A ring constant (the one of the letters' ring), read by the symmetric
    # and generating function routes alike.
    "gmlucas.symfun._one_like",
    # The gm and gmpoly recurrence routes and their relation routes both
    # walk the recurrence, but from different seeds (the Gm seeds and the m
    # seeds); a wrong tap in walk still makes the two disagree at n = 3.
    "gmlucas.sequences.walk",
}


def _entered(compute, n: int) -> set[str]:
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is not compute.__code__:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("gmlucas.") and module != "gmlucas.arith":
                seen.add(f"{module}.{frame.f_code.co_qualname}")

    sys.setprofile(profile)
    try:
        compute(n)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("family", sorted(verify.ROUTES))
def test_routes_of_a_family_share_no_code(family):
    routes, _ = verify.ROUTES[family]
    for n in (1, 3, 9):
        entered = {route.method: _entered(route.term, n) for route in routes if n >= route.first}
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
    assert len(calls) == 17
    for name, groups in calls:
        for label, stream, others in groups:
            entered = {label: _entered_by_stream(stream)}
            entered.update((other, _entered_by_stream(s)) for other, _, s in others)
            for a, b in itertools.combinations(entered, 2):
                shared = (entered[a] & entered[b]) - ALLOWED
                assert not shared, f"{name}: {label}: {a} and {b} both enter {sorted(shared)}"
