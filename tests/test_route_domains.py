"""Route domains are one checked fact.

verify.ROUTES gives each route of `term` its first valid n; `term`,
route-agreement/polynomials and negative/* read it.  Each route must give
its family's terms from that index on, and the guard clauses of sequences,
polyfam and symfun and the refusals of `term` must refuse below it, so a
domain changed in one place and not the others fails here.
"""

import contextlib
import io
import itertools

import pytest

import gmlucas
from gmlucas import cli
from gmlucas import polyfam as pf
from gmlucas import sequences as seq
from gmlucas import verify
from gmlucas.arith import Dyadic, GaussianDyadic, Poly

ROWS = [(family, route) for family, (routes, _) in verify.ROUTES.items() for route in routes]
NEGATIVE = [(family, negative) for family, (_, negative) in verify.ROUTES.items()]

# The highest index compared, per family.
TOP = {"m": 129, "gm": 129, "mpoly": 65, "gmpoly": 65}
# Each family's terms 0..TOP: the closed form for the numbers, the
# recurrence walk for the polynomials.
FORWARD = {
    "m": [seq.ml_binet(n) for n in range(TOP["m"] + 1)],
    "gm": [seq.gml_binet(n) for n in range(TOP["gm"] + 1)],
    "mpoly": list(itertools.islice(pf.iter_ml_poly(), TOP["mpoly"] + 1)),
    "gmpoly": list(itertools.islice(pf.iter_gml_poly(), TOP["gmpoly"] + 1)),
}
# The d of each family's recurrence x_k = d x_{k-1} - 2 x_{k-2}.
D = {"m": 3, "gm": 3, "mpoly": Poly((0, 3)), "gmpoly": Poly((0, 3))}
HALF = GaussianDyadic(Dyadic(1, 1))


def _indices(first: int, top: int) -> list[int]:
    """first..first+3, and 2^k - 1, 2^k and 2^k + 1 up to top: between them
    they take every bit pattern through the doubling of symfun.kernel_term."""
    near_powers = (2**k + e for k in range(1, top.bit_length()) for e in (-1, 0, 1))
    return sorted({*range(first, first + 4), *(n for n in near_powers if first <= n <= top)})


def _backward(family: str) -> list:
    """x_0, x_{-1}, ..., x_{-TOP}: the recurrence run backwards from the
    family's x_1 and x_0, as x_{k-2} = (d x_{k-1} - x_k) / 2."""
    x1, x0 = FORWARD[family][1], FORWARD[family][0]
    terms = [x0]
    for _ in range(TOP[family]):
        x1, x0 = x0, (D[family] * x0 - x1) * HALF
        terms.append(x0)
    return terms


def test_each_route_answers_from_its_first_index_and_refuses_below():
    for family, route in ROWS:
        want = FORWARD[family]
        for n in _indices(route.first, TOP[family]):
            assert route.term(n) == want[n], f"{family} {route.method} at n={n}"
        with pytest.raises(ValueError):
            route.term(route.first - 1)
            pytest.fail(f"{family} {route.method} answered at n={route.first - 1}")


def test_term_refuses_an_index_below_the_first():
    late = [(family, route.method, route.first) for family, route in ROWS if route.first >= 1]
    assert late
    for family, method, first in late:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["term", family, str(first - 1), "--method", method])
        assert code == 2, f"{family} {method} at n={first - 1}"
        assert f"requires n >= {first}" in err.getvalue()
        assert out.getvalue() == ""


def test_each_negative_route_answers_at_minus_one_and_refuses_zero():
    for family, negative in NEGATIVE:
        assert negative.first == -1, family
        want = _backward(family)
        for n in _indices(1, TOP[family]):
            assert negative.term(-n) == want[n], f"{family} {negative.method} at n={-n}"
        with pytest.raises(ValueError):
            negative.term(0)
            pytest.fail(f"{family} negative {negative.method} answered at n=0")


def test_verify_compares_each_polynomial_route_from_its_first_index(monkeypatch):
    # route-agreement/polynomials compares each family's first route with
    # exactly its other routes but genfun, each from its first index, and
    # each stream it walks yields its route's terms.  The m group leaves out
    # its explicit route, whose sums the Gm explicit stream reads.
    calls = {}
    check_streams = verify._check_streams

    def capture(name, lo, hi, *groups):
        calls[name] = (lo, groups)
        return check_streams(name, lo, hi, *groups)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert verify.run_verify(max_n=12, max_poly_n=6).overall
    lo, groups = calls["route-agreement/polynomials"]
    families = {"m recurrence": "mpoly", "Gm recurrence": "gmpoly"}
    assert [label for label, _, _ in groups] == list(families)
    for label, stream, others in groups:
        head, *rest = verify.ROUTES[families[label]][0]
        compared = [route for route in rest if route.method != "genfun"
                    and (route.method, label) != ("explicit", "m recurrence")]
        assert lo == head.first
        assert [(method, first) for method, first, _ in others] == \
            [(route.method, route.first) for route in compared]
        for route, walk in [(head, stream), *zip(compared, (s for _, _, s in others))]:
            got = list(itertools.islice(walk(), 4))
            want = [route.term(n) for n in range(route.first, route.first + 4)]
            assert got == want, f"{label}: {route.method}"


# Each walked row's public single-term function, by (family, method,
# first): it answers at |n| with the first item of the row's stream from n.
WRAPPERS = {
    ("m", "recurrence", 0): seq.ml_recurrence,
    ("gm", "recurrence", 0): seq.gml_recurrence,
    ("gm", "explicit", 1): seq.gml_explicit,
    ("gm", "relation", 1): seq.gml_from_ml,
    ("mpoly", "recurrence", 0): pf.ml_poly,
    ("gmpoly", "recurrence", 0): pf.gml_poly,
    ("gmpoly", "explicit", 1): pf.gml_poly_explicit,
    ("gmpoly", "relation", 1): pf.gml_poly_from_ml,
    ("mpoly", "recurrence", -1): pf.ml_poly_negative,
    ("gmpoly", "recurrence", -1): pf.gml_poly_negative,
}


def test_each_route_stream_yields_its_terms_from_its_first_index():
    # A check walks a row's stream from first, and `term` reads the first
    # item of stream(n), so each stream must give the family's terms from
    # every start: upwards for a forward row, downwards for a negative one,
    # and must refuse a start below first.  A walked row's exported
    # single-term function must give the same terms and refuse there too.
    streamed = [(family, route) for family, (routes, negative) in verify.ROUTES.items()
                for route in (*routes, negative) if route.stream is not None]
    assert {(family, route.method, route.first) for family, route in streamed} >= \
        {("gm", "symmetric", 0), ("gm", "relation", 1)}
    assert {(family, route.method, route.first) for family, route in streamed
            if route.single is None} == set(WRAPPERS)
    for family, route in streamed:
        step = -1 if route.first < 0 else 1
        want = FORWARD[family] if step == 1 else _backward(family)
        wrapper = WRAPPERS.get((family, route.method, route.first))
        for k in _indices(abs(route.first), TOP[family]):
            terms = want[k:k + 4]
            got = list(itertools.islice(route.stream(step * k), len(terms)))
            assert got == terms, f"{family} {route.method} from {step * k}"
            assert wrapper is None or wrapper(k) == terms[0], f"{wrapper.__name__}({k})"
        with pytest.raises(ValueError):
            next(route.stream(route.first - step))
            pytest.fail(f"{family} {route.method} streamed from {route.first - step}")
        if wrapper:
            assert wrapper.__name__ in gmlucas.__all__
            with pytest.raises(ValueError):
                wrapper(abs(route.first) - 1)
                pytest.fail(f"{wrapper.__name__} answered at {abs(route.first) - 1}")


@pytest.mark.parametrize("family, detail", [("m", "n=3: recurrence=9 vs added=10"),
                                            ("gm", "n=3: recurrence=9+5i vs added=10+5i")])
def test_verify_compares_each_number_route_from_the_table(monkeypatch, family, detail):
    # route-agreement/numbers reads its routes from verify.ROUTES, so a
    # route added to a family's row, wrong at n = 3, fails it there by name.
    routes, negative = verify.ROUTES[family]
    right = routes[1].term

    def added(n):
        return right(n) + 1 if n == 3 else right(n)

    monkeypatch.setitem(verify.ROUTES, family, ((*routes, verify.Route("added", 0, added)), negative))
    failed = {c.name: c.detail for c in verify.run_verify(max_n=12, max_poly_n=6).checks
              if not c.passed}
    assert failed == {"route-agreement/numbers": detail}
