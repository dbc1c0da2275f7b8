"""Route domains are one checked fact.

cli._TERM_ROUTES gives each route of `term` its first valid n.  The guard
clauses of sequences, polyfam and symfun, the refusals of `term` and the
first indices that verify compares each polynomial route from must all say
the same, so a domain changed in one place and not the others fails here.
"""

import contextlib
import io

import pytest

from gmlucas import cli
from gmlucas import verify

ROWS = [(family, method, first, compute)
        for family, (routes, _) in sorted(cli._TERM_ROUTES.items())
        for method, first, compute in routes]
NEGATIVE = [(family, method, compute)
            for family, (_, (method, compute)) in sorted(cli._TERM_ROUTES.items())]


def test_each_route_answers_from_its_first_index_and_refuses_below():
    for family, method, first, compute in ROWS:
        assert compute(first) is not None, f"{family} {method} at n={first}"
        with pytest.raises(ValueError):
            compute(first - 1)
            pytest.fail(f"{family} {method} answered at n={first - 1}")


def test_term_refuses_an_index_below_the_first():
    late = [(family, method, first) for family, method, first, _ in ROWS if first >= 1]
    assert late
    for family, method, first in late:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["term", family, str(first - 1), "--method", method])
        assert code == 2, f"{family} {method} at n={first - 1}"
        assert f"requires n >= {first}" in err.getvalue()
        assert out.getvalue() == ""


def test_each_negative_route_answers_at_minus_one_and_refuses_zero():
    for family, method, compute in NEGATIVE:
        assert compute(-1) is not None, f"{family} {method} at n=-1"
        with pytest.raises(ValueError):
            compute(0)
            pytest.fail(f"{family} negative {method} answered at n=0")


def test_verify_compares_each_polynomial_route_from_its_first_index(monkeypatch):
    # route-agreement/polynomials groups each family's routes under its
    # recurrence; every route it compares starts where the table says.
    calls = {}
    check_streams = verify._check_streams

    def capture(name, lo, hi, *groups):
        calls[name] = (lo, groups)
        return check_streams(name, lo, hi, *groups)

    monkeypatch.setattr(verify, "_check_streams", capture)
    assert verify.run_verify(max_n=12, max_poly_n=6).overall
    lo, groups = calls["route-agreement/polynomials"]
    families = {"m recurrence": "mpoly", "Gm recurrence": "gmpoly"}
    assert sorted(label for label, _, _ in groups) == sorted(families)
    firsts = {(family, method): first for family, method, first, _ in ROWS}
    for label, _, others in groups:
        family = families[label]
        assert lo == firsts[family, "recurrence"]
        for method, first, _ in others:
            assert first == firsts[family, method], f"{family} {method}"
