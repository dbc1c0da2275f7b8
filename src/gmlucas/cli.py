"""Command line interface.

Subcommands: term (one family member by a chosen route), table (the first
rows of both reference tables), series (generating function expansions),
and verify (the full cross-method check suite).  Exit codes: 0 success,
1 verification failure or route disagreement, 2 usage error.

term reads the route table verify.ROUTES, which also gives FAMILIES and
METHODS: it decides which methods are valid at n, computes the term by each
of them, and picks the usage message for a refused method.  Every
subcommand prints through _emit, once per format.

Sizes are capped before any work starts, and a request over a cap is a
usage error: |n| <= 20000 for the number families and 500 for the
polynomial families (term), the same caps on table rows and series order,
and verify --max-n <= 2000, --max-poly-n <= 200.  The kernel series also
needs order times the bit size of its larger weight to be at most 40000,
counting order 0 as 1, since even its one coefficient aligns the weights.

The argparse parser is built once per process, on the first main() call,
and reused by every later call: each parse returns a fresh Namespace, and
help and error text go to the sys.stdout/sys.stderr of the moment.

Output is deterministic: identical invocations produce byte-identical
stdout.  JSON renders every dyadic as {"num": <decimal string>, "exp2": k}
so arbitrarily large integers survive parsers that lack big integers.  The
JSON is written by a small recursive emitter, _json_text, that produces the
bytes of json.dumps(obj, indent=2) without the pure-Python encoder that
json.dumps falls back to whenever an indent is set.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
from json.encoder import encode_basestring_ascii

from .arith import Dyadic, GaussianDyadic, Poly
from . import polyfam as pf
from . import sequences as seq
from . import symfun as sf
from . import verify as ver

FAMILIES = tuple(ver.ROUTES)
METHODS = tuple(dict.fromkeys(r.method for routes, _ in ver.ROUTES.values() for r in routes))
SERIES_KINDS = ("gm", "gm-even", "gm-odd", "mpoly", "gmpoly", "kernel")

# A number term has about n bits and a polynomial term about n**2, so the
# caps keep every request finite; they sit far above the default sizes.
MAX_NUMBER_N = 20000
MAX_POLY_N = 500
MAX_VERIFY_N = 2000
MAX_VERIFY_POLY_N = 200
# Kernel coefficient S_n has about n times the weights' bit size.
MAX_KERNEL_BITS = 40000


# ---------------------------------------------------------------- rendering

def _dyadic_json(d: Dyadic) -> dict:
    return {"num": str(d.num), "exp2": d.exp}

def _gaussian_json(g: GaussianDyadic) -> dict:
    return {"re": _dyadic_json(g.re), "im": _dyadic_json(g.im)}

def _value_json(v) -> dict:
    if isinstance(v, Poly):
        return {"coeffs": [_gaussian_json(c) for c in v.coeffs]}
    return _gaussian_json(v)

def _series_json(s: sf.PowerSeries) -> dict:
    return {"order": s.order, "coeffs": [_value_json(c) for c in s.coeffs]}

def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for the dict, list, str,
    int, bool and None values the CLI emits."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError for a key that is not a str.
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
                 for key, value in obj.items()]
        head, tail = "{", "}"
    elif isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        head, tail = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{head}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{tail}"


def _emit(fmt: str, text, doc, header: tuple, rows) -> None:
    """Print a result as text, JSON or CSV.  text, doc and rows are
    functions of no arguments, so only the chosen rendering is built."""
    if fmt == "text":
        print(text())
    elif fmt == "json":
        print(_json_text(doc()))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())

def _usage_error(message: str) -> int:
    print(f"gmlucas: error: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------- term

def _refusal(family: str, method: str, n: int) -> str:
    routes, negative = ver.ROUTES[family]
    if n < 0:
        return (f"negative indices come only from the negative extension; "
                f"use method '{negative.method}' or 'auto' for family '{family}'")
    for route in routes:
        if route.method == method:
            return f"method '{method}' requires n >= {route.first} for family '{family}'"
    if method == "binet":
        return ("method 'binet' is only a floating point spot check for the "
                "polynomial families (see gmlucas.polyfam.binet_numeric), "
                "not an exact term route")
    return f"method '{method}' is not a route for family '{family}'"


def cmd_term(family: str, n: int, method: str, fmt: str) -> int:
    cap = MAX_POLY_N if family in ("mpoly", "gmpoly") else MAX_NUMBER_N
    if abs(n) > cap:
        return _usage_error(f"|n| must be at most {cap} for family '{family}'")
    routes, negative = ver.ROUTES[family]
    valid = [negative] if n < 0 else [route for route in routes if n >= route.first]
    if method != "auto":
        valid = [route for route in valid if route.method == method]
        if not valid:
            return _usage_error(_refusal(family, method, n))
    (first_label, value), *others = [(route.method, route.term(n)) for route in valid]
    for label, other in others:
        if ver._parts(other) != ver._parts(value):
            print(
                f"gmlucas: route disagreement for {family} at n={n}: "
                f"{first_label}={value} vs {label}={other}",
                file=sys.stderr,
            )
            return 1
    _emit(fmt, lambda: value,
          lambda: {"family": family, "n": n, "method": method, "value": _value_json(value)},
          ("family", "n", "method", "value"), lambda: [(family, n, method, str(value))])
    return 0


# -------------------------------------------------------------------- table

def cmd_table(which: int, rows: int, fmt: str) -> int:
    if rows < 1:
        return _usage_error("--rows must be at least 1")
    cap = MAX_NUMBER_N if which == 1 else MAX_POLY_N
    if rows > cap:
        return _usage_error(f"--rows must be at most {cap} for table {which}")
    if which == 1:
        data = list(zip(range(rows), seq.iter_gml_recurrence()))
        _emit(fmt, lambda: "\n".join(["n  Gm_n"] + [f"{n}  {v}" for n, v in data]),
              lambda: {"table": 1, "rows": [{"n": n, "gm": _gaussian_json(v)} for n, v in data]},
              ("n", "gm"), lambda: [(n, str(v)) for n, v in data])
        return 0
    data = list(zip(range(rows), pf.iter_ml_poly(), pf.iter_gml_poly()))
    _emit(fmt,
          lambda: "\n".join(["n  m_n(x)  |  Gm_n(x)"]
                            + [f"{n}  {m}  |  {gm}" for n, m, gm in data]),
          lambda: {"table": 2, "rows": [{"n": n, "m": _value_json(m), "gm": _value_json(gm)}
                                        for n, m, gm in data]},
          ("n", "m", "gm"), lambda: [(n, str(m), str(gm)) for n, m, gm in data])
    return 0


# ------------------------------------------------------------------- series

_SERIES_FN = {
    "gm": sf.gf_gml,
    "gm-even": sf.gf_gml_even,
    "gm-odd": sf.gf_gml_odd,
    "mpoly": sf.gf_ml_poly,
    "gmpoly": sf.gf_gml_poly,
}


def cmd_series(which: str, order: int, d: Dyadic | None, p: Dyadic | None,
               fmt: str) -> int:
    if order < 0:
        return _usage_error("series order must be non-negative")
    cap = MAX_POLY_N if which in ("mpoly", "gmpoly") else MAX_NUMBER_N
    if order > cap:
        return _usage_error(f"series order must be at most {cap} for '{which}'")
    if which == "kernel":
        if d is None or p is None:
            return _usage_error("the kernel series needs both --d and --p")
        bits = max(abs(w.num).bit_length() + w.exp for w in (d, p))
        if max(order, 1) * bits > MAX_KERNEL_BITS:
            return _usage_error(
                f"series order times the weight size ({bits} bits) must be "
                f"at most {MAX_KERNEL_BITS}")
        series = sf.kernel_series(sf.SymKernel(d, p), order)
    else:
        if d is not None or p is not None:
            return _usage_error("--d/--p apply only to the kernel series")
        series = _SERIES_FN[which](order)
    _emit(fmt, lambda: series, lambda: {"series": which, "value": _series_json(series)},
          ("n", "coefficient"), lambda: [(n, str(c)) for n, c in enumerate(series)])
    return 0


# ------------------------------------------------------------------- verify

def _report_line(check: ver.CheckResult) -> str:
    line = f"[{'pass' if check.passed else 'FAIL'}] {check.name} ({check.range})"
    return line + f": {check.detail}" if check.detail else line


def cmd_verify(max_n: int, max_poly_n: int, seed: int,
               inject_fault: str | None, fmt: str) -> int:
    if max_n > MAX_VERIFY_N:
        return _usage_error(f"--max-n must be at most {MAX_VERIFY_N}")
    if max_poly_n > MAX_VERIFY_POLY_N:
        return _usage_error(f"--max-poly-n must be at most {MAX_VERIFY_POLY_N}")
    try:
        report = ver.run_verify(max_n, max_poly_n, seed, inject_fault)
    except ValueError as err:
        return _usage_error(str(err))
    checks = report.checks
    _emit(fmt,
          lambda: "\n".join([_report_line(c) for c in checks]
                            + [f"overall: {'pass' if report.overall else 'FAIL'}"]),
          lambda: {"checks": [{"name": c.name, "range": c.range,
                               "status": "pass" if c.passed else "fail", "detail": c.detail}
                              for c in checks],
                   "overall": report.overall},
          ("name", "range", "status", "detail"),
          lambda: [(c.name, c.range, "pass" if c.passed else "fail", c.detail) for c in checks])
    return 0 if report.overall else 1


# ------------------------------------------------------------------- parser

_DYADIC_TEXT = re.compile(r"^([+-]?\d+)(/2(\^(\d+))?)?$")


def _parse_dyadic(text: str) -> Dyadic:
    match = _DYADIC_TEXT.match(text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"expected INT, INT/2 or INT/2^K, got {text!r}")
    num = int(match.group(1))
    exp = int(match.group(4)) if match.group(4) else (1 if match.group(2) else 0)
    return Dyadic(num, exp)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS,
        help="output format (default: text)")
    parser = argparse.ArgumentParser(
        prog="gmlucas", parents=[fmt_parent],
        description="Exact Mersenne Lucas and Gaussian Mersenne Lucas families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_term = sub.add_parser(
        "term", parents=[fmt_parent],
        help="one term of a family, by one route or by all of them")
    p_term.add_argument("family", choices=FAMILIES)
    p_term.add_argument("n", type=int, help="index; negative uses the negative extension")
    p_term.add_argument("--method", choices=METHODS + ("auto",), default="auto",
                        help="computation route (default: auto, cross-checks all)")

    p_table = sub.add_parser(
        "table", parents=[fmt_parent],
        help="reference table 1 (numbers) or 2 (polynomials)")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--rows", type=int, default=6,
                         help="number of rows (default: 6)")

    p_series = sub.add_parser(
        "series", parents=[fmt_parent], help="generating function coefficients")
    p_series.add_argument("which", choices=SERIES_KINDS)
    p_series.add_argument("order", type=int, help="truncation order")
    p_series.add_argument("--d", type=_parse_dyadic, default=None,
                          help="kernel weight d (kernel series only)")
    p_series.add_argument("--p", type=_parse_dyadic, default=None,
                          help="kernel weight p (kernel series only)")

    p_verify = sub.add_parser(
        "verify", parents=[fmt_parent], help="run the cross-method check suite")
    p_verify.add_argument("--max-n", type=int, default=500,
                          help="top index for the checks that grow with it, each "
                               "up to its cap (README's table of checks) (default: 500)")
    p_verify.add_argument("--max-poly-n", type=int, default=40,
                          help="top index for the checks that grow with it, each "
                               "up to its cap (README's table of checks) (default: 40)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the random-alphabet convolution check")
    p_verify.add_argument("--inject-fault", choices=ver.FAULTS, default=None,
                          help="perturb one recurrence seed to confirm the "
                               "checks catch a corrupted build")
    return parser


def _join_negative_weights(argv: list[str]) -> list[str]:
    """Glue a negative weight to its --d/--p: argparse would read a token
    such as -1/2^3 as an option, but --p=-1/2^3 parses."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in ("--d", "--p") and token.startswith("-")
                and _DYADIC_TEXT.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_negative_weights(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    fmt = getattr(args, "format", "text")
    if args.command == "term":
        return cmd_term(args.family, args.n, args.method, fmt)
    if args.command == "table":
        return cmd_table(args.which, args.rows, fmt)
    if args.command == "series":
        return cmd_series(args.which, args.order, args.d, args.p, fmt)
    return cmd_verify(args.max_n, args.max_poly_n, args.seed,
                      args.inject_fault, fmt)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
