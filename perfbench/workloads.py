"""Seeded request streams, the closed-loop client that runs them, and the
int-only reference every answer is checked against.

A workload is an endless stream of blocks. Each block is drawn from the
same distribution, so the requests a run completes always cover that
distribution evenly, whatever the seed and however many blocks fit in the
time:

- verify_suite: one default ``run_verify()`` pass, then the three
  injected-fault runs (m1, gm0, gm1), rotated by block.
- poly_terms / number_terms: twenty ``term`` requests, ten per family. Nine
  positive indices per family are log-uniform, one from each ninth of the
  log range, and one negative index is log-uniform over the bottom tenth of
  the range, so about 10 % of requests are negative.

The index ranges follow from per-request cost (``term gmpoly 120`` and
``term gm 4000`` each take about a second). They stay far below the
largest index at which the CLI can print its answer: ``term m 15000``
has more than 4300 decimal digits and crashes the JSON rendering.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from typing import Iterator

from gmlucas import cli, verify

FAULTS = ("m1", "gm0", "gm1")


@dataclass(frozen=True)
class Request:
    """One call into the library. kind is "term", "verify" or "fault"."""

    kind: str
    family: str = ""
    n: int = 0
    method: str = "auto"
    fault: str = ""
    large: bool = False

    def argv(self) -> list[str]:
        return ["term", self.family, str(self.n), "--method", self.method,
                "--format", "json"]


@dataclass(frozen=True)
class Outcome:
    request: Request
    start_s: float  # when the request was sent, on the clock that timed it
    latency_s: float
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class TermMix:
    families: tuple[str, str]
    top: int    # largest positive index
    split: int  # requests with |n| >= split count as large


TERM_MIXES = {
    "poly_terms": TermMix(("mpoly", "gmpoly"), 120, 11),
    "number_terms": TermMix(("m", "gm"), 4000, 64),
}
WORKLOADS = ("verify_suite",) + tuple(TERM_MIXES)
POSITIVE_PER_FAMILY = 9


def _radical_inverse(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, scale = 0.0, 0.5
    while k:
        x += (k & 1) * scale
        k >>= 1
        scale /= 2
    return x


def _log_strata(top: int, count: int, offset: float) -> list[int]:
    """count indices in 1..top, one from each of count equal slices of
    [log 1, log top], each at the same relative offset in its slice."""
    span = math.log(top)
    return [max(1, round(math.exp(span * (i + offset) / count))) for i in range(count)]


def _term_block(rng: random.Random, mix: TermMix, index: int, shift: float) -> list[Request]:
    # Offsets follow the van der Corput sequence, rotated by a per-seed
    # shift, so the blocks of any run together sample the index range far
    # more evenly than independent draws would: a metric then hardly
    # depends on the seed, while every seed still draws its own indices.
    block = []
    for k, family in enumerate(mix.families):
        offset = (_radical_inverse(index) + shift + k / len(mix.families)) % 1.0
        ns = _log_strata(mix.top, POSITIVE_PER_FAMILY, offset)
        ns.append(-_log_strata(mix.top // 10, 1, offset)[0])
        block += [Request("term", family, n, large=abs(n) >= mix.split) for n in ns]
    rng.shuffle(block)
    return block


def _verify_block(index: int) -> list[Request]:
    faults = FAULTS[index % 3:] + FAULTS[:index % 3]
    return [Request("verify", large=True)] + [Request("fault", fault=f) for f in faults]


def blocks(workload: str, seed: int) -> Iterator[list[Request]]:
    """The workload's request stream for one seed, block by block."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    shift = rng.random()
    index = 0
    while True:
        if workload == "verify_suite":
            yield _verify_block(seed + index)
        else:
            yield _term_block(rng, TERM_MIXES[workload], index, shift)
        index += 1


def first_requests(workload: str, seed: int, count: int) -> list[Request]:
    out: list[Request] = []
    for block in blocks(workload, seed):
        out += block
        if len(out) >= count:
            return out[:count]
    raise AssertionError("the stream is endless")


# ---------------------------------------------------------------- reference
#
# Plain ints only. A dyadic is a normalized (num, exp) pair meaning
# num / 2**exp; a Gaussian is a (re, im) pair of dyadics; a polynomial is
# a list of Gaussians in ascending degree with no trailing zeros.

def _dyadic(num: int, exp: int) -> tuple[int, int]:
    if num == 0:
        return (0, 0)
    cancel = min((num & -num).bit_length() - 1, exp)
    return (num >> cancel, exp - cancel)


def _m_number(n: int) -> tuple[int, int]:
    """m_n = 2**n + 1, and m_{-n} = m_n / 2**n."""
    k = abs(n)
    return _dyadic(2**k + 1, k if n < 0 else 0)


def _m_poly(n: int) -> list[tuple[int, int]]:
    """Coefficients of m_n(x): x**(k-2j) has (-1)**j k/(k-j) C(k-j, j)
    3**(k-2j) 2**j for k = |n| >= 1, m_0(x) = 2, and m_{-k}(x) = m_k(x) / 2**k."""
    k = abs(n)
    coeffs = [2] if k == 0 else [0] * (k + 1)
    for j in range(k // 2 + 1 if k else 0):
        c = k * math.comb(k - j, j) // (k - j) * 3 ** (k - 2 * j) * 2**j
        coeffs[k - 2 * j] = -c if j & 1 else c
    return [_dyadic(c, k if n < 0 else 0) for c in coeffs]


def reference_term(family: str, n: int):
    """The exact answer, using Gm_n = m_n + i m_{n-1} for every integer n."""
    if family == "m":
        return (_m_number(n), (0, 0))
    if family == "gm":
        return (_m_number(n), _m_number(n - 1))
    zero = (0, 0)
    re_part = _m_poly(n)
    im_part = _m_poly(n - 1) if family == "gmpoly" else []
    size = max(len(re_part), len(im_part))
    re_part += [zero] * (size - len(re_part))
    im_part += [zero] * (size - len(im_part))
    coeffs = list(zip(re_part, im_part))
    while coeffs and coeffs[-1] == (zero, zero):
        coeffs.pop()
    return coeffs


def _parse_gaussian(obj) -> tuple:
    return tuple((int(obj[part]["num"]), obj[part]["exp2"]) for part in ("re", "im"))


def parse_value(obj):
    """The CLI's JSON rendering of a number or polynomial, as reference does."""
    if "coeffs" in obj:
        return [_parse_gaussian(c) for c in obj["coeffs"]]
    return _parse_gaussian(obj)


def check_term(request: Request, text: str) -> tuple[bool, str]:
    try:
        doc = json.loads(text)
        got = parse_value(doc["value"])
        echoed = (doc["family"], doc["n"], doc["method"])
    except (ValueError, KeyError, TypeError) as err:
        return False, f"unreadable output: {err!r}"
    if echoed != (request.family, request.n, request.method):
        return False, f"output describes {echoed}"
    if got != reference_term(request.family, request.n):
        return False, "value differs from the reference"
    return True, ""


def check_table(text: str, rows: int = 6) -> bool:
    """``table 1 --format json`` must list Gm_0 .. Gm_{rows-1}."""
    try:
        doc = json.loads(text)
        got = [(row["n"], _parse_gaussian(row["gm"])) for row in doc["rows"]]
    except (ValueError, KeyError, TypeError):
        return False
    return got == [(n, reference_term("gm", n)) for n in range(rows)]


# ------------------------------------------------------------------ running

_FIRST_INDEX = re.compile(r"^[nk]=(-?\d+):")


def _check_report(request: Request, report) -> tuple[bool, str]:
    failed = [c for c in report.checks if not c.passed]
    if request.kind == "verify":
        return (not failed, f"{failed[0].name}: {failed[0].detail}" if failed else "")
    if not failed:
        return False, f"fault {request.fault} was not caught"
    match = _FIRST_INDEX.match(failed[0].detail)
    if not match or int(match.group(1)) > 2:
        return False, f"fault {request.fault} first caught at {failed[0].detail!r}"
    return True, ""


def execute(request: Request, seed: int, clock=time.perf_counter) -> Outcome:
    """Run one request and check its answer. A crash, a non-zero exit code or
    a wrong answer makes a failed outcome; nothing propagates."""
    out = io.StringIO()
    start = clock()
    done = functools.partial(Outcome, request, start)
    try:
        if request.kind == "term":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(request.argv())
        elif request.kind == "verify":
            report = verify.run_verify(seed=seed)
        else:
            report = verify.run_verify(max_n=12, max_poly_n=6, inject_fault=request.fault)
    except Exception as err:  # the client records the failure and goes on
        return done(clock() - start, False, f"{type(err).__name__}: {err}")
    latency = clock() - start
    if request.kind != "term":
        return done(latency, *_check_report(request, report))
    if code != 0:
        return done(latency, False, f"exit code {code}")
    return done(latency, *check_term(request, out.getvalue()))


def closed_loop(workload: str, seed: int, seconds: float,
                clock=time.perf_counter) -> list[Outcome]:
    """One client, no think time: whole blocks, started until time is up."""
    outcomes = []
    stream = blocks(workload, seed)
    start = clock()
    while clock() - start < seconds:
        outcomes += [execute(request, seed, clock) for request in next(stream)]
    return outcomes
