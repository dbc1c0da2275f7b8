"""Direct timings, run untraced: the arith operators on fixed operand
shapes, every public route at two indices, and each verify check.

At the smaller index of each route grid object overhead dominates; at the
larger one big-int or degree cost does.
"""

from __future__ import annotations

import random
import re
import statistics
import time

from gmlucas import polyfam, sequences, symfun, verify
from gmlucas.arith import Dyadic, GaussianDyadic, Poly

import workloads

NUMBER_NS = (8, 2000)
POLY_NS = (4, 64)
ROUTES = (
    (sequences, ("ml_recurrence", "ml_binet", "ml_explicit", "ml_negative",
                 "gml_recurrence", "gml_binet", "gml_from_ml", "gml_explicit",
                 "gml_negative"), NUMBER_NS),
    (polyfam, ("ml_poly", "ml_poly_explicit", "ml_poly_negative", "gml_poly",
               "gml_poly_from_ml", "gml_poly_explicit", "gml_poly_negative"), POLY_NS),
    (symfun, ("sym_decompose_gml", "gf_gml", "gf_gml_even", "gf_gml_odd"), NUMBER_NS),
    (symfun, ("sym_decompose_ml_poly", "sym_decompose_gml_poly", "gf_ml_poly",
              "gf_gml_poly"), POLY_NS),
)


def per_call_s(fn, batches: int = 3, min_batch_s: float = 0.02) -> float:
    """Median seconds per call over batches of a loop long enough to time."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_batch_s:
            break
        loops *= 2
    times = [elapsed / loops]
    for _ in range(batches - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - start) / loops)
    return statistics.median(times)


def arith_grid(seed: int) -> dict[str, float]:
    rng = random.Random(f"arith-{seed}")

    def dyadic(bits: int) -> Dyadic:
        return Dyadic((rng.getrandbits(bits) | 1) * rng.choice((-1, 1)), rng.randint(0, 3))

    def gauss(bits: int) -> GaussianDyadic:
        return GaussianDyadic(dyadic(bits), dyadic(bits))

    def poly(degree: int) -> Poly:
        return Poly([gauss(300) for _ in range(degree + 1)])

    out = {}
    for label, bits in (("small", 2), ("big", 4000)):
        a, b = gauss(bits), gauss(bits)
        out[f"arith.gauss_mul_ns.{label}"] = per_call_s(lambda: a * b) * 1e9
    for degree in (8, 64, 256):
        p, q = poly(degree), poly(degree)
        out[f"arith.poly_mul_ms.d{degree}"] = per_call_s(lambda: p * q) * 1e3
    line, p = poly(1), poly(256)
    out["arith.poly_scale_ms.d256"] = per_call_s(lambda: line * p) * 1e3
    return out


def route_grid() -> dict[str, float]:
    """Milliseconds per call; a route the module no longer has is left out."""
    out = {}
    for module, names, ns in ROUTES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            for n in ns:
                out[f"{layer}.route_ms.{name}.n{n}"] = per_call_s(lambda: fn(n)) * 1e3
    return out


def metric_key(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def verify_check_grid(seed: int) -> tuple[dict[str, float], list[workloads.Outcome]]:
    """Seconds per check, keyed by each check's reported name, for one
    default pass and one injected-fault pass. The checks are found as the
    ``verify._check_*`` callables; if there are none, no check metric is
    reported."""
    timings: dict[str, float] = {}

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            timings[result.name] = time.perf_counter() - start
            return result
        return wrapper

    checks = {attr: fn for attr, fn in vars(verify).items()
              if attr.startswith("_check_") and callable(fn)}
    metrics, outcomes = {}, []
    for prefix, request in (
            ("verify.check_s.", workloads.Request("verify", large=True)),
            ("verify.fault_check_s.", workloads.Request("fault", fault=workloads.FAULTS[seed % 3]))):
        timings.clear()
        for attr, fn in checks.items():
            setattr(verify, attr, timed(fn))
        try:
            outcomes.append(workloads.execute(request, seed))
        finally:
            for attr, fn in checks.items():
                setattr(verify, attr, fn)
        metrics.update({prefix + metric_key(name): s for name, s in timings.items()})
    return metrics, outcomes
