"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

run.load_gmlucas()

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_unprintable_term_is_counted_as_failed_and_the_run_goes_on():
    # 2**15000 + 1 has more than 4300 decimal digits, so rendering it raises
    # ValueError inside the CLI instead of exiting with code 2.
    huge = workloads.Request("term", "m", 15000, method="binet", large=True)
    after = workloads.Request("term", "gm", 5)
    outcomes = [workloads.execute(request, 0) for request in (huge, after)]
    assert not outcomes[0].ok
    assert "ValueError" in outcomes[0].detail
    assert outcomes[1].ok


@pytest.mark.parametrize("family", ["m", "gm", "mpoly", "gmpoly"])
def test_reference_agrees_with_every_route_near_zero(family):
    for n in range(-4, 9):
        outcome = workloads.execute(workloads.Request("term", family, n), 0)
        assert outcome.ok, (family, n, outcome.detail)


def test_reference_rejects_a_wrong_answer():
    request = workloads.Request("term", "gmpoly", 3)
    text = json.dumps({"family": "gmpoly", "n": 3, "method": "auto", "value": {
        "coeffs": [{"re": {"num": "1", "exp2": 0}, "im": {"num": "0", "exp2": 0}}]}})
    assert workloads.check_term(request, text) == (False, "value differs from the reference")


def test_injected_fault_is_checked_for_an_early_index():
    outcome = workloads.execute(workloads.Request("fault", fault="gm1"), 0)
    assert outcome.ok, outcome.detail


def test_streams_depend_only_on_the_seed():
    first = [workloads.first_requests(w, 7, 60) for w in workloads.WORKLOADS]
    again = [workloads.first_requests(w, 7, 60) for w in workloads.WORKLOADS]
    other = [workloads.first_requests(w, 8, 60) for w in workloads.WORKLOADS]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(workloads.TERM_MIXES))
def test_term_blocks_cover_the_index_range(workload):
    mix = workloads.TERM_MIXES[workload]
    block = workloads.first_requests(workload, 3, 20)
    negative = [r for r in block if r.n < 0]
    assert len(negative) == 2
    assert {r.family for r in negative} == set(mix.families)
    assert all(1 <= abs(r.n) <= mix.top for r in block)
    assert any(r.large for r in block) and any(not r.large for r in block)


def test_tracer_attributes_time_to_layers_and_restores_them():
    from gmlucas import cli
    from gmlucas.arith import GaussianDyadic

    original_main, original_mul = cli.main, GaussianDyadic.__mul__
    tracer = Tracer()
    with tracer.installed():
        tracer.request = 0
        assert workloads.execute(workloads.Request("term", "gmpoly", 12), 0).ok
    assert (cli.main, GaussianDyadic.__mul__) == (original_main, original_mul)
    metrics = tracer.metrics()
    assert metrics["cli.routes_per_request"] == 5
    assert metrics["symfun.kernel_steps"] == 12 + 11 + 0
    assert metrics["symfun.series_coeffs"] == 13
    assert metrics["arith.calls.GaussianDyadic.mul"] > 0
    roots = [span for span in tracer.spans if span[4] is None]
    assert [span[1] for span in roots] == ["cli.main"]
    assert all(span[5] == 0 for span in tracer.spans)


def test_tail_is_the_nearest_rank_p90():
    assert run.tail([float(i) for i in range(100)]) == 89.0
    assert run.tail([float(i) for i in range(1000)]) == 899.0
    assert run.tail([float(i) for i in range(24)]) == 21.0


def test_speed_probe_scales_by_the_ticks_around_an_interval():
    probe = speed.SpeedProbe()
    probe.at = [0.0, 1.0, 5.0, 10.0]
    probe.probe_s = [speed.PROBE_REF_S * f for f in (1, 1, 2, 2)]
    assert probe.scale(0.2, 0.4) == 1.0
    assert probe.scale(4.5, 5.5) == 0.5
    # No tick near the interval: the median of the whole run.
    assert probe.scale(20.0, 21.0) == pytest.approx(1 / 1.5)


def test_speed_probe_clock_excludes_its_ticks():
    probe = speed.SpeedProbe()
    start = probe.clock()
    probe.tick()
    probe.tick()
    assert len(probe.probe_s) == 2
    assert probe.clock() - start < sum(probe.probe_s)


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
