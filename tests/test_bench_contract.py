"""The benchmark under ``perfbench/`` measures the package from outside, by
wrapping module-level names.  A refactor that removes or rebinds one of
them leaves its layer unmeasured, and the traced run then reports null
metrics while still passing its correctness checks.  These tests read
``perfbench/`` as it is and fail on such a refactor before the benchmark
does."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GATE_SIZE, WORKLOADS  # noqa: E402


def test_every_traced_layer_has_a_binding():
    assert Tracer().unmeasured == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_request_measures_every_layer(name):
    wl = WORKLOADS[name]
    text, _ = harness.make_input(wl, GATE_SIZE, 1)
    tracer = Tracer()
    with tracer:
        reply = harness.request(text, wl)
    assert harness.problem(reply, wl) is None
    sample = harness.layer_sample(tracer, reply, wl.mode, 1.0)
    assert sorted(sample) == sorted(harness.PER_LAYER_UNITS)
    assert [m for m, v in sample.items() if v is None] == []


@pytest.mark.parametrize("name, checked", [("planar-assert", True),
                                           ("tri-stacked", False)])
def test_the_checker_layer_measures_every_hook(name, checked):
    # every checker hook of a checked build goes through a wrapped method:
    # bind and enter_final_phase once, one call per step and two per region
    wl = WORKLOADS[name]
    text, _ = harness.make_input(wl, GATE_SIZE, 1)
    tracer = Tracer()
    with tracer:
        reply = harness.request(text, wl)
    sample = harness.layer_sample(tracer, reply, wl.mode, 1.0)
    calls = tracer.self_times()[1].get("instrument.check", 0)
    if checked:
        chk = reply.checker
        assert sample["instrument.check_s"] > 0
        assert sample["instrument.steps_checked"] == len(reply.seq.steps)
        assert calls == 2 + chk.steps_checked + 2 * chk._next_rid
    else:
        assert sample["instrument.check_s"] == 0
        assert calls == 0
