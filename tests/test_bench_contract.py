"""The benchmark under ``perfbench/`` measures the package from outside, by
wrapping module-level names.  A refactor that removes or rebinds one of
them leaves its layer unmeasured, and the traced run then reports null
metrics while still passing its correctness checks.  These tests read
``perfbench/`` as it is and fail on such a refactor before the benchmark
does."""

import sys
from pathlib import Path

import pytest

import twinplanar as tp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GATE_SIZE, WORKLOADS  # noqa: E402


def test_every_traced_layer_has_a_binding():
    assert Tracer().unmeasured == []


# WRAPS entries whose name is gone: run_pipeline calls the shared steps
# through seq_planar, the bipartite refusal moved into quadrangulate, and
# the checker lost on_decrease.  Their layers stay measured through other
# bindings.  A refactor that drops one more wrapped name fails here.
STALE_BINDINGS = {
    "twinplanar.seq_bipartite:connect_components",
    "twinplanar.seq_bipartite:left_aligned_bfs_tree",
    "twinplanar.seq_bipartite:check_left_aligned",
    "twinplanar.seq_bipartite:restrict_sequence",
    "twinplanar.seq_bipartite:verify_sequence",
    "twinplanar.seq_bipartite:find_odd_cycle",
    "twinplanar.instrument:InvariantChecker.on_decrease",
}


def test_only_the_known_stale_bindings_are_missing():
    assert set(Tracer().missing) == STALE_BINDINGS


# The layers every request of a workload runs through, and those only some
# workloads do work in.  A layer whose binding still exists but is no longer
# called reads 0.0, not None, so only its span count shows the bypass.
RUN_BY_EVERY_REQUEST = ("plane_graph.parse", "plane_graph.validate",
                        "plane_graph.build", "layering.tree", "seq_{mode}.core",
                        "trigraph.verify", "trigraph.write")
RUN_BY = {"planar-sparse": ("plane_graph.connect", "plane_graph.complete",
                            "trigraph.restrict"),
          "planar-assert": ("instrument.check",)}


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
    runs = [layer.format(mode=wl.mode) for layer in RUN_BY_EVERY_REQUEST]
    runs += RUN_BY.get(name, ())
    calls = tracer.self_times()[1]
    assert [layer for layer in runs if not calls.get(layer)] == []
    # a step is a pair of ids, so the harness's d-step test (``s[0] ==
    # "d"``) finds none, and the step count is that of the whole sequence
    # on the completed graph, before any restriction
    build = (tp.planar_sequence_full if wl.mode == "planar"
             else tp.bipartite_sequence_full)
    full_seq = build(reply.g)[2][0]
    assert sample["buildctx.dsteps"] == 0
    assert sample["buildctx.steps"] == len(full_seq.steps)


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
