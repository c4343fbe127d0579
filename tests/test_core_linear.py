"""The core recursions do linear work on deep-BFS inputs.

A grid's BFS depth grows like its side, so any per-call cost that is
proportional to a region's depth shows up as Python line events per input
vertex growing with the side.  The guard counts those events in the
builder modules (both recursions and their shared ``buildctx``, the
completion in ``plane_graph`` and the BFS tree in ``layering``) instead of
timing the build, so machine noise cannot flake it.  A second guard counts
a verified build, so that the replay in ``trigraph`` (restriction and
verification) is held to the same bound.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import twinplanar as tp
from twinplanar.seq_bipartite import bipartite_sequence_full
from twinplanar.seq_planar import planar_sequence_full

BUILDER_FILES = {"seq_planar.py", "seq_bipartite.py", "buildctx.py",
                 "plane_graph.py", "layering.py"}


def _lines_per_vertex(build, g: tp.PlaneGraph, files=BUILDER_FILES,
                      verify: bool = False) -> float:
    """Line events executed in ``files`` during a build, divided by the
    number of input vertices."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def scope(frame, event, arg):
        if Path(frame.f_code.co_filename).name in files:
            return local
        return None

    old = sys.gettrace()
    sys.settrace(scope)
    try:
        build(g, None, verify)
    finally:
        sys.settrace(old)
    return count / g.n


@pytest.mark.parametrize("build", [planar_sequence_full,
                                   bipartite_sequence_full],
                         ids=["planar", "bipartite"])
def test_builder_work_per_vertex_flat_on_grids(build):
    small = _lines_per_vertex(build, tp.gen_grid(32, 32))
    large = _lines_per_vertex(build, tp.gen_grid(64, 64))  # 4x n, 2x depth
    assert large <= 1.05 * small, (small, large)


@pytest.mark.parametrize("build", [planar_sequence_full,
                                   bipartite_sequence_full],
                         ids=["planar", "bipartite"])
def test_verified_build_work_per_vertex_flat_on_grids(build):
    files = BUILDER_FILES | {"trigraph.py"}
    small = _lines_per_vertex(build, tp.gen_grid(32, 32), files, True)
    large = _lines_per_vertex(build, tp.gen_grid(64, 64), files, True)
    assert large <= 1.05 * small, (small, large)
