"""The core recursions do linear work on deep-BFS inputs.

A grid's BFS depth grows like its side, and nested 4-cycles' like their
number, so any per-call cost that is proportional to a region's depth
shows up as Python line events per input vertex growing with the input.
The guard counts those events in the builder modules (both recursions and
their shared ``buildctx``, the completion in ``plane_graph`` and the BFS
tree in ``layering``) instead of timing the build, so machine noise cannot
flake it.  A second guard counts
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


def _nested_4cycles(k: int) -> tp.PlaneGraph:
    """C4 x P_k: k nested 4-cycles joined by rungs, BFS depth about k."""
    edges = []
    for i in range(k):
        for j in range(4):
            edges.append((4 * i + j, 4 * i + (j + 1) % 4))
            if i + 1 < k:
                edges.append((4 * i + j, 4 * i + 4 + j))
    return tp.embed_abstract(4 * k, edges)


def _assert_flat(build, small: tp.PlaneGraph, large: tp.PlaneGraph,
                 files=BUILDER_FILES, verify: bool = False) -> None:
    a = _lines_per_vertex(build, small, files, verify)
    b = _lines_per_vertex(build, large, files, verify)
    assert b <= 1.05 * a, (a, b)


BUILDS = pytest.mark.parametrize(
    "build", [planar_sequence_full, bipartite_sequence_full],
    ids=["planar", "bipartite"])
VERIFIED_FILES = BUILDER_FILES | {"trigraph.py"}


@BUILDS
def test_builder_work_per_vertex_flat_on_grids(build):
    # 4x n, 2x depth
    _assert_flat(build, tp.gen_grid(32, 32), tp.gen_grid(64, 64))


@BUILDS
def test_verified_build_work_per_vertex_flat_on_grids(build):
    _assert_flat(build, tp.gen_grid(32, 32), tp.gen_grid(64, 64),
                 VERIFIED_FILES, True)


@BUILDS
def test_builder_work_per_vertex_flat_on_nested_cycles(build):
    # 2x n, 2x depth: a region's P0 runs through most of the levels
    _assert_flat(build, _nested_4cycles(128), _nested_4cycles(256))


@BUILDS
def test_verified_build_work_per_vertex_flat_on_nested_cycles(build):
    _assert_flat(build, _nested_4cycles(128), _nested_4cycles(256),
                 VERIFIED_FILES, True)
