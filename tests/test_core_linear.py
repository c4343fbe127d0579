"""The core recursions do linear work on deep-BFS inputs.

A grid's BFS depth grows like its side, and nested 4-cycles' like their
number, so any per-call cost that is proportional to a region's depth
shows up as Python line events per input vertex growing with the input.
The guard counts those events in the builder modules (both recursions and
their shared ``buildctx``, the completion in ``plane_graph`` and the BFS
tree in ``layering``) instead of timing the build, so machine noise cannot
flake it.  A second guard counts
a verified build, so that the replay in ``trigraph`` (restriction and
verification) is held to the same bound, and a third the left-alignment
check that ``--assert`` runs on the tree.  The same counts show that a
plain build runs no line of ``instrument``, that a checked planar build
does flat work per step there, and that the replay does flat work per
step while one part absorbs a star.

Line events miss work done inside a C call, such as ``min`` over a whole
dict.  So a last guard counts the entries that ``min``, ``max`` and
``sorted`` read when the builder modules call them, per input vertex.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import twinplanar as tp
from twinplanar import buildctx, seq_bipartite, seq_planar
from twinplanar.layering import check_left_aligned, left_aligned_bfs_tree
from twinplanar.seq_bipartite import bipartite_sequence_full
from twinplanar.seq_planar import planar_sequence_full

BUILDER_FILES = {"seq_planar.py", "seq_bipartite.py", "buildctx.py",
                 "plane_graph.py", "layering.py"}


def _count_lines(call, files) -> int:
    """Line events executed in ``files`` during ``call()``."""
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
        call()
    finally:
        sys.settrace(old)
    return count


def _lines_per_vertex(build, g: tp.PlaneGraph, files=BUILDER_FILES,
                      verify: bool = False) -> float:
    """Line events executed in ``files`` during a build, divided by the
    number of input vertices."""
    return _count_lines(lambda: build(g, None, verify), files) / g.n


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


def test_left_alignment_check_work_per_vertex_flat_on_nested_cycles():
    # the check behind --assert; the tree is built outside the count
    def per_vertex(k):
        g = _nested_4cycles(k)
        t = left_aligned_bfs_tree(g, g.tail[g.outer_dart])
        return _count_lines(lambda: check_left_aligned(g, t),
                            {"layering.py"}) / g.n

    a, b = per_vertex(128), per_vertex(256)
    assert b <= 1.05 * a, (a, b)


# -- the cost of instrumentation ---------------------------------------------


@pytest.mark.parametrize("build, graph", [
    (planar_sequence_full, lambda: tp.gen_triangulation(300, 3)),
    (bipartite_sequence_full, lambda: tp.gen_grid(12, 15)),
], ids=["planar", "bipartite"])
def test_plain_build_runs_no_instrumentation(build, graph):
    # a plain build calls no checker hook, so instrumentation costs nothing
    # when it is off
    g = graph()
    assert _count_lines(lambda: build(g, None, True), {"instrument.py"}) == 0


def test_checker_work_per_step_flat_on_stacked_triangulations():
    """Line events in ``instrument.py`` per emitted step.  Bipartite grids
    are left out: ``pop_region`` walks every survivor of a region, which
    is Theta(depth) per region there."""
    def per_step(n):
        g = tp.gen_triangulation(n, 0)
        built = {}

        def run():
            built["steps"] = planar_sequence_full(
                g, tp.InvariantChecker("planar"), False)[2][0].steps

        return _count_lines(run, {"instrument.py"}) / len(built["steps"])

    a, b = per_step(1000), per_step(4000)
    assert b <= 1.05 * a, (a, b)


# -- the replay on a high-degree part ---------------------------------------


def test_replay_work_per_step_flat_when_a_part_absorbs_a_star():
    """Line events in ``trigraph.py`` per step while the hub of K1,k absorbs
    one leaf per step: (0, 1), (k + 1, 2), (k + 2, 3), and so on.  From the
    second step on the hub's part has a red edge to every leaf left, so a
    step that relabelled every neighbour of both sides would cost
    Theta(k)."""
    def per_step(k):
        n = k + 1
        edges = [(0, leaf) for leaf in range(1, n)]
        steps = [(0, 1)] + [(n + i - 1, i + 1) for i in range(1, k)]
        seq = tp.ContractionSequence(n, steps)
        count = _count_lines(lambda: tp.verify_sequence(n, edges, seq),
                             {"trigraph.py"})
        return count / len(steps)

    a, b = per_step(200), per_step(800)
    assert b <= 1.05 * a, (a, b)


# -- work inside C calls -----------------------------------------------------

SCANNING_MODULES = (buildctx, seq_planar, seq_bipartite)


def _count_scanned(call) -> int:
    """Entries that ``min``, ``max`` and ``sorted`` read during ``call()``
    when the builder modules call them: the length of a single iterable
    argument, else the number of arguments."""
    count = 0

    def counting(real):
        def scan(*args, **kwargs):
            nonlocal count
            if len(args) == 1:
                args = (list(args[0]),)
                count += len(args[0])
            else:
                count += len(args)
            return real(*args, **kwargs)
        return scan

    reals = {"min": min, "max": max, "sorted": sorted}
    for mod in SCANNING_MODULES:
        for name, real in reals.items():
            setattr(mod, name, counting(real))
    try:
        call()
    finally:
        for mod in SCANNING_MODULES:
            for name in reals:
                delattr(mod, name)
    return count


@BUILDS
def test_builder_scans_per_vertex_flat_on_nested_cycles(build):
    # a region's survivor dict spans about as many levels as the region, so
    # a scan of the whole dict per merge grows with the depth
    def per_vertex(k):
        g = _nested_4cycles(k)
        return _count_scanned(lambda: build(g, None, False)) / g.n

    a, b = per_vertex(128), per_vertex(256)
    assert b <= 1.05 * a, (a, b)
