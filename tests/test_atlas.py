"""Every small planar graph: the atlas sweeps.

networkx's graph atlas lists all 1,253 graphs on up to 7 vertices; 1,015
of them have a vertex and are planar, disconnected ones included.  Each is
embedded with ``embed_abstract`` (its longest face outer) and built in
planar mode, and in bipartite mode too when it is bipartite, with the
per-step ``InvariantChecker`` on.  The dense-matrix ``reference_verify``
must agree with the builder's own verified report on the width and on the
maximum red degree after every step.  A second sweep rebuilds every
connected one with each of its faces as the outer face, since the root
and the tree depend on it, and a third holds every verified width to at
least the exact twin-width from the brute-force oracle.
"""

from __future__ import annotations

import time

import networkx as nx

import twinplanar as tp


def planar_atlas():
    """(networkx graph, its plane embedding) for every planar atlas graph
    with a vertex, in atlas order."""
    return [(G, tp.embed_abstract(G.number_of_nodes(), list(G.edges())))
            for G in nx.graph_atlas_g()[1:] if nx.check_planarity(G)[0]]


def every_outer_face(g):
    """g rebuilt with each of its faces as the outer face: the same
    rotations, another outer dart."""
    return [tp.build(g.n, g.edges, g.rot, walk[0]) for walk in g.faces]


def _check_both_modes(G, g, runs):
    n, edges = G.number_of_nodes(), list(G.edges())
    for mode, build, bound in (("planar", tp.planar_sequence, 8),
                               ("bipartite", tp.bipartite_sequence, 6)):
        if mode == "bipartite" and not nx.is_bipartite(G):
            continue
        seq, report = build(g, checker=tp.InvariantChecker(mode))
        ref = tp.reference_verify(n, edges, seq)
        assert (ref.width, ref.per_step_max) == (
            report.width, report.per_step_max), (mode, n, edges, g.outer_dart)
        assert report.width <= bound
        runs[mode] += 1


def test_atlas_sweep_both_modes():
    t0 = time.perf_counter()
    graphs = planar_atlas()
    assert len(graphs) == 1015
    runs = {"planar": 0, "bipartite": 0}
    for G, g in graphs:
        _check_both_modes(G, g, runs)
    assert runs == {"planar": 1015, "bipartite": 144}
    assert time.perf_counter() - t0 < 10.0


def test_atlas_sweep_every_outer_face():
    t0 = time.perf_counter()
    runs = {"planar": 0, "bipartite": 0}
    for G, g in planar_atlas():
        if g.m and g.ncomp == 1:
            for h in every_outer_face(g):
                _check_both_modes(G, h, runs)
    assert runs == {"planar": 3888, "bipartite": 150}
    assert time.perf_counter() - t0 < 20.0


def test_exact_width_is_a_floor_on_every_outer_face():
    # twin-width is a graph invariant, so one exact search per graph bounds
    # the verified width of every rebuild from below, in both modes
    t0 = time.perf_counter()
    builds = 0
    for G, g in planar_atlas():
        n, edges = G.number_of_nodes(), list(G.edges())
        exact = tp.exact_twinwidth(n, edges).width
        rebuilt = every_outer_face(g) if g.m and g.ncomp == 1 else [g]
        bipartite = nx.is_bipartite(G)
        for h in rebuilt:
            _, report = tp.planar_sequence(h)
            assert exact <= report.width, ("planar", n, edges, h.outer_dart)
            builds += 1
            if bipartite:
                _, report = tp.bipartite_sequence(h)
                assert exact <= report.width, ("bipartite", n, edges,
                                               h.outer_dart)
                builds += 1
    # the outer-face rebuilds, and the 241 graphs without an edge or with
    # several components (77 of them bipartite) as embedded
    assert builds == 3888 + 150 + 241 + 77
    assert time.perf_counter() - t0 < 20.0
