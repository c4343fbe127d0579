"""Every small planar graph: the atlas sweep.

networkx's graph atlas lists all 1,253 graphs on up to 7 vertices; 1,015
of them have a vertex and are planar, disconnected ones included.  Each is
embedded with ``embed_abstract`` (its longest face outer) and built in
planar mode, and in bipartite mode too when it is bipartite, with the
per-step ``InvariantChecker`` on.  The dense-matrix ``reference_verify``
must agree with the builder's own verified report on the width and on the
maximum red degree after every step.
"""

from __future__ import annotations

import time

import networkx as nx

import twinplanar as tp


def test_atlas_sweep_both_modes():
    t0 = time.perf_counter()
    graphs = [G for G in nx.graph_atlas_g()[1:] if nx.check_planarity(G)[0]]
    assert len(graphs) == 1015
    runs = {"planar": 0, "bipartite": 0}
    for G in graphs:
        n, edges = G.number_of_nodes(), list(G.edges())
        g = tp.embed_abstract(n, edges)
        for mode, build, bound in (("planar", tp.planar_sequence, 8),
                                   ("bipartite", tp.bipartite_sequence, 6)):
            if mode == "bipartite" and not nx.is_bipartite(G):
                continue
            seq, report = build(g, checker=tp.InvariantChecker(mode))
            ref = tp.reference_verify(n, edges, seq)
            assert (ref.width, ref.per_step_max) == (
                report.width, report.per_step_max), (mode, n, edges)
            assert report.width <= bound
            runs[mode] += 1
    assert runs == {"planar": 1015, "bipartite": 144}
    assert time.perf_counter() - t0 < 10.0
