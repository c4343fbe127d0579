"""Checked builds on small graph families that the stacked corpora never
produce.

Paths, stars, wheels, fans and grids with holes, and disjoint unions of
two of them, with at most 40 vertices, are embedded by ``embed_abstract``
and built in planar mode, and in bipartite mode too when the graph is
bipartite, with the per-step ``InvariantChecker`` on.  The dense-matrix
``reference_verify`` must agree with the builder's own verified report on
the width and on the maximum red degree after every step.  The examples
are derandomized, so every run draws the same graphs.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from test_atlas import _check_both_modes

N_MAX = 40


def path(k):
    return k, [(i, i + 1) for i in range(k - 1)]


def star(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def wheel(rim):
    """A hub 0 joined to every vertex of a rim cycle of length ``rim``."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return rim + 1, edges


def fan(k):
    """A hub 0 joined to every vertex of a path of length ``k``."""
    return k + 1, [(0, i) for i in range(1, k + 1)] + [
        (i, i + 1) for i in range(1, k)]


@st.composite
def grid_with_holes(draw, n_max):
    rows = draw(st.integers(2, n_max // 2))
    cols = draw(st.integers(2, n_max // rows))
    holes = draw(st.sets(st.integers(0, rows * cols - 1),
                         max_size=rows * cols - 1))
    keep = [v for v in range(rows * cols) if v not in holes]
    new = {v: i for i, v in enumerate(keep)}
    edges = []
    for v in keep:
        r, c = divmod(v, cols)
        for w in ((v + 1) if c + 1 < cols else -1,
                  (v + cols) if r + 1 < rows else -1):
            if w in new:
                edges.append((new[v], new[w]))
    return len(keep), edges


def family(n_max):
    """One graph of a family with at most ``n_max`` vertices, as (n, edges)."""
    return st.one_of(
        st.integers(1, n_max).map(path),
        st.integers(1, n_max - 1).map(star),
        st.integers(3, n_max - 1).map(wheel),
        st.integers(2, n_max - 1).map(fan),
        grid_with_holes(n_max),
    )


@st.composite
def union_of_two(draw):
    n1, e1 = draw(family(N_MAX - 4))
    n2, e2 = draw(family(N_MAX - n1))
    return n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2]


def check_both_modes(n, edges):
    G = nx.Graph(edges)
    G.add_nodes_from(range(n))
    _check_both_modes(G, tp.embed_abstract(n, edges),
                      {"planar": 0, "bipartite": 0})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(family(N_MAX))
def test_checked_builds_on_one_family(graph):
    check_both_modes(*graph)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(union_of_two())
def test_checked_builds_on_a_union_of_two_families(graph):
    check_both_modes(*graph)
