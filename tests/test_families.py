"""Checked builds on small graph families that the stacked corpora never
produce.

Paths, stars, wheels, fans and grids with holes, and disjoint unions of
two of them, with at most 40 vertices, are embedded by ``embed_abstract``
and built in planar mode, and in bipartite mode too when the graph is
bipartite, with the per-step ``InvariantChecker`` on.  The dense-matrix
``reference_verify`` must agree with the builder's own verified report on
the width and on the maximum red degree after every step.  The examples
are derandomized, so every run draws the same graphs.

Deep, non-stacked triangulations get the same checks: triangulated grids
with seeded random diagonals and nested triangles, whose BFS depth grows
with their size, embedded straight-line from coordinates, on any outer
face and thinned.  On them and on stacked triangulations, a sweep checks
the lemma that lets the planar drain take a single step.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import seq_planar
from test_atlas import _check_both_modes
from test_plane_graph import thinned

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


# -- deep triangulations -------------------------------------------------------


def straight_line(xy, edges):
    """The plane graph drawn with straight edges at the points ``xy``, each
    rotation in angle order."""
    darts = [[] for _ in xy]
    for e, (u, v) in enumerate(edges):
        (xu, yu), (xv, yv) = xy[u], xy[v]
        darts[u].append((math.atan2(yv - yu, xv - xu), 2 * e))
        darts[v].append((math.atan2(yu - yv, xu - xv), 2 * e + 1))
    return tp.build(len(xy), edges, [[d for _, d in sorted(r)] for r in darts],
                    0)


def on_face(g, i):
    """g rebuilt with its face i (modulo the face count) as the outer face;
    g itself when it has no edge."""
    if not g.m:
        return g
    return tp.build(g.n, g.edges, g.rot, g.faces[i % len(g.faces)][0])


def triangulated_grid(rows, cols, seed):
    """A rows x cols grid with one diagonal per cell, each drawn by seed."""
    rng = random.Random(seed)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
                if c + 1 < cols:
                    edges.append((v, v + cols + 1) if rng.random() < 0.5
                                 else (v + 1, v + cols))
    return straight_line([(c, r) for r in range(rows) for c in range(cols)],
                         edges)


def nested_triangles(k, seed):
    """k concentric triangles, each joined to the next by three rungs and
    a diagonal per quadrilateral, each drawn by seed."""
    rng = random.Random(seed)
    xy, edges = [], []
    for i in range(k):
        for j in range(3):
            a = 2 * math.pi * j / 3
            xy.append((math.cos(a) / (i + 1), math.sin(a) / (i + 1)))
        b = 3 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b)]
        for j in range(3 if i else 0):
            p, q = b - 3 + j, b - 3 + (j + 1) % 3
            edges.append((p, b + j))
            edges.append((p, q + 3) if rng.random() < 0.5 else (q, b + j))
    return straight_line(xy, edges)


@st.composite
def deep_triangulation(draw):
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        rows = draw(st.integers(2, N_MAX // 2))
        g = triangulated_grid(rows, draw(st.integers(2, N_MAX // rows)), seed)
    else:
        g = nested_triangles(draw(st.integers(1, N_MAX // 3)), seed)
    keep = draw(st.sampled_from([1.0, 0.8, 0.5]))
    return on_face(thinned(g, keep, seed), draw(st.integers(0, 99)))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(deep_triangulation())
def test_checked_builds_on_deep_triangulations(g):
    G = nx.Graph(g.edges)
    G.add_nodes_from(range(g.n))
    _check_both_modes(G, g, {"planar": 0, "bipartite": 0})


@pytest.mark.parametrize("keep", [1.0, 0.6])
def test_checked_builds_on_a_30x30_triangulated_grid(keep):
    # BFS depth 13 to 17 on each of these outer faces; reference_verify's
    # dense replay is quadratic per step, so the builder's own replay decides
    g = thinned(triangulated_grid(30, 30, 7), keep, 7)
    for i in range(4):
        h = on_face(g, i * len(g.faces) // 4)
        _, report = tp.planar_sequence(h, checker=tp.InvariantChecker("planar"))
        assert report.width <= 8


def test_planar_merges_stop_one_level_below_the_drain_level(monkeypatch):
    # the lemma behind ``_second_stage``'s one-step drain: every level it
    # merges, child survivors and adds alike, is at most ell + 1, with ell
    # the boundary maximum (kc + 2 for a triangle)
    real = seq_planar._second_stage
    seen = {"stages": 0, "drains": 0}

    def second_stage(ctx, base, adds, kc, v1, v2, ec):
        adds = list(adds)
        dep = ctx.t.depth
        ell = kc + 2 if ec == 3 else max(dep[v1], dep[v2])
        deepest = max([*base, *(i for i, _ in adds)], default=ell)
        assert deepest <= ell + 1, (deepest, ell, ec)
        seen["stages"] += 1
        seen["drains"] += deepest == ell + 1
        return real(ctx, base, adds, kc, v1, v2, ec)

    monkeypatch.setattr(seq_planar, "_second_stage", second_stage)
    graphs = [tp.gen_triangulation(n, n) for n in (50, 300, 2000)]
    for seed in range(6):
        for g in (triangulated_grid(12 + seed, 30 - seed, seed),
                  nested_triangles(20 + 5 * seed, seed)):
            for keep in (1.0, 0.8, 0.5):
                h = thinned(g, keep, seed)
                graphs += [on_face(h, i * 37) for i in range(3)]
    for g in graphs:
        seq_planar.planar_sequence_full(g, None, False)
    assert seen["drains"] > 0, seen
