import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar import plane_graph as pg


def test_bfs_layering_triangle():
    g = pg.build(3, [(0, 1), (0, 2), (1, 2)], [[0, 2], [4, 1], [3, 5]], 1)
    assert ly.bfs_layering(g, 0) == [0, 1, 1]


def test_bfs_layering_path_from_end():
    g = pg.build(4, [(0, 1), (1, 2), (2, 3)],
                 [[0], [2, 1], [4, 3], [5]], 0)
    assert ly.bfs_layering(g, 0) == [0, 1, 2, 3]


def test_bfs_layering_grid_corner():
    g = tp.gen_grid(3, 3)
    dist = ly.bfs_layering(g, 0)
    from collections import Counter
    sizes = Counter(dist[v] for v in range(9))
    assert [sizes[i] for i in range(5)] == [1, 2, 3, 2, 1]


def test_bfs_layering_errors():
    g = pg.build(2, [], [[], []], 0)
    with pytest.raises(ly.LayeringError, match="disconnected"):
        ly.bfs_layering(g, 0)
    with pytest.raises(ly.LayeringError, match="range"):
        ly.bfs_layering(g, 9)


def test_tree_host_is_its_own_left_aligned_tree():
    g = pg.build(4, [(0, 1), (1, 2), (1, 3)], [[0], [2, 1, 4], [3], [5]], 0)
    t = ly.left_aligned_bfs_tree(g, 0)
    assert t.parent == [-1, 0, 1, 1]
    assert ly.check_left_aligned(g, t) is None


def fig1_left_graph():
    """The 22-vertex plane graph whose natural BFS tree can violate
    left-alignment through one layer-crossing edge (u at layer 2 left of v
    at layer 3): an r-rooted mesh; built via embedding for brevity."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 2), (3, 4),
        (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8),
        (6, 7),
        (5, 9), (9, 10), (6, 10), (6, 11), (7, 11), (7, 12), (8, 12),
        (11, 12),
        (9, 13), (10, 13), (10, 14), (11, 14), (13, 14),
    ]
    return tp.embed_abstract(15, edges)


def test_left_aligned_construction_passes_checker():
    g = fig1_left_graph()
    r = g.tail[g.outer_dart]
    t = ly.left_aligned_bfs_tree(g, r)
    assert ly.check_left_aligned(g, t) is None


def test_violating_tree_is_reported():
    # a hand-made non-left-aligned BFS tree on a small fan:
    #     r=0; children 1,2 (ccw); 3 adjacent to both 1 and 2, parent 2
    # with 1 left of 3, the non-tree edge {1,3} violates left-alignment
    # when 1 is to the left of 3.
    g = pg.embed_abstract(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
    r = 0
    t = ly.left_aligned_bfs_tree(g, r)
    assert ly.check_left_aligned(g, t) is None
    good_parent3 = t.parent[3]
    other = 1 if good_parent3 == 2 else 2
    # reattach 3 to the other candidate parent, keeping a valid BFS tree
    bad = ly.BfsTree(g, r, list(t.parent), list(t.parent_dart), list(t.depth))
    bad.parent[3] = other
    for d in g.rot[3]:
        if g.head[d] == other:
            bad.parent_dart[3] = d
    bad.order = t.order
    bad.tin, bad.tout = t.tin, t.tout
    ly._fill_tout(bad)  # tin/tout stale is fine for this check
    viol = ly.check_left_aligned(g, bad)
    assert viol is not None
    u, v = viol
    assert t.depth[u] == t.depth[v] - 1


def test_left_of_antisymmetric_on_triangulations():
    rng = random.Random(4)
    for _ in range(20):
        g = tp.gen_triangulation(rng.randrange(5, 40), rng.randrange(10 ** 6))
        t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
        for eid, (a, b) in enumerate(g.edges):
            if t.is_tree_edge(eid) or t.depth[a] == t.depth[b]:
                continue
            u, v = (a, b) if t.depth[a] < t.depth[b] else (b, a)
            if t.parent[v] == u:
                continue
            assert ly.is_left_of(g, t, u, v) != ly.is_left_of(g, t, v, u)


def test_random_triangulation_corpus_left_aligned():
    rng = random.Random(11)
    for _ in range(60):
        g = tp.gen_triangulation(rng.randrange(4, 60), rng.randrange(10 ** 6))
        t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
        assert ly.check_left_aligned(g, t) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 50), st.integers(0, 10 ** 6))
def test_left_aligned_property(n, seed):
    g = tp.gen_triangulation(n, seed)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    assert ly.check_left_aligned(g, t) is None
    # BFS property: every edge spans at most one layer
    for a, b in g.edges:
        assert abs(t.depth[a] - t.depth[b]) <= 1


def test_multigraph_left_aligned():
    # two vertices joined by two parallel edges plus a pendant
    g = pg.build(3, [(0, 1), (0, 1), (1, 2)],
                 [[0, 2], [3, 1, 4], [5]], 1)
    t = ly.left_aligned_bfs_tree(g, 0)
    assert t.parent == [-1, 0, 1]
    assert t.parent_dart[1] >> 1 == 0  # lowest edge id among the parallels
    assert ly.check_left_aligned(g, t) is None


def test_multigraph_child_order_follows_the_lowest_parallel_edge():
    # root 0 sees ccw from its anchor: edge 2 (to 2), edge 1 (to 1), edge 0
    # (to 2).  Child 2 hangs from edge 0, the lowest id of its parallels,
    # which comes after child 1, so 1 is visited first.
    g = pg.build(3, [(0, 2), (0, 1), (0, 2)], [[4, 2, 0], [3], [1, 5]], 0)
    assert g.pos[ly._root_anchor(g, 0)] == 0
    t = ly.left_aligned_bfs_tree(g, 0)
    assert t.parent_dart == [-1, 3, 1]
    assert t.order == [0, 1, 2]
    assert t.tin == [0, 1, 2]


@pytest.mark.slow
def test_linear_runtime_scaling():
    import time
    # the two sizes alternate seed by seed, so that drift in machine speed
    # hits both means alike
    trials = {20000: [], 40000: []}
    for seed in range(10):
        for n, times in trials.items():
            g = tp.gen_triangulation(n, seed)
            t0 = time.perf_counter()
            ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
            times.append(time.perf_counter() - t0)
    small = sum(trials[20000]) / 10
    big = sum(trials[40000]) / 10
    assert big <= 3.0 * small, (small, big)


# -- the canonical non-left-aligned tree example --------------------------------

_FIG_POS = {
    0: (0, 5),
    1: (-2, 4), 2: (-1, 4), 3: (1, 4), 4: (2, 4),
    5: (-2.5, 3), 6: (-0.5, 3), 7: (1, 3), 8: (2.5, 3),
    9: (-2, 2), 10: (0, 2), 11: (2, 2),
    12: (-1.5, 1), 13: (1.5, 1),
}
_FIG_EDGES = [
    (0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
    (5, 1), (1, 6), (6, 2), (2, 7), (7, 3), (3, 8), (8, 4), (6, 7),
    (5, 9), (9, 10), (10, 6), (6, 11), (11, 7), (7, 8), (8, 11),
    (9, 12), (12, 10), (10, 13), (13, 11), (13, 12),
]
# the drawn (thick) BFS tree: parent per vertex
_FIG_TREE_PARENT = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 2, 8: 3,
                    9: 5, 10: 6, 11: 7, 12: 9, 13: 10}


def fig_example_graph():
    """A 14-vertex mesh with coordinates, rooted at the top vertex; its
    'natural' drawn BFS tree fails left-alignment through one edge."""
    import math

    n = len(_FIG_POS)
    eidx = {}
    for e, (u, v) in enumerate(_FIG_EDGES):
        eidx[(u, v)] = 2 * e
        eidx[(v, u)] = 2 * e + 1
    rots = []
    for v in range(n):
        nbrs = [w for (a, w) in eidx if a == v]
        nbrs = sorted(set(w >> 1 for w in []))  # unused; keep simple below
        incident = []
        for (a, b), d in eidx.items():
            if a == v:
                ang = math.atan2(_FIG_POS[b][1] - _FIG_POS[v][1],
                                 _FIG_POS[b][0] - _FIG_POS[v][0])
                incident.append((ang, d))
        incident.sort()
        rots.append([d for _, d in incident])
    g = pg.build(n, _FIG_EDGES, rots, eidx[(1, 0)])
    assert len(g.faces[g.outer_face]) == 9  # the hull walk
    return g


def test_fig_example_drawn_tree_violates_left_alignment():
    g = fig_example_graph()
    t = ly.BfsTree(g, 0, [-1] * g.n, [-1] * g.n, [0] * g.n)
    for v, p in _FIG_TREE_PARENT.items():
        t.parent[v] = p
        for d in g.rot[v]:
            if g.head[d] == p:
                t.parent_dart[v] = d
    order = [0]
    for v in order:
        for w, p in _FIG_TREE_PARENT.items():
            if p == v:
                t.depth[w] = t.depth[v] + 1
                order.append(w)
    t.order = order
    t.tin = [0] * g.n
    clock = 0
    seen = [0]
    # preorder via repeated scan (tiny graph)
    def dfs(v):
        nonlocal clock
        t.tin[v] = clock
        clock += 1
        for w in sorted(_FIG_TREE_PARENT):
            if _FIG_TREE_PARENT[w] == v:
                dfs(w)
    dfs(0)
    ly._fill_tout(t)
    # u = vertex 6 one layer above v = vertex 11; u is to the left of v
    assert t.depth[6] == 2 and t.depth[11] == 3
    assert ly.is_left_of(g, t, 6, 11) is True
    assert ly.is_left_of(g, t, 11, 6) is False
    viol = ly.check_left_aligned(g, t)
    assert viol == (6, 11)
    # ... and only by this edge
    count = 0
    for eid, (a, b) in enumerate(g.edges):
        if t.is_tree_edge(eid) or t.depth[a] == t.depth[b]:
            continue
        u, v = (a, b) if t.depth[a] < t.depth[b] else (b, a)
        if t.parent[v] != u and ly.is_left_of(g, t, u, v):
            count += 1
    assert count == 1


def test_fig_example_constructed_tree_differs_and_passes():
    g = fig_example_graph()
    t = ly.left_aligned_bfs_tree(g, 0)
    assert ly.check_left_aligned(g, t) is None
    assert dict((v, t.parent[v]) for v in _FIG_TREE_PARENT) != _FIG_TREE_PARENT
