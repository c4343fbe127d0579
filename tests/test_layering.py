import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from test_atlas import every_outer_face, planar_atlas
from twinplanar import layering as ly
from twinplanar import plane_graph as pg


def bfs_layering(g, r):
    """Graph distances from r, the layers of the oracle trees below.
    Raises on an out-of-range root or a disconnected g."""
    if not 0 <= r < g.n:
        raise ly.LayeringError(f"root {r} out of range")
    dist = [-1] * g.n
    dist[r] = 0
    q = [r]
    for v in q:  # grows while it is walked: a FIFO queue
        for d in g.rot[v]:
            w = g.head[d]
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(w)
    if -1 in dist:
        raise ly.LayeringError("graph is disconnected")
    return dist


# -- the definition of "left of", as the differential oracle ----------------


def _first_dart_towards(t, r1, u):
    """The dart at r1 beginning the vertical path down to its descendant u."""
    while t.parent[u] != r1:
        u = t.parent[u]
    return t.parent_dart[u] ^ 1


def _anchor_pos(t, v):
    g = t.g
    if v == t.root:
        return g.pos[ly._root_anchor(g, v)]
    return (g.pos[t.parent_dart[v]] + 1) % len(g.rot[v])


def is_left_of(g, t, u, v):
    """Whether u is to the left of v for a non-tree edge {u, v}: at their
    lowest common ancestor, the first dart towards u comes before the
    first dart towards v in ccw order from the anchor."""
    if t.is_ancestor(u, v) or t.is_ancestor(v, u):
        raise ly.LayeringError("endpoints lie on a common vertical path")
    a, b = u, v
    while t.depth[a] > t.depth[b]:
        a = t.parent[a]
    while t.depth[b] > t.depth[a]:
        b = t.parent[b]
    while a != b:
        a = t.parent[a]
        b = t.parent[b]
    r1 = a
    eu = _first_dart_towards(t, r1, u)
    ev = _first_dart_towards(t, r1, v)
    deg = len(g.rot[r1])
    ap = _anchor_pos(t, r1)
    pu = (g.pos[eu] - ap) % deg
    pv = (g.pos[ev] - ap) % deg
    return pu < pv


def first_left_edge(g, t):
    """check_left_aligned by the definition: the first edge, in edge-id
    order, one layer apart, off the tree and its parallels, whose upper
    end is left of its lower end."""
    for eid, (a, b) in enumerate(g.edges):
        if t.is_tree_edge(eid) or t.depth[a] == t.depth[b]:
            continue
        u, v = (a, b) if t.depth[a] < t.depth[b] else (b, a)
        if t.depth[u] == t.depth[v] - 1 and t.parent[v] != u \
                and is_left_of(g, t, u, v):
            return (u, v)
    return None


def _preorder(t):
    """The vertices in order of their preorder numbers ``tin``."""
    return sorted(range(len(t.tin)), key=t.tin.__getitem__)


def _fill_tout(t):
    # tin was assigned in preorder; tout[v] = max tin in v's subtree + 1
    tout = [i + 1 for i in t.tin]
    parent = t.parent
    for v in _preorder(t)[:0:-1]:  # children before parents, root left out
        p = parent[v]
        if tout[v] > tout[p]:
            tout[p] = tout[v]
    t.tout = tout


def dfs_left_aligned_tree(g, r):
    """The left-aligned tree by its two-pass definition, as the oracle: BFS
    distances, then a depth-first sweep that attaches, at each reached
    vertex, all its un-treed next-layer neighbours in ccw order from the
    anchor (through the lowest edge id among parallels) and recurses in
    that order."""
    depth = bfs_layering(g, r)
    n = g.n
    parent, parent_dart, order, tin = [-1] * n, [-1] * n, [], [0] * n
    stack = [r]
    while stack:
        v = stack.pop()
        tin[v] = len(order)
        order.append(v)
        rv = g.rot[v]
        if not rv:
            continue
        s = g.pos[ly._root_anchor(g, r)] if v == r else g.pos[parent_dart[v]] + 1
        walk = rv[s:] + rv[:s]
        kids = []
        for d in walk:
            w = g.head[d]
            if depth[w] != depth[v] + 1:
                continue
            if parent[w] == -1:
                parent[w], parent_dart[w] = v, d ^ 1
                kids.append(w)
            elif parent[w] == v and d >> 1 < parent_dart[w] >> 1:
                parent_dart[w] = d ^ 1
        kids.sort(key=lambda w: walk.index(parent_dart[w] ^ 1))
        stack += reversed(kids)
    t = ly.BfsTree(g, r, parent, parent_dart, depth, tin)
    _fill_tout(t)
    return t


def random_bfs_tree(g, r, rng):
    """A BFS tree of g rooted at r with every parent drawn at random from
    the vertex's neighbours one layer up (left-aligned only by chance)."""
    depth = bfs_layering(g, r)
    parent, parent_dart = [-1] * g.n, [-1] * g.n
    for v in range(g.n):
        ups = [d for d in g.rot[v] if depth[g.head[d]] == depth[v] - 1]
        if ups:
            parent_dart[v] = rng.choice(ups)
            parent[v] = g.head[parent_dart[v]]
    t = ly.BfsTree(g, r, parent, parent_dart, depth)
    kids = [[] for _ in range(g.n)]
    for v in range(g.n):
        if parent[v] != -1:
            kids[parent[v]].append(v)
    t.tin = [0] * g.n
    clock = 0
    stack = [r]
    while stack:
        v = stack.pop()
        t.tin[v] = clock
        clock += 1
        stack += kids[v]
    _fill_tout(t)
    return t


def test_bfs_layering_triangle():
    g = pg.build(3, [(0, 1), (0, 2), (1, 2)], [[0, 2], [4, 1], [3, 5]], 1)
    assert bfs_layering(g, 0) == [0, 1, 1]


def test_bfs_layering_path_from_end():
    g = pg.build(4, [(0, 1), (1, 2), (2, 3)],
                 [[0], [2, 1], [4, 3], [5]], 0)
    assert bfs_layering(g, 0) == [0, 1, 2, 3]


def test_bfs_layering_grid_corner():
    g = tp.gen_grid(3, 3)
    dist = bfs_layering(g, 0)
    from collections import Counter
    sizes = Counter(dist[v] for v in range(9))
    assert [sizes[i] for i in range(5)] == [1, 2, 3, 2, 1]


def test_bfs_layering_errors():
    g = pg.build(2, [], [[], []], 0)
    with pytest.raises(ly.LayeringError, match="disconnected"):
        bfs_layering(g, 0)
    with pytest.raises(ly.LayeringError, match="range"):
        bfs_layering(g, 9)


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
    bad.tin, bad.tout = t.tin, t.tout
    _fill_tout(bad)  # tin/tout stale is fine for this check
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
            assert is_left_of(g, t, u, v) != is_left_of(g, t, v, u)


def test_check_left_aligned_agrees_with_the_definition():
    # random BFS trees break left-alignment through many edges; the check
    # must name the same first one as the definition
    rng = random.Random(12)
    graphs = [tp.gen_triangulation(rng.randrange(4, 80),
                                   rng.randrange(10 ** 6)) for _ in range(40)]
    graphs += [tp.gen_grid(5, 7), tp.gen_stacked_quadrangulation(60, 3)]
    found = 0
    for g in graphs:
        r = g.tail[g.outer_dart]
        for t in (ly.left_aligned_bfs_tree(g, r),
                  *(random_bfs_tree(g, r, rng) for _ in range(5))):
            want = first_left_edge(g, t)
            assert ly.check_left_aligned(g, t) == want
            found += want is not None
    assert found >= 100


def test_check_left_aligned_rejects_a_tree_that_is_not_one():
    g = tp.gen_triangulation(30, 2)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    v = next(v for v in range(g.n) if t.depth[v] == 2)
    # the parental dart no longer leads to the parent
    d = next(d for d in g.rot[v] if g.head[d] != t.parent[v])
    # or names no dart: negative, one past the last, far past it
    for d in d, -1, 2 * g.m, 10 ** 6:
        bad = ly.BfsTree(g, t.root, t.parent, [*t.parent_dart], t.depth)
        bad.parent_dart[v] = d
        with pytest.raises(ly.LayeringError, match="not a BFS tree"):
            ly.check_left_aligned(g, bad)
    # or one of its lists is shorter than the graph has vertices
    for short in "parent_dart", "depth", "parent":
        for cut in slice(-1), slice(5), slice(3):
            bad = ly.BfsTree(g, t.root, t.parent, t.parent_dart, t.depth)
            setattr(bad, short, getattr(t, short)[cut])
            with pytest.raises(ly.LayeringError, match="not a BFS tree"):
                ly.check_left_aligned(g, bad)


@pytest.mark.parametrize("root", [-1, "n", None, 1.5, "3"],
                         ids=["-1", "n", "None", "1.5", "str"])
def test_left_aligned_bfs_tree_refuses_a_root_that_is_no_vertex(root):
    g = tp.gen_triangulation(30, 2)
    if root == "n":
        root = g.n
    with pytest.raises(ly.LayeringError, match=" out of range$"):
        ly.left_aligned_bfs_tree(g, root)


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
    assert _preorder(t) == [0, 1, 2]
    assert t.tin == [0, 1, 2]


def _tree_fields(t):
    return (t.parent, t.parent_dart, t.depth, t.tin, t.tout)


def _with_parallel_copies(g, every):
    """g with a parallel copy of every ``every``-th edge, each copy placed
    next to its edge, so that the two bound a face of length 2; the copy
    follows its edge ccw at the lower end for even edge ids and precedes
    it for odd ones, so the higher id is met first from either side."""
    edges = list(g.edges)
    rot = [list(r) for r in g.rot]
    for e in range(0, g.m, every):
        c = len(edges)
        edges.append(g.edges[e])
        u, v = g.edges[e]
        after = 1 - (e & 1)
        rot[u].insert(rot[u].index(2 * e) + after, 2 * c)
        rot[v].insert(rot[v].index(2 * e + 1) + 1 - after, 2 * c + 1)
    return pg.build(g.n, edges, rot, g.outer_dart)


def test_one_pass_tree_matches_the_two_pass_construction_on_every_outer_face():
    t0 = time.perf_counter()
    graphs = [g for _, g in planar_atlas() if g.m and g.ncomp == 1]
    graphs += [_with_parallel_copies(g, k) for k in (1, 2) for g in graphs[::7]]
    trees = 0
    for g0 in graphs:
        for g in every_outer_face(g0):
            for r in sorted({g.tail[d] for d in g.faces[g.outer_face]}):
                t = ly.left_aligned_bfs_tree(g, r)
                assert _tree_fields(t) == _tree_fields(dfs_left_aligned_tree(g, r))
                trees += 1
    assert trees > 10_000
    assert time.perf_counter() - t0 < 20.0


def test_one_pass_tree_matches_the_two_pass_construction_on_larger_inputs():
    rng = random.Random(18)
    graphs = [tp.gen_triangulation(rng.randrange(4, 300), rng.randrange(10 ** 6))
              for _ in range(20)]
    graphs += [tp.gen_stacked_quadrangulation(rng.randrange(4, 300), s)
               for s in range(20)]
    graphs += [tp.gen_grid(7, 23), tp.gen_grid(2, 9)]
    for g in graphs:
        r = g.tail[g.outer_dart]
        t = ly.left_aligned_bfs_tree(g, r)
        assert _tree_fields(t) == _tree_fields(dfs_left_aligned_tree(g, r))


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
    _fill_tout(t)
    # u = vertex 6 one layer above v = vertex 11; u is to the left of v
    assert t.depth[6] == 2 and t.depth[11] == 3
    assert is_left_of(g, t, 6, 11) is True
    assert is_left_of(g, t, 11, 6) is False
    viol = ly.check_left_aligned(g, t)
    assert viol == (6, 11)
    # ... and only by this edge
    count = 0
    for eid, (a, b) in enumerate(g.edges):
        if t.is_tree_edge(eid) or t.depth[a] == t.depth[b]:
            continue
        u, v = (a, b) if t.depth[a] < t.depth[b] else (b, a)
        if t.parent[v] != u and is_left_of(g, t, u, v):
            count += 1
    assert count == 1


def test_fig_example_constructed_tree_differs_and_passes():
    g = fig_example_graph()
    t = ly.left_aligned_bfs_tree(g, 0)
    assert ly.check_left_aligned(g, t) is None
    assert dict((v, t.parent[v]) for v in _FIG_TREE_PARENT) != _FIG_TREE_PARENT
