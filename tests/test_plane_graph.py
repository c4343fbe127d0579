import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinplanar import plane_graph as pg
from twinplanar.generators import gen_grid, gen_triangulation


def triangle():
    # 0 at origin, 1 east, 2 north; ccw rotations
    return pg.build(3, [(0, 1), (0, 2), (1, 2)], [[0, 2], [4, 1], [3, 5]], 1)


def square_cycle():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    rots = [[0, 7], [2, 1], [4, 3], [6, 5]]
    return pg.build(4, edges, rots, 1)


def path3():
    return pg.build(3, [(0, 1), (1, 2)], [[0], [2, 1], [3]], 0)


def test_triangle_two_faces():
    g = triangle()
    assert sorted(g.face_lengths()) == [3, 3]
    assert g.n - g.m + len(g.faces) == 2


def test_single_vertex_one_face():
    g = pg.build(1, [], [[]], 0)
    assert len(g.faces) == 1


def test_k4_four_faces():
    from twinplanar.generators import gen_triangulation
    g = gen_triangulation(4, 0)
    assert len(g.faces) == 4
    assert g.face_lengths() == [3, 3, 3, 3]


def test_path_boundary_walk_visits_middle_twice():
    g = path3()
    (walk, _outer), = pg.faces(g)[:1]
    assert len(walk) == 4
    vs = [g.tail[d] for d in walk]
    assert vs.count(1) == 2


def test_c4_two_walks_of_length_4():
    g = square_cycle()
    assert sorted(g.face_lengths()) == [4, 4]


def test_build_rejects_loop():
    with pytest.raises(pg.PlaneError, match="loop"):
        pg.build(2, [(0, 0)], [[0, 1], []], 0)


def test_build_rejects_missing_dart():
    with pytest.raises(pg.PlaneError):
        pg.build(3, [(0, 1), (0, 2), (1, 2)], [[0, 2], [1], [3, 5]], 1)


def test_build_rejects_duplicate_dart():
    with pytest.raises(pg.PlaneError):
        pg.build(3, [(0, 1), (0, 2), (1, 2)], [[0, 2, 0], [4, 1], [3, 5]], 1)


def test_build_rejects_nonplanar_rotation():
    # K4 with a twisted rotation at one vertex embeds on the torus: Euler fails
    from twinplanar.generators import gen_triangulation
    g = gen_triangulation(4, 0)
    rots = [list(r) for r in g.rot]
    rots[3] = [rots[3][0], rots[3][2], rots[3][1]]
    with pytest.raises(pg.PlaneError, match="Euler"):
        pg.build(g.n, g.edges, rots, g.outer_dart)


# -- triangulate --------------------------------------------------------------


def test_triangulate_k4_identity():
    from twinplanar.generators import gen_triangulation
    g = gen_triangulation(4, 0)
    g2, vm = pg.triangulate(g)
    assert g2 is g
    assert vm.added == set()


def test_triangulate_c4_two_apexes():
    g = square_cycle()
    g2, vm = pg.triangulate(g)
    assert g2.n == 6
    assert len(g2.faces) == 8
    assert all(l == 3 for l in g2.face_lengths())
    assert len(vm.added) == 2


def test_triangulate_p3_ring_completion():
    g = path3()
    g2, _vm = pg.triangulate(g)
    # independent face-length scan: all faces simple triangles
    assert all(l == 3 for l in g2.face_lengths())
    for walk in g2.faces:
        vs = [g2.tail[d] for d in walk]
        assert len(set(vs)) == 3
    # induced subgraph on old vertices unchanged
    old = {(min(u, v), max(u, v)) for u, v in g2.edges if u < 3 and v < 3}
    assert old == {(0, 1), (1, 2)}
    assert g2.is_simple()


def test_triangulate_single_vertex_and_edge():
    g1 = pg.build(1, [], [[]], 0)
    t1, vm1 = pg.triangulate(g1)
    assert all(l == 3 for l in t1.face_lengths())
    g2 = pg.build(2, [(0, 1)], [[0], [1]], 0)
    t2, vm2 = pg.triangulate(g2)
    assert all(l == 3 for l in t2.face_lengths())
    assert t2.is_simple()
    assert (0, 1) in t2.edges


def test_triangulate_requires_simple_and_connected():
    two = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], 0)
    with pytest.raises(pg.PlaneError, match="simple"):
        pg.triangulate(two)
    disc = pg.build(2, [], [[], []], 0)
    with pytest.raises(pg.PlaneError, match="connected"):
        pg.triangulate(disc)


# -- quadrangulate ------------------------------------------------------------


def test_quadrangulate_c4_identity():
    g = square_cycle()
    g2, vm = pg.quadrangulate(g)
    assert g2 is g and vm.added == set()


def test_quadrangulate_c6_ring_and_hub():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    rots = [[2 * i, 2 * ((i - 1) % 6) + 1] for i in range(6)]
    g = pg.build(6, edges, rots, 1)
    g2, vm = pg.quadrangulate(g)
    # a ring matched to each hexagonal side plus a hub, per face
    assert all(l == 4 for l in g2.face_lengths())
    assert g2.is_simple()
    assert pg.two_coloring(g2) is not None
    hub_candidates = [v for v in range(6, g2.n) if len(g2.rot[v]) == 3]
    assert hub_candidates  # alternate ring vertices keep degree 3


def test_quadrangulate_k2():
    g = pg.build(2, [(0, 1)], [[0], [1]], 0)
    g2, _ = pg.quadrangulate(g)
    assert all(l == 4 for l in g2.face_lengths())
    assert g2.is_simple()
    assert pg.two_coloring(g2) is not None
    assert pg.articulation_points(g2) == []
    old = {(u, v) for u, v in g2.edges if u < 2 and v < 2}
    assert old == {(0, 1)}


def test_quadrangulate_rejects_odd_cycle():
    g = triangle()
    with pytest.raises(pg.PlaneError, match="odd cycle"):
        pg.quadrangulate(g)


def test_quadrangulate_two_connected():
    g = path3()
    g2, _ = pg.quadrangulate(g)
    assert pg.articulation_points(g2) == []


# -- connect_components -------------------------------------------------------


def test_connect_identity_when_connected():
    g = triangle()
    g2, vm = pg.connect_components(g)
    assert g2 is g
    assert vm.added == set()


def test_connect_two_disjoint_edges():
    g = pg.build(4, [(0, 1), (2, 3)], [[0], [1], [2], [3]], 0)
    g2, vm = pg.connect_components(g)
    assert len(vm.added) == 1
    assert len(pg.connected_components(g2)) == 1
    assert pg.two_coloring(g2) is not None


def test_connect_k_components():
    g = pg.build(5, [], [[] for _ in range(5)], 0)
    g2, vm = pg.connect_components(g)
    assert len(vm.added) == 4
    assert len(pg.connected_components(g2)) == 1


# -- facts derived once per graph ---------------------------------------------


def thinned(g, keep, seed):
    """g with each edge kept with probability ``keep``; the surviving darts
    keep their rotation order, so the embedding stays planar."""
    rng = random.Random(seed)
    new_eid = [-1] * g.m
    edges = []
    for e, uv in enumerate(g.edges):
        if rng.random() < keep:
            new_eid[e] = len(edges)
            edges.append(uv)
    rotations = [[2 * new_eid[d >> 1] + (d & 1) for d in r if new_eid[d >> 1] >= 0]
                 for r in g.rot]
    return pg.build(g.n, edges, rotations, 0)


@st.composite
def thinned_plane_graphs(draw):
    if draw(st.booleans()):
        g = gen_triangulation(draw(st.integers(4, 200)), draw(st.integers(0, 999)))
    else:
        rows = draw(st.integers(2, 14))
        g = gen_grid(rows, draw(st.integers(2, 200 // rows)))
    return thinned(g, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 999)))


@settings(max_examples=80, deadline=None)
@given(thinned_plane_graphs())
def test_derived_facts_match_direct_computation(g):
    # faces: the orbits of next_in_face, walked from darts 0..2m-1 in order
    orbits, seen = [], set()
    for d0 in range(2 * g.m):
        if d0 in seen:
            continue
        walk, d = [], d0
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = g.next_in_face(d)
        orbits.append(walk)
    assert g.faces == (orbits or [[]])
    assert all(g.face_of[d] == f for f, w in enumerate(g.faces) for d in w)

    # components: an independent BFS over the edge list
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    comps, label = [], [None] * g.n
    for s in range(g.n):
        if label[s] is None:
            label[s] = len(comps)
            queue = [s]
            for v in queue:
                for w in adj[v]:
                    if label[w] is None:
                        label[w] = len(comps)
                        queue.append(w)
            comps.append(set(queue))
    got = pg.connected_components(g)
    assert [set(c) for c in got] == comps
    assert sum(len(c) for c in got) == g.n

    # whole-graph checks: the kept result equals the first one
    simple = g.is_simple()
    assert simple is True and g.is_simple() is simple
    odd = pg.find_odd_cycle(g)
    assert pg.find_odd_cycle(g) == odd
    assert (odd is None) == (pg.two_coloring(g) is not None)
    if odd is not None:
        assert len(odd) % 2 == 1
        pairs = {frozenset(e) for e in g.edges}
        assert all(frozenset((odd[i - 1], odd[i])) in pairs
                   for i in range(len(odd)))


def test_is_simple_false_is_kept():
    g = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [3, 1]], 0)
    assert g.is_simple() is False
    assert g.is_simple() is False


# -- formats ------------------------------------------------------------------


def test_plane_format_roundtrip():
    from twinplanar.generators import gen_triangulation
    g = gen_triangulation(30, 5)
    text = pg.write_plane(g, comments=["hello"])
    g2 = pg.parse_plane(text)
    assert g2.edges == g.edges
    assert g2.rot == g.rot
    assert g2.outer_dart == g.outer_dart
    assert pg.write_plane(g2, comments=["hello"]) == text


def test_parse_plane_errors():
    with pytest.raises(pg.FormatError):
        pg.parse_plane("e 0 0 1\n")
    with pytest.raises(pg.FormatError):
        pg.parse_plane("p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\n")  # no outer


@pytest.mark.parametrize("record, msg", [
    ("e -1 0 1", "line 3: .*edge id -1 outside 0..0"),
    ("e 1 0 1", "line 3: .*edge id 1 outside 0..0"),
    ("e 0 0 1", "line 3: .*second record for edge 0"),
], ids=["negative-id", "id-past-m", "duplicate"])
def test_parse_plane_rejects_bad_edge_ids(record, msg):
    text = f"p plane 2 1\ne 0 0 1\n{record}\nr 0 0\nr 1 0\nouter 0 0\n"
    with pytest.raises(pg.FormatError, match=msg):
        pg.parse_plane(text)


def test_edge_list_roundtrip():
    text = pg.write_edge_list(4, [(0, 1), (2, 3)], comments=["x"])
    n, edges = pg.parse_edge_list(text)
    assert n == 4 and edges == [(0, 1), (2, 3)]


def test_embed_abstract_k4():
    g = pg.embed_abstract(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(g.faces) == 4


def test_embed_abstract_rejects_k5():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(pg.PlaneError, match="not planar"):
        pg.embed_abstract(5, k5)
