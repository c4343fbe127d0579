import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_atlas import every_outer_face, planar_atlas
from test_generators import _plain_grid
from test_golden import _thinned
from twinplanar import plane_graph as pg
from twinplanar.generators import (gen_grid, gen_stacked_quadrangulation,
                                   gen_triangulation)
from twinplanar.instrument import InvariantChecker
from twinplanar.layering import left_aligned_bfs_tree
from twinplanar.oracle import reference_verify
from twinplanar.seq_bipartite import bipartite_sequence
from twinplanar.seq_planar import planar_sequence, planar_sequence_full
from twinplanar.trigraph import Trigraph, parse_seq


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
    assert sorted([len(w) for w in g.faces]) == [3, 3]
    assert g.n - g.m + len(g.faces) == 2


def test_single_vertex_one_face():
    g = pg.build(1, [], [[]], 0)
    assert len(g.faces) == 1


def test_k4_four_faces():
    from twinplanar.generators import gen_triangulation
    g = gen_triangulation(4, 0)
    assert len(g.faces) == 4
    assert [len(w) for w in g.faces] == [3, 3, 3, 3]


def test_path_boundary_walk_visits_middle_twice():
    g = path3()
    walk = g.faces[g.outer_face]
    assert len(walk) == 4
    vs = [g.tail[d] for d in walk]
    assert vs.count(1) == 2


def test_c4_two_walks_of_length_4():
    g = square_cycle()
    assert sorted([len(w) for w in g.faces]) == [4, 4]


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
    g2, added = pg.triangulate(g)
    assert g2 is g
    assert not added


def test_triangulate_c4_two_apexes():
    g = square_cycle()
    g2, added = pg.triangulate(g)
    assert g2.n == 6
    assert len(g2.faces) == 8
    assert all(len(w) == 3 for w in g2.faces)
    assert added == range(4, 6)  # the two apexes, appended


def test_triangulate_p3_ring_completion():
    g = path3()
    g2, _ = pg.triangulate(g)
    # independent face-length scan: all faces simple triangles
    assert all(len(w) == 3 for w in g2.faces)
    for walk in g2.faces:
        vs = [g2.tail[d] for d in walk]
        assert len(set(vs)) == 3
    # induced subgraph on old vertices unchanged
    old = {(min(u, v), max(u, v)) for u, v in g2.edges if u < 3 and v < 3}
    assert old == {(0, 1), (1, 2)}
    assert g2.is_simple()


def test_triangulate_single_vertex_and_edge():
    g1 = pg.build(1, [], [[]], 0)
    t1, _ = pg.triangulate(g1)
    assert all(len(w) == 3 for w in t1.faces)
    g2 = pg.build(2, [(0, 1)], [[0], [1]], 0)
    t2, _ = pg.triangulate(g2)
    assert all(len(w) == 3 for w in t2.faces)
    assert t2.is_simple()
    assert (0, 1) in t2.edges


def test_triangulate_requires_simple_and_connected():
    two = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], 0)
    with pytest.raises(pg.PlaneError, match="simple"):
        pg.triangulate(two)
    disc = pg.build(2, [], [[], []], 0)
    with pytest.raises(pg.PlaneError, match="connected"):
        pg.triangulate(disc)


# faces whose walk repeats a vertex: one apex per arc of the walk.  Name:
# (n, edges, vertices added or None).  The P5 walk 0 1 2 3 4 3 2 1 splits
# into 3 arcs, the star's walk from its centre into 6 arcs plus a hub.
ARC_FILL_CASES = {
    "P5": (5, [(i, i + 1) for i in range(4)], 3),
    "star-K1,5": (6, [(0, i) for i in range(1, 6)], 7),
    "bowtie": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], None),
    "bridge": (6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
               None),
}


@pytest.mark.parametrize("name", sorted(ARC_FILL_CASES))
def test_triangulate_arc_fill(name):
    n, edges, n_added = ARC_FILL_CASES[name]
    g0 = pg.embed_abstract(n, edges)
    g, added = pg.triangulate(g0)
    assert added == range(n, g.n)
    if n_added is not None:
        assert len(added) == n_added
    assert g.is_simple()
    for walk in g.faces:
        assert len({g.tail[d] for d in walk}) == len(walk) == 3
    assert ({frozenset(e) for e in g.edges if max(e) < n}
            == {frozenset(e) for e in edges})  # g0 stays induced
    seq, report = planar_sequence(g0, checker=InvariantChecker("planar"))
    ref = reference_verify(n, edges, seq)
    assert (ref.width, ref.per_step_max) == (report.width, report.per_step_max)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=4, max_size=40))
def test_arc_starts_cut_a_walk_into_simple_arcs(steps):
    # any closed walk without loops: consecutive corners differ
    vs = [steps[0]]
    for s in steps[1:]:
        vs.append((vs[-1] + 1 + s) % 7)
    if vs[-1] == vs[0]:
        vs.pop()
    starts = pg._arc_starts(vs)
    m = len(vs)
    assert starts[0] == 0 and starts == sorted(set(starts)) and starts[-1] < m
    if len(set(vs)) == m:
        assert starts == [0]
        return
    assert len(starts) >= 3
    for s, e in zip(starts, starts[1:] + [m]):
        arc = [vs[i % m] for i in range(s, e + 1)]
        assert len(set(arc)) == len(arc) >= 2


@pytest.mark.parametrize("seed", range(3))
def test_triangulate_growth_on_a_thinned_triangulation(seed):
    g0 = _thinned(gen_triangulation(2000, seed), seed)
    _, report, (_, g, _) = planar_sequence_full(
        g0, checker=InvariantChecker("planar"))
    assert g.n <= 2.1 * g0.n  # 1.90-1.92 for seeds 0-2
    assert report.width <= 8


# -- quadrangulate ------------------------------------------------------------


def test_quadrangulate_c4_identity():
    g = square_cycle()
    g2, added = pg.quadrangulate(g)
    assert g2 is g and not added


def test_quadrangulate_c6_ring_and_hub():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    rots = [[2 * i, 2 * ((i - 1) % 6) + 1] for i in range(6)]
    g = pg.build(6, edges, rots, 1)
    g2, _ = pg.quadrangulate(g)
    # a ring matched to each hexagonal side plus a hub, per face
    assert all(len(w) == 4 for w in g2.faces)
    assert g2.is_simple()
    assert pg.find_odd_cycle(g2) is None
    hub_candidates = [v for v in range(6, g2.n) if len(g2.rot[v]) == 3]
    assert hub_candidates  # alternate ring vertices keep degree 3


def test_quadrangulate_k2():
    g = pg.build(2, [(0, 1)], [[0], [1]], 0)
    g2, _ = pg.quadrangulate(g)
    assert all(len(w) == 4 for w in g2.faces)
    assert g2.is_simple()
    assert pg.find_odd_cycle(g2) is None
    assert nx.is_biconnected(nx_graph(g2))
    old = {(u, v) for u, v in g2.edges if u < 2 and v < 2}
    assert old == {(0, 1)}


def test_quadrangulate_rejects_odd_cycle():
    g = triangle()
    with pytest.raises(pg.PlaneError, match="odd cycle"):
        pg.quadrangulate(g)


def test_quadrangulate_two_connected():
    g = path3()
    g2, _ = pg.quadrangulate(g)
    assert nx.is_biconnected(nx_graph(g2))


def is_triangle(tail, walk):
    """Whether a face walk of a simple plane graph bounds a triangle:
    the per-walk reference for the completion rule."""
    return len(walk) == 3


def is_quad(tail, walk):
    """Whether a face walk of a simple plane graph bounds a 4-cycle: four
    darts whose opposite corners differ (consecutive ones always do)."""
    return (len(walk) == 4 and tail[walk[0]] != tail[walk[2]]
            and tail[walk[1]] != tail[walk[3]])


def nx_graph(g):
    """g as a networkx graph: an oracle that shares no code with ours."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


# -- completion postconditions: each refused fill keeps its message -----------


def _duplicate_spoke_fill(sp, walk, tail):
    # the apex fill plus a parallel copy of the apex's first spoke, placed
    # next to it at both ends so that the two bound a digon
    a = pg._fill_triangles(sp, walk, tail)
    e = sp.add_edge(tail[walk[0]], a)
    sp.insert_after(walk[0], 2 * e)
    sp.new_rot[a].insert(0, 2 * e + 1)
    return a


def _chord_fill(sp, walk, tail):
    # a chord between two old corners of the inner face, the apex fill
    # outside: every face a triangle, but g0 no longer induced.  The inner
    # face of square_cycle is the one on the left of dart 0.
    if walk[0] != 0:
        return pg._fill_triangles(sp, walk, tail)
    e = sp.add_edge(tail[walk[0]], tail[walk[2]])
    sp.insert_after(walk[0], 2 * e)
    sp.insert_after(walk[2], 2 * e + 1)


def _separate_square(sp):
    """A new 4-cycle joined to nothing old: a second component."""
    ring, fwd = pg._ring(sp, 4)
    for i, x in enumerate(ring):
        sp.set_new_rotation(x, [fwd[i], fwd[i - 1] ^ 1])
    return ring[0]


def _square_beside_fill(sp, walk, tail):
    # the face is left as it is, a 4-walk of P3 whose opposite corners
    # coincide, and a separate square takes the outer marker
    return _separate_square(sp)


def _ring_and_square_fill(sp, walk, tail):
    # a correct ring fill plus a separate square: every face is a 4-cycle,
    # but the completion has two components
    x = pg._quad_ring(sp, walk, tail)
    _separate_square(sp)
    return x


def _fill_outer_walk(g0, what, k, fill):
    # the raw driver, handed the fields of a plain grid and its outer walk
    # alone, as gen_grid hands it its arrays
    return pg._fill_faces(g0.n, g0.edges, g0.rot, g0.tail, [g0.outer_walk()],
                          g0.outer_dart, what, k, fill)


@pytest.mark.parametrize("complete, g0, what, fill, msg", [
    (pg._complete_faces, square_cycle(), "triangulate", _duplicate_spoke_fill,
     "triangulate result is not simple"),
    (pg._complete_faces, square_cycle(), "triangulate", _chord_fill,
     "completion changed the induced subgraph on old vertices"),
    (pg._complete_faces, path3(), "quadrangulate", _square_beside_fill,
     "incomplete face after quadrangulate"),
    (pg._complete_faces, path3(), "quadrangulate", _ring_and_square_fill,
     "incomplete face after quadrangulate"),
    (_fill_outer_walk, _plain_grid(3, 4), "quadrangulate", _ring_and_square_fill,
     "incomplete face after quadrangulate"),
], ids=["duplicate-edge", "old-old-edge", "coinciding-corners", "two-components",
        "raw-grid-two-components"])
def test_complete_faces_refuses_a_broken_fill(complete, g0, what, fill, msg):
    k = 3 if what == "triangulate" else 4
    with pytest.raises(pg.PlaneError, match=f"^{re.escape(msg)}$"):
        complete(g0, what, k, fill)


def _quadrangulation_inputs():
    graphs = [g for G, g in planar_atlas() if nx.is_bipartite(G)]
    graphs += [thinned(gen_grid(r, c), keep, s) for r, c in ((2, 3), (6, 9), (13, 11))
               for keep in (0.3, 0.6, 0.9) for s in range(3)]
    graphs += [thinned(gen_stacked_quadrangulation(n, s), keep, s)
               for n in (10, 80, 300) for keep in (0.3, 0.6, 0.9) for s in range(3)]
    return graphs


def test_quadrangulate_agrees_with_networkx():
    # the face check stands for "bipartite" and "2-connected": networkx,
    # which shares no code with it, must agree on every completion
    grown = 0
    for g0 in _quadrangulation_inputs():
        gc, _ = pg.connect_components(g0)
        g, added = pg.quadrangulate(gc)
        G = nx_graph(g)
        assert G.number_of_edges() == g.m  # simple
        assert nx.is_bipartite(G) and nx.is_biconnected(G)
        assert all(is_quad(g.tail, w) for w in g.faces)
        assert gc.edges[:g0.m] == g0.edges and g.edges[:gc.m] == gc.edges
        assert all(max(e) >= gc.n for e in g.edges[gc.m:])  # gc stays induced
        grown += bool(added)
    assert grown > 100


def test_triangulate_agrees_with_networkx():
    # the drain's argument in seq_planar rests on the completion being a
    # simple triangulation, so 3-connected: networkx, which shares no code
    # with it, must agree on every completion
    graphs = [g for _, g in planar_atlas()]
    graphs += [thinned(gen_grid(r, c), keep, s) for r, c in ((2, 3), (4, 5), (7, 6))
               for keep in (0.3, 0.6, 0.9) for s in range(2)]
    graphs += [thinned(gen_triangulation(n, s), keep, s)
               for n in (10, 25, 40) for keep in (0.3, 0.6, 0.9) for s in range(2)]
    grown = 0
    for g0 in graphs:
        gc, _ = pg.connect_components(g0)
        g, added = pg.triangulate(gc)
        G = nx_graph(g)
        assert G.number_of_edges() == g.m  # simple
        assert all(len(w) == 3 for w in g.faces)
        assert g.n < 4 or nx.node_connectivity(G) >= 3
        assert gc.edges[:g0.m] == g0.edges and g.edges[:gc.m] == gc.edges
        assert all(max(e) >= gc.n for e in g.edges[gc.m:])  # gc stays induced
        grown += bool(added)
    assert grown > 1000


# -- connect_components -------------------------------------------------------


def test_connect_identity_when_connected():
    g = triangle()
    g2, added = pg.connect_components(g)
    assert g2 is g
    assert not added


def test_connect_two_disjoint_edges():
    g = pg.build(4, [(0, 1), (2, 3)], [[0], [1], [2], [3]], 0)
    g2, added = pg.connect_components(g)
    assert added == range(4, 5)
    assert g2.edges[:2] == g.edges  # input edge ids kept
    assert len(pg.connected_components(g2)) == 1
    assert pg.find_odd_cycle(g2) is None


def test_connect_k_components():
    g = pg.build(5, [], [[] for _ in range(5)], 0)
    g2, added = pg.connect_components(g)
    assert added == range(5, 9)
    assert len(pg.connected_components(g2)) == 1


def test_connect_rejects_the_empty_graph():
    with pytest.raises(pg.PlaneError, match="empty graph"):
        pg.connect_components(pg.build(0, [], [], 0))


def test_connect_carries_a_repeated_pair():
    g = pg.build(4, [(0, 1), (0, 1), (2, 3)], [[0, 2], [3, 1], [4], [5]], 0)
    assert not g.is_simple()
    g2, added = pg.connect_components(g)
    assert added and g2.is_simple() is False


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


def reference_faces(g):
    """The face walks straight from the rotations: the orbits of d -> the
    rotation predecessor of d ^ 1, walked from darts 0..2m-1 in order."""
    succ = [-1] * (2 * g.m)
    for r in g.rot:
        for i, d in enumerate(r):
            succ[d ^ 1] = r[i - 1]
    orbits, seen = [], set()
    for d0 in range(2 * g.m):
        if d0 in seen:
            continue
        walk, d = [], d0
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = succ[d]
        orbits.append(walk)
    return orbits or [[]]


def check_faces(g):
    """The traced walks, the face lengths and the outer walk against
    ``reference_faces``; the walks hold ``face_next``'s int objects."""
    faces = g.faces
    assert faces == reference_faces(g)
    assert g.face_len == list(map(len, faces))
    assert g.outer_walk() == faces[g.outer_face]
    assert g.m == 0 or g.outer_dart in faces[g.outer_face]
    assert {id(d) for walk in faces for d in walk} == {id(d) for d in g.face_next}


@settings(max_examples=80, deadline=None)
@given(thinned_plane_graphs())
def test_derived_facts_match_direct_computation(g):
    # face_next: the rotation predecessor of the reversed dart, and faces:
    # its orbits, walked from darts 0..2m-1 in order
    succ = [-1] * (2 * g.m)
    for r in g.rot:
        for i, d in enumerate(r):
            succ[d ^ 1] = r[i - 1]
    assert g.face_next == succ
    check_faces(g)

    comps, colour = components_and_colouring(g)
    got = pg.connected_components(g)
    assert [set(c) for c in got] == comps
    assert sum(len(c) for c in got) == g.n

    # whole-graph checks: a repeated call gives the same answer
    simple = g.is_simple()
    assert simple is True and g.is_simple() is simple
    check_odd_cycle(g, colour)


FACE_FAMILIES = {
    "one-vertex": lambda: [pg.build(1, [], [[]], 0)],
    "edgeless": lambda: [pg.build(3, [], [[], [], []], 0)],
    "disconnected": lambda: [thinned(gen_triangulation(60, s), 0.3, s)
                             for s in range(5)],
    "atlas": lambda: [h for _, g in planar_atlas()
                      for h in (every_outer_face(g) if g.m and g.ncomp == 1
                                else [g])],
    "generators": lambda: [gen_triangulation(500, 1), gen_grid(9, 13),
                           gen_stacked_quadrangulation(300, 2),
                           gen_triangulation(4, 0)],
    "platonic": lambda: [pg.embed_abstract(n, edges)
                         for n, edges in _embed_inputs().values()],
}


@pytest.mark.parametrize("family", sorted(FACE_FAMILIES))
def test_faces_are_traced_from_face_next(family):
    # build keeps face_next and face_len; faces and outer_walk trace the
    # walks on demand, as build once stored them
    for g in FACE_FAMILIES[family]():
        check_faces(g)


def _rule_inputs():
    """Connected simple plane graphs with an edge, most with faces that
    bound no triangle or no 4-cycle: P3, whose one 4-walk repeats its
    middle vertex, small named graphs, the connected atlas graphs with
    every face outer, and thinned triangulations and grids made connected."""
    graphs = [path3(), square_cycle(), triangle(),
              pg.build(2, [(0, 1)], [[0], [1]], 0)]
    graphs += [h for _, g in planar_atlas() if g.m and g.ncomp == 1
               for h in every_outer_face(g)]
    graphs += [pg.connect_components(thinned(make(*args), keep, s))[0]
               for make, args in ((gen_triangulation, (80, 3)), (gen_grid, (7, 9)))
               for keep in (0.3, 0.6, 0.9) for s in range(3)]
    return graphs


def test_completion_rule_agrees_with_each_walk():
    # _is_complete and _open_walks decide by face length and m > 2; the
    # per-walk references look at the corners
    p3 = path3()
    assert len(p3.faces[0]) == 4 and not is_quad(p3.tail, p3.faces[0])
    seen = {3: [0, 0], 4: [0, 0]}  # k -> [complete, incomplete] graphs
    for g in _rule_inputs():
        faces = g.faces
        for k, done in ((3, is_triangle), (4, is_quad)):
            complete = all(done(g.tail, w) for w in faces)
            assert pg._is_complete(g, k) is complete
            assert (list(pg._open_walks(g, k))
                    == [w for w in faces if not done(g.tail, w)])
            seen[k][not complete] += 1
    assert min(seen[3] + seen[4]) >= 5, seen


def test_no_pipeline_stage_traces_every_face(monkeypatch):
    # the request path reads face_len and the outer walk only: plain and
    # checked (``seq --assert``) builds of both modes on the benchmark's
    # families, stacked triangulations and grids, whole and thinned
    texts = [pg.write_plane(g) for g in (
        gen_triangulation(300, 1), gen_grid(12, 15),
        thinned(gen_triangulation(300, 2), 0.45, 2),
        thinned(gen_grid(12, 15), 0.45, 3))]

    def traced(self):
        raise AssertionError("PlaneGraph.faces read on the request path")

    monkeypatch.setattr(pg.PlaneGraph, "faces", property(traced))
    runs = 0
    for text in texts:
        g = pg.parse_plane(text)
        for mode, build in (("planar", planar_sequence),
                            ("bipartite", bipartite_sequence)):
            if mode == "bipartite" and pg.find_odd_cycle(g) is not None:
                continue
            for checker in None, InvariantChecker(mode):
                build(g, checker=checker)
                runs += 1
    assert runs == 12


@settings(max_examples=40, deadline=None)
@given(thinned_plane_graphs())
def test_connect_carries_the_kept_checks(g):
    # each connector is a new vertex joined to two components: it adds no
    # repeated pair and no cycle, so the joined graph is simple (bipartite)
    # exactly when g is, and the completions may decide both on it
    simple, odd = g.is_simple(), pg.find_odd_cycle(g)
    g2, _ = pg.connect_components(g)
    assert g2.is_simple() is simple
    odd2 = pg.find_odd_cycle(g2)
    assert (odd2 is None) == (odd is None)
    if g2 is g:
        assert odd2 == odd
    elif odd2 is not None:
        # the search may meet another component's odd cycle first, but the
        # connectors lie on no cycle, so the witness is one of g's
        pairs = {frozenset(e) for e in g.edges}
        assert len(odd2) % 2 == 1 and len(set(odd2)) == len(odd2)
        assert all(frozenset((odd2[i - 1], odd2[i])) in pairs
                   for i in range(len(odd2)))



@pytest.mark.parametrize("mode, make, disconnected", [
    ("planar", lambda: gen_triangulation(500, 1), False),
    ("planar", lambda: thinned(gen_triangulation(500, 1), 0.45, 1), True),
    ("bipartite", lambda: gen_grid(20, 30), False),
], ids=["stacked", "thinned", "grid"])
def test_each_input_rule_is_decided_once_per_run(monkeypatch, mode, make,
                                                 disconnected):
    # simple in both modes, bipartite in bipartite mode; one call each
    g = make()
    assert (g.ncomp > 1) is disconnected
    calls = {"is_simple": 0, "find_odd_cycle": 0}
    is_simple, find_odd_cycle = pg.PlaneGraph.is_simple, pg.find_odd_cycle

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pg.PlaneGraph, "is_simple",
                        counted("is_simple", is_simple))
    monkeypatch.setattr(pg, "find_odd_cycle",
                        counted("find_odd_cycle", find_odd_cycle))
    (planar_sequence if mode == "planar" else bipartite_sequence)(g)
    assert calls == {"is_simple": 1, "find_odd_cycle": int(mode == "bipartite")}


def components_and_colouring(g):
    """The components and a 2-colouring: an independent BFS over the edge
    list."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    comps, label, colour = [], [None] * g.n, [0] * g.n
    for s in range(g.n):
        if label[s] is None:
            label[s] = len(comps)
            queue = [s]
            for v in queue:
                for w in adj[v]:
                    if label[w] is None:
                        label[w] = len(comps)
                        colour[w] = colour[v] ^ 1
                        queue.append(w)
            comps.append(set(queue))
    return comps, colour


def check_odd_cycle(g, colour):
    """find_odd_cycle against the 2-colouring, and its witness against the
    search by BFS parent chains."""
    odd = pg.find_odd_cycle(g)
    assert pg.find_odd_cycle(g) == odd
    assert (odd is None) == all(colour[u] != colour[v] for u, v in g.edges)
    if odd is not None:
        assert len(odd) % 2 == 1
        pairs = {frozenset(e) for e in g.edges}
        assert all(frozenset((odd[i - 1], odd[i])) in pairs
                   for i in range(len(odd)))
        assert len(set(odd)) == len(odd)
        assert odd == bfs_odd_cycle(g)


def bfs_odd_cycle(g):
    """The odd cycle by the plain search: BFS 2-colouring until an edge
    joins two vertices of one colour, then both parent chains up to the
    first common vertex, found by scanning the first chain."""
    color, par = [-1] * g.n, [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        for v in queue:
            for d in g.rot[v]:
                w = g.head[d]
                if color[w] == -1:
                    color[w], par[w] = color[v] ^ 1, v
                    queue.append(w)
                elif color[w] == color[v]:
                    pa, x = [], v
                    while x != -1:
                        pa.append(x)
                        x = par[x]
                    pb, x = [], w
                    while x not in pa:
                        pb.append(x)
                        x = par[x]
                    return pa[:pa.index(x) + 1][::-1] + pb
    return None


def cycle(n):
    """The cycle C_n, vertex i joined to i + 1 by edge i."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return pg.build(n, edges, [[2 * i, 2 * ((i - 1) % n) + 1] for i in range(n)], 0)


def test_face_parity_agrees_with_a_2_colouring():
    graphs = [g for _, g in planar_atlas()]
    graphs += [thinned(gen_grid(r, c), keep, s) for r, c in ((2, 2), (5, 9), (12, 12))
               for keep in (0.0, 0.5, 0.9) for s in range(3)]
    graphs += [gen_stacked_quadrangulation(n, s) for n in (4, 9, 60, 300)
               for s in range(3)]
    graphs += [thinned(gen_stacked_quadrangulation(200, s), 0.6, s) for s in range(3)]
    graphs += [cycle(n) for n in range(3, 40)]
    graphs += [thinned(gen_triangulation(n, s), 0.5, s) for n in (10, 100)
               for s in range(5)]
    kinds = set()
    for g in graphs:
        comps, colour = components_and_colouring(g)
        check_odd_cycle(g, colour)
        kinds.add((len(comps) > 1, pg.find_odd_cycle(g) is None))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.slow
def test_odd_cycle_refusal_scales_linearly():
    import time
    # the two sizes alternate trial by trial, so that drift in machine speed
    # hits both means alike
    trials = {8001: [], 32001: []}
    for _ in range(5):
        for n, times in trials.items():
            g = cycle(n)
            t0 = time.perf_counter()
            with pytest.raises(pg.PlaneError, match="^not bipartite: odd cycle"):
                bipartite_sequence(g)
            times.append(time.perf_counter() - t0)
    small = sum(trials[8001]) / 5
    big = sum(trials[32001]) / 5
    assert big <= 6.0 * small, (small, big)


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


def test_a_parsed_graph_holds_one_int_object_per_vertex_id():
    # guards the memory of a parsed graph by object identity: the edges,
    # the per-dart ends, a BFS tree and a trigraph share one object per id,
    # and the face walks hold face_next's dart objects
    g = pg.parse_plane(pg.write_plane(gen_triangulation(10000, 0)))
    ends = {id(w) for e in g.edges for w in e}
    assert len(ends) == g.n
    assert {id(w) for w in g.tail} == ends == {id(w) for w in g.head}
    t = left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    assert {id(p) for p in t.parent if p != -1} <= ends
    sim = Trigraph(g.n, g.edges)
    assert {id(w) for b in sim.black for w in b} == ends
    assert ({id(d) for walk in g.faces for d in walk}
            == {id(d) for d in g.face_next})


def test_a_parsed_graph_holds_no_face_walks():
    # the faces are face_next's orbits, traced on demand; rot is the one
    # list of lists a graph keeps
    text = pg.write_plane(gen_triangulation(10000, 0))
    tracemalloc.start()
    try:
        g = pg.parse_plane(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [k for k, v in vars(g).items()
            if isinstance(v, list) and v and isinstance(v[0], list)] == ["rot"]
    # 748 B per vertex on CPython 3.11.7, 988 with every walk stored; the
    # cap leaves 7% for other interpreter builds
    assert held / g.n < 800


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


@pytest.mark.parametrize("text, msg", [
    ("e 0 0 1\np plane 2 1\n",
     "line 1: 'e 0 0 1': edge before the 'p plane' header"),
    ("r 0 0\np plane 2 1\n",
     "line 1: 'r 0 0': rotation before the 'p plane' header"),
], ids=["edge", "rotation"])
def test_parse_plane_rejects_records_before_the_header(text, msg):
    with pytest.raises(pg.FormatError, match=re.escape(msg)):
        pg.parse_plane(text)


PLANE = "p plane 2 1\ne 0 0 1\nr 0 0\nr 1 0\nouter 0 0\n"


@pytest.mark.parametrize("parse, text, line", [
    (pg.parse_plane, PLANE.replace("p plane 2 1", "p plane 2 1 3"), 1),
    (pg.parse_plane, PLANE.replace("e 0 0 1", "e 0 0 1 junk"), 2),
    (pg.parse_plane, PLANE.replace("outer 0 0", "outer 0 1 9"), 5),
    (pg.parse_edge_list, "p edge 2 1 x\ne 0 1\n", 1),
    (pg.parse_edge_list, "p edge 2 1\ne 0 1 1\n", 2),
    (parse_seq, "p tww-seq 2 1 0\nk 0 1 2\n", 1),
    (parse_seq, "p tww-seq 2 1\nk 0 1 2 9\n", 2),
], ids=["plane-header", "plane-edge", "plane-outer", "edge-header",
        "edge-edge", "seq-header", "seq-contraction"])
def test_parsers_reject_trailing_fields(parse, text, line):
    bad = text.splitlines()[line - 1]
    with pytest.raises(pg.FormatError,
                       match=re.escape(f"line {line}: {bad!r}: too many")):
        parse(text)


def test_edge_list_roundtrip():
    text = pg.write_edge_list(4, [(0, 1), (2, 3)], comments=["x"])
    n, edges = pg.parse_edge_list(text)
    assert n == 4 and edges == [(0, 1), (2, 3)]


def test_embed_abstract_k4():
    g = pg.embed_abstract(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(g.faces) == 4


def _embed_inputs():
    """The platonic solids and the edge lists the CLI's ``--embed`` tests
    read, plus an edgeless and a disconnected graph."""
    out = {}
    for make in (nx.tetrahedral_graph, nx.cubical_graph, nx.octahedral_graph,
                 nx.dodecahedral_graph, nx.icosahedral_graph):
        G = make()
        out[make.__name__] = (G.number_of_nodes(),
                              sorted(tuple(sorted(e)) for e in G.edges()))
    fuzz = gen_stacked_quadrangulation(6, 0)
    out.update({"fuzz-quad": (fuzz.n, fuzz.edges),
                "path": (3, [(0, 1), (1, 2)]),
                "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
                "edgeless": (3, []),
                "two-parts": (7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])})
    return out


@pytest.mark.parametrize("name", sorted(_embed_inputs()))
def test_embed_abstract_builds_once_with_the_longest_face_outer(
        monkeypatch, name):
    n, edges = _embed_inputs()[name]
    calls = []
    real_build = pg.build

    def counting_build(*args):
        calls.append(args[0])
        return real_build(*args)

    monkeypatch.setattr(pg, "build", counting_build)
    g = pg.embed_abstract(n, edges)
    monkeypatch.undo()
    assert calls == [n]
    # the text a second build from the longest face's first dart gives
    again = pg.build(n, g.edges, g.rot, g.outer_dart)
    assert (g.faces, g.outer_face) == (again.faces, again.outer_face)
    assert pg.write_plane(g) == pg.write_plane(again)
    assert len(g.faces[g.outer_face]) == max(map(len, g.faces))


def test_embed_abstract_rejects_k5():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(pg.PlaneError, match="not planar"):
        pg.embed_abstract(5, k5)
