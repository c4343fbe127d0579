"""Combinatorial plane graphs: rotation systems, face traversal, completions.

A plane graph is stored as a rotation system: for every vertex the
counter-clockwise cyclic order of its incident darts, plus one marked
outer-face dart.  Edge ``e`` between ``u`` and ``v`` owns two darts,
``2*e`` (leaving ``u``) and ``2*e + 1`` (leaving ``v``); ``d ^ 1`` is the
reversed dart.  Faces are the orbits of ``d -> rot_prev(d ^ 1)``; every face
lies to the LEFT of its darts, so bounded faces come out counter-clockwise
and the outer face clockwise.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence


@contextmanager
def pause_gc():
    """Cyclic GC off during bulk container construction; the generational
    collector otherwise rescans the growing heap quadratically."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


class PlaneError(ValueError):
    """Invalid plane-graph data (inconsistent rotations, Euler violation...)."""


class FormatError(ValueError):
    """Malformed graph/sequence text input."""


# ---------------------------------------------------------------------------
# Core structure
# ---------------------------------------------------------------------------


@dataclass
class PlaneGraph:
    """Immutable-after-build plane (multi)graph with a rotation system.

    Attributes:
        n: number of vertices (ids 0..n-1).
        edges: edge id -> (u, v); dart 2e leaves u, dart 2e+1 leaves v.
        rot: vertex -> ccw list of darts leaving it.
        outer_dart: a dart whose left face is the outer face.

    ``build`` is the only constructor and derives the rest: per-dart
    ``tail``, ``head``, ``pos`` (index in the tail's rotation) and
    ``face_of``; the face walks ``faces`` in order of their smallest dart,
    each starting there; ``outer_face``; and ``comp``, the component id of
    every vertex (components numbered by smallest vertex), with ``ncomp``
    components.  Nothing changes after ``build``, so the whole-graph checks
    ``is_simple()`` and ``find_odd_cycle(g)`` run at most once per graph and
    keep their result on it.
    """

    n: int
    edges: list[tuple[int, int]]
    rot: list[list[int]]
    outer_dart: int

    # derived in build()
    tail: list[int] = field(default_factory=list, repr=False)
    head: list[int] = field(default_factory=list, repr=False)
    pos: list[int] = field(default_factory=list, repr=False)
    face_of: list[int] = field(default_factory=list, repr=False)
    faces: list[list[int]] = field(default_factory=list, repr=False)
    outer_face: int = -1
    comp: list[int] = field(default_factory=list, repr=False)
    ncomp: int = 0
    # whole-graph check results, filled on first use
    _simple: bool | None = field(default=None, init=False, repr=False, compare=False)
    _odd_cycle: list[int] | None = field(default=None, init=False, repr=False,
                                         compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def rev(self, d: int) -> int:
        return d ^ 1

    def rot_next(self, d: int) -> int:
        """CCW successor of dart d around its tail."""
        r = self.rot[self.tail[d]]
        return r[(self.pos[d] + 1) % len(r)]

    def rot_prev(self, d: int) -> int:
        r = self.rot[self.tail[d]]
        return r[self.pos[d] - 1]

    def next_in_face(self, d: int) -> int:
        """Next dart of the face on the left of d."""
        return self.rot_prev(d ^ 1)

    def darts_at(self, v: int) -> list[int]:
        return self.rot[v]

    def neighbors(self, v: int) -> list[int]:
        return [self.head[d] for d in self.rot[v]]

    def is_simple(self) -> bool:
        """No two edges join the same pair (``build`` rejects loops)."""
        if self._simple is None:
            n = self.n
            keys = {u * n + v if u < v else v * n + u for u, v in self.edges}
            self._simple = len(keys) == len(self.edges)
        return self._simple

    def face_lengths(self) -> list[int]:
        return [len(w) for w in self.faces]


@dataclass
class VertexMap:
    """Maps input vertex ids into a completed graph (old ids are kept)."""

    old_to_new: dict[int, int]
    added: set[int]

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls({v: v for v in range(n)}, set())

    def compose(self, later: "VertexMap") -> "VertexMap":
        return VertexMap(
            {v: later.old_to_new[w] for v, w in self.old_to_new.items()},
            set(later.added) | {later.old_to_new[w] for w in self.added},
        )


def build(n: int, edges: Sequence[tuple[int, int]], rotations: Sequence[Sequence[int]],
          outer: int) -> PlaneGraph:
    """Validate and finish a plane graph.

    ``rotations`` lists darts (not edge ids) per vertex in ccw order;
    ``outer`` is a dart with the outer face on its left.

    Raises:
        PlaneError: loop edge, dart missing/duplicated in the rotations, or
            Euler's formula failing on some component (rotation not planar).
    """
    edges = list(edges)
    m = len(edges)
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise PlaneError(f"loop edge {e} at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise PlaneError(f"edge {e} endpoint out of range")
    tail = list(chain.from_iterable(edges))  # u, v of edge e at 2e, 2e + 1
    head = tail[:]
    head[0::2], head[1::2] = tail[1::2], tail[0::2]

    if len(rotations) != n:
        raise PlaneError("rotation list count != n")
    nd = 2 * m
    pos = [-1] * nd
    nxt = [-1] * nd  # next_in_face, i.e. rot_prev(d ^ 1), per dart d
    for v, r in enumerate(rotations):
        for i, d in enumerate(r):
            if not (0 <= d < nd):
                raise PlaneError(f"unknown dart {d} at vertex {v}")
            if tail[d] != v:
                raise PlaneError(f"dart {d} listed at {v} but leaves {tail[d]}")
            if pos[d] != -1:
                raise PlaneError(f"dart {d} appears twice")
            pos[d] = i
            nxt[d ^ 1] = r[i - 1]
    if sum(map(len, rotations)) != nd:  # each listed dart is distinct and valid
        raise PlaneError("dart missing from rotations")
    if m > 0 and not (0 <= outer < nd):
        raise PlaneError("outer dart out of range")

    g = PlaneGraph(n, edges, [list(r) for r in rotations], outer if m else 0,
                   tail=tail, head=head, pos=pos)
    _trace_faces(g, nxt)
    _check_euler(g)
    return g


def _trace_faces(g: PlaneGraph, nxt: list[int]) -> None:
    # every dart sits once in the rotations, so nxt is a permutation and
    # each orbit closes on its first dart
    face_of = [-1] * len(nxt)
    walks: list[list[int]] = []
    for d0, traced in enumerate(face_of):
        if traced != -1:
            continue
        f = len(walks)
        walk = [d0]
        face_of[d0] = f
        d = nxt[d0]
        while d != d0:
            face_of[d] = f
            walk.append(d)
            d = nxt[d]
        walks.append(walk)
    g.face_of = face_of
    g.faces = walks or [[]]
    g.outer_face = face_of[g.outer_dart] if walks else 0


def _check_euler(g: PlaneGraph) -> None:
    # Labels the components, then checks Euler's formula on all of them at
    # once: an edge-bearing component has V - E + F = 2 - 2 * genus <= 2, so
    # the sums over the k such components reach 2k only if each is planar.
    # Isolated vertices are the components without edges, and no face.
    rot, head = g.rot, g.head
    comp = [-1] * g.n
    ncomp = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        comp[s] = ncomp
        stack = [s]
        while stack:
            for d in rot[stack.pop()]:
                w = head[d]
                if comp[w] == -1:
                    comp[w] = ncomp
                    stack.append(w)
        ncomp += 1
    g.comp, g.ncomp = comp, ncomp
    isolated = rot.count([])
    chi = g.n - isolated - g.m + len(g.faces)
    if g.m and chi != 2 * (ncomp - isolated):
        raise PlaneError(
            f"Euler violation: V - E + F = {chi} over {ncomp - isolated} "
            f"components with edges, planar needs {2 * (ncomp - isolated)}")


def faces(g: PlaneGraph) -> list[tuple[list[int], bool]]:
    """All face walks as dart lists, flagged outer."""
    return [(list(w), f == g.outer_face) for f, w in enumerate(g.faces)]


def face_vertices(g: PlaneGraph, f: int) -> list[int]:
    return [g.tail[d] for d in g.faces[f]]


# ---------------------------------------------------------------------------
# Incremental edge insertion into faces
# ---------------------------------------------------------------------------


class _Splicer:
    """Accumulates new vertices/edges and rebuilds rotations in one pass.

    A new dart registered with ``insert_after(d, nd)`` lands immediately
    after ``d`` in ccw order, i.e. inside the face on the left of ``d`` at
    that boundary visit.  Keyed by dart, so walks repeating a vertex get one
    wedge per visit.
    """

    def __init__(self, g: PlaneGraph):
        self.g = g
        self.n = g.n
        self.edges = list(g.edges)
        self.after: dict[int, list[int]] = {}
        self.new_rot: dict[int, list[int]] = {}
        self.tail_extra: dict[int, list[int]] = {}

    def add_vertex(self) -> int:
        v = self.n
        self.n += 1
        self.new_rot[v] = []
        return v

    def add_edge(self, u: int, v: int) -> int:
        e = len(self.edges)
        self.edges.append((u, v))
        return e

    def insert_after(self, anchor_dart: int, dart: int) -> None:
        self.after.setdefault(anchor_dart, []).append(dart)

    def attach_anywhere(self, v: int, dart: int) -> None:
        """Place a dart at an old vertex in any face (used across components)."""
        if self.g.rot[v]:
            self.insert_after(self.g.rot[v][0], dart)
        else:
            self.tail_extra.setdefault(v, []).append(dart)

    def set_new_rotation(self, v: int, darts: list[int]) -> None:
        self.new_rot[v] = darts

    def finalize(self, outer: int) -> PlaneGraph:
        rotations: list[list[int]] = []
        for v in range(self.g.n):
            r: list[int] = []
            for d in self.g.rot[v]:
                r.append(d)
                r.extend(self.after.get(d, ()))
            r.extend(self.tail_extra.get(v, ()))
            rotations.append(r)
        for v in range(self.g.n, self.n):
            rotations.append(self.new_rot[v])
        return build(self.n, self.edges, rotations, outer)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def connected_components(g: PlaneGraph) -> list[list[int]]:
    """Vertex lists of the components, ordered by smallest vertex, each
    ascending; grouped from the labels ``build`` derived."""
    out: list[list[int]] = [[] for _ in range(g.ncomp)]
    for v, c in enumerate(g.comp):
        out[c].append(v)
    return out


def connect_components(g: PlaneGraph) -> tuple[PlaneGraph, VertexMap]:
    """Join all components with fresh degree-2 vertices (one per merge).

    Each merge re-embeds the next component inside a face of the anchor
    drawing; the new vertices create no cycle, so bipartiteness survives.
    """
    if g.ncomp == 1:
        return g, VertexMap.identity(g.n)
    comps = connected_components(g)
    anchor_idx = g.comp[g.tail[g.outer_dart]] if g.m else 0
    base = min(comps[anchor_idx])

    sp = _Splicer(g)
    added: set[int] = set()
    outer = g.outer_dart if g.m else None
    for ci, comp_vs in enumerate(comps):
        if ci == anchor_idx:
            continue
        b = min(comp_vs)
        w = sp.add_vertex()
        added.add(w)
        e1 = sp.add_edge(base, w)
        e2 = sp.add_edge(b, w)
        sp.attach_anywhere(base, 2 * e1)
        sp.attach_anywhere(b, 2 * e2)
        sp.set_new_rotation(w, [2 * e1 + 1, 2 * e2 + 1])
        if outer is None:
            outer = 2 * e1
    g2 = sp.finalize(outer if outer is not None else 0)
    return g2, VertexMap({v: v for v in range(g.n)}, added)


# ---------------------------------------------------------------------------
# Bipartiteness
# ---------------------------------------------------------------------------


def two_coloring(g: PlaneGraph) -> list[int] | None:
    """2-coloring, or None if an odd cycle exists."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        for v in queue:
            for d in g.rot[v]:
                w = g.head[d]
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def find_odd_cycle(g: PlaneGraph) -> list[int] | None:
    """An odd cycle as a vertex list, or None if bipartite; searched once
    per graph, later calls return the kept result."""
    if g._odd_cycle is None:
        g._odd_cycle = _search_odd_cycle(g)
    return list(g._odd_cycle) or None


def _search_odd_cycle(g: PlaneGraph) -> list[int]:
    """An odd cycle, or [] if bipartite."""
    color = [-1] * g.n
    par = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        for v in queue:
            for d in g.rot[v]:
                w = g.head[d]
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    par[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    pa = []
                    x = v
                    while x != -1:
                        pa.append(x)
                        x = par[x]
                    pb = []
                    x = w
                    while x not in pa:
                        pb.append(x)
                        x = par[x]
                    i = pa.index(x)
                    return pa[:i + 1][::-1] + pb  # x .. v, then w .. back below x
    return []


# ---------------------------------------------------------------------------
# Triangulation / quadrangulation
# ---------------------------------------------------------------------------


def _walk_has_repeats(g: PlaneGraph, walk: list[int]) -> bool:
    vs = [g.tail[d] for d in walk]
    return len(set(vs)) != len(vs)


def _is_quad(tail: list[int], walk: list[int]) -> bool:
    """Whether a face walk of a simple plane graph bounds a 4-cycle.
    Consecutive corners differ (no loops), so only opposite ones can
    coincide; for the same reason every 3-walk bounds a triangle."""
    return (len(walk) == 4 and tail[walk[0]] != tail[walk[2]]
            and tail[walk[1]] != tail[walk[3]])


def triangulate(g0: PlaneGraph) -> tuple[PlaneGraph, VertexMap]:
    """Complete a simple connected plane graph to a simple plane triangulation.

    Only new-to-old and new-to-new edges are added, so ``g0`` stays induced.
    Simple-cycle faces get one apex; faces whose boundary walk repeats a
    vertex (trees, cut vertices) get a ring of |walk| new vertices matched to
    walk positions plus an apex.  The outer face is completed like any other
    and the marker moves onto one of its new triangles.
    """
    if not g0.is_simple():
        raise PlaneError("triangulate requires a simple graph")
    if g0.ncomp != 1:
        raise PlaneError("triangulate requires a connected graph (use connect_components)")
    g1 = _split_order2_faces(g0)
    if g1 is g0 and set(map(len, g1.faces)) == {3}:
        return g0, VertexMap.identity(g0.n)  # already a triangulation

    sp = _Splicer(g1)
    outer = g1.outer_dart
    for f, walk in enumerate(g1.faces):
        if len(walk) == 3:  # a triangle, see _is_quad
            continue
        if not _walk_has_repeats(g1, walk):
            apex = _stellate(sp, walk, g1)
            if f == g1.outer_face:
                outer = sp.new_rot[apex][0]  # left face: triangle (w0, w1, apex)
        else:
            x0 = _ring_and_apex(sp, walk, g1)
            if f == g1.outer_face:
                outer = sp.new_rot[x0][0]  # spoke x0->w0; left face (w0, w1, x0)
    g = sp.finalize(outer)
    vm = VertexMap({v: v for v in range(g0.n)}, set(range(g0.n, g.n)))
    _validate_triangulation(g, g0, vm)
    return g, vm


def _split_order2_faces(g: PlaneGraph) -> PlaneGraph:
    """Kill faces of walk length < 3 (the lone-vertex and single-edge cases)
    by adding one helper vertex; keeps old adjacency untouched."""
    if g.n == 1:
        # wrap the vertex in a path 1-0-2 so the face walk has length 4
        return build(3, [(0, 1), (0, 2)], [[0, 2], [1], [3]], 0)
    if g.m == 1 and g.n == 2:
        u, v = g.edges[0]
        # pendant at u: face walk becomes (v,u,p,u), length 4
        rot_u = [g.rot[u][0], 2]
        rots = [[], []]
        rots[u] = rot_u
        rots[v] = g.rot[v]
        return build(3, [g.edges[0], (u, 2)], rots + [[3]], g.outer_dart)
    return g


def _stellate(sp: _Splicer, walk: list[int], g: PlaneGraph) -> int:
    """One apex joined to every vertex of a simple face walk."""
    apex = sp.add_vertex()
    spokes = []
    for d in walk:
        w = g.tail[d]
        e = sp.add_edge(w, apex)
        sp.insert_after(d, 2 * e)
        spokes.append(2 * e + 1)
    sp.set_new_rotation(apex, spokes)
    return apex


def _ring_and_apex(sp: _Splicer, walk: list[int], g: PlaneGraph) -> int:
    """Ring of |walk| new vertices (spoke x_i-w_i, diagonal x_i-w_{i+1}) and
    a stellating apex inside; every strip face is a triangle on a distinct
    boundary dart, so repeated boundary vertices are fine."""
    m = len(walk)
    ring = [sp.add_vertex() for _ in range(m)]
    rd: dict[tuple[int, int], int] = {}
    for i in range(m):
        e = sp.add_edge(ring[i], ring[(i + 1) % m])
        rd[(i, (i + 1) % m)] = 2 * e
        rd[((i + 1) % m, i)] = 2 * e + 1
    spoke = []
    diag = []
    for i, d in enumerate(walk):
        w = g.tail[d]
        es = sp.add_edge(w, ring[i])
        ed = sp.add_edge(w, ring[(i - 1) % m])
        sp.insert_after(d, 2 * es)  # spoke first, then diagonal back
        sp.insert_after(d, 2 * ed)
        spoke.append(2 * es + 1)
        diag.append(2 * ed + 1)
    apex = sp.add_vertex()
    apex_darts = []
    for i in range(m):
        e = sp.add_edge(apex, ring[i])
        apex_darts.append(2 * e)
        sp.set_new_rotation(ring[i], [
            spoke[i],
            diag[(i + 1) % m],
            rd[(i, (i + 1) % m)],
            2 * e + 1,
            rd[(i, (i - 1) % m)],
        ])
    sp.set_new_rotation(apex, apex_darts)
    return ring[0]


def _validate_triangulation(g: PlaneGraph, g0: PlaneGraph, vm: VertexMap) -> None:
    if not g.is_simple():
        raise PlaneError("triangulation is not simple")
    if set(map(len, g.faces)) != {3}:  # simple, so 3-walks are triangles
        raise PlaneError("non-triangular face after triangulation")
    _check_induced(g, g0, vm)


def _check_induced(g: PlaneGraph, g0: PlaneGraph, vm: VertexMap) -> None:
    n_old = len(vm.old_to_new)
    old = {(min(u, v), max(u, v)) for u, v in g0.edges if u < n_old and v < n_old}
    got = {(min(u, v), max(u, v)) for u, v in g.edges if u < n_old and v < n_old}
    if old != got:
        raise PlaneError("completion changed the induced subgraph on old vertices")


def quadrangulate(g0: PlaneGraph) -> tuple[PlaneGraph, VertexMap]:
    """Complete a simple connected bipartite plane graph to a simple
    2-connected plane quadrangulation.

    Every face that is not a simple 4-cycle receives a ring cycle matched to
    its boundary-walk positions (spokes x_i-v_i) plus one hub joined to
    alternate ring vertices, yielding quadrilateral strip and hub faces.
    """
    if not g0.is_simple():
        raise PlaneError("quadrangulate requires a simple graph")
    if g0.ncomp != 1:
        raise PlaneError("quadrangulate requires a connected graph")
    odd = find_odd_cycle(g0)
    if odd is not None:
        raise PlaneError(f"not bipartite: odd cycle {odd}")
    g1 = _split_order2_faces(g0)
    tail = g1.tail
    if g1 is g0 and all(_is_quad(tail, w) for w in g1.faces):
        return g0, VertexMap.identity(g0.n)  # already a quadrangulation
    sp = _Splicer(g1)
    outer = g1.outer_dart
    for f, walk in enumerate(g1.faces):
        if _is_quad(tail, walk):
            continue
        x0 = _quad_ring(sp, walk, g1)
        if f == g1.outer_face:
            outer = sp.new_rot[x0][0]  # spoke x0->v0; left face (v0, v1, x1, x0)
    g = sp.finalize(outer)
    vm = VertexMap({v: v for v in range(g0.n)}, set(range(g0.n, g.n)))
    _validate_quadrangulation(g, g0, vm)
    return g, vm


def _quad_ring(sp: _Splicer, walk: list[int], g: PlaneGraph) -> int:
    m = len(walk)  # even: bipartite face walks have even length
    ring = [sp.add_vertex() for _ in range(m)]
    rd: dict[tuple[int, int], int] = {}
    for i in range(m):
        e = sp.add_edge(ring[i], ring[(i + 1) % m])
        rd[(i, (i + 1) % m)] = 2 * e
        rd[((i + 1) % m, i)] = 2 * e + 1
    spoke = []
    for i, d in enumerate(walk):
        e = sp.add_edge(g.tail[d], ring[i])
        sp.insert_after(d, 2 * e)
        spoke.append(2 * e + 1)
    hub = sp.add_vertex()
    hub_darts = []
    hub_dart_of: dict[int, int] = {}
    for i in range(1, m, 2):
        e = sp.add_edge(hub, ring[i])
        hub_darts.append(2 * e)
        hub_dart_of[i] = 2 * e + 1
    sp.set_new_rotation(hub, hub_darts)
    for i in range(m):
        r = [spoke[i], rd[(i, (i + 1) % m)]]
        if i % 2 == 1:
            r.append(hub_dart_of[i])
        r.append(rd[(i, (i - 1) % m)])
        sp.set_new_rotation(ring[i], r)
    return ring[0]


def _validate_quadrangulation(g: PlaneGraph, g0: PlaneGraph, vm: VertexMap) -> None:
    if not g.is_simple():
        raise PlaneError("quadrangulation is not simple")
    if not all(_is_quad(g.tail, w) for w in g.faces):
        raise PlaneError("non-quadrangular face after quadrangulation")
    if two_coloring(g) is None:
        raise PlaneError("quadrangulation lost bipartiteness")
    _check_induced(g, g0, vm)
    if g.n >= 3 and articulation_points(g):
        raise PlaneError("quadrangulation is not 2-connected")


def articulation_points(g: PlaneGraph) -> list[int]:
    """Cut vertices via iterative lowpoint DFS (independent validator)."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[int] = set()
    timer = 0
    for s in range(g.n):
        if disc[s] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int, int]] = [(s, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i == 0:
                disc[v] = low[v] = timer
                timer += 1
            if i < len(g.rot[v]):
                stack.append((v, parent, i + 1))
                w = g.head[g.rot[v][i]]
                if disc[w] == -1:
                    if v == s:
                        root_children += 1
                    stack.append((w, v, 0))
                elif w != parent:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if v != s and parent != s and low[v] >= disc[parent]:
                        out.add(parent)
        if root_children > 1:
            out.add(s)
    return sorted(out)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def write_plane(g: PlaneGraph, comments: Iterable[str] = ()) -> str:
    """Bit-exact plane-graph text format."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p plane {g.n} {g.m}")
    for e, (u, v) in enumerate(g.edges):
        lines.append(f"e {e} {u} {v}")
    for v in range(g.n):
        eids = " ".join(str(d >> 1) for d in g.rot[v])
        lines.append(f"r {v} {eids}".rstrip())
    if g.m:
        lines.append(f"outer {g.outer_dart >> 1} {g.tail[g.outer_dart]}")
    return "\n".join(lines) + "\n"


@pause_gc()
def parse_plane(text: str) -> PlaneGraph:
    n = m = -1
    edges: list[tuple[int, int] | None] = []
    rot_eids: dict[int, list[int]] = {}
    outer_spec: tuple[int, int] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if parts[1] != "plane":
                    raise FormatError("expected 'p plane'")
                n, m = int(parts[2]), int(parts[3])
                edges = [None] * m
            elif parts[0] == "e":
                e, u, v = int(parts[1]), int(parts[2]), int(parts[3])
                if not 0 <= e < m:
                    raise FormatError(f"edge id {e} outside 0..{m - 1}")
                if edges[e] is not None:
                    raise FormatError(f"second record for edge {e}")
                edges[e] = (u, v)
            elif parts[0] == "r":
                rot_eids[int(parts[1])] = [int(x) for x in parts[2:]]
            elif parts[0] == "outer":
                outer_spec = (int(parts[1]), int(parts[2]))
            else:
                raise FormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError, FormatError) as exc:
            raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p plane' header")
    if None in edges:
        raise FormatError("missing edge record")
    rotations: list[list[int]] = []
    for v in range(n):
        darts = []
        seen: dict[int, int] = {}
        for eid in rot_eids.get(v, []):
            if not 0 <= eid < m:
                raise FormatError(f"rotation at {v}: unknown edge {eid}")
            u0, v0 = edges[eid]
            k = seen.get(eid, 0)
            seen[eid] = k + 1
            if k == 0:
                if u0 == v:
                    darts.append(2 * eid)
                elif v0 == v:
                    darts.append(2 * eid + 1)
                else:
                    raise FormatError(f"edge {eid} not incident to {v}")
            elif k == 1:
                # an eid twice at v: both darts of the edge, in list order
                darts.append(2 * eid + (1 if darts.count(2 * eid) else 0))
            else:
                raise FormatError(f"edge {eid} listed more than twice at {v}")
        rotations.append(darts)
    if m == 0:
        return build(n, edges, rotations, 0)
    if outer_spec is None:
        raise FormatError("missing 'outer' record")
    eid, v = outer_spec
    u0, v0 = edges[eid]
    if u0 == v:
        outer = 2 * eid
    elif v0 == v:
        outer = 2 * eid + 1
    else:
        raise FormatError("outer record not incident to its vertex")
    return build(n, edges, rotations, outer)


# ---------------------------------------------------------------------------
# Plain edge lists and the embedding convenience
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS-style ``p edge n m`` / ``e u v`` (0-based) input."""
    n = -1
    edges: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                n = int(parts[2])
            elif parts[0] == "e":
                u, v = int(parts[1]), int(parts[2])
                if not (0 <= u < n and 0 <= v < n):
                    raise FormatError(f"endpoint outside 0..{n - 1}" if n >= 0
                                      else "edge before the 'p edge' header")
                edges.append((u, v))
            else:
                raise FormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p edge' header")
    return n, edges


def write_edge_list(n: int, edges: Sequence[tuple[int, int]],
                    comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def embed_abstract(n: int, edges: Sequence[tuple[int, int]]) -> PlaneGraph:
    """Planar-embed an abstract simple graph (unoptimized convenience,
    no performance guarantee).  Raises PlaneError if not planar."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    ok, emb = nx.check_planarity(G)
    if not ok:
        raise PlaneError("graph is not planar")
    eidx: dict[tuple[int, int], int] = {}
    elist: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(edges):
        eidx[(u, v)] = 2 * i
        eidx[(v, u)] = 2 * i + 1
        elist.append((u, v))
    rotations: list[list[int]] = []
    for v in range(n):
        if G.degree(v):
            nbrs = list(emb.neighbors_cw_order(v))
        else:
            nbrs = []
        # networkx hands out clockwise order; our convention is ccw
        rotations.append([eidx[(v, w)] for w in reversed(nbrs)])
    g = build(n, elist, rotations, 0 if elist else 0)
    best = max(range(len(g.faces)), key=lambda f: len(g.faces[f]))
    if g.faces[best]:
        g = build(n, elist, rotations, g.faces[best][0])
    return g
