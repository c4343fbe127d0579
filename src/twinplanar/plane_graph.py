"""Combinatorial plane graphs: rotation systems, face traversal, completions.

A plane graph is stored as a rotation system: for every vertex the
counter-clockwise cyclic order of its incident darts, plus one marked
outer-face dart.  Edge ``e`` between ``u`` and ``v`` owns two darts,
``2*e`` (leaving ``u``) and ``2*e + 1`` (leaving ``v``); ``d ^ 1`` is the
reversed dart.  The next dart of the face on the left of ``d`` is the
rotation predecessor of ``d ^ 1`` at its tail (``face_next``); faces are
the orbits of that map, and every face lies to the LEFT of its darts, so
bounded faces come out counter-clockwise and the outer face clockwise.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import ne
from typing import Iterable, Iterator, Sequence


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
    ``face_next`` (the next dart of the face on the dart's left); per face,
    faces numbered in order of their smallest dart, ``face_len``, the
    length of its walk; ``outer_face``, the outer face's number; and
    ``comp``, the component id of every vertex (components numbered by
    smallest vertex), with ``ncomp`` components.

    The faces themselves are the orbits of ``face_next`` and are not
    stored: ``faces`` and ``outer_walk`` trace walks on demand.
    """

    n: int
    edges: list[tuple[int, int]]
    rot: list[list[int]]
    outer_dart: int

    # derived in build()
    tail: list[int] = field(default_factory=list, repr=False)
    head: list[int] = field(default_factory=list, repr=False)
    pos: list[int] = field(default_factory=list, repr=False)
    face_next: list[int] = field(default_factory=list, repr=False)
    face_len: list[int] = field(default_factory=list, repr=False)
    outer_face: int = -1
    comp: list[int] = field(default_factory=list, repr=False)
    ncomp: int = 0

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def faces(self) -> list[list[int]]:
        """Every face walk, traced from ``face_next``: in order of the
        faces' smallest darts, each starting there and holding
        ``face_next``'s int objects (``[[]]`` without edges).  Costs a pass
        over all darts on every access; the pipeline never reads it."""
        return list(_walks(self.face_next, range(len(self.face_next)))) or [[]]

    def outer_walk(self) -> list[int]:
        """``faces[outer_face]``, tracing the outer face alone."""
        if not self.face_next:
            return []
        walk = _walk(self.face_next, self.outer_dart)
        i = walk.index(min(walk))
        return walk[i:] + walk[:i]

    def rot_next(self, d: int) -> int:
        """CCW successor of dart d around its tail."""
        r = self.rot[self.tail[d]]
        return r[(self.pos[d] + 1) % len(r)]

    def is_simple(self) -> bool:
        """No two edges join the same pair (``build`` rejects loops)."""
        n = self.n
        keys = {u * n + v if u < v else v * n + u for u, v in self.edges}
        return len(keys) == len(self.edges)


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
    nxt = [-1] * nd  # face_next: the rotation predecessor of d ^ 1
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
                   tail=tail, head=head, pos=pos, face_next=nxt)
    _trace_faces(g, nxt)
    _check_euler(g)
    return g


def _walk(nxt: list[int], d0: int) -> list[int]:
    """The orbit of dart d0 under ``nxt``, starting at d0.  It holds
    ``nxt``'s own int objects: d0 is the entry that closes the orbit."""
    walk = []
    d = nxt[d0]
    while d != d0:
        walk.append(d)
        d = nxt[d]
    walk.insert(0, d)
    return walk


def _walks(nxt: list[int], darts: Iterable[int]) -> Iterator[list[int]]:
    """The walks of the faces through ``darts``, an ascending run of darts,
    each from the first of them it holds (``_walk``) and traced once."""
    seen = bytearray(len(nxt))
    for d0 in darts:
        if not seen[d0]:
            walk = _walk(nxt, d0)
            for d in walk:
                seen[d] = 1
            yield walk


def _trace_faces(g: PlaneGraph, nxt: list[int]) -> None:
    # every dart sits once in the rotations, so nxt is a permutation and
    # each orbit closes on its first dart; faces are numbered as their
    # smallest darts come up, the outer one when its smallest dart does
    seen = bytearray(len(nxt))
    lens: list[int] = []
    outer_first = min(_walk(nxt, g.outer_dart)) if nxt else 0
    g.outer_face = 0
    for d0 in range(len(nxt)):
        if seen[d0]:
            continue
        if d0 == outer_first:
            g.outer_face = len(lens)
        k = 1
        seen[d0] = 1
        d = nxt[d0]
        while d != d0:
            seen[d] = 1
            k += 1
            d = nxt[d]
        lens.append(k)
    g.face_len = lens or [0]


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
    chi = g.n - isolated - g.m + len(g.face_len)
    if g.m and chi != 2 * (ncomp - isolated):
        raise PlaneError(
            f"Euler violation: V - E + F = {chi} over {ncomp - isolated} "
            f"components with edges, planar needs {2 * (ncomp - isolated)}")


# ---------------------------------------------------------------------------
# Incremental edge insertion into faces
# ---------------------------------------------------------------------------


class _Splicer:
    """Accumulates new vertices/edges and rebuilds rotations in one pass.

    Starts from the rotation system ``rot`` of ``n`` vertices joined by
    ``edges``, raw lists that it reads and never changes.  A new dart
    registered with ``insert_after(d, nd)`` lands immediately after ``d`` in
    ccw order, i.e. inside the face on the left of ``d`` at that boundary
    visit.  Keyed by dart, so walks repeating a vertex get one wedge per
    visit.

    ``finalize`` consumes the splicer: it drops the maps of new darts and
    rotations before the one ``build``, so they are not held alongside
    the graph it builds.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 rot: Sequence[Sequence[int]]):
        self.n0 = self.n = n
        self.rot = rot
        self.edges = list(edges)
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
        if self.rot[v]:
            self.insert_after(self.rot[v][0], dart)
        else:
            self.tail_extra.setdefault(v, []).append(dart)

    def set_new_rotation(self, v: int, darts: list[int]) -> None:
        self.new_rot[v] = darts

    def finalize(self, outer: int) -> PlaneGraph:
        after, new_rot, tail_extra = self.after, self.new_rot, self.tail_extra
        self.after = self.new_rot = self.tail_extra = None
        rotations: list[list[int]] = []
        for v in range(self.n0):
            r: list[int] = []
            for d in self.rot[v]:
                r.append(d)
                r.extend(after.get(d, ()))
            r.extend(tail_extra.get(v, ()))
            rotations.append(r)
        rotations.extend(new_rot[v] for v in range(self.n0, self.n))
        del after, new_rot, tail_extra  # not held while build runs
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


def connect_components(g: PlaneGraph) -> tuple[PlaneGraph, range]:
    """Join all components with fresh degree-2 vertices (one per merge).

    Each merge re-embeds the next component inside a face of the anchor
    drawing; the new vertices add no cycle and no repeated pair, so the
    result is simple (bipartite) exactly when ``g`` is, and the completions
    decide both on it.  Like the completions below, it keeps ``g``'s vertex
    and edge ids and returns the ids it appended; a connected ``g`` comes
    back as it is.  A graph without vertices raises ``PlaneError``: this is
    the builders' one refusal of empty input.
    """
    if g.n == 0:
        raise PlaneError("empty graph: nothing to connect")
    if g.ncomp == 1:
        return g, range(g.n, g.n)
    comps = connected_components(g)
    anchor_idx = g.comp[g.tail[g.outer_dart]] if g.m else 0
    base = min(comps[anchor_idx])

    sp = _Splicer(g.n, g.edges, g.rot)
    outer = g.outer_dart if g.m else None
    for ci, comp_vs in enumerate(comps):
        if ci == anchor_idx:
            continue
        b = min(comp_vs)
        w = sp.add_vertex()
        e1 = sp.add_edge(base, w)
        e2 = sp.add_edge(b, w)
        sp.attach_anywhere(base, 2 * e1)
        sp.attach_anywhere(b, 2 * e2)
        sp.set_new_rotation(w, [2 * e1 + 1, 2 * e2 + 1])
        if outer is None:
            outer = 2 * e1
    g2 = sp.finalize(outer if outer is not None else 0)
    return g2, range(g.n, g2.n)


# ---------------------------------------------------------------------------
# Bipartiteness
# ---------------------------------------------------------------------------


def find_odd_cycle(g: PlaneGraph) -> list[int] | None:
    """An odd cycle as a vertex list, or None if bipartite.  Face walks
    span the cycle space mod 2, so only a graph with an odd face is
    searched."""
    if not any(k & 1 for k in g.face_len):
        return None
    return _search_odd_cycle(g)


def _search_odd_cycle(g: PlaneGraph) -> list[int] | None:
    """An odd cycle, or None if bipartite."""
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
                    at = {}  # v's ancestors -> position
                    x = v
                    while x != -1:
                        at[x] = len(at)
                        x = par[x]
                    pb = []
                    x = w
                    while x not in at:
                        pb.append(x)
                        x = par[x]
                    return list(at)[at[x]::-1] + pb  # x .. v, then w .. back below x
    return None


# ---------------------------------------------------------------------------
# Triangulation / quadrangulation
# ---------------------------------------------------------------------------


def _is_complete(g: PlaneGraph, k: int) -> bool:
    """Whether every face of a connected simple plane graph bounds a
    k-cycle, for k = 3 (a triangulation) or 4 (a quadrangulation).

    This is the completion rule, and ``_open_walks`` applies it face by
    face: once m > 2, a face bounds a k-cycle exactly when its walk has
    length k.  Consecutive corners of a walk differ (no loops), so a 3-walk
    bounds a triangle, and only opposite corners of a 4-walk d0 d1 d2 d3
    can coincide.  Say tail(d0) = tail(d2) = v.  Then d1 runs back along
    d0's edge, so d1 = d0 ^ 1 (the graph is simple) and head(d0) is a leaf;
    so is head(d2), as d3 = d2 ^ 1; and as face_next(d3) = d0, v's rotation
    is d0, d2 alone.  The graph is then P3, with m = 2.
    """
    return g.m > 2 and set(g.face_len) == {k}


def _open_walks(g: PlaneGraph, k: int) -> Iterator[list[int]]:
    """The walks of the faces that fail ``_is_complete(g, k)``'s rule, in
    order of their smallest darts, each starting there; only they are
    traced.  A dart whose face has length k is one that ``face_next`` to
    the power k fixes (no face has length 1, and with m > 2 in a connected
    graph none has length 2), and with m <= 2 every face is open."""
    nxt = g.face_next
    darts = range(len(nxt))
    if g.m > 2:
        power = nxt
        for _ in range(k - 1):
            power = list(map(nxt.__getitem__, power))
        darts = compress(darts, map(ne, power, darts))
    return _walks(nxt, darts)


def _complete_faces(g0: PlaneGraph, what: str, k: int, fill) -> tuple[PlaneGraph, range]:
    """Complete a simple connected plane graph to one whose faces all bound
    k-cycles, filling every face that does not (``_open_walks``,
    ``_fill_faces``).  ``g0``'s vertex and edge ids are kept and the new
    ones appended; returns the completion and the appended vertex ids,
    ``g0`` itself when it is already complete.  A non-simple ``g0`` raises
    ``PlaneError``; the builders refuse multigraphs here and nowhere else.
    ``_split_order2_faces`` adds only edges with a new end, so ``g0`` stays
    induced when the graph handed to the driver does.
    """
    if not g0.is_simple():
        raise PlaneError(f"{what} requires a simple graph")
    if g0.ncomp != 1:
        raise PlaneError(f"{what} requires a connected graph (use connect_components)")
    g1 = _split_order2_faces(g0)
    if g1 is g0 and _is_complete(g0, k):
        return g0, range(g0.n, g0.n)  # already complete
    g = _fill_faces(g1.n, g1.edges, g1.rot, g1.tail, _open_walks(g1, k),
                    g1.outer_dart, what, k, fill)
    return g, range(g0.n, g.n)


def _fill_faces(n0: int, edges: list[tuple[int, int]], rot: Sequence[Sequence[int]],
                tail: list[int], walks: Iterable[list[int]], outer: int,
                what: str, k: int, fill) -> PlaneGraph:
    """Build the completion of a simple connected plane graph given as raw
    data: ``n0`` vertices, ``edges``, rotations ``rot``, per-dart ``tail``
    and ``outer`` dart.  ``walks`` yields the walks of the faces that do
    not bound k-cycles, each starting at its smallest dart, in order of
    those darts; every face left out must bound one.

    Each walk gets ``fill(sp, walk, tail)``.  A fill adds new vertices
    inside the face only and returns one whose first rotation dart has a
    new face on its left; when the walk is the outer face's, the outer
    marker moves there.  Triangles come from the arc fill, one apex per
    simple arc of the walk (``_fill_triangles``); quadrangles from a ring
    per corner and a hub (``_quad_ring``).  Each new edge has a new end,
    and its dart at an old vertex is keyed by the boundary dart it follows,
    so a walk that visits a vertex twice gets its spokes in the right wedge.

    The one ``build`` keeps the input's vertex and edge ids and appends the
    new ones; each postcondition is decided once:

    * the input induced: its edges come first and every appended edge has a
      new end;
    * simple: the input is, and an edge with a new end repeats no old edge,
      so only the appended edges are compared with each other;
    * complete: the result is connected and passes ``_is_complete``.
    """
    sp = _Splicer(n0, edges, rot)
    for walk in walks:
        x = fill(sp, walk, tail)
        if outer in walk:  # once moved, the marker is in no old walk
            outer = sp.new_rot[x][0]
    g = sp.finalize(outer)
    n, m0 = g.n, len(edges)
    appended = g.edges[m0:]
    if g.edges[:m0] != edges or any(u < n0 and v < n0 for u, v in appended):
        raise PlaneError("completion changed the induced subgraph on old vertices")
    keys = {u * n + v if u < v else v * n + u for u, v in appended}
    if len(keys) != len(appended):
        raise PlaneError(f"{what} result is not simple")
    if g.ncomp != 1 or not _is_complete(g, k):
        raise PlaneError(f"incomplete face after {what}")
    return g


def triangulate(g0: PlaneGraph) -> tuple[PlaneGraph, range]:
    """Complete a simple connected plane graph to a simple plane triangulation.

    Only new-to-old and new-to-new edges are added, so ``g0`` stays induced.
    A face is cut into arcs, consecutive runs of its boundary walk that
    repeat no vertex, and each arc gets one apex joined to all of its
    corners (``_fill_triangles``).  A simple-cycle face is one arc, so one
    apex; a face whose walk repeats a vertex (trees, bridges, cut vertices)
    gets k >= 3 apexes in a cycle, plus a hub when k > 3.  A stacked
    triangulation that keeps 45% of its edges completes to about 1.9 times
    its vertices.  The outer face is completed like any other and the
    marker moves onto one of its new triangles.
    """
    return _complete_faces(g0, "triangulate", 3, _fill_triangles)


def quadrangulate(g0: PlaneGraph) -> tuple[PlaneGraph, range]:
    """Complete a simple connected bipartite plane graph to a simple
    2-connected plane quadrangulation.

    Every face that is not a simple 4-cycle receives a ring cycle matched to
    its boundary-walk positions (spokes x_i-v_i) plus one hub joined to
    alternate ring vertices, yielding quadrilateral strip and hub faces.

    ``_complete_faces`` decides simple, induced, connected and every face a
    4-cycle; those stand for the rest.  In a connected plane graph whose
    faces are all 4-cycles, the face walks span the cycle space mod 2, so
    every cycle is even and the graph is bipartite; and a cut vertex would
    appear twice on the walk of a face it separates, so the graph is
    2-connected.  A ``g0`` with an odd cycle raises ``PlaneError``; the
    bipartite builder refuses non-bipartite input here and nowhere else.
    """
    odd = find_odd_cycle(g0)
    if odd is not None:
        raise PlaneError(f"not bipartite: odd cycle {odd}")
    return _complete_faces(g0, "quadrangulate", 4, _quad_ring)


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


def _ring(sp: _Splicer, m: int) -> tuple[list[int], list[int]]:
    """A cycle of m new vertices x_0..x_{m-1}; returns them and, per i, the
    dart x_i -> x_{i+1} (so ``fwd[i - 1] ^ 1`` is x_i -> x_{i-1})."""
    ring = [sp.add_vertex() for _ in range(m)]
    fwd = [2 * sp.add_edge(ring[i], ring[(i + 1) % m]) for i in range(m)]
    return ring, fwd


def _arc_starts(vs: list[int]) -> list[int]:
    """Cut the closed walk with corners ``vs`` into arcs that repeat no
    vertex.  Arc j runs from corner ``starts[j]`` to the next start, both
    included, and the last one to corner ``len(vs)``, which closes the walk
    at ``vs[0]``.  A simple walk is one arc; any other walk is cut greedily
    from corner 0, and the longer of two arcs is halved, so that there are
    at least three."""
    m = len(vs)
    if len(set(vs)) == m:
        return [0]
    starts = [0]
    seen = {vs[0]}
    for i in range(1, m + 1):
        v = vs[i] if i < m else vs[0]
        if v in seen:  # arc ends at corner i - 1, the next one starts there
            starts.append(i - 1)
            seen = {vs[i - 1], v}
        else:
            seen.add(v)
    if len(starts) == 2:  # m >= 4, so the longer arc has an inner corner
        mid = starts[1]
        if 2 * mid >= m:
            starts.insert(1, mid // 2)
        else:
            starts.append((mid + m) // 2)
    return starts


def _fill_triangles(sp: _Splicer, walk: list[int], tail: list[int]) -> int:
    """Triangulate one face with one new apex per arc (``_arc_starts``).

    Apex a_j is joined to every corner of arc j, giving a triangle on each
    boundary dart; consecutive apexes share the corner between their arcs,
    are joined in a cycle and close a triangle at that corner; a hub joined
    to every apex fills the cycle when there are more than three, and three
    already bound a face.  A simple walk is one arc: a single apex and no
    cycle.  Returns a_0, whose first dart is the spoke a_0->w_0 with
    (w0, w1, a0) on its left."""
    starts = _arc_starts([tail[d] for d in walk])
    k = len(starts)
    apexes, fwd = _ring(sp, k) if k > 1 else ([sp.add_vertex()], [])
    spokes: list[list[int]] = [[] for _ in range(k)]

    def spoke(d: int, j: int) -> None:
        # inserted after d in the face wedge; a later spoke lands behind,
        # so at a shared corner the later arc's apex goes first
        e = sp.add_edge(tail[d], apexes[j])
        sp.insert_after(d, 2 * e)
        spokes[j].append(2 * e + 1)

    j = 0
    for i, d in enumerate(walk):
        if j + 1 < k and i == starts[j + 1]:
            j += 1
            spoke(d, j)
            spoke(d, j - 1)  # corner i also ends arc j - 1
        else:
            spoke(d, j)
    if k > 1:
        spoke(walk[0], k - 1)  # corner 0 closes the last arc
    if k > 3:
        hub = sp.add_vertex()
        hub_darts = [2 * sp.add_edge(hub, a) for a in apexes]
        sp.set_new_rotation(hub, hub_darts)
    for j, a in enumerate(apexes):
        r = spokes[j]
        if k > 1:
            r.append(fwd[j])
            if k > 3:
                r.append(hub_darts[j] ^ 1)
            r.append(fwd[j - 1] ^ 1)
        sp.set_new_rotation(a, r)
    return apexes[0]


def _quad_ring(sp: _Splicer, walk: list[int], tail: list[int]) -> int:
    """Ring of |walk| new vertices (spoke x_i-v_i) and a hub joined to the
    odd ring positions.  Returns x_0, whose first dart is the spoke x_0->v_0
    with (v0, v1, x1, x0) on its left."""
    m = len(walk)  # even: bipartite face walks have even length
    ring, fwd = _ring(sp, m)
    spoke = []
    for i, d in enumerate(walk):
        e = sp.add_edge(tail[d], ring[i])
        sp.insert_after(d, 2 * e)
        spoke.append(2 * e + 1)
    hub = sp.add_vertex()
    hub_darts = [2 * sp.add_edge(hub, ring[i]) for i in range(1, m, 2)]
    sp.set_new_rotation(hub, hub_darts)
    for i in range(m):
        r = [spoke[i], fwd[i]]
        if i % 2 == 1:
            r.append(hub_darts[i // 2] ^ 1)
        r.append(fwd[i - 1] ^ 1)
        sp.set_new_rotation(ring[i], r)
    return ring[0]


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


def records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, raw line, fields)`` of every record of a text format;
    blank lines and ``c`` comment lines are no records."""
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if parts and parts[0][0] != "c":
            yield ln, raw, parts


def read_header(parts: list[str], kind: str, seen: bool) -> tuple[int, int]:
    """The two counts of a ``p <kind> <a> <b>`` header record.

    Raises:
        FormatError: a second header, another kind, or a negative count
            (IndexError or ValueError when a field is missing, a field too
            many, or a count no integer).
    """
    if seen:
        raise FormatError("second 'p' header")
    if parts[1] != kind:
        raise FormatError(f"expected 'p {kind}'")
    _, _, a, b = parts
    a, b = int(a), int(b)
    if a < 0 or b < 0:
        raise FormatError("negative count")
    return a, b


@pause_gc()
def parse_plane(text: str) -> PlaneGraph:
    """Read ``write_plane``'s format, checking each record as it is read;
    ``build`` checks the rotation system (its PlaneError -> FormatError).

    Vertex ids are interned: every in-range endpoint of an ``e`` record is
    the one int object first read for that id, so ``edges``, ``tail`` and
    ``head``, and what is built from them (a BFS tree, a trigraph's sets),
    hold one object per vertex, not one per dart.
    """
    n = m = -1
    edges: list[tuple[int, int] | None] = []
    rot_eids: list[list[int] | None] = []  # None: no record yet
    ids: list[int | None] = []  # vertex id -> its interned int object
    outer_spec: tuple[int, int] | None = None
    try:
        for ln, raw, parts in records(text):
            tag = parts[0]
            if tag == "e":
                _, e, u, v = parts
                e, u, v = int(e), int(u), int(v)
                if not 0 <= e < m:
                    raise FormatError(
                        f"edge id {e} outside 0..{m - 1}" if n >= 0
                        else "edge before the 'p plane' header")
                if edges[e] is not None:
                    raise FormatError(f"second record for edge {e}")
                # the first object read for an id stands for it (0 is
                # falsy, but a cached small int); ``build`` refuses an
                # endpoint out of range
                if 0 <= u < n:
                    u = ids[u] or u
                    ids[u] = u
                if 0 <= v < n:
                    v = ids[v] or v
                    ids[v] = v
                edges[e] = (u, v)
            elif tag == "r":
                v, *eids = map(int, parts[1:])
                if not 0 <= v < n:
                    raise FormatError(
                        f"vertex {v} outside 0..{n - 1}" if n >= 0
                        else "rotation before the 'p plane' header")
                if rot_eids[v] is not None:
                    raise FormatError(f"second rotation record for vertex {v}")
                if eids and not (0 <= min(eids) and max(eids) < m):
                    bad = next(e for e in eids if not 0 <= e < m)
                    raise FormatError(f"rotation at {v}: unknown edge {bad}")
                rot_eids[v] = eids
            elif tag == "p":
                n, m = read_header(parts, "plane", n >= 0)
                edges = [None] * m
                rot_eids = [None] * n
                ids = [None] * n
            elif tag == "outer":
                if outer_spec is not None:
                    raise FormatError("second 'outer' record")
                _, e, v = parts
                outer_spec = (int(e), int(v))
            else:
                raise FormatError(f"unknown record {tag!r}")
    except (IndexError, ValueError) as exc:
        raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p plane' header")
    if None in edges:
        raise FormatError("missing edge record")
    # edge e leaves v by dart 2e when v is its first end; an entry that is
    # not incident, repeated or a loop is left for ``build`` to reject
    rotations = [[2 * e + (edges[e][0] != v) for e in eids or ()]
                 for v, eids in enumerate(rot_eids)]
    outer = 0
    if m:
        if outer_spec is None:
            raise FormatError("missing 'outer' record")
        eid, v = outer_spec
        if not 0 <= eid < m:
            raise FormatError(f"outer record: unknown edge {eid}")
        if v not in edges[eid]:
            raise FormatError("outer record not incident to its vertex")
        outer = 2 * eid + (edges[eid][0] != v)
    try:
        return build(n, edges, rotations, outer)
    except PlaneError as exc:
        raise FormatError(f"not a plane graph: {exc}") from exc


# ---------------------------------------------------------------------------
# Plain edge lists and the embedding convenience
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """DIMACS-style ``p edge n m`` / ``e u v`` (0-based) input."""
    n = m = -1
    header = ""  # "line <ln>: <record>" of the header
    edges: list[tuple[int, int]] = []
    try:
        for ln, raw, parts in records(text):
            if parts[0] == "p":
                n, m = read_header(parts, "edge", n >= 0)
                header = f"line {ln}: {raw!r}"
            elif parts[0] == "e":
                _, u, v = parts
                u, v = int(u), int(v)
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
    if m != len(edges):
        raise FormatError(f"{header}: declared {m} edges, found {len(edges)}")
    return n, edges


def write_edge_list(n: int, edges: Sequence[tuple[int, int]],
                    comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {n} {len(edges)}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def embed_abstract(n: int, edges: Sequence[tuple[int, int]]) -> PlaneGraph:
    """Planar-embed an abstract simple graph (unoptimized convenience,
    no performance guarantee).  Raises PlaneError on a loop, a repeated
    pair or a non-planar graph."""
    import networkx as nx

    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise PlaneError(f"edge {u}-{v} is a loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise PlaneError(f"edge {u}-{v} repeats an earlier edge")
        seen.add(key)

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
    # the face walks do not depend on the outer dart, so the marker moves
    # onto the longest face without a second build
    g = build(n, elist, rotations, 0)
    best = max(range(len(g.face_len)), key=g.face_len.__getitem__)
    if g.m:
        g.outer_dart, g.outer_face = g.faces[best][0], best
    return g
