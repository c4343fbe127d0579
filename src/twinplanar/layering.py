"""BFS layerings and left-aligned BFS trees on plane graphs.

The left-aligned tree is built by a BFS-distance pass followed by a
depth-first sweep that attaches, at each reached vertex, all its un-treed
next-layer neighbours in counter-clockwise order starting from the parental
edge (at the root: from the angular gap of the outer face), and recurses in
that order.  The resulting tree has no layer-crossing non-tree edge whose
upper endpoint lies to the left of the lower one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .plane_graph import PlaneGraph


class LayeringError(ValueError):
    pass


@dataclass
class BfsTree:
    """BFS tree of a plane graph, rooted on the outer face.

    ``parent_dart[v]`` is the dart v -> parent(v) (-1 at the root);
    ``depth`` holds graph distances from the root.  The ccw child order at
    v starts at rotation position ``_anchor_pos(t, v)``: just after the
    parental dart, or after the outer-face gap at the root.
    """

    g: PlaneGraph
    root: int
    parent: list[int]
    parent_dart: list[int]
    depth: list[int]
    order: list[int] = field(default_factory=list, repr=False)  # dfs preorder
    tin: list[int] = field(default_factory=list, repr=False)
    tout: list[int] = field(default_factory=list, repr=False)

    def is_tree_edge(self, eid: int) -> bool:
        u, v = self.g.edges[eid]
        return self.parent_dart[u] >> 1 == eid or self.parent_dart[v] >> 1 == eid

    def is_ancestor(self, a: int, v: int) -> bool:
        """a on the vertical path from v to the root (inclusive)."""
        return self.tin[a] <= self.tin[v] < self.tout[a]

    def on_vertical(self, z: int, bottom: int, top: int) -> bool:
        """z on the vertical path from ``bottom`` up to its ancestor ``top``."""
        return (self.depth[top] <= self.depth[z] <= self.depth[bottom]
                and self.is_ancestor(z, bottom))


def bfs_layering(g: PlaneGraph, r: int) -> list[int]:
    """Graph distances from r.  Raises on out-of-range root or disconnected g."""
    if not 0 <= r < g.n:
        raise LayeringError(f"root {r} out of range")
    dist = [-1] * g.n
    dist[r] = 0
    q = deque([r])
    head = g.head
    while q:
        v = q.popleft()
        dv = dist[v] + 1
        for d in g.rot[v]:
            w = head[d]
            if dist[w] == -1:
                dist[w] = dv
                q.append(w)
    if any(x == -1 for x in dist):
        raise LayeringError("graph is disconnected")
    return dist


def _root_anchor(g: PlaneGraph, r: int) -> int:
    """First enumeration dart at the root: the rotation successor of the
    outer-walk dart leaving r (the 'dummy edge pointing up' sits in the
    outer-face gap just before it)."""
    d_out = -1
    for d in g.faces[g.outer_face]:
        if g.tail[d] == r:
            d_out = d
            break
    if d_out == -1:
        raise LayeringError(f"root {r} is not on the outer face")
    return g.rot_next(d_out)


def left_aligned_bfs_tree(g: PlaneGraph, r: int) -> BfsTree:
    """Left-aligned BFS tree rooted at r (which must lie on the outer face).

    Linear time: each vertex is attached once and each rotation scanned once.
    """
    depth = bfs_layering(g, r)
    n = g.n
    parent = [-1] * n
    parent_dart = [-1] * n
    intree = [False] * n
    intree[r] = True
    order: list[int] = []
    tin = [0] * n
    tout = [0] * n
    clock = 0

    head = g.head
    rot = g.rot
    pos = g.pos

    # explicit DFS (depth can be Theta(n))
    stack: list[int] = [r]
    while stack:
        v = stack.pop()
        tin[v] = clock
        clock += 1
        order.append(v)
        rv = rot[v]
        deg = len(rv)
        if deg == 0:
            continue
        if v == r:
            start = pos[_root_anchor(g, r)]
        else:
            start = (pos[parent_dart[v]] + 1) % deg
        dv1 = depth[v] + 1
        # one dart per fresh next-layer neighbour (lowest edge id among
        # multiedges), ordered by the ccw rank of the chosen dart
        chosen: dict[int, tuple[int, int]] = {}
        kids: list[int] = []
        for i in range(deg):
            d = rv[(start + i) % deg]
            w = head[d]
            if depth[w] == dv1 and not intree[w]:
                cur = chosen.get(w)
                if cur is None:
                    chosen[w] = (i, d)
                    kids.append(w)
                elif (d >> 1) < (cur[1] >> 1):
                    chosen[w] = (i, d)
        for w in kids:
            intree[w] = True
            parent[w] = v
            parent_dart[w] = chosen[w][1] ^ 1
        kids.sort(key=lambda w: chosen[w][0])
        for w in reversed(kids):
            stack.append(w)
    t = BfsTree(g, r, parent, parent_dart, depth, order, tin, tout)
    _fill_tout(t)
    return t


def _fill_tout(t: BfsTree) -> None:
    # tin was assigned in preorder; tout[v] = max tin in v's subtree + 1
    n = t.g.n
    tout = [t.tin[v] + 1 for v in range(n)]
    for v in reversed(t.order):
        p = t.parent[v]
        if p != -1 and tout[v] > tout[p]:
            tout[p] = tout[v]
    t.tout = tout


def _first_dart_towards(t: BfsTree, r1: int, u: int) -> int:
    """The dart at r1 beginning the vertical path down to its descendant u."""
    while t.parent[u] != r1:
        u = t.parent[u]
    return t.parent_dart[u] ^ 1


def _anchor_pos(t: BfsTree, v: int) -> int:
    g = t.g
    if v == t.root:
        return g.pos[_root_anchor(g, v)]
    return (g.pos[t.parent_dart[v]] + 1) % len(g.rot[v])


def is_left_of(g: PlaneGraph, t: BfsTree, u: int, v: int) -> bool:
    """Whether u is to the left of v for a non-tree edge {u, v}.

    True iff at the least common ancestor the ccw order (parental-or-up
    reference, first edge towards u, first edge towards v) holds.
    Raises LayeringError if u, v lie on a common vertical path.
    """
    if t.is_ancestor(u, v) or t.is_ancestor(v, u):
        raise LayeringError("endpoints lie on a common vertical path")
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


def check_left_aligned(g: PlaneGraph, t: BfsTree) -> tuple[int, int] | None:
    """First edge {u, v} with u one layer above v and u left of v, or None.

    Parallel copies of tree edges are skipped: with the upper endpoint equal
    to the lower one's parent the left-of triple degenerates.
    """
    if t.g is not g:
        raise LayeringError("tree belongs to a different graph")
    for v in range(g.n):
        if v != t.root and t.depth[t.parent[v]] != t.depth[v] - 1:
            raise LayeringError("not a BFS tree")
    dep = t.depth
    for eid, (a, b) in enumerate(g.edges):
        if t.is_tree_edge(eid):
            continue
        if dep[a] == dep[b]:
            continue
        u, v = (a, b) if dep[a] < dep[b] else (b, a)
        if dep[u] != dep[v] - 1:
            continue
        if t.parent[v] == u:
            continue  # parallel to the parental edge
        if is_left_of(g, t, u, v):
            return (u, v)
    return None
