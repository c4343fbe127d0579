"""BFS layerings and left-aligned BFS trees on plane graphs.

The left-aligned tree is built by a BFS-distance pass followed by a
depth-first sweep that attaches, at each reached vertex, all its un-treed
next-layer neighbours in counter-clockwise order starting from the parental
edge (at the root: from the angular gap of the outer face), and recurses in
that order.  The resulting tree has no layer-crossing non-tree edge whose
upper endpoint lies to the left of the lower one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plane_graph import PlaneGraph


class LayeringError(ValueError):
    pass


@dataclass
class BfsTree:
    """BFS tree of a plane graph, rooted on the outer face.

    ``parent_dart[v]`` is the dart v -> parent(v) (-1 at the root);
    ``depth`` holds graph distances from the root.  The ccw child order at
    v starts just after the parental dart, or after the outer-face gap at
    the root (``_root_anchor``).
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
    q = [r]
    head, rot = g.head, g.rot
    for v in q:  # grows while it is walked: a FIFO queue
        dv = dist[v] + 1
        for d in rot[v]:
            w = head[d]
            if dist[w] == -1:
                dist[w] = dv
                q.append(w)
    if -1 in dist:
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
    order: list[int] = []
    tin = [0] * n
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
        if not rv:
            continue
        s = pos[_root_anchor(g, r)] if v == r else pos[parent_dart[v]] + 1
        dv1 = depth[v] + 1
        # one dart per fresh next-layer neighbour (lowest edge id among
        # multiedges), ordered by the ccw rank of the chosen dart; the
        # rotation is walked once, from the anchor on
        walk = rv[s:] + rv[:s]
        kids: list[int] = []
        moved = False
        for d in walk:
            w = head[d]
            if depth[w] != dv1:
                continue
            p = parent[w]  # only the root has no parent, and it is on layer 0
            if p == -1:
                parent[w] = v
                parent_dart[w] = d ^ 1
                kids.append(w)
            elif p == v and d >> 1 < parent_dart[w] >> 1:
                parent_dart[w] = d ^ 1  # a lower-id parallel edge, later
                moved = True
        if moved:
            rank = {d: i for i, d in enumerate(walk)}
            kids.sort(key=lambda w: rank[parent_dart[w] ^ 1])
        kids.reverse()
        stack += kids
    t = BfsTree(g, r, parent, parent_dart, depth, order, tin)
    _fill_tout(t)
    return t


def _fill_tout(t: BfsTree) -> None:
    # tin was assigned in preorder; tout[v] = max tin in v's subtree + 1
    tout = [i + 1 for i in t.tin]
    parent = t.parent
    for v in t.order[:0:-1]:  # children before parents, root left out
        p = parent[v]
        if tout[v] > tout[p]:
            tout[p] = tout[v]
    t.tout = tout


def check_left_aligned(g: PlaneGraph, t: BfsTree) -> tuple[int, int] | None:
    """First edge {u, v}, in edge-id order, with u one layer above v and u
    left of v, or None.

    u is left of v when, at their lowest common ancestor, the branch
    towards u comes before the one towards v in ccw order from the anchor
    (the parental edge, or the outer-face gap at the root).  In a preorder
    that visits each vertex's children in that order, u is left of v iff u
    comes first, so one preorder plus one pass over the edges decides
    every edge: O(n + m).  The preorder is derived from ``parent_dart`` and
    the rotations, not from ``t.tin``, so the check does not trust the
    numbering of the tree it checks.  Parallel copies of tree edges are
    skipped: with the upper endpoint equal to the lower one's parent the
    left-of triple degenerates.
    """
    if t.g is not g:
        raise LayeringError("tree belongs to a different graph")
    n, r = g.n, t.root
    dep, parent, pdart = t.depth, t.parent, t.parent_dart
    tail, head, rot, pos = g.tail, g.head, g.rot, g.pos
    for v in range(n):
        if v == r:
            continue
        d = pdart[v]
        if (dep[parent[v]] != dep[v] - 1 or d < 0 or tail[d] != v
                or head[d] != parent[v]):
            raise LayeringError("not a BFS tree")
    rank = [-1] * n
    clock = 0
    stack = [r]
    while stack:
        v = stack.pop()
        rank[v] = clock
        clock += 1
        rv = rot[v]
        if not rv:
            continue
        s = pos[_root_anchor(g, r)] if v == r else pos[pdart[v]] + 1
        # the children of v in ccw order from the anchor, first on top
        kids = [head[d] for d in rv[s:] + rv[:s] if pdart[head[d]] == d ^ 1]
        kids.reverse()
        stack += kids
    if clock != n:
        raise LayeringError("not a BFS tree")
    for a, b in g.edges:
        da, db = dep[a], dep[b]
        if da == db - 1:
            u, v = a, b
        elif db == da - 1:
            u, v = b, a
        else:
            continue
        # a tree edge, or parallel to one
        if parent[v] != u and rank[u] < rank[v]:
            return (u, v)
    return None
