"""Left-aligned BFS trees on plane graphs.

The left-aligned tree is one BFS: each dequeued vertex adopts its
undiscovered neighbours in ccw order from the parental edge (at the root:
from the outer-face gap).  Children are queued together, so by induction
on the layers the queue order within a layer is the depth-first preorder.
The tree has no layer-crossing non-tree edge whose upper endpoint lies to
the left of the lower one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .plane_graph import PlaneGraph, pairs
from .trigraph import is_vertex_id


class LayeringError(ValueError):
    pass


@dataclass
class BfsTree:
    """BFS tree of a plane graph, rooted on the outer face.

    ``parent_dart[v]`` is the dart v -> parent(v) (-1 at the root);
    ``depth`` holds graph distances from the root.  The ccw child order at
    v starts just after the parental dart, or after the outer-face gap at
    the root (``_anchor``).
    """

    g: PlaneGraph
    root: int
    parent: list[int]
    parent_dart: list[int]
    depth: list[int]
    tin: list[int] = field(default_factory=list, repr=False)
    tout: list[int] = field(default_factory=list, repr=False)

    def is_tree_edge(self, eid: int) -> bool:
        tail, pd = self.g.tail, self.parent_dart
        return pd[tail[2 * eid]] >> 1 == eid or pd[tail[2 * eid + 1]] >> 1 == eid

    def is_ancestor(self, a: int, v: int) -> bool:
        """a on the vertical path from v to the root (inclusive)."""
        return self.tin[a] <= self.tin[v] < self.tout[a]

    def on_vertical(self, z: int, bottom: int, top: int) -> bool:
        """z on the vertical path from ``bottom`` up to its ancestor ``top``."""
        return (self.depth[top] <= self.depth[z] <= self.depth[bottom]
                and self.is_ancestor(z, bottom))


def _anchor(g: PlaneGraph, v: int, d: int) -> int:
    """Index in ``g.rot[v]`` of the first dart of v's ccw child order: the
    one after the parental dart d, or at the root (d == -1) the one after
    the first outer-walk dart leaving v (the 'dummy edge pointing up' sits
    in the outer-face gap between the two).  It may be ``len(g.rot[v])``,
    which stands for 0."""
    if d == -1:
        d = next((d for d in g.outer_walk() if g.tail[d] == v), -1)
        if d == -1:
            raise LayeringError(f"root {v} is not on the outer face")
    return g.rot[v].index(d) + 1


def left_aligned_bfs_tree(g: PlaneGraph, r: int) -> BfsTree:
    """Left-aligned BFS tree rooted at r (which must lie on the outer face).

    Linear time: one BFS scans each rotation once; the preorder numbers
    come from subtree sizes.
    """
    n = g.n
    if n == 0:
        raise LayeringError("empty graph")
    if not is_vertex_id(r, n):
        raise LayeringError(f"root {r!r} out of range")
    if g.ncomp != 1:
        raise LayeringError("graph is disconnected")
    parent = [-1] * n
    parent_dart = [-1] * n
    depth = [-1] * n
    depth[r] = 0
    head, rot = g.head, g.rot
    q = [r]
    for v in q:  # grows while it is walked: a FIFO queue
        rv = rot[v]
        if not rv:
            continue  # n == 1
        s = _anchor(g, v, parent_dart[v])
        dv1 = depth[v] + 1
        # children in ccw order from the anchor, lowest id among parallels
        walk = rv[s:] + rv[:s]
        k0 = len(q)
        moved = False
        for d in walk:
            w = head[d]
            if depth[w] == -1:
                depth[w] = dv1
                parent[w] = v
                parent_dart[w] = d ^ 1
                q.append(w)
            elif parent[w] == v and d >> 1 < parent_dart[w] >> 1:
                parent_dart[w] = d ^ 1  # a lower-id parallel edge, later
                moved = True
        if moved:
            rank = {d: i for i, d in enumerate(walk)}
            q[k0:] = sorted(q[k0:], key=lambda w: rank[parent_dart[w] ^ 1])
    size = [1] * n
    for w in q[:0:-1]:  # children before parents, root left out
        size[parent[w]] += size[w]
    # in queue order, each child takes its parent's next free preorder number
    tin = [0] * n
    tout = [1] * n
    for w in q[1:]:
        p = parent[w]
        i = tout[p]
        tin[w] = i
        tout[w] = i + 1
        tout[p] = i + size[w]
    return BfsTree(g, r, parent, parent_dart, depth, tin, tout)


def check_left_aligned(g: PlaneGraph, t: BfsTree) -> tuple[int, int] | None:
    """First edge {u, v}, in edge-id order, with u one layer above v and u
    left of v, or None.

    u is left of v when, at their lowest common ancestor, the branch
    towards u comes before the one towards v in ccw order from the anchor
    (the parental edge, or the outer-face gap at the root).  In a preorder
    that visits each vertex's children in that order, u is left of v iff u
    comes first, so one preorder plus one pass over the edges decides
    every edge: O(n + m) up to sorting each vertex's children.  The
    preorder is derived from ``parent_dart``, which gives each child its
    rotation position at the parent, not from ``t.tin``, so the check does
    not trust the numbering of the tree it checks.  Parallel copies of tree
    edges are skipped: with the upper endpoint equal to the lower one's
    parent the left-of triple degenerates.
    """
    if t.g is not g:
        raise LayeringError("tree belongs to a different graph")
    n, r = g.n, t.root
    dep, parent, pdart = t.depth, t.parent, t.parent_dart
    tail, head, rot = g.tail, g.head, g.rot
    nd = len(tail)
    if not len(parent) == len(pdart) == len(dep) == n:
        raise LayeringError("not a BFS tree")
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if v == r:
            continue
        d = pdart[v]
        p = parent[v]
        # a dart in range that leads v -> p makes p a vertex of g
        if (not 0 <= d < nd or tail[d] != v or head[d] != p
                or dep[p] != dep[v] - 1):
            raise LayeringError("not a BFS tree")
        kids[p].append(v)
    rank = [-1] * n
    clock = 0
    stack = [r]
    while stack:
        v = stack.pop()
        rank[v] = clock
        clock += 1
        kv = kids[v]
        if len(kv) > 1:
            # in ccw order from the anchor, by one pass over the rotation:
            # w is a child where the dart v -> w is its parental dart's
            # twin; the first child goes on top
            rv = rot[v]
            s = _anchor(g, v, -1 if v == r else pdart[v])
            kv = [w for d in rv[s:] + rv[:s]
                  if (w := head[d]) != r and pdart[w] == d ^ 1]
            kv.reverse()
        stack += kv
    if clock != n:
        raise LayeringError("not a BFS tree")
    for a, b in pairs(g.tail):
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
