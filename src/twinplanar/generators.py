"""Seeded test-corpus generators.

All randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister, mt19937), so equal seeds give byte-identical graph files; the
PRNG id is recorded in the file header comment by the CLI.

Stacked (Apollonian) triangulations start from an embedded K4 and insert a
vertex into a uniformly random triangular face; stacked quadrangulations
start from C4 and split a random quadrilateral face with a degree-2 vertex.
Each face is a consistently oriented vertex tuple followed by the internal
ids of its edges; an insertion numbers the new vertex's edges as it makes
them.  ``_from_faces`` then gives the edges their final ids, in order of
first appearance over the final face list, and reads each vertex's rotation
off the face corners.  Grids compute their edge ids and rotations directly
and hand them, with the outer walk, to the quadrangulation's fill driver.
Every generator builds its plane graph once.
"""

from __future__ import annotations

import random
from itertools import chain

from .plane_graph import (PlaneGraph, _fill_faces, _quad_ring, build,
                          pause_gc)


class GeneratorError(ValueError):
    pass


def _from_faces(n: int, m: int, k: int, faces: list[tuple[int, ...]],
                outer_idx: int) -> PlaneGraph:
    """Plane graph with m edges whose faces are the given k-gons.

    A face is ``(f0, .., fk-1, g0, .., gk-1)``: its vertices in face order,
    then the internal ids (0..m-1) of its edges {f0, fk-1}, {f0, f1},
    {f1, f2}, .., {fk-2, fk-1}; gj sits in the face's slot j.  Edges get
    their final ids in order of first appearance over the slots of
    ``faces``, a new edge running f0 -> fk-1 in slot 0 and fj-1 -> fj in
    slot j > 0.  At a face corner (u, v, w) the ccw successor of the dart
    v -> w is v -> u, and each vertex's rotation starts at its smallest
    dart.  The outer dart is f0 -> f1 of ``faces[outer_idx]``.

    ``faces`` is emptied, and each intermediate list is dropped as soon as
    it is spent: generation sets the peak memory of a run that makes its
    own input.
    """
    nf = len(faces)
    flat = list(chain.from_iterable(faces))
    faces.clear()
    w = 2 * k
    s_edge = [0] * (k * nf)  # slot by slot, face by face
    s_tail = s_edge[:]
    s_head = s_edge[:]
    for j in range(k):
        s_edge[j::k] = flat[k + j::w]
        s_tail[j::k] = flat[j - 1 if j else 0::w]
        s_head[j::k] = flat[j if j else k - 1::w]
    del flat
    s_flip = ([1] + [0] * (k - 1)) * nf  # slot 0's new edge runs against it

    # each slot's dart along its face (fk-1 -> f0 in slot 0, fj-1 -> fj in
    # slot j); an edge's second face runs it the other way
    fd: list[int] = []
    second = [-1] * m
    edges: list[tuple[int, int]] = []
    nd = 0
    for g, t, h, f in zip(s_edge, s_tail, s_head, s_flip):
        d = second[g]
        if d < 0:
            d = nd + f
            nd += 2
            second[g] = d ^ 1
            edges.append((t, h))
        fd.append(d)
    del s_edge, s_tail, s_head, s_flip, second

    succ = [0] * nd  # the ccw successor of each dart around its tail
    for j in range(k):
        for d, p in zip(fd[j::k], fd[(j - 1) % k::k]):
            succ[d] = p ^ 1
    outer = fd[outer_idx * k + 1]
    del fd
    rotations: list[list[int] | None] = [None] * n
    for d0, v in enumerate(chain.from_iterable(edges)):
        if rotations[v] is None:
            r = rotations[v] = [d0]
            d = succ[d0]
            while d != d0:
                r.append(d)
                d = succ[d]
    del succ
    return build(n, edges, rotations, outer)


@pause_gc()
def gen_triangulation(n: int, seed: int) -> PlaneGraph:
    """Random stacked (Apollonian) plane triangulation on n >= 4 vertices."""
    if n < 4:
        raise GeneratorError("stacked triangulation needs n >= 4 (K4 seed)")
    rng = random.Random(seed)
    # embedded K4: bounded faces ccw, outer face (0, 2, 1) completing the
    # dart set; internal edge ids 01:0 12:1 02:2 03:3 13:4 23:5
    faces: list[tuple[int, ...]] = [(0, 1, 3, 3, 0, 4), (1, 2, 3, 4, 1, 5),
                                    (2, 0, 3, 5, 2, 3), (0, 2, 1, 0, 2, 1)]
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c, ca, ab, bc = faces[fi]
        e = 3 * v - 6  # edges a-v, b-v, c-v
        faces[fi] = (a, b, v, e, ab, e + 1)
        faces.append((b, c, v, e + 1, bc, e + 2))
        faces.append((c, a, v, e + 2, ca, e))
    return _from_faces(n, 3 * n - 6, 3, faces, 3)


@pause_gc()
def gen_stacked_quadrangulation(n: int, seed: int) -> PlaneGraph:
    """Random stacked plane quadrangulation on n >= 4 vertices (C4 seed;
    each step splits a quadrilateral with a fresh degree-2 vertex)."""
    if n < 4:
        raise GeneratorError("stacked quadrangulation needs n >= 4 (C4 seed)")
    rng = random.Random(seed)
    # C4, outer face (0, 3, 2, 1); internal edge ids 01:0 12:1 23:2 03:3
    faces: list[tuple[int, ...]] = [(0, 1, 2, 3, 3, 0, 1, 2),
                                    (0, 3, 2, 1, 0, 3, 2, 1)]
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c, d, da, ab, bc, cd = faces[fi]
        if rng.random() < 0.5:
            a, b, c, d, da, ab, bc, cd = b, c, d, a, ab, bc, cd, da
        e = 2 * v - 4  # edges a-v, c-v
        faces[fi] = (a, b, c, v, e, ab, bc, e + 1)
        faces.append((c, d, a, v, e + 1, cd, da, e))
    return _from_faces(n, 2 * n - 4, 4, faces, 1)


@pause_gc()
def gen_grid(rows: int, cols: int) -> PlaneGraph:
    """rows x cols grid, outer face quadrangulated: the same graph as
    ``quadrangulate`` makes of the plain grid, built once.

    The plain grid is simple, connected and bipartite by construction, and
    its bounded faces are 4-cycles, so its raw rotation data and its outer
    walk go straight to the completion driver (``_fill_faces`` with
    ``_quad_ring``), which fills that walk, builds and checks the result.
    """
    if rows < 2 or cols < 2:
        raise GeneratorError("grid needs at least 2x2 vertices")
    # vertex (i, j) is i * cols + j; edges are numbered row by row, each
    # vertex adding its east edge, then its north edge: 2 * cols - 1 ids per
    # row below the top one, whose vertices add only an east edge
    s = 2 * cols - 1
    edges: list[tuple[int, int]] = []
    rotations: list[list[int]] = []
    for i in range(rows):
        step = 1 if i == rows - 1 else 2  # edge ids per vertex in this row
        for j in range(cols):
            v = i * cols + j
            e = i * s + step * j  # the vertex's first edge
            east = j + 1 < cols
            r = []
            if east:
                edges.append((v, v + 1))
                r.append(2 * e)
            if step == 2:
                edges.append((v, v + cols))
                r.append(2 * (e + east))  # north
            if j:
                r.append(2 * (e - step) + 1)  # west: the east edge of v - 1
            if i:
                r.append(2 * ((i - 1) * s + 2 * j + east) + 1)  # south
            rotations.append(r)
    # the outer face is on the left of dart 1, westbound from (0, 1) along
    # the bottom row; dart 0 has the bottom-left square on its left, so the
    # walk starts at its smallest dart, as ``_fill_faces`` asks.  The
    # face's next dart after d is the rotation predecessor of d ^ 1.
    tail = list(chain.from_iterable(edges))
    walk = [1]
    while True:
        x = walk[-1] ^ 1
        r = rotations[tail[x]]
        d = r[r.index(x) - 1]
        if d == 1:
            break
        walk.append(d)
    walks = [walk] if len(walk) > 4 else []  # 2 x 2: already a 4-cycle
    return _fill_faces(rows * cols, edges, rotations, tail, walks, 1,
                       "quadrangulate", 4, _quad_ring)


def gen_quadrangulation(n: int, seed: int, grid: tuple[int, int] | None = None
                        ) -> PlaneGraph:
    """Bipartite plane quadrangulation: an r x c grid when ``grid`` is given
    (n is then ignored), otherwise a random stacked quadrangulation."""
    if grid is not None:
        return gen_grid(*grid)
    return gen_stacked_quadrangulation(n, seed)


# ---------------------------------------------------------------------------
# Platonic solids (3-connected, so the embedding is unique up to mirroring)
# ---------------------------------------------------------------------------


def platonic_solids() -> dict[str, PlaneGraph]:
    import networkx as nx

    from .plane_graph import embed_abstract

    out = {}
    for name, make in (
        ("tetrahedron", nx.tetrahedral_graph),
        ("cube", nx.cubical_graph),
        ("octahedron", nx.octahedral_graph),
        ("dodecahedron", nx.dodecahedral_graph),
        ("icosahedron", nx.icosahedral_graph),
    ):
        G = make()
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        out[name] = embed_abstract(G.number_of_nodes(), edges)
    return out
