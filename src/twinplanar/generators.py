"""Seeded test-corpus generators.

All randomness comes from ``random.Random(seed)`` (CPython's Mersenne
Twister, mt19937), so equal seeds give byte-identical graph files; the
PRNG id is recorded in the file header comment by the CLI.

Stacked (Apollonian) triangulations start from an embedded K4 and insert a
vertex into a uniformly random triangular face; stacked quadrangulations
start from C4 and split a random quadrilateral face with a degree-2 vertex.
Faces are kept as consistently oriented tuples and the rotation system is
stitched at the end (each oriented face corner (u, v, w) pins the ccw
successor at v of the dart to w as the dart to u).
"""

from __future__ import annotations

import random

from .plane_graph import PlaneGraph, build, pause_gc, quadrangulate


class GeneratorError(ValueError):
    pass


@pause_gc()
def _stitch(n: int, faces: list[tuple[int, ...]], outer_idx: int) -> PlaneGraph:
    """Rotation system from consistently oriented face tuples."""
    edges: list[tuple[int, int]] = []
    eid: dict[int, int] = {}  # keyed u * n + v

    def dart(u: int, v: int) -> int:
        e = eid.get(u * n + v)
        if e is not None:
            return 2 * e
        e = eid.get(v * n + u)
        if e is not None:
            return 2 * e + 1
        e = len(edges)
        edges.append((u, v))
        eid[u * n + v] = e
        return 2 * e

    succ: dict[int, int] = {}
    for face in faces:
        k = len(face)
        for i in range(k):
            u, v, w = face[i - 1], face[i], face[(i + 1) % k]
            succ[dart(v, w)] = dart(v, u)
    rotations: list[list[int]] = [[] for _ in range(n)]
    placed: set[int] = set()
    tails = [0] * (2 * len(edges))
    for (u, v), e in ((edges[i], i) for i in range(len(edges))):
        tails[2 * e] = u
        tails[2 * e + 1] = v
    for d0 in range(2 * len(edges)):
        if d0 in placed:
            continue
        v = tails[d0]
        if rotations[v]:
            continue
        d = d0
        while d not in placed:
            placed.add(d)
            rotations[v].append(d)
            d = succ[d]
    of = faces[outer_idx]
    u, v = of[0], of[1]
    e = eid.get(u * n + v)
    outer = 2 * e if e is not None else 2 * eid[v * n + u] + 1
    return build(n, edges, rotations, outer)


def gen_triangulation(n: int, seed: int) -> PlaneGraph:
    """Random stacked (Apollonian) plane triangulation on n >= 4 vertices."""
    if n < 4:
        raise GeneratorError("stacked triangulation needs n >= 4 (K4 seed)")
    rng = random.Random(seed)
    # embedded K4: bounded faces ccw, outer face completing the dart set
    faces: list[tuple[int, ...]] = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1)]
    outer_idx = 3
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        faces[fi] = (a, b, v)
        faces.append((b, c, v))
        faces.append((c, a, v))
        if fi == outer_idx:
            outer_idx = fi  # (a, b, v) keeps the outer role
    return _stitch(n, faces, outer_idx)


def gen_stacked_quadrangulation(n: int, seed: int) -> PlaneGraph:
    """Random stacked plane quadrangulation on n >= 4 vertices (C4 seed;
    each step splits a quadrilateral with a fresh degree-2 vertex)."""
    if n < 4:
        raise GeneratorError("stacked quadrangulation needs n >= 4 (C4 seed)")
    rng = random.Random(seed)
    faces: list[tuple[int, ...]] = [(0, 1, 2, 3), (0, 3, 2, 1)]
    outer_idx = 1
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c, d = faces[fi]
        if rng.random() < 0.5:
            a, b, c, d = b, c, d, a
        faces[fi] = (a, b, c, v)
        faces.append((c, d, a, v))
        if fi == outer_idx:
            outer_idx = fi
    return _stitch(n, faces, outer_idx)


def gen_grid(rows: int, cols: int) -> PlaneGraph:
    """rows x cols grid, outer face quadrangulated."""
    if rows < 2 or cols < 2:
        raise GeneratorError("grid needs at least 2x2 vertices")
    n = rows * cols

    def vid(i: int, j: int) -> int:
        return i * cols + j

    edges: list[tuple[int, int]] = []
    eid: dict[tuple[int, int], int] = {}
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                eid[(vid(i, j), vid(i, j + 1))] = len(edges)
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                eid[(vid(i, j), vid(i + 1, j))] = len(edges)
                edges.append((vid(i, j), vid(i + 1, j)))

    def dart(u: int, v: int) -> int:
        e = eid.get((u, v))
        return 2 * e if e is not None else 2 * eid[(v, u)] + 1

    rotations: list[list[int]] = []
    for i in range(rows):
        for j in range(cols):
            v = vid(i, j)
            r = []
            if j + 1 < cols:
                r.append(dart(v, vid(i, j + 1)))   # east
            if i + 1 < rows:
                r.append(dart(v, vid(i + 1, j)))   # north
            if j > 0:
                r.append(dart(v, vid(i, j - 1)))   # west
            if i > 0:
                r.append(dart(v, vid(i - 1, j)))   # south
            rotations.append(r)
    outer = dart(vid(0, 1), vid(0, 0))  # westbound along the bottom row
    g = build(n, edges, rotations, outer)
    g2, _vm = quadrangulate(g)
    return g2


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
