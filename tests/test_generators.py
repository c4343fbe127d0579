"""The seeded generators are pinned byte for byte.

Every corpus (acceptance criteria, golden builds, the benchmark) is made
by these generators, so a change to how they number edges or start
rotations would change every downstream sequence.  The pins below are
sha256 digests of ``write_plane`` output; the differential test compares
the stacked generators with the original construction, which numbered
edges through a dict while stitching the rotation system from the final
face tuples, and ``gen_grid`` with quadrangulating the plain grid, which
built the grid twice.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import generators as gen
from twinplanar import plane_graph as pg


def _digest(g: tp.PlaneGraph) -> str:
    return hashlib.sha256(pg.write_plane(g).encode()).hexdigest()


# (generator, args): sha256 of write_plane; stacked families use seed = n
PINS = {
    ("quad", 4, 4):
        "7d3084b2c855595f9ea1cbe6e9ca1528bd58ffa6d63d1c9424c189a7efee607a",
    ("quad", 5, 5):
        "dc670eaab0cd5b70aae3854ce38b09efc5e372e2b450eace38b12829a1d6d05c",
    ("quad", 200, 200):
        "6faa562374cdafd7b560ab3d36f650a46023b007a6ab2fd0032dd3abd2c58d10",
    ("quad", 3000, 3000):
        "75a4bab95639af7217164a8e7624f831013e68c6546612a7a449959176f50757",
    ("tri", 4, 4):
        "aca303cd06728ce83c58c172ddcfbcea2f35fa1db47017bc9a70bb4ed37ed110",
    ("tri", 5, 5):
        "822847ad20f28aa7522d334b4503763e8cd1803322ad0c972e85b1de1f7cbff3",
    ("tri", 3000, 3000):
        "788df3a4093531e91fb21583ec4e3e20dbc35e25ab15a065a73565a5b8e79c70",
    ("grid", 2, 2):
        "9fc0f3b0f9a786874787044c90a7117efc233bce310155ac82a49582aa1ba914",
    ("grid", 3, 5):
        "0bb711a7013605cecfe75a5e6b5a9731d727c4e50fe4b1b84ea3d0631a712251",
    ("grid", 40, 25):
        "afcec51f1d2c0c7157f4d19ddd1dbf8220b866929678c4df1603ef108af6e0e0",
}

GENERATORS = {"quad": tp.gen_stacked_quadrangulation,
              "tri": tp.gen_triangulation, "grid": tp.gen_grid}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_generator_output_is_pinned(key):
    kind, *args = key
    assert _digest(GENERATORS[kind](*args)) == PINS[key]


# -- reference: the dict-based construction the generators replaced --------


def _stitch(n: int, faces: list[tuple[int, ...]], outer_idx: int) -> tp.PlaneGraph:
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
    tails = [x for uv in edges for x in uv]
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
    return pg.build(n, edges, rotations, outer)


def _reference_triangulation(n: int, seed: int) -> tp.PlaneGraph:
    rng = random.Random(seed)
    faces: list[tuple[int, ...]] = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1)]
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        faces[fi] = (a, b, v)
        faces.append((b, c, v))
        faces.append((c, a, v))
    return _stitch(n, faces, 3)


def _reference_quadrangulation(n: int, seed: int) -> tp.PlaneGraph:
    rng = random.Random(seed)
    faces: list[tuple[int, ...]] = [(0, 1, 2, 3), (0, 3, 2, 1)]
    for v in range(4, n):
        fi = rng.randrange(len(faces))
        a, b, c, d = faces[fi]
        if rng.random() < 0.5:
            a, b, c, d = b, c, d, a
        faces[fi] = (a, b, c, v)
        faces.append((c, d, a, v))
    return _stitch(n, faces, 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 300), seed=st.integers(0, 2**32 - 1))
def test_stacked_generators_match_the_reference(n, seed):
    assert (pg.write_plane(tp.gen_triangulation(n, seed))
            == pg.write_plane(_reference_triangulation(n, seed)))
    assert (pg.write_plane(tp.gen_stacked_quadrangulation(n, seed))
            == pg.write_plane(_reference_quadrangulation(n, seed)))


def _plain_grid(rows: int, cols: int) -> tp.PlaneGraph:
    """The rows x cols grid itself: edges numbered vertex by vertex, each
    adding its east, then its north edge; rotations ccw from east; the
    outer dart runs west from (0, 1)."""
    n = rows * cols
    edges: list[tuple[int, int]] = []
    dart: dict[tuple[int, int], int] = {}
    for v in range(n):
        i, j = divmod(v, cols)
        for w, present in ((v + 1, j + 1 < cols), (v + cols, i + 1 < rows)):
            if present:
                dart[v, w], dart[w, v] = 2 * len(edges), 2 * len(edges) + 1
                edges.append((v, w))
    rotations = [[dart[v, w] for w in (v + 1, v + cols, v - 1, v - cols)
                  if (v, w) in dart] for v in range(n)]
    return pg.build(n, edges, rotations, 1)


GRID_SIZES = [(r, c) for r in range(2, 13) for c in range(2, 13)]
GRID_SIZES += [(2, 40), (40, 2), (40, 25)]


def test_gen_grid_matches_quadrangulating_the_plain_grid():
    for rows, cols in GRID_SIZES:
        ref, _ = pg.quadrangulate(_plain_grid(rows, cols))
        assert pg.write_plane(tp.gen_grid(rows, cols)) == pg.write_plane(ref), (rows, cols)


@pytest.mark.parametrize("key", [("grid", 2, 2), ("grid", 7, 9), ("tri", 60, 1),
                                 ("quad", 60, 1)],
                         ids=lambda k: "-".join(map(str, k)))
def test_every_generator_builds_once(monkeypatch, key):
    kind, *args = key
    build, calls = pg.build, []

    def counted(*a):
        calls.append(a)
        return build(*a)

    monkeypatch.setattr(pg, "build", counted)
    monkeypatch.setattr(gen, "build", counted)
    for _ in range(3):
        calls.clear()
        GENERATORS[kind](*args)
        assert len(calls) == 1
