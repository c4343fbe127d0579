"""Seeded inputs for the benchmark workloads.

Each workload names a builder mode, an input family and a size.  A run
derives all of its inputs from the run seed: input ``i`` of run seed ``s``
uses generator seed ``s * 1000 + i``, and the small correctness-gate
instance uses ``s * 1000 + GATE_OFFSET``.  Only names that the
``twinplanar`` package exports are used here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import twinplanar as tp
from twinplanar import PlaneGraph

INPUTS = 5  # distinct inputs per run, used round-robin
GATE_OFFSET = 999
GATE_SIZE = 200  # reference_verify is O(n^3); 200 vertices take about a second
KEEP_P = 0.45  # share of edges that thin() keeps


def stacked(n: int, seed: int) -> PlaneGraph:
    return tp.gen_triangulation(n, seed)


def grid(n: int, seed: int) -> PlaneGraph:
    """A rows x cols grid with rows*cols close to n and the aspect ratio
    drawn from the seed: rows between 0.6*sqrt(n) and sqrt(n)."""
    side = math.isqrt(n)
    rows = random.Random(seed).randint(math.ceil(0.6 * side), side)
    return tp.gen_quadrangulation(n, seed, grid=(rows, round(n / rows)))


def thin(g: PlaneGraph, seed: int) -> PlaneGraph:
    """Keep each edge of g with probability KEEP_P and rebuild the plane
    graph from the surviving darts (their rotation order is unchanged, so
    the embedding stays planar).  The result is usually disconnected and
    has long faces."""
    rng = random.Random(f"thin-{seed}")
    new_eid = [-1] * g.m
    edges = []
    for e, uv in enumerate(g.edges):
        if rng.random() < KEEP_P:
            new_eid[e] = len(edges)
            edges.append(uv)

    def dart(d: int) -> int:
        e = new_eid[d >> 1]
        return -1 if e < 0 else 2 * e + (d & 1)

    rotations = [[nd for nd in map(dart, r) if nd >= 0] for r in g.rot]
    kept_outer = [nd for nd in map(dart, g.faces[g.outer_face]) if nd >= 0]
    return tp.build(g.n, edges, rotations, kept_outer[0] if kept_outer else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                  # "planar" or "bipartite"
    size: int                  # input vertices (before any thinning)
    generate: Callable[[int, int], PlaneGraph]
    transform: Callable[[PlaneGraph, int], PlaneGraph] | None = None
    assert_mode: bool = False  # run InvariantChecker, as `seq --assert`

    @property
    def bound(self) -> int:
        return 8 if self.mode == "planar" else 6


WORKLOADS = {w.name: w for w in (
    # already a triangulation: completion is a no-op scan, BFS depth ~7;
    # time goes to the planar core, verify, layering and parse_plane
    Workload("tri-stacked", "planar", 10_000, stacked),
    # deep BFS (depth ~50 against ~7): bipartite core and the bipartite
    # validation preamble
    Workload("quad-grid", "bipartite", 13_000, grid),
    # thinned, disconnected, long faces: connect, triangulate (about 3.3x
    # growth), two builds inside the builder and restrict_sequence
    Workload("planar-sparse", "planar", 4_000, stacked, thin),
    # `seq --assert`: the per-step InvariantChecker and its Trigraph replay
    Workload("planar-assert", "planar", 3_000, stacked, assert_mode=True),
)}
