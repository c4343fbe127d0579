"""Golden outputs: the exact bytes of `write_seq` for a few fixed builds.

Refactors of the builders promise byte-identical sequences.  These hashes
pin that promise on inputs that go through every pipeline stage: connect
(the thinned inputs are disconnected), completion (all but the stacked
triangulation need added vertices) and restriction back to the input.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import twinplanar as tp
from twinplanar import plane_graph as pg


def _thinned(g: tp.PlaneGraph, seed: int) -> tp.PlaneGraph:
    rng = random.Random(seed)
    return tp.embed_abstract(g.n, [e for e in g.edges if rng.random() < 0.45])


def _stacked():
    return tp.gen_triangulation(200, 3)


def _grid():
    return tp.gen_grid(12, 17)


def _stacked_thinned():
    return _thinned(tp.gen_triangulation(200, 3), 4)


def _grid_thinned():
    return _thinned(tp.gen_grid(12, 17), 5)


# name: (input, builder, whether completion adds vertices, sha256)
CASES = {
    "stacked-planar": (_stacked, tp.planar_sequence_full, False,
        "59f34b8e049676d90587ebd71e98344d6822b89ab25d50186457422885aec8e2"),
    "grid-planar": (_grid, tp.planar_sequence_full, True,
        "cbf10f7d4b3a0e41eaa536c6e70d257dcd5f68bb3ddbad0184d11c856da91588"),
    "grid-bipartite": (_grid, tp.bipartite_sequence_full, False,
        "cdbb45a5ea18f6d75f858bf76462ff11d68b372740eb3fb0d92dcf8bec613f58"),
    "thinned-stacked-planar": (_stacked_thinned, tp.planar_sequence_full, True,
        "573e1867feaeff6f66c4029e9f371182df5ff1043436a7fc64b8ee78f546e397"),
    "thinned-grid-planar": (_grid_thinned, tp.planar_sequence_full, True,
        "23a8c3b4ddab7b758c4fdfeb0404d27a1efa12c5437de6d1c6a53bb695d731f4"),
    "thinned-grid-bipartite": (_grid_thinned, tp.bipartite_sequence_full, True,
        "f74ff1ed0adda12929f9a4a0b8443371e224425e4cee5572af6627bc783ebc01"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_seq_is_byte_identical(name):
    make, build, grows, digest = CASES[name]
    g0 = make()
    seq0, report, (seq, g, _t) = build(g0)
    assert seq0.is_full() and report.full
    if name.startswith("thinned"):
        assert len(pg.connected_components(g0)) > 1  # connect runs
    assert (g.n > g0.n) == grows  # restriction runs iff vertices were added
    text = tp.write_seq(seq0)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
