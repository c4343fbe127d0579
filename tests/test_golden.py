"""Golden outputs: the exact bytes of `write_seq` for a few fixed builds,
and of `write_plane` for the completed graph each build runs on.

Refactors of the builders promise byte-identical sequences and completions.
These hashes pin that promise on inputs that go through every pipeline
stage: connect (the thinned inputs are disconnected), completion (all but
the stacked triangulation need added vertices) and restriction back to the
input.
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


def _grid64():
    # BFS depth about 64: deep split merges, where survivors are handed up
    return tp.gen_grid(64, 64)


def _stacked_thinned():
    return _thinned(tp.gen_triangulation(200, 3), 4)


def _grid_thinned():
    return _thinned(tp.gen_grid(12, 17), 5)


# name: (input, builder, whether completion adds vertices,
#        sha256 of write_seq, sha256 of write_plane of the completed graph)
CASES = {
    "stacked-planar": (_stacked, tp.planar_sequence_full, False,
        "59f34b8e049676d90587ebd71e98344d6822b89ab25d50186457422885aec8e2",
        "46e1b67edca493d245feaa88283e96d291537ad55e87696c83d3c0c6cee54bef"),
    "grid-planar": (_grid, tp.planar_sequence_full, True,
        "cbf10f7d4b3a0e41eaa536c6e70d257dcd5f68bb3ddbad0184d11c856da91588",
        "f8569a8ea8af40aacc18df15e20a039ebf8836a0a2323bb194f543c62b1b6390"),
    "grid-bipartite": (_grid, tp.bipartite_sequence_full, False,
        "cdbb45a5ea18f6d75f858bf76462ff11d68b372740eb3fb0d92dcf8bec613f58",
        "6b416ce9e30936c73b5c6db62209d757028cb25bb245ee7fa0fb7a597a687471"),
    "grid64-planar": (_grid64, tp.planar_sequence_full, True,
        "ed1e3d24ce3d5ea7084e1dcd7caffd3d16b913644d6efb00a0b98d5363b216ae",
        "031e0b8a13bfa0316ae48f8607fa77856f43288725bbbaa0fd924ad13547e73d"),
    "grid64-bipartite": (_grid64, tp.bipartite_sequence_full, False,
        "6f857cae3ae56078c4e73354ad0b64e3461dbde0b1e2fd3b64838fd5ca82a6e1",
        "2c0d14394d2ff464e80457afd07456d5360a9934d9f2bc3ca1cc7d9679566906"),
    "thinned-stacked-planar": (_stacked_thinned, tp.planar_sequence_full, True,
        "ec45afee64367091dc88a4a0d55b787fd6cf66985429f9c6b400adbe60786831",
        "af8f122b362fce691234f72dce91d9d28192c16cdd776033f9d11acdcd4424d8"),
    "thinned-grid-planar": (_grid_thinned, tp.planar_sequence_full, True,
        "3b5029a22da47470b1a983d72c482f68ac128a7e9b7520eebc364500813a6636",
        "dfaf7bec5b5b0aa5df581950530be064cc02fcc120e297ac4cf7abb505f9b494"),
    "thinned-grid-bipartite": (_grid_thinned, tp.bipartite_sequence_full, True,
        "1f81b0b950106fef6c48f6e751e946fe6eaf4d6f42c5fc057f8a3aab6cb64dfe",
        "13ef71544490935e68f078870c119e64a9598503354f7de993b9567446005ff0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_seq_is_byte_identical(name):
    make, build, grows, digest, plane_digest = CASES[name]
    g0 = make()
    seq0, report, (seq, g, _t) = build(g0)
    assert seq0.is_full() and report.full
    if name.startswith("thinned"):
        assert len(pg.connected_components(g0)) > 1  # connect runs
    assert (g.n > g0.n) == grows  # restriction runs iff vertices were added
    text = tp.write_seq(seq0)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # a step is a pair of ints, and the text format reads back the same pairs
    assert all(type(s) is tuple and len(s) == 2 and type(s[0]) is int
               and type(s[1]) is int for s in seq0.steps)
    assert tp.parse_seq(text).steps == seq0.steps
    plane = pg.write_plane(g)
    assert hashlib.sha256(plane.encode()).hexdigest() == plane_digest
