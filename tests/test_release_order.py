"""A verified build holds one plane graph at a time.

Spies put on the bindings the driver calls keep weak references to what a
stage made and note, when the next stage starts, which of those are still
alive.  The inputs are thinned and disconnected, so every stage makes a new
object: ``connect_components`` a connected graph, the completion a larger
one, and the restriction a sequence of its own.
"""

import weakref

import pytest

import twinplanar as tp
from test_golden import _thinned
from twinplanar import buildctx, seq_planar
from twinplanar import plane_graph as pg

CASES = {
    "planar": (tp.planar_sequence,
               lambda: _thinned(tp.gen_triangulation(200, 3), 4)),
    "bipartite": (tp.bipartite_sequence,
                  lambda: _thinned(tp.gen_grid(12, 17), 5)),
}


def _input(mode):
    build, make = CASES[mode]
    g0 = make()
    assert g0.ncomp > 1
    return build, g0


def _spy(monkeypatch, owner, name, before=None, after=None):
    """Wrap ``owner.name``: ``before(*args)`` runs ahead of the call and
    ``after(result, *args)`` behind it."""
    real = getattr(owner, name)

    def wrapper(*args):
        if before is not None:
            before(*args)
        out = real(*args)
        if after is not None:
            after(out, *args)
        return out

    monkeypatch.setattr(owner, name, wrapper)


def _alive(refs):
    return sorted(k for k, ref in refs.items() if ref() is not None)


@pytest.mark.parametrize("mode", sorted(CASES))
def test_the_build_is_dead_when_the_verifier_starts(monkeypatch, mode):
    build, g0 = _input(mode)
    refs = {}
    at_verify = []

    def tree_made(t, g, _root):
        refs["graph"], refs["tree"] = weakref.ref(g), weakref.ref(t)

    def sequence_made(seq, ctx):
        refs["sequence"], refs["ctx"] = weakref.ref(seq), weakref.ref(ctx)

    _spy(monkeypatch, seq_planar, "left_aligned_bfs_tree", after=tree_made)
    _spy(monkeypatch, buildctx.BuildCtx, "sequence", after=sequence_made)
    _spy(monkeypatch, seq_planar, "verify_sequence",
         before=lambda *_: at_verify.append(_alive(refs)))
    seq0, _ = build(g0)
    assert seq0.n == g0.n
    assert sorted(refs) == ["ctx", "graph", "sequence", "tree"]
    assert at_verify == [[]]


@pytest.mark.parametrize("mode", sorted(CASES))
def test_the_connected_graph_is_dead_when_the_tree_is_made(monkeypatch, mode):
    build, g0 = _input(mode)
    refs = {}
    at_tree = []

    def connected(out, g):
        assert out[0] is not g
        refs["connected"] = weakref.ref(out[0])

    _spy(monkeypatch, seq_planar, "connect_components", after=connected)
    _spy(monkeypatch, seq_planar, "left_aligned_bfs_tree",
         before=lambda *_: at_tree.append(_alive(refs)))
    build(g0)
    assert at_tree == [[]]


@pytest.mark.parametrize("mode", sorted(CASES))
def test_finalize_drops_the_splicer_maps_before_build(monkeypatch, mode):
    build, g0 = _input(mode)
    made = []
    at_build = []
    _spy(monkeypatch, pg._Splicer, "__init__",
         after=lambda _, sp, *args: made.append(sp))
    _spy(monkeypatch, pg, "build", before=lambda *_: at_build.append(
        [(sp.after, sp.new_rot, sp.tail) for sp in made]))
    build(g0)
    # connect's finalize, then the completion's
    none = (None, None, None)
    assert at_build == [[none], [none, none]]
