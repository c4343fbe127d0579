import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar import plane_graph as pg
from twinplanar.buildctx import BuildCtx
from twinplanar.instrument import InvariantChecker
from twinplanar.seq_planar import _second_stage, planar_sequence_full


def test_k4_full_and_small_width():
    g = tp.gen_triangulation(4, 0)
    seq, rep = tp.planar_sequence(g)
    assert rep.full
    assert rep.width <= 8
    assert rep.width <= 4  # in practice far below the bound


def test_single_interior_vertex():
    # K4: one vertex inside the outer triangle; the core emits at most a
    # couple of housekeeping steps before the final phase
    g = tp.gen_triangulation(4, 1)
    seq, rep, (full, G, t) = planar_sequence_full(g)
    assert rep.full and rep.width <= 4


def test_icosahedron_width_at_most_8():
    solids = tp.platonic_solids()
    seq, rep = tp.planar_sequence(solids["icosahedron"])
    assert rep.full
    assert rep.width <= 8


def test_all_platonic_solids():
    for name, g in tp.platonic_solids().items():
        seq, rep = tp.planar_sequence(g)
        assert rep.full, name
        assert rep.width <= 8, (name, rep.width)


def test_stacked_corpus_widths():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(4, 300)
        g = tp.gen_triangulation(n, rng.randrange(10 ** 6))
        seq, rep = tp.planar_sequence(g)
        assert rep.full
        assert rep.width <= 8, (n, rep.width)


def test_assert_mode_apollonian_500():
    g = tp.gen_triangulation(500, 123)
    chk = InvariantChecker("planar")
    seq, rep = tp.planar_sequence(g, checker=chk)
    assert rep.width <= 8
    assert chk.steps_checked >= 400


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 120), st.integers(0, 10 ** 6))
def test_planar_property(n, seed):
    g = tp.gen_triangulation(n, seed)
    seq, rep = tp.planar_sequence(g)
    assert rep.full
    assert rep.width <= 8
    assert len(seq.steps) == n - 1


def test_sparse_planar_inputs_via_embedding():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(4, 40)
        g = tp.gen_triangulation(n, rng.randrange(10 ** 6))
        sub = [e for e in g.edges if rng.random() < 0.55]
        ga = pg.embed_abstract(n, sub)
        seq, rep = tp.planar_sequence(ga)
        assert rep.full and rep.width <= 8


def test_deterministic_output():
    g = tp.gen_triangulation(60, 9)
    s1, _ = tp.planar_sequence(g)
    s2, _ = tp.planar_sequence(g)
    assert s1.steps == s2.steps


def test_rejects_multigraph():
    # the completion refuses it; a disconnected one is connected first
    connected = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], 0)
    disconnected = pg.build(4, [(0, 1), (0, 1), (2, 3)],
                            [[0, 2], [3, 1], [4], [5]], 0)
    for g in (connected, disconnected):
        with pytest.raises(tp.PlaneError,
                           match="^triangulate requires a simple graph$"):
            tp.planar_sequence(g)


def _lid_above_the_deepest_level(g, t):
    """An edge whose deeper end lies one level above the deepest vertex,
    deeper end first: the lid of a region whose survivors reach ell + 1,
    the deepest level a region can hand its drain (see ``_second_stage``)."""
    dep = t.depth
    ell = max(dep) - 1
    return next((u, w) if dep[u] >= dep[w] else (w, u) for u, w in g.edges
                if max(dep[u], dep[w]) == ell)


def _by_level(g, t):
    by_level = {}
    for v in range(g.n):
        if t.depth[v] >= 1:
            by_level.setdefault(t.depth[v], []).append(v)
    return by_level


def test_second_stage_drain_only_when_one_per_level():
    # a 1-reduced face with a vertex on every level down to ell + 1 only
    # needs the drain: one contraction, ell + 1 into ell
    g = tp.gen_triangulation(30, 2)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    v1, v2 = _lid_above_the_deepest_level(g, t)
    ell = t.depth[v1]
    base = {lv: vs[0] for lv, vs in _by_level(g, t).items()}
    assert sorted(base) == list(range(1, ell + 2))
    before = dict(base)
    out = _second_stage(ctx, base, (), 0, v1, v2, 99)
    assert ctx.steps == [(before[ell + 1], before[ell])]
    assert out == {**{i: w for i, w in before.items() if i < ell}, ell: g.n}


def test_second_stage_refuses_a_level_gap():
    # survivors on ell + 1 and ell - 1: no region can hand up such a gap
    # (see the drain), so the drain stops before it emits a step
    g = tp.gen_triangulation(100, 2)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    v1, v2 = _lid_above_the_deepest_level(g, t)
    ell = t.depth[v1]
    by_level = _by_level(g, t)
    with pytest.raises(tp.BuilderError, match=re.escape(
            f"no survivor on level {ell} to drain level {ell + 1} into")):
        _second_stage(ctx, {ell + 1: by_level[ell + 1][0],
                            ell - 1: by_level[ell - 1][0]}, (), 0, v1, v2, 99)
    assert ctx.steps == []


def _pick_lid(g, t):
    walk = g.faces[g.outer_face]
    vs = [g.tail[d] for d in walk]
    others = [v for v in vs if v != t.root]
    return others[0], others[1]


def test_second_stage_ladder_two_per_level():
    # two vertices per level down to ell + 1: pass one contracts exactly one
    # pair per level, then the drain takes ell + 1 into ell
    g = tp.gen_triangulation(40, 3)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    v1, v2 = _lid_above_the_deepest_level(g, t)
    ell = t.depth[v1]
    by_level = _by_level(g, t)
    base = {lv: vs[0] for lv, vs in by_level.items() if len(vs) >= 2}
    adds = [(lv, by_level[lv][1]) for lv in base]
    levels = sorted(base)
    assert levels == list(range(1, ell + 2))
    out = _second_stage(ctx, base, adds, 0, v1, v2, 99)
    assert len(ctx.steps) == len(levels) + 1
    assert sorted(out) == levels[:-1]


def _three_at_depth(g, t):
    by_level = {}
    for v in range(g.n):
        by_level.setdefault(t.depth[v], []).append(v)
    return next((lv, vs[:3]) for lv, vs in sorted(by_level.items())
                if len(vs) >= 3)


def test_second_stage_rejects_a_third_vertex_on_a_level():
    g = tp.gen_triangulation(40, 3)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    lv, (a, b, c) = _three_at_depth(g, t)
    for base, adds in (({lv: a}, [(lv, b), (lv, c)]),
                       ({}, [(lv, a), (lv, b), (lv, c)])):
        ctx = BuildCtx(g, t)
        with pytest.raises(tp.BuilderError, match=f"level {lv} holds 3 vertices"):
            _second_stage(ctx, base, adds, 0, *_pick_lid(g, t), 99)
        assert ctx.steps == []


def test_second_stage_rejects_an_added_vertex_at_the_bound():
    # the bound covers the merged dict and is checked before any pairing
    g = tp.gen_triangulation(40, 3)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    lv, (a, b, c) = _three_at_depth(g, t)
    with pytest.raises(tp.BuilderError, match="boundary minimum"):
        _second_stage(ctx, {lv: a}, [(lv, b), (lv - 1, t.parent[c])], lv - 1,
                      *_pick_lid(g, t), 99)
    assert ctx.steps == []


def test_verify_roundtrip_on_completed_graph():
    g0 = tp.gen_triangulation(80, 21)
    seq, rep, (full_seq, G, t) = planar_sequence_full(g0)
    rep_full = tp.verify_sequence(G.n, G.edges, full_seq)
    assert rep_full.full
    assert rep_full.width <= 8


def test_width_report_prefix_monotone_consistency():
    g = tp.gen_triangulation(50, 4)
    seq, rep = tp.planar_sequence(g)
    # per-step maxima are the running maxima of a replay, hence they agree
    # with an independent replay by the naive reference on small graphs
    assert max(rep.per_step_max) == rep.width


@pytest.mark.parametrize("entry", [tp.planar_sequence, tp.planar_sequence_full,
                                   tp.bipartite_sequence, tp.bipartite_sequence_full],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("gc_on", [True, False], ids=["gc-on", "gc-off"])
def test_entry_points_leave_the_gc_as_they_found_it(entry, gc_on):
    import gc
    ok = tp.gen_quadrangulation(30, 1)  # bipartite, so both modes take it
    empty = pg.build(0, [], [], 0)
    odd = tp.gen_triangulation(5, 0)
    was = gc.isenabled()
    try:
        (gc.enable if gc_on else gc.disable)()
        entry(ok)
        assert gc.isenabled() is gc_on
        with pytest.raises(tp.PlaneError,
                           match="^empty graph: nothing to connect$"):
            entry(empty)
        assert gc.isenabled() is gc_on
        if entry.__name__.startswith("bipartite"):
            with pytest.raises(tp.PlaneError, match="^not bipartite: odd cycle"):
                entry(odd)
            assert gc.isenabled() is gc_on
    finally:
        (gc.enable if was else gc.disable)()
