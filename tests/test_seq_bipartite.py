import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar import plane_graph as pg
from twinplanar.buildctx import BuildCtx, merge_survivors
from twinplanar.instrument import InvariantChecker
from twinplanar.seq_bipartite import bipartite_sequence_full


def cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    rots = [[2 * i, 2 * ((i - 1) % n) + 1] for i in range(n)]
    return pg.build(n, edges, rots, 1)


def test_c4_width_zero():
    seq, rep = tp.bipartite_sequence(cycle_graph(4))
    assert rep.full
    assert rep.width == 0  # opposite vertices are twins


def test_grid_16x16_width_at_most_6():
    g = tp.gen_grid(16, 16)
    seq, rep = tp.bipartite_sequence(g)
    assert rep.full
    assert rep.width <= 6


def test_grids_with_checker():
    for dims in ((2, 2), (2, 5), (3, 4), (7, 7), (5, 12)):
        g = tp.gen_grid(*dims)
        chk = InvariantChecker("bipartite")
        seq, rep = tp.bipartite_sequence(g, checker=chk)
        assert rep.full
        assert rep.width <= 6, (dims, rep.width)


def test_stacked_quads_corpus():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(4, 400)
        g = tp.gen_stacked_quadrangulation(n, rng.randrange(10 ** 6))
        seq, rep = tp.bipartite_sequence(g)
        assert rep.full
        assert rep.width <= 6, (n, rep.width)


def test_assert_mode_stacked_quads():
    g = tp.gen_stacked_quadrangulation(500, 77)
    chk = InvariantChecker("bipartite")
    seq, rep = tp.bipartite_sequence(g, checker=chk)
    assert rep.width <= 6
    assert chk.steps_checked >= 400


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 150), st.integers(0, 10 ** 6))
def test_bipartite_property(n, seed):
    g = tp.gen_stacked_quadrangulation(n, seed)
    seq, rep = tp.bipartite_sequence(g, checker=InvariantChecker("bipartite"))
    assert rep.full
    assert rep.width <= 6
    assert seq.contract_count == n - 1


def test_bipartite_trees_and_even_cycles():
    for n in (6, 8, 10, 14):
        seq, rep = tp.bipartite_sequence(cycle_graph(n))
        assert rep.full and rep.width <= 6
    # a random tree via embedding
    rng = random.Random(5)
    edges = [(i, rng.randrange(i)) for i in range(1, 20)]
    g = pg.embed_abstract(20, edges)
    seq, rep = tp.bipartite_sequence(g)
    assert rep.full and rep.width <= 6


def test_rejects_odd_cycle():
    with pytest.raises(tp.PlaneError, match="^not bipartite: odd cycle"):
        tp.bipartite_sequence(cycle_graph(5))
    # neither simple nor bipartite, and disconnected: the odd cycle is
    # reported, after connecting
    c5 = cycle_graph(5)
    g = pg.build(7, c5.edges + [(5, 6), (5, 6)],
                 c5.rot + [[10, 12], [13, 11]], c5.outer_dart)
    with pytest.raises(tp.PlaneError,
                       match=r"^not bipartite: odd cycle \[0, 1, 2, 3, 4\]$"):
        tp.bipartite_sequence(g)


def test_rejects_multigraph():
    # the completion refuses it; a disconnected one is connected first
    connected = pg.build(2, [(0, 1), (0, 1)], [[0, 2], [1, 3]], 0)
    disconnected = pg.build(4, [(0, 1), (0, 1), (2, 3)],
                            [[0, 2], [3, 1], [4], [5]], 0)
    for g in (connected, disconnected):
        with pytest.raises(tp.PlaneError,
                           match="^quadrangulate requires a simple graph$"):
            tp.bipartite_sequence(g)


def test_deterministic_output():
    g = tp.gen_stacked_quadrangulation(80, 2)
    s1, _ = tp.bipartite_sequence(g)
    s2, _ = tp.bipartite_sequence(g)
    assert s1.steps == s2.steps


def test_every_step_level_preserving_until_final_phase():
    g = tp.gen_stacked_quadrangulation(60, 9)
    seq, rep, (full_seq, G, t) = bipartite_sequence_full(g)
    lev = {v: t.depth[v] for v in range(G.n)}
    n_final = 4 + 0  # final phase: <= 1 rem-merge + 3 quad contractions
    core = full_seq.steps
    # walk steps; stop checking when a cross-level contraction appears, and
    # require that only the last few steps are of that kind
    bad_at = None
    fresh = G.n
    for i, s in enumerate(core):
        if s[0] != "k":
            continue
        _, x, y, z = s
        if lev[x] != lev[y] and bad_at is None:
            bad_at = i
        lev[z] = min(lev[x], lev[y])
        fresh += 1
    if bad_at is not None:
        # the tail is the final phase: at most one fold per survivor level
        # plus the rem-merge and the three outer-quad contractions
        assert len(core) - bad_at <= max(t.depth) + 4


def test_bi_second_stage_empty_and_pairs():
    g = tp.gen_grid(5, 5)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    assert merge_survivors(ctx, {}, (), t.depth[t.root], "the sink level") == {}
    by_level = _by_level(g, t)
    base = {lv: vs[0] for lv, vs in by_level.items() if len(vs) >= 2}
    adds = [(lv, by_level[lv][1]) for lv in base]
    levels = sorted(base)
    k = len(levels)
    out = merge_survivors(ctx, base, adds, t.depth[t.root], "the sink level")
    assert sum(1 for s in ctx.steps if s[0] == "k") == k  # one per level
    assert sorted(out) == levels


def _by_level(g, t):
    by_level = {}
    for v in range(g.n):
        if t.depth[v] >= 1:
            by_level.setdefault(t.depth[v], []).append(v)
    return by_level


def test_bi_second_stage_rejects_a_third_vertex_on_a_level():
    g = tp.gen_grid(5, 5)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    lv, vs = next((lv, vs) for lv, vs in sorted(_by_level(g, t).items())
                  if len(vs) >= 3)
    a, b, c = vs[:3]
    for base, adds in (({lv: a}, [(lv, b), (lv, c)]),
                       ({}, [(lv, a), (lv, b), (lv, c)])):
        ctx = BuildCtx(g, t)
        with pytest.raises(tp.BuilderError, match=f"level {lv} holds 3 vertices"):
            merge_survivors(ctx, base, adds, t.depth[t.root], "the sink level")
        assert ctx.steps == []


def test_bi_second_stage_rejects_an_added_vertex_at_the_sink_level():
    # the bound covers the merged dict and is checked before any pairing
    g = tp.gen_grid(5, 5)
    t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
    ctx = BuildCtx(g, t)
    by_level = _by_level(g, t)
    lv = next(lv for lv, vs in sorted(by_level.items())
              if len(vs) >= 2 and len(by_level.get(lv - 1, ())) >= 2)
    a, b = by_level[lv][:2]
    sink, x = by_level[lv - 1][:2]
    with pytest.raises(tp.BuilderError, match="sink level"):
        merge_survivors(ctx, {lv: a}, [(lv, b), (lv - 1, x)], t.depth[sink],
                        "the sink level")
    assert ctx.steps == []


def test_strict_level_crossing_along_core():
    # Every edge of every intermediate trigraph spans exactly one level
    # (checked live by the instrument during the build).
    g = tp.gen_grid(9, 6)
    chk = InvariantChecker("bipartite")
    seq, rep = tp.bipartite_sequence(g, checker=chk)
    assert rep.width <= 6
