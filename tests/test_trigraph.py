import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import trigraph as tg


def test_contract_twins_stay_black():
    t = tg.Trigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    z = t.contract(0, 1)
    assert t.black[z] == {2, 3}
    assert t.red[z] == set()


def test_contract_symmetric_difference_goes_red():
    # N(0)={2,3}, N(1)={3,4}: z red to 2 and 4, black to 3
    t = tg.Trigraph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    z = t.contract(0, 1)
    assert t.red[z] == {2, 4}
    assert t.black[z] == {3}


def test_contract_red_inherited():
    t = tg.Trigraph(3, [(0, 2), (1, 2)])
    t.black[0].discard(2)
    t.black[2].discard(0)
    t.red[0].add(2)
    t.red[2].add(0)
    z = t.contract(0, 1)
    assert t.red[z] == {2}


def test_contract_errors():
    t = tg.Trigraph(3, [(0, 1)])
    with pytest.raises(tg.SequenceError):
        t.contract(0, 0)
    t.contract(0, 1)
    with pytest.raises(tg.SequenceError):
        t.contract(0, 2)


# -- verify_sequence ----------------------------------------------------------


def kn_edges(n):
    return list(combinations(range(n), 2))


def test_verify_kn_twins_width_zero():
    n = 6
    seq = tg.ContractionSequence(n)
    alias = 0
    cur = list(range(n))
    fresh = n
    while len(cur) > 1:
        x, y = cur[0], cur[1]
        seq.steps.append(("k", x, y, fresh))
        cur = cur[2:] + [fresh]
        fresh += 1
    rep = tg.verify_sequence(n, kn_edges(n), seq)
    assert rep.width == 0
    assert rep.full


def test_verify_cograph_width_zero():
    # (K2 + K2) fully joined: a cograph; twin-eliminating order
    edges = [(0, 1), (2, 3)] + [(a, b) for a in (0, 1) for b in (2, 3)]
    seq = tg.ContractionSequence(4, [("k", 0, 1, 4), ("k", 2, 3, 5),
                                     ("k", 4, 5, 6)])
    rep = tg.verify_sequence(4, edges, seq)
    assert rep.width == 0


def test_verify_p4_best_width_one():
    # frozen from the exhaustive oracle: tww(P4) = 1
    p4 = [(0, 1), (1, 2), (2, 3)]
    res = tp.exact_twinwidth(4, p4)
    assert res.width == 1
    rep = tg.verify_sequence(4, p4, res.witness)
    assert rep.width == 1


def test_verify_rejects_bad_fresh_id():
    seq = tg.ContractionSequence(3, [("k", 0, 1, 5)])
    with pytest.raises(tg.SequenceError, match="fresh id"):
        tg.verify_sequence(3, [(0, 1)], seq)


def test_verify_rejects_reuse():
    seq = tg.ContractionSequence(3, [("k", 0, 1, 3), ("k", 0, 2, 4)])
    with pytest.raises(tg.SequenceError, match="dead"):
        tg.verify_sequence(3, [(0, 1)], seq)


def test_verify_rejects_bad_level_decrease():
    seq = tg.ContractionSequence(2, [("d", 0)])
    with pytest.raises(tg.SequenceError, match="illegal level decrease"):
        tg.verify_sequence(2, [(0, 1)], seq, levels=[0, 1])


def test_verify_debug_recheck():
    # one builder output per benchmark family: stacked, grid, thinned stacked
    tri = tp.gen_triangulation(200, 3)
    rng = random.Random(4)
    thinned = tp.embed_abstract(
        tri.n, [e for e in tri.edges if rng.random() < 0.45])
    for g, build in ((tri, tp.planar_sequence),
                     (tp.gen_grid(12, 17), tp.bipartite_sequence),
                     (thinned, tp.planar_sequence)):
        seq, rep = build(g)
        rep2 = tg.verify_sequence(g.n, g.edges, seq, debug_recheck=1)
        assert rep2.per_step_max == rep.per_step_max


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.1, 0.3, 0.6]), st.randoms())
def test_red_histogram_matches_reference(n, p, rng):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    seq = tg.ContractionSequence(n)
    live = list(range(n))
    while len(live) > 1:
        x, y = rng.sample(live, 2)
        z = n + len(seq.steps)
        live.remove(x)
        live.remove(y)
        live.append(z)
        seq.steps.append(("k", x, y, z))
    rep = tg.verify_sequence(n, edges, seq, debug_recheck=1)
    assert rep.per_step_max == tp.reference_verify(n, edges, seq).per_step_max


@pytest.mark.parametrize("edge", [(0, 5), (0, -1)], ids=["past-n", "negative"])
def test_verify_rejects_edge_endpoint_out_of_range(edge):
    seq = tg.ContractionSequence(3, [("k", 0, 1, 3), ("k", 2, 3, 4)])
    with pytest.raises(tg.SequenceError, match=r"outside 0\.\.2"):
        tg.verify_sequence(3, [edge], seq)


# -- classification and levels ------------------------------------------------


def test_classify_level_preserving():
    t = tg.Trigraph(4, [(0, 1), (2, 3)], levels=[5, 5, 5, 5])
    assert tg.classify_step(t, ("k", 0, 1, 4)) == tg.LEVEL_PRESERVING


def test_classify_level_respecting_case():
    # y at level 5, every neighbour of y at level 4
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[4, 5, 4])
    assert tg.classify_step(t, ("k", 0, 1, 3)) == tg.LEVEL_RESPECTING


def test_classify_violation():
    # y at level 5 keeps a level-6 neighbour
    t = tg.Trigraph(4, [(0, 1), (1, 2), (1, 3)], levels=[4, 5, 4, 6])
    assert tg.classify_step(t, ("k", 0, 1, 4)) == tg.VIOLATION


def test_min_level_update_and_decrease():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[3, 4, 3])
    tg.min_level_update(t, ("k", 0, 1, 3))
    assert t.level[3] == 3
    t2 = tg.Trigraph(2, [(0, 1)], levels=[3, 2])
    tg.min_level_update(t2, ("d", 0))
    assert t2.level[0] == 2
    with pytest.raises(tg.SequenceError):
        tg.min_level_update(t2, ("d", 1))


def test_good_assignment():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[0, 1, 2])
    assert tg.is_good_assignment(t)
    t2 = tg.Trigraph(2, [(0, 1)], levels=[0, 2])
    assert not tg.is_good_assignment(t2)


def test_min_level_respecting_keeps_goodness():
    # per-step goodness assertion along a planar build
    rng = random.Random(0)
    g = tp.gen_triangulation(30, rng.randrange(10 ** 6))
    seq, _rep, (full_seq, G, t) = tp.planar_sequence_full(g)
    sim = tg.Trigraph(G.n, G.edges, levels=t.depth)
    nfinal = 4  # final-phase steps are outside the level discipline
    for step in full_seq.steps[:-nfinal]:
        tg.min_level_update(sim, step)
        assert tg.is_good_assignment(sim)


def test_claim_new_red_edges_stay_within_one_layer():
    rng = random.Random(1)
    for _ in range(10):
        g = tp.gen_triangulation(rng.randrange(6, 30), rng.randrange(10 ** 6))
        t = tp.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
        sim = tg.Trigraph(g.n, g.edges, levels=list(t.depth))
        # contract two same-level vertices and inspect the new red edges
        by_level = {}
        for v in range(g.n):
            by_level.setdefault(t.depth[v], []).append(v)
        pair = next(vs for vs in by_level.values() if len(vs) >= 2)
        x, y = pair[:2]
        lev = sim.level[x]
        z = sim.contract(x, y)
        for w in sim.red[z]:
            assert sim.level[w] in (lev - 1, lev, lev + 1)


# -- restriction ---------------------------------------------------------------


def test_restrict_identity():
    g = tp.gen_triangulation(12, 0)
    seq, rep = tp.planar_sequence(g)
    sub = tg.restrict_sequence(seq, range(g.n))
    assert sub.contract_count == seq.contract_count
    rep2 = tg.verify_sequence(g.n, g.edges, sub)
    assert rep2.width == rep.width


def test_restrict_singleton_empty():
    g = tp.gen_triangulation(9, 2)
    seq, _ = tp.planar_sequence(g)
    sub = tg.restrict_sequence(seq, [3])
    assert sub.n == 1 and sub.steps == []
    assert sub.is_full()


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 40), st.integers(0, 10 ** 6), st.randoms())
def test_restrict_monotone(n, seed, rng):
    g = tp.gen_triangulation(n, seed)
    seq, rep = tp.planar_sequence(g)
    k = rng.randrange(1, n)
    keep = sorted(rng.sample(range(n), k))
    sub = tg.restrict_sequence(seq, keep)
    idx = {v: i for i, v in enumerate(keep)}
    sub_edges = [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx]
    rep2 = tg.verify_sequence(len(keep), sub_edges, sub)
    assert rep2.full
    assert rep2.width <= rep.width


# -- sequence format -----------------------------------------------------------


def test_seq_format_roundtrip():
    g = tp.gen_triangulation(25, 7)
    seq, _ = tp.planar_sequence(g)
    text = tg.write_seq(seq, comments=["made by a test"])
    seq2 = tg.parse_seq(text)
    assert seq2.n == seq.n and seq2.steps == seq.steps
    assert tg.write_seq(seq2, comments=["made by a test"]) == text


def test_seq_format_rejects_bad_fresh():
    with pytest.raises(tp.FormatError, match="fresh"):
        tg.parse_seq("p tww-seq 3 1\nk 0 1 7\n")
    with pytest.raises(tp.FormatError, match="declared"):
        tg.parse_seq("p tww-seq 3 2\nk 0 1 3\n")


def test_classify_modes():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[4, 5, 4])
    step = ("k", 0, 1, 3)
    assert tg.classify_step(t, step, mode="respecting") == tg.LEVEL_RESPECTING
    assert tg.classify_step(t, step, mode="preserving") == tg.VIOLATION
    t2 = tg.Trigraph(2, [(0, 1)], levels=[3, 2])
    assert tg.classify_step(t2, ("d", 0), mode="min") == tg.LEVEL_RESPECTING
    assert tg.classify_step(t2, ("d", 0), mode="respecting") == tg.VIOLATION
    with pytest.raises(ValueError):
        tg.classify_step(t2, step, mode="bogus")
