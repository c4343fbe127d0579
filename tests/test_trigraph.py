import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar import trigraph as tg
from twinplanar.instrument import (OFF, ON, ON_RIGHT, RegionSpec,
                                   boundary_class, region_bounds)


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


VERIFIERS = {
    "incremental": lambda n, edges, seq: tg.verify_sequence(n, edges, seq),
    "incremental-levels": lambda n, edges, seq: tg.verify_sequence(
        n, edges, seq, levels=[0, 1, 2]),
    "reference": tp.reference_verify,
}


@pytest.mark.parametrize("verify", VERIFIERS.values(), ids=VERIFIERS.keys())
@pytest.mark.parametrize("step", [
    ("k", -2, 2, 4), ("k", 2, -1, 4), ("d", -1),
    ("k", 2, 4, 4), ("k", 9, 2, 4), ("d", 4), ("d", 7),
    ("k", 0, 2, 4), ("d", 1),
], ids=["k-negative-x", "k-negative-y", "d-negative", "k-fresh-id",
        "k-past-fresh", "d-fresh-id", "d-past-fresh", "k-dead", "d-dead"])
def test_verifiers_reject_a_step_on_an_id_that_is_not_live(verify, step):
    # after step 0, ids 0 and 1 are dead and 3 is the only fresh one;
    # a list would wrap -1 and -2 onto live ids
    seq = tg.ContractionSequence(3, [("k", 0, 1, 3), step])
    with pytest.raises(tg.SequenceError, match=r"^step 1: "):
        verify(3, [(0, 1), (1, 2)], seq)


def test_verify_debug_recheck_rejects_a_negative_period():
    seq = tg.ContractionSequence(2, [("k", 0, 1, 2)])
    with pytest.raises(ValueError, match="debug_recheck must be >= 0"):
        tg.verify_sequence(2, [(0, 1)], seq, debug_recheck=-1)


def test_recheck_runs_after_every_kth_global_step(monkeypatch):
    # a phantom red degree of 1 in the histogram: the running maximum reads
    # 1 from the first contraction on, while K6's twins keep every red
    # degree 0, so the first rescan reports the drift
    init = tg.Trigraph.__init__

    def phantom(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._red_hist[1] += 1

    monkeypatch.setattr(tg.Trigraph, "__init__", phantom)
    n = 6
    steps = [("k", 0, 1, 6), ("k", 2, 3, 7), ("k", 4, 5, 8),
             ("k", 6, 7, 9), ("k", 8, 9, 10)]
    seq = tg.ContractionSequence(n, steps)
    with pytest.raises(tg.SequenceError,
                       match=r"^step 2: red-degree drift: 1 != 0$"):
        tg.verify_sequence(n, kn_edges(n), seq, debug_recheck=3)
    # no rescan falls on steps 0..4 with K = 7, so the drift goes unseen
    rep = tg.verify_sequence(n, kn_edges(n), seq, debug_recheck=7)
    assert rep.per_step_max == [1] * 5
    # step indices run on across batches: with K = 3 the batch [1:3]
    # rescans after its first step (global step 2), not after local step 2
    t = tg.Trigraph(n, kn_edges(n))
    per_step = []
    t.replay(steps[:1], per_step, recheck=3)
    with pytest.raises(tg.SequenceError, match=r"^step 2: red-degree drift"):
        t.replay(steps[1:], per_step, recheck=3)
    assert per_step == [1, 1]


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


def is_good_assignment(t: tg.Trigraph) -> bool:
    """True iff every (black or red) edge spans at most one level."""
    if t.level is None:
        raise tg.SequenceError("no level assignment present")
    lev = t.level
    for v, bl in enumerate(t.black):
        if bl is None:
            continue  # contracted
        lv = lev[v]
        for w in bl:
            if abs(lv - lev[w]) > 1:
                return False
        for w in t.red[v]:
            if abs(lv - lev[w]) > 1:
                return False
    return True


def test_classify_level_preserving():
    t = tg.Trigraph(4, [(0, 1), (2, 3)], levels=[5, 5, 5, 5])
    assert tg.classify_step(t, ("k", 0, 1, 4), "preserving") == tg.LEVEL_PRESERVING


def test_classify_level_respecting_case():
    # y at level 5, every neighbour of y at level 4
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[4, 5, 4])
    assert tg.classify_step(t, ("k", 0, 1, 3), "respecting") == tg.LEVEL_RESPECTING


def test_classify_violation():
    # y at level 5 keeps a level-6 neighbour
    t = tg.Trigraph(4, [(0, 1), (1, 2), (1, 3)], levels=[4, 5, 4, 6])
    assert tg.classify_step(t, ("k", 0, 1, 4), "respecting") == tg.VIOLATION


def test_min_level_update_and_decrease():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[3, 4, 3])
    assert t.contract(0, 1) == 3
    assert t.level[3] == 3
    t2 = tg.Trigraph(2, [(0, 1)], levels=[3, 2])
    t2.decrease_level(0)
    assert t2.level[0] == 2
    with pytest.raises(tg.SequenceError, match="illegal level decrease"):
        t2.decrease_level(1)


def test_good_assignment():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[0, 1, 2])
    assert is_good_assignment(t)
    t2 = tg.Trigraph(2, [(0, 1)], levels=[0, 2])
    assert not is_good_assignment(t2)


def test_min_level_respecting_keeps_goodness():
    # per-step goodness assertion along a planar build
    rng = random.Random(0)
    g = tp.gen_triangulation(30, rng.randrange(10 ** 6))
    seq, _rep, (full_seq, G, t) = tp.planar_sequence_full(g)
    sim = tg.Trigraph(G.n, G.edges, levels=t.depth)
    nfinal = 4  # final-phase steps are outside the level discipline
    for step in full_seq.steps[:-nfinal]:
        if step[0] == "d":
            sim.decrease_level(step[1])
        else:
            assert sim.contract(step[1], step[2]) == step[3]
        assert is_good_assignment(sim)


def test_claim_new_red_edges_stay_within_one_layer():
    rng = random.Random(1)
    for _ in range(10):
        g = tp.gen_triangulation(rng.randrange(6, 30), rng.randrange(10 ** 6))
        t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
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


@pytest.mark.parametrize("text, msg", [
    ("p tww-seq 2 1\nk 0 1 2\np tww-seq 2 0\n",
     "line 3: 'p tww-seq 2 0': second 'p' header"),
    ("p tww-seq -2 0\n", "line 1: 'p tww-seq -2 0': negative count"),
    ("k 0 1 2\np tww-seq 2 1\n",
     "line 1: 'k 0 1 2': step before the 'p tww-seq' header"),
    ("c no header yet\nd 0\np tww-seq 2 1\n",
     "line 2: 'd 0': step before the 'p tww-seq' header"),
], ids=["second-header", "negative-n", "contraction-first", "decrease-first"])
def test_parse_seq_rejects_a_bad_header(text, msg):
    with pytest.raises(tp.FormatError, match=msg):
        tg.parse_seq(text)


def test_classify_modes():
    t = tg.Trigraph(3, [(0, 1), (1, 2)], levels=[4, 5, 4])
    step = ("k", 0, 1, 3)
    assert tg.classify_step(t, step, mode="respecting") == tg.LEVEL_RESPECTING
    assert tg.classify_step(t, step, mode="preserving") == tg.VIOLATION
    t2 = tg.Trigraph(2, [(0, 1)], levels=[3, 2])
    assert tg.classify_step(t2, ("d", 0), mode="respecting") == tg.VIOLATION
    with pytest.raises(ValueError):
        tg.classify_step(t2, step, mode="bogus")


@pytest.mark.parametrize("mode, x, y, rule", [
    ("planar", 0, 1, "level-respecting"),   # 1 keeps its deeper neighbour 2
    ("planar", 0, 2, "level-respecting"),   # two levels apart
    ("bipartite", 1, 2, "level-preserving"),
], ids=["planar-deeper-neighbour", "planar-two-apart", "bipartite-one-apart"])
def test_checker_rejects_steps_off_the_level_rule(mode, x, y, rule):
    # the path 0-1-2 rooted at 0: levels 0, 1, 2
    g = tp.build(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]], 0)
    chk = tp.InvariantChecker(mode)
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    with pytest.raises(tp.InvariantViolation, match=f"is not {rule}"):
        chk.on_contract(x, y, 3)


def test_checker_accepts_a_level_respecting_step():
    g = tp.build(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]], 0)
    chk = tp.InvariantChecker("planar")
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    chk.on_contract(1, 2, 3)  # every neighbour of 2 sits on level 1
    assert chk.sim.level[3] == 1


# -- region checks of the checker -----------------------------------------------


def captured_regions(mode, g):
    """The completed graph, its tree, and the RegionSpec of every region
    that a checked build pushes."""
    chk = tp.InvariantChecker(mode)
    specs = []
    push = chk.push_region

    def spy(*region):
        specs.append(RegionSpec(*region))
        push(*region)

    chk.push_region = spy
    build = (tp.planar_sequence_full if mode == "planar"
             else tp.bipartite_sequence_full)
    _, _, (_, G, T) = build(g, checker=chk, verify=False)
    return G, T, specs


def shape(spec):
    return spec.b1 is not None, spec.b2 is not None


def test_checker_sees_every_division_shape():
    # seed 0 holds the one region with both side faces
    shapes = set()
    for seed in (0, 5):
        _, _, specs = captured_regions("planar", tp.gen_triangulation(400, seed))
        shapes |= {shape(s) for s in specs}
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def b2_end_off_p0(t, s):
    a2, b2v, u1, v0 = s.b2
    w = next(w for w in range(len(t.depth))
             if t.depth[w] == t.depth[b2v] and w != a2
             and not t.is_ancestor(w, v0))
    return s._replace(b2=(a2, w, u1, v0))


@pytest.mark.parametrize("mode, region, corrupt, clause", [
    ("planar", (False, False),
     lambda t, s: s._replace(v2=t.parent[s.v1]),
     "(wrapped) D lid is a tree edge"),
    ("planar", (False, False),
     lambda t, s: s._replace(sink=s.v2),
     "(wrapped) D sink is not above both lid ends"),
    ("planar", (True, False),
     lambda t, s: s._replace(b1=(s.b1[0], t.parent[s.b1[1]])),
     "(pre) B1 lid is not horizontal"),
    ("planar", (True, False),
     lambda t, s: s._replace(b1=s.b1[::-1]),
     "(b) B1 wrapping paths not subpaths of D's"),
    ("planar", (False, True),
     lambda t, s: s._replace(b2=(s.b2[0], t.parent[s.b2[1]], *s.b2[2:])),
     "(pre) B2 lid is not horizontal"),
    ("planar", (False, True), b2_end_off_p0,
     "(d) B2 right wrapping path not inside P0 (or P0+P2)"),
    ("bipartite", (False, False),
     lambda t, s: s._replace(v2=t.parent[s.v1]),
     "(wrapped) D lid is a tree edge"),
], ids=["tree-edge-lid", "sink-not-above", "b1-lid-not-horizontal",
        "b1-off-p1-p2", "b2-lid-not-horizontal", "b2-off-p0",
        "bipartite-tree-edge-lid"])
def test_checker_rejects_a_corrupted_region(mode, region, corrupt, clause):
    g = tp.gen_triangulation(20, 1) if mode == "planar" else tp.gen_grid(4, 5)
    G, T, specs = captured_regions(mode, g)
    spec = next(s for s in specs if shape(s) == region)
    chk = tp.InvariantChecker(mode)
    chk.bind(G, T)
    chk.push_region(*spec)  # the region as built passes
    with pytest.raises(tp.InvariantViolation, match=re.escape(clause)):
        chk.push_region(*corrupt(T, spec))


# -- the boundary test against its definition --------------------------------


def path_up(t, bottom, top):
    """The tree path from ``bottom`` up to its ancestor ``top``."""
    path = [bottom]
    while path[-1] != top:
        path.append(t.parent[path[-1]])
        assert path[-1] != -1, "top is no ancestor of bottom"
    return path


def walked_boundary(t, spec):
    """{boundary vertex: whether it lies on P2}, from the region's paths
    walked up parent pointers: P1 and P2 less the parts that B1 and B2 cut
    off, and B2's part of P0."""
    dep = t.depth
    b1, b2 = spec.b1, spec.b2
    p1 = set(path_up(t, spec.v1, spec.sink))
    p2 = set(path_up(t, spec.v2, spec.sink))
    out = {}
    for w in p1:
        if b1 is not None and dep[w] < dep[b1[0]]:
            continue
        if b2 is not None:
            a2, _, u1, _ = b2
            if (dep[u1] < dep[w] < dep[a2] if u1 in p1
                    else dep[w] < dep[a2]):
                continue
        out[w] = w in p2
    for w in p2 - p1:
        if b1 is not None and dep[w] < dep[b1[1]]:
            continue
        if b2 is not None and b2[2] not in p1 and dep[w] < dep[b2[2]]:
            continue
        out[w] = True
    if b2 is not None:
        a2, b2v, u1, v0 = b2
        for w in path_up(t, v0, u1):
            if w not in p1 and w not in p2 and dep[w] <= dep[b2v]:
                out[w] = False
    return out


@pytest.mark.parametrize("mode, graph", [
    ("planar", lambda: tp.gen_triangulation(400, 0)),
    ("planar", lambda: tp.gen_triangulation(400, 5)),
    ("planar", lambda: tp.gen_grid(14, 14)),
    ("bipartite", lambda: tp.gen_grid(14, 14)),
], ids=["triangulation-0", "triangulation-5", "grid", "bipartite-grid"])
def test_boundary_class_matches_the_walked_paths(mode, graph):
    G, T, specs = captured_regions(mode, graph())
    assert specs
    for spec in specs:
        want = walked_boundary(T, spec)
        bounds = region_bounds(T, spec)
        for w in range(G.n):
            expect = OFF if w not in want else ON_RIGHT if want[w] else ON
            assert boundary_class(T, bounds, w) == expect, (spec, w)
