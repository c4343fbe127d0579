import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar import trigraph as tg
from twinplanar.instrument import (OFF, ON, ON_RIGHT, _step_ok,
                                   boundary_class, region_bounds)


def black_of(t, v):
    """The black neighbours of the live id v, as sequence ids: a trigraph
    keeps its sets by part name, and ``name`` holds each live part once."""
    return {t.name.index(w) for w in t.black[t.name[v]]}


def red_of(t, v):
    """The red neighbours of the live id v, as sequence ids."""
    return {t.name.index(w) for w in t.red[t.name[v]]}


def level_of(chk, v):
    """The checker's level of the id v, None once v is contracted: the
    checker keeps its levels by part name."""
    a = chk.sim.name[v]
    return None if a < 0 else chk.level[a]


def replay_with_levels(sim, level, steps):
    """Replay ``steps`` on ``sim`` one call per step, as the checker does,
    and keep the levels ``level`` beside it by sequence id (the checker
    keeps its own by part name): z takes the smaller level of x and y,
    which lose theirs."""
    for step in steps:
        sim.replay((step,), [])
        x, y = step
        level.append(min(level[x], level[y]))
        level[x] = level[y] = None


def test_contract_twins_stay_black():
    t = tg.Trigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    t.replay([(0, 1)], [])
    assert black_of(t, 4) == {2, 3}
    assert red_of(t, 4) == set()


def test_contract_symmetric_difference_goes_red():
    # N(0)={2,3}, N(1)={3,4}: z red to 2 and 4, black to 3
    t = tg.Trigraph(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    t.replay([(0, 1)], [])
    assert red_of(t, 5) == {2, 4}
    assert black_of(t, 5) == {3}


def test_contract_red_inherited():
    t = tg.Trigraph(3, [(0, 2), (1, 2)])
    t.black[0].discard(2)
    t.black[2].discard(0)
    t.red[0] = {2}  # a fresh trigraph's red sets are one shared frozenset
    t.red[2] = {0}
    t.replay([(0, 1)], [])
    assert red_of(t, 3) == {2}


def test_red_sets_are_one_shared_empty_set_until_a_red_edge():
    # K_{2,2} on {0, 1} x {2, 3} plus the edge 3-4: the twins 0 and 1
    # contract without a red edge, 2 and 3 into 6 with one to 4
    t = tg.Trigraph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (3, 4)])
    empty = t.red[0]
    assert empty == frozenset() and all(r is empty for r in t.red)
    t.replay([(0, 1)], [])
    assert all(r is empty for r in t.red if r is not None)
    t.replay([(2, 3)], [])
    assert red_of(t, 4) == {6} and red_of(t, 6) == {4}
    assert t.red[t.name[5]] is empty


def test_contract_errors():
    t = tg.Trigraph(3, [(0, 1)])
    with pytest.raises(tg.SequenceError, match="with itself"):
        t.replay([(0, 0)], [])
    t.replay([(0, 1)], [])
    with pytest.raises(tg.SequenceError, match="dead/unknown vertex"):
        t.replay([(0, 2)], [])


# -- verify_sequence ----------------------------------------------------------


def kn_edges(n):
    return list(combinations(range(n), 2))


def test_verify_kn_twins_width_zero():
    n = 6
    seq = tg.ContractionSequence(n)
    cur = list(range(n))
    while len(cur) > 1:
        x, y = cur[0], cur[1]
        seq.steps.append((x, y))
        cur = cur[2:] + [n + len(seq.steps) - 1]
    rep = tg.verify_sequence(n, kn_edges(n), seq)
    assert rep.width == 0
    assert rep.full


def test_verify_cograph_width_zero():
    # (K2 + K2) fully joined: a cograph; twin-eliminating order
    edges = [(0, 1), (2, 3)] + [(a, b) for a in (0, 1) for b in (2, 3)]
    seq = tg.ContractionSequence(4, [(0, 1), (2, 3), (4, 5)])
    rep = tg.verify_sequence(4, edges, seq)
    assert rep.width == 0


def test_verify_p4_best_width_one():
    # frozen from the exhaustive oracle: tww(P4) = 1
    p4 = [(0, 1), (1, 2), (2, 3)]
    res = tp.exact_twinwidth(4, p4)
    assert res.width == 1
    rep = tg.verify_sequence(4, p4, res.witness)
    assert rep.width == 1


def test_verify_rejects_reuse():
    seq = tg.ContractionSequence(3, [(0, 1), (0, 2)])
    with pytest.raises(tg.SequenceError, match="dead"):
        tg.verify_sequence(3, [(0, 1)], seq)


VERIFIERS = {
    "incremental": lambda n, edges, seq: tg.verify_sequence(n, edges, seq),
    # the checker's replay: one step per call, with levels beside it
    "incremental-levels": lambda n, edges, seq: replay_with_levels(
        tg.Trigraph(n, edges), [0, 1, 2], seq.steps),
    "reference": tp.reference_verify,
    # restriction reads the same ids, whatever it keeps
    "restrict": lambda n, edges, seq: tg.restrict_sequence(seq, [1, 2]),
}


@pytest.mark.parametrize("verify", VERIFIERS.values(), ids=VERIFIERS.keys())
@pytest.mark.parametrize("step", [
    (-2, 2), (2, -1), ("d", -1),
    (2, 4), (9, 2), ("d", 4), ("d", 7),
    (0, 2), ("d", 1), ("k", 2, 3, 7), (3, 3), (2,), (2, 3, 4), (2, None),
], ids=["k-negative-x", "k-negative-y", "d-negative", "k-fresh-id",
        "k-past-fresh", "d-fresh-id", "d-past-fresh", "k-dead", "d-dead",
        "k-wrong-fresh", "k-equal", "one-id", "three-ids", "none-id"])
def test_verifiers_reject_a_step_on_an_id_that_is_not_live(verify, step):
    # after step 0, ids 0 and 1 are dead and 3 is the only fresh one;
    # a list would wrap -1 and -2 onto live ids.  A step is a pair of ids,
    # so a tagged record, a single id, a triple or a pair with a non-id is
    # refused for its shape, whatever ids it names.
    seq = tg.ContractionSequence(3, [(0, 1), step])
    pair = len(step) == 2 and all(type(v) is int for v in step)
    msg = r"^step 1: " if pair else (
        rf"^step 1: {re.escape(repr(step))} is not a pair of vertex ids$")
    with pytest.raises(tg.SequenceError, match=msg):
        verify(3, [(0, 1), (1, 2)], seq)


@pytest.mark.parametrize("verify", VERIFIERS.values(), ids=VERIFIERS.keys())
def test_verifiers_reject_a_tagged_step_of_the_old_shape(verify):
    # a tagged record with a field missing: no replay may unpack it as a
    # step of another shape
    seq = tg.ContractionSequence(3, [("k", 0, 1)])
    with pytest.raises(tg.SequenceError, match=re.escape(
            "step 0: ('k', 0, 1) is not a pair of vertex ids")):
        verify(3, [(0, 1), (1, 2)], seq)


@pytest.mark.parametrize("n", [0, 1])
def test_a_sequence_without_steps_is_full_below_two_vertices(n):
    seq = tg.ContractionSequence(n)
    assert seq.is_full()
    assert tg.verify_sequence(n, [], seq).full
    assert tp.reference_verify(n, [], seq).full


def test_verify_debug_recheck_rejects_a_negative_period():
    seq = tg.ContractionSequence(2, [(0, 1)])
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
    steps = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
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


def test_one_step_replays_number_their_steps_globally():
    # one step per call, as InvariantChecker replays; a refused step
    # changes nothing, so the next step takes its number
    t = tg.Trigraph(4, kn_edges(4))
    for step in (0, 1), (2, 3):
        t.replay([step], [])
    with pytest.raises(tg.SequenceError, match=re.escape(
            "step 2: contracting dead/unknown vertex (0,4)")):
        t.replay([(0, 4)], [])
    t.replay([(4, 5)], [])
    with pytest.raises(tg.SequenceError, match=re.escape(
            "step 3: (6,) is not a pair of vertex ids")):
        t.replay([(6,)], [])


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
        live.remove(x)
        live.remove(y)
        live.append(n + len(seq.steps))
        seq.steps.append((x, y))
    rep = tg.verify_sequence(n, edges, seq, debug_recheck=1)
    assert rep.per_step_max == tp.reference_verify(n, edges, seq).per_step_max


def replay_both_ways(n, edges, steps, recheck=0):
    """(error text or None, per-step maxima, len(black), len(red)) of a
    replay of ``steps`` and of one with every pair swapped to (y, x), and
    the two trigraphs."""
    out, made = [], []
    for s in steps, [(y, x) for x, y in steps]:
        t = tg.Trigraph(n, edges)
        per_step = []
        try:
            t.replay(s, per_step, recheck)
            err = None
        except tg.SequenceError as exc:
            err = str(exc)
        out.append((err, per_step, len(t.black), len(t.red)))
        made.append(t)
    return out, made


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_which_side_keeps_its_name_is_invisible_on_builds(mode, seed):
    # a step keeps the name of the side with more red edges, and x's on a
    # tie, so the swapped pairs flip every tie and the naming from there on
    if mode == "planar":
        _, rep, (full, G, _) = tp.planar_sequence_full(
            tp.gen_triangulation(300, seed))
    else:
        _, rep, (full, G, _) = tp.bipartite_sequence_full(
            tp.gen_quadrangulation(300, seed))
    (one, swapped), (t, u) = replay_both_ways(G.n, G.edges, full.steps)
    assert one == swapped == (None, one[1], G.n, G.n)
    assert max(one[1]) == rep.width
    assert t.name != u.name  # some step kept the other side's name


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.sampled_from([0.2, 0.5, 0.8]), st.randoms(),
       st.booleans())
def test_which_side_keeps_its_name_is_invisible_on_random_sequences(
        n, p, rng, bad):
    # with ``bad``, a step on one id twice, live or dead, cuts the sequence
    # at a random step; the rescan after every step checks the histogram
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    steps = []
    live = list(range(n))
    while len(live) > 1:
        x, y = rng.sample(live, 2)
        live.remove(x)
        live.remove(y)
        live.append(n + len(steps))
        steps.append((x, y))
    if bad:
        i = rng.randrange(len(steps) + 1)
        v = rng.randrange(n + i)
        steps[i:] = [(v, v)]
    (one, swapped), _ = replay_both_ways(n, edges, steps, recheck=1)
    assert one == swapped
    if bad:
        assert one[0] == f"step {i}: cannot contract a vertex with itself"
    else:
        assert one[0] is None and one[2:] == (n, n)
        assert one[1] == tp.reference_verify(
            n, edges, tg.ContractionSequence(n, steps)).per_step_max


@pytest.mark.parametrize("edge, msg", [
    ((0, 5), "edge endpoint 5 outside 0..2"),
    ((0, -1), "edge endpoint -1 outside 0..2"),
    ((0, 1.0), "edge endpoint 1.0 outside 0..2"),
    ((0, 1, 2), "edge (0, 1, 2) is not a pair of vertex ids"),
    ((0,), "edge (0,) is not a pair of vertex ids"),
    (5, "edge 5 is not a pair of vertex ids"),
], ids=["past-n", "negative", "not-an-int", "triple", "single", "bare-int"])
def test_verify_rejects_edge_endpoint_out_of_range(edge, msg):
    # a list would wrap -1 onto a live id and refuse 1.0 with a TypeError;
    # unpacking an edge that is no pair raises ValueError or TypeError
    seq = tg.ContractionSequence(3, [(0, 1), (2, 3)])
    for verify in tg.verify_sequence, tp.reference_verify:
        with pytest.raises(tg.SequenceError, match=f"^{re.escape(msg)}$"):
            verify(3, [(1, 2), edge], seq)


# -- classification and levels ------------------------------------------------


def is_good_assignment(t: tg.Trigraph, lev: list) -> bool:
    """True iff every (black or red) edge of ``t`` spans at most one of the
    levels ``lev``, which are indexed by sequence id."""
    ids = {a: v for v, a in enumerate(t.name) if a >= 0}  # part -> live id
    for a, bl in enumerate(t.black):
        if bl is None:
            continue  # merged into another part
        lv = lev[ids[a]]
        for w in bl:
            if abs(lv - lev[ids[w]]) > 1:
                return False
        for w in t.red[a]:
            if abs(lv - lev[ids[w]]) > 1:
                return False
    return True


# -- the checker's step rule (``instrument._step_ok``) ---------------------


def test_classify_level_preserving():
    t = tg.Trigraph(4, [(0, 1), (2, 3)])
    assert _step_ok(t, [5, 5, 5, 5], 0, 1, respecting=False)
    assert _step_ok(t, [5, 5, 5, 5], 0, 1, respecting=True)


def test_classify_level_respecting_case():
    # y at level 5, every neighbour of y at level 4
    t = tg.Trigraph(3, [(0, 1), (1, 2)])
    assert _step_ok(t, [4, 5, 4], 0, 1, respecting=True)
    assert _step_ok(t, [4, 5, 4], 1, 0, respecting=True)


def test_classify_violation():
    # y at level 5 keeps a level-6 neighbour
    t = tg.Trigraph(4, [(0, 1), (1, 2), (1, 3)])
    assert not _step_ok(t, [4, 5, 4, 6], 0, 1, respecting=True)
    # a red neighbour counts as much as a black one
    t = tg.Trigraph(4, [(0, 1), (1, 2)])
    t.red[1] = {3}
    t.red[3] = {1}
    assert not _step_ok(t, [4, 5, 4, 6], 0, 1, respecting=True)
    # two levels apart, though the deeper vertex has no neighbour at all
    t = tg.Trigraph(3, [(0, 1)])
    assert not _step_ok(t, [4, 5, 6], 0, 2, respecting=True)


def test_min_level_update_and_decrease():
    # the checker's levels: z takes the smaller one, x and y lose theirs
    g = tp.build(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]], 0)
    chk = tp.InvariantChecker("planar")
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    chk.level[:3] = [3, 4, 3]
    chk.on_contract(0, 1, 3)
    assert level_of(chk, 3) == 3
    assert level_of(chk, 0) is None and level_of(chk, 1) is None
    assert chk.level.count(None) == 1  # the name that z did not keep


def test_good_assignment():
    t = tg.Trigraph(3, [(0, 1), (1, 2)])
    assert is_good_assignment(t, [0, 1, 2])
    t2 = tg.Trigraph(2, [(0, 1)])
    assert not is_good_assignment(t2, [0, 2])


def test_min_level_respecting_keeps_goodness():
    # per-step goodness assertion along a planar build
    rng = random.Random(0)
    g = tp.gen_triangulation(30, rng.randrange(10 ** 6))
    seq, _rep, (full_seq, G, t) = tp.planar_sequence_full(g)
    sim = tg.Trigraph(G.n, G.edges)
    level = list(t.depth)
    nfinal = 4  # final-phase steps are outside the level discipline
    for step in full_seq.steps[:-nfinal]:
        replay_with_levels(sim, level, (step,))
        assert is_good_assignment(sim, level)


@pytest.mark.parametrize("s", [0, 1])
def test_one_step_per_call_equals_one_batch(s):
    # the checker replays one step per call, each call resuming the last
    _, _, (full, G, t) = tp.planar_sequence_full(tp.gen_triangulation(300, s))

    def run(steps, per_call):
        """(error text or None, per-step maxima, the next fresh id)"""
        sim = tg.Trigraph(G.n, G.edges)
        per_step = []
        try:
            for chunk in [(step,) for step in steps] if per_call else [steps]:
                sim.replay(chunk, per_step)
        except tg.SequenceError as exc:
            return str(exc), per_step, len(sim.name)
        return None, per_step, len(sim.name)

    one = run(full.steps, True)
    assert one == run(full.steps, False)
    assert (one[0], one[2]) == (None, 2 * G.n - 1)
    i = len(full.steps) // 2
    x, _ = full.steps[i]
    z = G.n + i
    bad = full.steps[:i] + [(x, x)] + full.steps[i + 1:]
    one = run(bad, True)
    assert one == run(bad, False)
    assert (one[0], one[2]) == (
        f"step {i}: cannot contract a vertex with itself", z)


def test_claim_new_red_edges_stay_within_one_layer():
    rng = random.Random(1)
    for _ in range(10):
        g = tp.gen_triangulation(rng.randrange(6, 30), rng.randrange(10 ** 6))
        t = ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart])
        sim = tg.Trigraph(g.n, g.edges)
        level = list(t.depth)
        # contract two same-level vertices and inspect the new red edges
        by_level = {}
        for v in range(g.n):
            by_level.setdefault(t.depth[v], []).append(v)
        pair = next(vs for vs in by_level.values() if len(vs) >= 2)
        x, y = pair[:2]
        lev = level[x]
        z = len(sim.name)
        replay_with_levels(sim, level, [(x, y)])
        for w in red_of(sim, z):
            assert level[w] in (lev - 1, lev, lev + 1)


# -- restriction ---------------------------------------------------------------


def test_restrict_identity():
    g = tp.gen_triangulation(12, 0)
    seq, rep = tp.planar_sequence(g)
    sub = tg.restrict_sequence(seq, range(g.n))
    assert len(sub.steps) == len(seq.steps)
    rep2 = tg.verify_sequence(g.n, g.edges, sub)
    assert rep2.width == rep.width


def test_restrict_singleton_empty():
    g = tp.gen_triangulation(9, 2)
    seq, _ = tp.planar_sequence(g)
    sub = tg.restrict_sequence(seq, [3])
    assert sub.n == 1 and sub.steps == []
    assert sub.is_full()


@pytest.mark.parametrize("keep, bad", [([0, 1, 99], 99), ([-1, 0, 1], -1),
                                       ([0, 10], 10), ([0, 0.5], 0.5),
                                       ([None], None), (["1"], "1"),
                                       ([0, 1, "1"], "1")])
def test_restrict_rejects_a_kept_id_outside_the_sequence(keep, bad):
    # an id that is no int is refused the same way, not with a TypeError
    g = tp.gen_triangulation(10, 0)
    seq, _ = tp.planar_sequence(g)
    msg = f"kept vertex {bad!r} outside 0..9"
    with pytest.raises(tg.SequenceError, match=f"^{re.escape(msg)}$"):
        tg.restrict_sequence(seq, keep)


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
], ids=["second-header", "negative-n", "contraction-first"])
def test_parse_seq_rejects_a_bad_header(text, msg):
    with pytest.raises(tp.FormatError, match=msg):
        tg.parse_seq(text)


def test_classify_modes():
    # one level apart passes in planar runs only
    t = tg.Trigraph(3, [(0, 1), (1, 2)])
    assert _step_ok(t, [4, 5, 4], 0, 1, respecting=True)
    assert not _step_ok(t, [4, 5, 4], 0, 1, respecting=False)


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


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
@pytest.mark.parametrize("x, y, bad", [
    (0, 2, 0), (2, 0, 0), (-1, 2, -1), (2, 9, 9), (5, 2, 5),
    (2, None, None), (1.0, 2, 1.0),
], ids=["dead-x", "dead-y", "negative", "past-fresh", "fresh", "none-id",
        "float-id"])
def test_checker_rejects_a_step_on_an_id_that_is_not_live(mode, x, y, bad):
    # the 4-cycle 0-1-3-2 rooted at 1: 0 and 3 share level 1 and merge
    # into 4, which leaves 1, 2 and 4 live and 5 the next fresh id
    g = tp.gen_grid(2, 2)
    chk = tp.InvariantChecker(mode)
    chk.bind(g, ly.left_aligned_bfs_tree(g, g.tail[g.outer_dart]))
    chk.on_contract(0, 3, 4)
    with pytest.raises(tp.InvariantViolation,
                       match=f"names {bad}, which is not live"):
        chk.on_contract(x, y, 5)


def test_checker_accepts_a_level_respecting_step():
    g = tp.build(3, [(0, 1), (1, 2)], [[0], [1, 2], [3]], 0)
    chk = tp.InvariantChecker("planar")
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    chk.on_contract(1, 2, 3)  # every neighbour of 2 sits on level 1
    assert level_of(chk, 3) == 1


# -- region checks of the checker -----------------------------------------------


def captured_regions(mode, g):
    """The completed graph, its tree, and the (sink, v1, v2, b1, b2) tuple
    of every region that a checked build pushes."""
    chk = tp.InvariantChecker(mode)
    specs = []
    push = chk.push_region

    def spy(*region):
        specs.append(region)
        push(*region)

    chk.push_region = spy
    build = (tp.planar_sequence_full if mode == "planar"
             else tp.bipartite_sequence_full)
    _, _, (_, G, T) = build(g, checker=chk, verify=False)
    return G, T, specs


def shape(spec):
    return spec[3] is not None, spec[4] is not None


def test_checker_sees_every_division_shape():
    # seed 0 holds the one region with both side faces
    shapes = set()
    for seed in (0, 5):
        _, _, specs = captured_regions("planar", tp.gen_triangulation(400, seed))
        shapes |= {shape(s) for s in specs}
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def b2_end_off_p0(t, s):
    a2, b2v, u1, v0 = s[4]
    w = next(w for w in range(len(t.depth))
             if t.depth[w] == t.depth[b2v] and w != a2
             and not t.is_ancestor(w, v0))
    return (*s[:4], (a2, w, u1, v0))


@pytest.mark.parametrize("mode, region, corrupt, clause", [
    ("planar", (False, False),
     lambda t, s: (s[0], s[1], t.parent[s[1]], *s[3:]),
     "(wrapped) D lid is a tree edge"),
    ("planar", (False, False),
     lambda t, s: (s[2], *s[1:]),
     "(wrapped) D sink is not above both lid ends"),
    ("planar", (True, False),
     lambda t, s: (*s[:3], (s[3][0], t.parent[s[3][1]]), s[4]),
     "(pre) B1 lid is not horizontal"),
    ("planar", (True, False),
     lambda t, s: (*s[:3], s[3][::-1], s[4]),
     "(b) B1 wrapping paths not subpaths of D's"),
    ("planar", (False, True),
     lambda t, s: (*s[:4], (s[4][0], t.parent[s[4][1]], *s[4][2:])),
     "(pre) B2 lid is not horizontal"),
    ("planar", (False, True), b2_end_off_p0,
     "(d) B2 right wrapping path not inside P0 (or P0+P2)"),
    ("bipartite", (False, False),
     lambda t, s: (s[0], s[1], t.parent[s[1]], *s[3:]),
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
    sink, v1, v2, b1, b2 = spec
    p1 = set(path_up(t, v1, sink))
    p2 = set(path_up(t, v2, sink))
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

