"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 7 is a soft runtime criterion: when exceeded it reports
and xfails instead of failing the suite.
"""

import random
import statistics
import time
from itertools import combinations

import pytest

import twinplanar as tp
from twinplanar import oracle as orc
from twinplanar import plane_graph as pg
from twinplanar import trigraph as tg
from twinplanar.instrument import InvariantChecker
from twinplanar.seq_bipartite import bipartite_sequence_full
from twinplanar.seq_planar import planar_sequence_full

SIZES_TRI = (10, 100, 1000, 5000)
GRID_DIMS = [(2, 2), (3, 7), (5, 5), (8, 3), (10, 10), (12, 30), (20, 20),
             (33, 9), (40, 40), (70, 70)]


def corpus_planar():
    graphs = []
    for i in range(200):
        n = SIZES_TRI[i % len(SIZES_TRI)]
        graphs.append((f"tri-n{n}-s{i}", tp.gen_triangulation(n, i)))
    for name, g in tp.platonic_solids().items():
        graphs.append((name, g))
    return graphs


def corpus_bipartite():
    graphs = []
    for i in range(100):
        r, c = GRID_DIMS[i % len(GRID_DIMS)]
        if i >= len(GRID_DIMS):  # vary the shapes deterministically
            rng = random.Random(i)
            r = rng.randrange(2, 71)
            c = rng.randrange(2, 71)
        graphs.append((f"grid-{r}x{c}-{i}", tp.gen_grid(r, c)))
    for i in range(100):
        n = (10, 100, 1000, 5000)[i % 4]
        graphs.append((f"quad-n{n}-s{i}", tp.gen_stacked_quadrangulation(n, i)))
    return graphs


def test_criterion_1_width8_guarantee():
    t0 = time.perf_counter()
    worst = 0
    for name, g in corpus_planar():
        seq, _, _ = planar_sequence_full(g, verify=False)
        rep = tg.verify_sequence(g.n, g.edges, seq)
        assert rep.full, name
        assert rep.width <= 8, (name, rep.width)
        worst = max(worst, rep.width)
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 1 (planar width <= 8, 200 triangulations + platonic "
          f"solids): PASS  [worst {worst}, {dt:.1f}s]")
    assert dt < 30.0, f"runtime {dt:.1f}s exceeds the 30s budget"


def test_criterion_2_width6_guarantee():
    t0 = time.perf_counter()
    worst = 0
    for name, g in corpus_bipartite():
        seq, _, _ = bipartite_sequence_full(g, verify=False)
        rep = tg.verify_sequence(g.n, g.edges, seq)
        assert rep.full, name
        assert rep.width <= 6, (name, rep.width)
        worst = max(worst, rep.width)
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2 (bipartite width <= 6, 200 quadrangulations): "
          f"PASS  [worst {worst}, {dt:.1f}s]")
    assert dt < 30.0, f"runtime {dt:.1f}s exceeds the 30s budget"


def _random_connected_planar(rng, n):
    """Random connected planar graph: random spanning tree plus extra
    non-crossing edges accepted via a planarity check."""
    import networkx as nx

    while True:
        edges = {(min(i, j), max(i, j))
                 for i, j in ((i, rng.randrange(i)) for i in range(1, n))}
        extra = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        for e in extra:
            G.add_edge(*e)
            ok, _ = nx.check_planarity(G)
            if not ok:
                G.remove_edge(*e)
        if nx.is_connected(G):
            return sorted(tuple(sorted(e)) for e in G.edges())


def test_criterion_3_oracle_floor():
    import networkx as nx

    t0 = time.perf_counter()
    rng = random.Random(2026)
    graphs = []
    # every labelled connected graph on up to 4 vertices (all planar)
    for n in range(1, 5):
        for mask_edges in _all_connected(n):
            graphs.append((n, mask_edges))
    # sampled connected planar graphs on 5..7 vertices
    for n, count in ((5, 180), (6, 180), (7, 130)):
        for _ in range(count):
            graphs.append((n, _random_connected_planar(rng, n)))
    assert len(graphs) >= 500
    for n, edges in graphs:
        exact = tp.exact_twinwidth(n, edges).width
        g = pg.embed_abstract(n, edges)
        _, rep = tp.planar_sequence(g)
        assert exact <= min(8, rep.width), (n, edges, exact, rep.width)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        if nx.is_bipartite(G):
            assert exact <= 6
    # K_n and generated cographs sit at the floor
    for n in range(2, 9):
        assert tp.exact_twinwidth(n, list(combinations(range(n), 2))).width == 0
    for _ in range(20):
        cn, cedges = _random_cograph(rng, rng.randrange(2, 9))
        assert tp.exact_twinwidth(cn, cedges).width == 0
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 3 (oracle floor on {len(graphs)} planar graphs "
          f"n<=7, K_n and cographs at 0): PASS  [{dt:.1f}s]")
    assert dt < 300.0


def _all_connected(n):
    import networkx as nx

    out = []
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        if nx.is_connected(G):
            out.append(edges)
    return out


def _random_cograph(rng, size):
    if size == 1:
        return 1, []
    a = rng.randrange(1, size)
    n1, e1 = _random_cograph(rng, a)
    n2, e2 = _random_cograph(rng, size - a)
    edges = list(e1) + [(u + n1, v + n1) for u, v in e2]
    if rng.random() < 0.5:
        edges += [(u, v + n1) for u in range(n1) for v in range(n2)]
    return n1 + n2, edges


def test_criterion_4_differential_simulation():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for trial in range(1000):
        n = rng.randrange(2, 10)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        live = list(range(n))
        steps = []
        while len(live) > 1:
            x, y = rng.sample(live, 2)
            steps.append((min(x, y), max(x, y)))
            live.remove(x)
            live.remove(y)
            live.append(n + len(steps) - 1)
        seq = tg.ContractionSequence(n, steps)
        a = tg.verify_sequence(n, edges, seq)
        b = orc.reference_verify(n, edges, seq)
        assert a.width == b.width, trial
        assert a.per_step_max == b.per_step_max, trial
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 4 (verify_sequence == reference_verify on 1000 "
          f"random pairs, exact per step): PASS  [{dt:.1f}s]")


def test_criterion_5_per_step_invariant_suites():
    t0 = time.perf_counter()
    checked = 0
    for name, g in corpus_planar():
        chk = InvariantChecker("planar")
        seq, _, _ = planar_sequence_full(g, checker=chk, verify=False)
        checked += chk.steps_checked
    for name, g in corpus_bipartite():
        chk = InvariantChecker("bipartite")
        seq, _, _ = bipartite_sequence_full(g, checker=chk, verify=False)
        checked += chk.steps_checked
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 5 (per-step invariant suites over both corpora, "
          f"{checked} steps, zero violations): PASS  [{dt:.1f}s]")


def test_criterion_6_restriction_monotonicity():
    t0 = time.perf_counter()
    rng = random.Random(66)
    for trial in range(100):
        n = rng.randrange(5, 250)
        g = tp.gen_triangulation(n, rng.randrange(10 ** 6))
        seq, rep = tp.planar_sequence(g)
        keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        sub = tg.restrict_sequence(seq, keep)
        idx = {v: i for i, v in enumerate(keep)}
        sub_edges = [(idx[u], idx[v]) for u, v in g.edges
                     if u in idx and v in idx]
        rep_sub = tg.verify_sequence(len(keep), sub_edges, sub)
        assert rep_sub.full
        assert rep_sub.width <= rep.width, trial
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 6 (restriction width monotone on 100 pairs): PASS  "
          f"[{dt:.1f}s]")


@pytest.mark.slow
def test_criterion_7_linear_time_behavior():
    # the sizes alternate seed by seed, so a drift in machine speed lands on
    # both sides of the ratio
    times = {100_000: [], 200_000: []}
    for seed in range(10):
        for n in times:
            g = tp.gen_triangulation(n, seed)
            t0 = time.perf_counter()
            planar_sequence_full(g, verify=False)
            times[n].append(time.perf_counter() - t0)
    medians = {n: statistics.median(ts) for n, ts in times.items()}
    ratio = medians[200_000] / medians[100_000]
    line = (f"median build: {medians[100_000]:.2f}s @1e5, "
            f"{medians[200_000]:.2f}s @2e5, ratio {ratio:.2f} (cap 2.5)")
    if ratio <= 2.5:
        print(f"\nACCEPTANCE 7 (linear-time behaviour): PASS  [{line}]")
    else:
        print(f"\nACCEPTANCE 7 (linear-time behaviour): EXCEEDED (soft) "
              f"[{line}]")
        pytest.xfail(f"soft criterion exceeded: {line}")
