import random
import re
from itertools import combinations

import pytest

import twinplanar as tp
from twinplanar import oracle as orc
from twinplanar import trigraph as tg

P4 = [(0, 1), (1, 2), (2, 3)]
C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def brute_force(n, edges):
    """Tiny independent enumerator over all contraction orders (n <= 6)."""

    def go(bl, rd, live):
        if len(live) == 1:
            return 0
        best = 10 ** 9
        for x, y in combinations(sorted(live), 2):
            nx = (bl[x] | rd[x]) - {y}
            ny = (bl[y] | rd[y]) - {x}
            reds = (rd[x] | rd[y] | (nx ^ ny)) - {x, y}
            blacks = (nx | ny) - {x, y} - reds
            nb, nr = {}, {}
            for w in live:
                if w in (x, y):
                    continue
                nb[w] = (bl[w] - {x, y}) | ({x} if w in blacks else set())
                nr[w] = (rd[w] - {x, y}) | ({x} if w in reds else set())
            nb[x], nr[x] = blacks, reds
            live2 = live - {y}
            peak = max(len(nr[w]) for w in live2)
            best = min(best, max(peak, go(nb, nr, live2)))
        return best

    bl = {v: set() for v in range(n)}
    rd = {v: set() for v in range(n)}
    for u, v in edges:
        bl[u].add(v)
        bl[v].add(u)
    return go(bl, rd, set(range(n)))


def test_k5_width_zero():
    k5 = list(combinations(range(5), 2))
    res = tp.exact_twinwidth(5, k5)
    assert res.width == 0
    assert tg.verify_sequence(5, k5, res.witness).width == 0


def test_p4_width_one():
    # brute force: no twins exist, and a width-1 order exists
    assert brute_force(4, P4) == 1
    res = tp.exact_twinwidth(4, P4)
    assert res.width == 1
    rep = tg.verify_sequence(4, P4, res.witness)
    assert rep.width == 1 and rep.full


def test_c5_width_two():
    assert brute_force(5, C5) == 2  # frozen by the independent enumerator
    res = tp.exact_twinwidth(5, C5)
    assert res.width == 2
    assert tg.verify_sequence(5, C5, res.witness).width == 2


def test_agrees_with_brute_force_on_random_graphs():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(2, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        assert tp.exact_twinwidth(n, edges).width == brute_force(n, edges)


def test_limit_enforced():
    with pytest.raises(orc.OracleError, match="limit"):
        tp.exact_twinwidth(11, [])
    tp.exact_twinwidth(11, [(0, 1)], limit=11)


@pytest.mark.parametrize("edge", [(0, 5), (-1, 2), (3, 0), (0, 1.5),
                                  (None, 1), (0, 1, 2), (0,), 5],
                         ids=["past-n", "negative", "at-n", "float",
                              "none", "triple", "single", "bare-int"])
def test_exact_refuses_an_edge_endpoint_outside_the_graph(edge):
    msg = (f"edge {edge} has an endpoint outside 0..2"
           if isinstance(edge, tuple) and len(edge) == 2
           else f"edge {edge!r} is not a pair of vertex ids")
    with pytest.raises(orc.OracleError, match=f"^{re.escape(msg)}$"):
        tp.exact_twinwidth(3, [(0, 1), edge])


def _replay_empty(verify):
    return lambda n, edges: verify(n, edges, tg.ContractionSequence(n, []))


@pytest.mark.parametrize("refuse, error", [
    (_replay_empty(tg.verify_sequence), tg.SequenceError),
    (_replay_empty(orc.reference_verify), tg.SequenceError),
    (tp.exact_twinwidth, orc.OracleError),
], ids=["verify_sequence", "reference_verify", "exact_twinwidth"])
def test_a_loop_is_refused_by_name(monkeypatch, refuse, error):
    monkeypatch.setattr(orc, "_Search", None)  # exact refuses before searching
    with pytest.raises(error, match="^loop edge at 1$"):
        refuse(3, [(0, 2), (1, 1)])


def cograph(rng, size):
    """Random cograph by union/join composition; returns (n, edges)."""
    if size == 1:
        return 1, []
    a = rng.randrange(1, size)
    n1, e1 = cograph(rng, a)
    n2, e2 = cograph(rng, size - a)
    edges = list(e1) + [(u + n1, v + n1) for u, v in e2]
    if rng.random() < 0.5:
        edges += [(u, v + n1) for u in range(n1) for v in range(n2)]
    return n1 + n2, edges


def test_cographs_have_width_zero():
    rng = random.Random(99)
    for _ in range(15):
        n, edges = cograph(rng, rng.randrange(2, 9))
        assert tp.exact_twinwidth(n, edges).width == 0


def test_zero_width_implies_cograph_like_structure():
    # P4 is the canonical non-cograph: its width is positive
    assert tp.exact_twinwidth(4, P4).width > 0


def test_induced_subgraph_monotone():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(3, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        w = tp.exact_twinwidth(n, edges).width
        keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        idx = {v: i for i, v in enumerate(keep)}
        sub = [(idx[u], idx[v]) for u, v in edges if u in idx and v in idx]
        assert tp.exact_twinwidth(len(keep), sub).width <= w


# -- reference verifier --------------------------------------------------------


def test_reference_kn_twin_order_zero():
    n = 5
    edges = list(combinations(range(n), 2))
    steps = [(0, 1), (5, 2), (6, 3), (7, 4)]
    rep = orc.reference_verify(n, edges, tg.ContractionSequence(n, steps))
    assert rep.width == 0 and rep.full


def test_reference_single_edge_zero():
    rep = orc.reference_verify(2, [(0, 1)],
                               tg.ContractionSequence(2, [(0, 1)]))
    assert rep.width == 0


def random_full_sequence(rng, n):
    live = list(range(n))
    steps = []
    while len(live) > 1:
        x, y = rng.sample(live, 2)
        steps.append((min(x, y), max(x, y)))
        live.remove(x)
        live.remove(y)
        live.append(n + len(steps) - 1)
    return tg.ContractionSequence(n, steps)


def test_differential_against_incremental_verifier():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randrange(2, 10)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        seq = random_full_sequence(rng, n)
        a = tg.verify_sequence(n, edges, seq)
        b = orc.reference_verify(n, edges, seq)
        assert a.width == b.width
        assert a.per_step_max == b.per_step_max


def _has_induced_p4(n, edges):
    es = {frozenset(e) for e in edges}
    from itertools import permutations
    for quad in combinations(range(n), 4):
        for perm in permutations(quad):
            a, b, c, d = perm
            want = {frozenset((a, b)), frozenset((b, c)), frozenset((c, d))}
            rest = {frozenset(p) for p in combinations(quad, 2)} - want
            if want <= es and not (rest & es):
                return True
    return False


def test_width_zero_iff_cograph():
    # cographs are exactly the P4-free graphs
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        zero = tp.exact_twinwidth(n, edges).width == 0
        assert zero == (not _has_induced_p4(n, edges))
