"""Exact twin-width on tiny graphs, and a naive reference verifier.

``exact_twinwidth`` runs depth-first branch and bound over all live pairs
with bitmask adjacency: moves are ordered by their immediate red-degree
peak, branches whose running maximum already meets the incumbent are cut,
and fully explored states are memoised on a degree-refined canonical
signature (a memo hit only suppresses re-exploration of states proven no
better than the incumbent, so imperfect canonicalisation stays sound).

``reference_verify`` replays a sequence over a dense matrix, deliberately
independent from the incremental engine, for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .trigraph import (ContractionSequence, SequenceError, WidthReport,
                       is_vertex_id, verify_sequence)


class OracleError(ValueError):
    pass


@dataclass
class ExactResult:
    width: int
    witness: ContractionSequence


def _popcount(x: int) -> int:
    return bin(x).count("1")


# -- bitmask trigraph helpers (the merged pair lives on in slot x) -----------


def _merge_red(b: dict[int, int], r: dict[int, int], x: int, y: int) -> int:
    nx = (b[x] | r[x]) & ~(1 << y)
    ny = (b[y] | r[y]) & ~(1 << x)
    return (r[x] | r[y] | (nx ^ ny)) & ~(1 << x) & ~(1 << y)


def _peak_after(r: dict[int, int], x: int, y: int, nr: int,
                live: tuple[int, ...]) -> int:
    peak = _popcount(nr)
    kill = (1 << x) | (1 << y)
    for w in live:
        if w == x or w == y:
            continue
        rw = r[w] & ~kill
        if nr >> w & 1:
            rw |= 1 << x
        p = _popcount(rw)
        if p > peak:
            peak = p
    return peak


def _apply(b: dict[int, int], r: dict[int, int], x: int, y: int, nr: int) -> None:
    nx = (b[x] | r[x]) & ~(1 << y)
    ny = (b[y] | r[y]) & ~(1 << x)
    nb = ((nx | ny) & ~(1 << x)) & ~nr
    kill = (1 << x) | (1 << y)
    for w in list(b):
        if w == x or w == y:
            continue
        b[w] &= ~kill
        r[w] &= ~kill
        if nb >> w & 1:
            b[w] |= 1 << x
        elif nr >> w & 1:
            r[w] |= 1 << x
    b[x], r[x] = nb, nr
    del b[y], r[y]


def _canonical_signature(live: tuple[int, ...], b: dict[int, int],
                         r: dict[int, int]) -> tuple:
    color = {v: (_popcount(b[v]), _popcount(r[v])) for v in live}
    for _ in range(3):
        new = {}
        for v in live:
            nb = tuple(sorted(color[w] for w in live if b[v] >> w & 1))
            nr = tuple(sorted(color[w] for w in live if r[v] >> w & 1))
            new[v] = (color[v], nb, nr)
        stable = len(set(new.values())) == len(set(color.values()))
        color = new
        if stable:
            break
    order = sorted(live, key=lambda v: (color[v], v))
    idx = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        bb = 0
        rr = 0
        for w in live:
            if b[v] >> w & 1:
                bb |= 1 << idx[w]
            if r[v] >> w & 1:
                rr |= 1 << idx[w]
        rows.append((bb, rr))
    return tuple(rows)


_INF = float("inf")


class _Search:
    """Alpha-bounded value search: ``value(state, alpha)`` returns the exact
    optimum when it is below alpha, and otherwise a sound lower bound of at
    least alpha.  Memo entries carry an exactness flag, so imperfect
    canonicalisation only costs hits, never correctness."""

    def __init__(self, n: int):
        self.n = n
        self.memo: dict[tuple, tuple[float, bool]] = {}

    def moves(self, b, r, live):
        out = []
        for i, x in enumerate(live):
            for y in live[i + 1:]:
                nr = _merge_red(b, r, x, y)
                out.append((_peak_after(r, x, y, nr, live), x, y, nr))
        out.sort(key=lambda t: t[0])
        return out

    def value(self, b, r, live, alpha) -> float:
        if len(live) == 1:
            return 0
        sig = _canonical_signature(live, b, r)
        hit = self.memo.get(sig)
        if hit is not None and (hit[1] or hit[0] >= alpha):
            return hit[0]
        best = _INF
        for peak, x, y, nr in self.moves(b, r, live):
            limit = min(alpha, best)
            if peak >= limit:
                break  # sorted by peak: nothing better follows
            b2 = dict(b)
            r2 = dict(r)
            _apply(b2, r2, x, y, nr)
            v = max(peak, self.value(b2, r2,
                                     tuple(w for w in live if w != y), limit))
            if v < best:
                best = v
        if best < alpha:
            entry = (best, True)
        else:
            entry = (alpha, False)  # proved: every completion >= alpha
        old = self.memo.get(sig)
        if old is None or (entry[1] and not old[1]) or entry[0] > old[0]:
            self.memo[sig] = entry
        return entry[0]


def exact_twinwidth(n: int, edges: Iterable[tuple[int, int]],
                    limit: int = 10) -> ExactResult:
    """Minimum width over all contraction sequences, with a replayable
    witness.  n above ``limit`` is rejected: the search space explodes
    combinatorially (the default 10 keeps runtimes in seconds).  So is an
    edge that is no pair, has an endpoint outside 0..n-1 or is a loop,
    before the search starts."""
    if n > limit:
        raise OracleError(f"n={n} exceeds the exact-search limit {limit}")
    if n == 0:
        raise OracleError("empty graph")
    pairs = []
    black = {v: 0 for v in range(n)}
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise OracleError(
                f"edge {edge!r} is not a pair of vertex ids") from None
        if not (is_vertex_id(u, n) and is_vertex_id(v, n)):
            raise OracleError(f"edge ({u}, {v}) has an endpoint outside "
                              f"0..{n - 1}")
        if u == v:
            raise OracleError(f"loop edge at {u}")
        pairs.append((u, v))
        black[u] |= 1 << v
        black[v] |= 1 << u
    red = {v: 0 for v in range(n)}

    search = _Search(n)
    width = int(search.value(dict(black), dict(red), tuple(range(n)), _INF))

    # extract a witness by following exact values within the budget
    b, r = dict(black), dict(red)
    live = tuple(range(n))
    target = width
    merges: list[tuple[int, int]] = []
    while len(live) > 1:
        for peak, x, y, nr in search.moves(b, r, live):
            if peak > target:
                continue
            b2 = dict(b)
            r2 = dict(r)
            _apply(b2, r2, x, y, nr)
            live2 = tuple(w for w in live if w != y)
            if max(peak, search.value(b2, r2, live2, target + 1)) <= target:
                merges.append((x, y))
                b, r, live = b2, r2, live2
                break
        else:
            raise OracleError("witness extraction failed")  # unreachable

    seq = ContractionSequence(n)
    alias = list(range(n))
    for fresh, (x, y) in enumerate(merges, n):
        seq.steps.append((alias[x], alias[y]))
        alias[x] = fresh
    check = verify_sequence(n, pairs, seq)
    if check.width != width:
        raise OracleError(f"witness width {check.width} != computed {width}")
    return ExactResult(width, seq)


def reference_verify(n: int, edges: Iterable[tuple[int, int]],
                     seq: ContractionSequence) -> WidthReport:
    """Dense-matrix replay (0 none, 1 black, 2 red); O(n^2) per step on
    purpose and fully independent of the incremental verifier."""
    if seq.n != n:
        raise SequenceError(f"sequence is for n={seq.n}, graph has n={n}")
    size = n + len(seq.steps)
    M = [[0] * size for _ in range(size)]
    live = [False] * size
    for v in range(n):
        live[v] = True
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise SequenceError(
                f"edge {edge!r} is not a pair of vertex ids") from None
        for w in (u, v):  # a list would wrap a negative id
            if not is_vertex_id(w, n):
                raise SequenceError(f"edge endpoint {w} outside 0..{n - 1}")
        if u == v:
            raise SequenceError(f"loop edge at {u}")
        M[u][v] = M[v][u] = 1
    per_step: list[int] = []
    width = 0
    for z, step in enumerate(seq.steps, n):
        idx = z - n
        try:
            x, y = map(index, step)
        except (TypeError, ValueError):
            raise SequenceError(
                f"step {idx}: {step!r} is not a pair of vertex ids") from None
        # a list would wrap a negative id and overrun a not yet created one
        for v in (x, y):
            if not 0 <= v < z:
                raise SequenceError(f"step {idx}: id {v} outside 0..{z - 1}")
        if x == y or not (live[x] and live[y]):
            raise SequenceError(f"step {idx}: dead or equal endpoints")
        for w in range(size):
            if not live[w] or w == x or w == y:
                continue
            a, c = M[x][w], M[y][w]
            val = 0 if (a == 0 and c == 0) else (1 if (a == 1 and c == 1) else 2)
            M[z][w] = M[w][z] = val
        live[x] = live[y] = False
        live[z] = True
        for w in range(size):
            M[x][w] = M[w][x] = M[y][w] = M[w][y] = 0
        mx = 0
        for v in range(size):
            if live[v]:
                deg = sum(1 for w in range(size) if M[v][w] == 2)
                if deg > mx:
                    mx = deg
        per_step.append(mx)
        if mx > width:
            width = mx
    return WidthReport(width, per_step, seq.is_full())
