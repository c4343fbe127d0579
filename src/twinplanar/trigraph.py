"""Trigraphs, contractions with the red-edge rule, and sequence verification.

A contraction of x, y into a fresh z keeps the common black neighbours
black and turns every other inherited adjacency red:
``N(z) = (N(x) | N(y)) - {x, y}`` and
``red(z) = (red(x) | red(y) | (N(x) ^ N(y))) - {x, y}``.

A sequence's width is the maximum red degree seen after any step; dummy
``d x`` steps lower the level of x by one and never touch adjacency.  The
trigraph keeps a histogram of red degrees, updated by each contraction
only at z and its red neighbours, so the verifier reads the running
maximum after every step in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .plane_graph import FormatError, pause_gc

Step = tuple  # ("k", x, y, z) or ("d", x)


class SequenceError(ValueError):
    """Invalid contraction sequence (bad ids, wrong fresh id, bad d-step)."""


@dataclass
class ContractionSequence:
    """Ordered contraction steps over a graph on vertices 0..n-1.

    Fresh ids are forced: the k-th contraction creates vertex n + k.
    """

    n: int
    steps: list[Step] = field(default_factory=list)

    @property
    def contract_count(self) -> int:
        return sum(1 for s in self.steps if s[0] == "k")

    def is_full(self) -> bool:
        return self.contract_count == self.n - 1


@dataclass
class WidthReport:
    width: int
    per_step_max: list[int]
    full: bool


class Trigraph:
    """Mutable trigraph with black/red adjacency and optional levels.

    Single-writer.  ``_red_hist[d]`` counts the live vertices of red degree
    d and ``_max_red`` is the largest d with a nonzero count; ``contract``
    keeps both current, so ``max_red_degree`` is O(1).  Writing to
    ``black``/``red`` directly bypasses that bookkeeping.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 levels: Sequence[int] | None = None):
        self.n0 = n
        self.black: dict[int, set[int]] = {v: set() for v in range(n)}
        self.red: dict[int, set[int]] = {v: set() for v in range(n)}
        try:
            for u, v in edges:
                if u == v:
                    raise SequenceError(f"loop edge at {u}")
                self.black[u].add(v)
                self.black[v].add(u)
        except KeyError as exc:
            raise SequenceError(
                f"edge endpoint {exc.args[0]} outside 0..{n - 1}") from None
        self._red_hist = [n] + [0] * n  # all n vertices start at red degree 0
        self._max_red = 0
        self.level: dict[int, int] | None = (
            {v: levels[v] for v in range(n)} if levels is not None else None)
        self.next_id = n

    # -- queries ------------------------------------------------------------

    def max_red_degree(self) -> int:
        return self._max_red

    def neighbors(self, v: int) -> set[int]:
        return self.black[v] | self.red[v]

    # -- operations ----------------------------------------------------------

    def contract(self, x: int, y: int) -> int:
        """Contract x and y into a fresh vertex, returning its id."""
        if x == y:
            raise SequenceError("cannot contract a vertex with itself")
        black, red, hist = self.black, self.red, self._red_hist
        if x not in black or y not in black:
            raise SequenceError(f"contracting dead/unknown vertex ({x},{y})")
        z = self.next_id
        self.next_id += 1
        bx, by = black.pop(x), black.pop(y)
        rx, ry = red.pop(x), red.pop(y)
        hist[len(rx)] -= 1
        hist[len(ry)] -= 1
        # common black neighbours keep a black edge and their red degree
        blacks = bx & by
        for w in blacks:
            bw = black[w]
            bw.remove(x)
            bw.remove(y)
            bw.add(z)
        reds = (bx ^ by) | rx | ry
        reds.discard(x)
        reds.discard(y)
        for w in reds:
            bw, rw = black[w], red[w]
            d = len(rw)
            bw.discard(x)
            bw.discard(y)
            rw.discard(x)
            rw.discard(y)
            rw.add(z)
            if len(rw) != d:
                hist[d] -= 1
                hist[len(rw)] += 1
        black[z] = blacks
        red[z] = reds
        hist[len(reds)] += 1
        # a red degree other than z's grows by at most one per contraction
        mx = max(self._max_red + 1, len(reds))
        while mx and not hist[mx]:
            mx -= 1
        self._max_red = mx
        if self.level is not None:
            self.level[z] = min(self.level.pop(x), self.level.pop(y))
        return z

    def decrease_level(self, x: int) -> None:
        if self.level is None:
            raise SequenceError("no level assignment present")
        if x not in self.black:
            raise SequenceError(f"level decrease of dead vertex {x}")
        lx = self.level[x]
        for t in self.neighbors(x):
            if self.level[t] > lx - 1:
                raise SequenceError(
                    f"illegal level decrease of {x}: neighbour {t} at level "
                    f"{self.level[t]} > {lx - 1}")
        self.level[x] = lx - 1


# ---------------------------------------------------------------------------
# Level-assignment checks
# ---------------------------------------------------------------------------

LEVEL_PRESERVING = "level-preserving"
LEVEL_RESPECTING = "level-respecting"
VIOLATION = "violation"


def classify_step(t: Trigraph, step: Step, mode: str) -> str:
    """Classify a contraction against Definition-style level rules.

    Contractions of equal levels are level-preserving; a one-apart pair is
    level-respecting iff every neighbour of the deeper vertex sits on the
    shallower level.  ``mode`` selects the discipline being enforced:
    "preserving" accepts only same-level contractions, "respecting" also
    the one-apart case.  A dummy level decrease is no contraction and
    classifies as a violation; ``Trigraph.decrease_level`` checks its
    legality.
    """
    if mode not in ("preserving", "respecting"):
        raise ValueError(f"unknown mode {mode!r}")
    if t.level is None:
        raise SequenceError("no level assignment present")
    if step[0] == "d":
        return VIOLATION
    _, x, y, _z = step
    lx, ly = t.level[x], t.level[y]
    if lx == ly:
        return LEVEL_PRESERVING
    if mode == "preserving" or abs(lx - ly) != 1:
        return VIOLATION
    hi = x if lx > ly else y
    lo_level = min(lx, ly)
    if all(t.level[w] == lo_level for w in t.neighbors(hi)):
        return LEVEL_RESPECTING
    return VIOLATION


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@pause_gc()
def verify_sequence(n: int, edges: Iterable[tuple[int, int]],
                    seq: ContractionSequence,
                    levels: Sequence[int] | None = None,
                    debug_recheck: int = 0) -> WidthReport:
    """Replay a sequence, reporting the exact max red degree after each step.

    Levels are optional; without them ``d`` steps are replayed unchecked.
    With ``debug_recheck=k`` the incremental red-degree maximum is recomputed
    from scratch every k steps to catch drift.
    """
    if seq.n != n:
        raise SequenceError(f"sequence is for n={seq.n}, graph has n={n}")
    t = Trigraph(n, edges, levels)
    per_step: list[int] = []
    for idx, step in enumerate(seq.steps):
        try:
            if step[0] == "k":
                if step[3] != t.next_id:
                    raise SequenceError(
                        f"fresh id {step[3]} != expected {t.next_id}")
                t.contract(step[1], step[2])
            elif step[0] == "d":
                if t.level is not None:
                    t.decrease_level(step[1])
                elif step[1] not in t.black:
                    raise SequenceError("d-step on dead vertex")
            else:
                raise SequenceError(f"unknown step kind {step[0]!r}")
        except SequenceError as exc:
            raise SequenceError(f"step {idx}: {exc}") from None
        cur_max = t.max_red_degree()
        per_step.append(cur_max)
        if debug_recheck and (idx + 1) % debug_recheck == 0:
            real = max(map(len, t.red.values()), default=0)
            if real != cur_max:
                raise SequenceError(
                    f"red-degree drift at step {idx}: {cur_max} != {real}")
    return WidthReport(max(per_step, default=0), per_step, seq.is_full())


# ---------------------------------------------------------------------------
# Restriction to an induced subgraph
# ---------------------------------------------------------------------------


def restrict_sequence(seq: ContractionSequence, keep: Iterable[int]
                      ) -> ContractionSequence:
    """Restrict a sequence to the subgraph induced on ``keep``.

    A contraction survives iff both sides still represent at least one kept
    original vertex; the kept originals are renumbered 0..k-1 in sorted
    order and fresh ids follow deterministically.  Dummy steps are dropped.
    """
    keep_sorted = sorted(set(keep))
    new_id = {v: i for i, v in enumerate(keep_sorted)}
    k = len(keep_sorted)
    # per live id: (number of kept originals, restricted id or -1)
    cnt: dict[int, int] = {}
    rid: dict[int, int] = {}
    for v in range(seq.n):
        if v in new_id:
            cnt[v] = 1
            rid[v] = new_id[v]
        else:
            cnt[v] = 0
            rid[v] = -1
    out = ContractionSequence(k)
    fresh = k
    for step in seq.steps:
        if step[0] != "k":
            continue
        _, x, y, z = step
        cx, cy = cnt.pop(x), cnt.pop(y)
        rx, ry = rid.pop(x), rid.pop(y)
        cnt[z] = cx + cy
        if cx > 0 and cy > 0:
            out.steps.append(("k", rx, ry, fresh))
            rid[z] = fresh
            fresh += 1
        else:
            rid[z] = rx if cx > 0 else ry
    return out


# ---------------------------------------------------------------------------
# Sequence text format
# ---------------------------------------------------------------------------


def write_seq(seq: ContractionSequence, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p tww-seq {seq.n} {len(seq.steps)}")
    for step in seq.steps:
        if step[0] == "k":
            lines.append(f"k {step[1]} {step[2]} {step[3]}")
        else:
            lines.append(f"d {step[1]}")
    return "\n".join(lines) + "\n"


def parse_seq(text: str) -> ContractionSequence:
    n = -1
    declared = -1
    steps: list[Step] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if parts[1] != "tww-seq":
                    raise FormatError("expected 'p tww-seq'")
                n, declared = int(parts[2]), int(parts[3])
            elif parts[0] == "k":
                steps.append(("k", int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "d":
                steps.append(("d", int(parts[1])))
            else:
                raise FormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError, FormatError) as exc:
            raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p tww-seq' header")
    if declared != len(steps):
        raise FormatError(f"declared {declared} steps, found {len(steps)}")
    expected = n
    for step in steps:
        if step[0] == "k":
            if step[3] != expected:
                raise FormatError(
                    f"contraction produces {step[3]}, expected fresh id {expected}")
            expected += 1
    return ContractionSequence(n, steps)
