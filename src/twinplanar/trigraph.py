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

A trigraph stores its adjacency and levels in lists indexed by the dense
ids of the sequence, 0..2n-2: ``black[v]`` and ``red[v]`` are sets, and
both are ``None`` once v is contracted; ``level`` is a list as well.
``Trigraph.replay`` holds the one definition of a step: the verifier
replays a whole sequence through it, and ``contract`` and
``decrease_level`` are one-step replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .plane_graph import FormatError, pause_gc, read_header, records

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

    Vertices carry the dense ids of a sequence: the originals 0..n-1, then
    one fresh id per contraction, so ``black``, ``red`` and ``level`` are
    lists indexed by id (length ``next_id``).  ``black[v]`` and ``red[v]``
    are sets of live ids; once v is contracted, ``black[v]``, ``red[v]``
    and ``level[v]`` are ``None``.  ``level`` is ``None`` altogether when
    no level assignment is given.

    Single-writer.  ``_red_hist[d]`` counts the live vertices of red degree
    d and ``_max_red`` is the largest d with a nonzero count; ``replay``
    keeps both current, so it reads the maximum after each step in O(1).
    ``steps_done`` counts the steps replayed.  Writing to ``black``/``red``
    directly bypasses that bookkeeping.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 levels: Sequence[int] | None = None):
        black: list[set[int] | None] = [set() for _ in range(n)]
        try:
            for u, v in edges:
                if u == v:
                    raise SequenceError(f"loop edge at {u}")
                if u < 0 or v < 0:
                    raise IndexError  # a list would wrap a negative id
                black[u].add(v)
                black[v].add(u)
        except IndexError:
            bad = v if 0 <= u < n else u
            raise SequenceError(
                f"edge endpoint {bad} outside 0..{n - 1}") from None
        self.black = black
        self.red: list[set[int] | None] = [set() for _ in range(n)]
        self._red_hist = [n] + [0] * n  # all n vertices start at red degree 0
        self._max_red = 0
        self.level: list[int | None] | None = (
            [levels[v] for v in range(n)] if levels is not None else None)
        self.next_id = n
        self.steps_done = 0

    # -- queries ------------------------------------------------------------

    def neighbors(self, v: int) -> set[int]:
        return self.black[v] | self.red[v]

    # -- operations ----------------------------------------------------------

    def replay(self, steps: Iterable[Step], per_step: list[int],
               recheck: int = 0) -> None:
        """Apply ``steps`` in order, appending the maximum red degree after
        each one to ``per_step``.

        This is the one definition of a step.  ``("k", x, y, z)`` contracts
        the live x, y into the fresh z: common black neighbours keep a black
        edge to z, every other neighbour of x or y becomes red to z.
        ``("d", x)`` lowers the level of the live x by one, legal only if
        no neighbour sits deeper than the new level; without levels it only
        checks that x is live.  Errors are ``SequenceError("step i: ...")``
        with i counted over every step this trigraph has replayed, and so
        is the rescan: with ``recheck=K`` the red degrees are recounted
        from scratch after every K-th step to catch drift in the histogram.
        """
        black, red, hist, level = self.black, self.red, self._red_hist, self.level
        append = per_step.append
        z = self.next_id
        mx = self._max_red
        idx = self.steps_done  # global index of ``step``
        try:
            for step in steps:
                if step[0] == "k":
                    _, x, y, fresh = step
                    if fresh != z:
                        raise SequenceError(f"fresh id {fresh} != expected {z}")
                    if x == y:
                        raise SequenceError("cannot contract a vertex with itself")
                    if x < 0 or y < 0:
                        raise IndexError  # a list would wrap a negative id
                    bx, by = black[x], black[y]
                    if bx is None or by is None:
                        raise IndexError
                    rx, ry = red[x], red[y]
                    black[x] = black[y] = red[x] = red[y] = None
                    hist[len(rx)] -= 1
                    hist[len(ry)] -= 1
                    # z takes over the sets of x: bx becomes its black and
                    # rx its red neighbourhood
                    xy = {x, y}
                    once = bx ^ by
                    once -= xy
                    bx &= by
                    # common black neighbours keep a black edge and their
                    # red degree
                    for w in bx:
                        bw = black[w]
                        bw -= xy
                        bw.add(z)
                    # a black edge to only one of x, y is dropped
                    for w in once:
                        bw = black[w]
                        bw -= xy
                    rx |= ry
                    rx |= once
                    rx -= xy
                    for w in rx:
                        rw = red[w]
                        d = len(rw)
                        rw -= xy
                        rw.add(z)
                        e = len(rw)
                        if e != d:
                            hist[d] -= 1
                            hist[e] += 1
                    black.append(bx)
                    red.append(rx)
                    d = len(rx)
                    hist[d] += 1
                    # any red degree but z's grew by at most one
                    mx = mx + 1 if mx >= d else d
                    while mx and not hist[mx]:
                        mx -= 1
                    if level is not None:
                        level.append(min(level[x], level[y]))
                        level[x] = level[y] = None
                    z += 1
                elif step[0] == "d":
                    x = step[1]
                    if x < 0 or black[x] is None:
                        raise IndexError
                    if level is not None:
                        lx = level[x] - 1
                        for t in black[x] | red[x]:
                            if level[t] > lx:
                                raise SequenceError(
                                    f"illegal level decrease of {x}: neighbour "
                                    f"{t} at level {level[t]} > {lx}")
                        level[x] = lx
                else:
                    raise SequenceError(f"unknown step kind {step[0]!r}")
                if recheck and (idx + 1) % recheck == 0:
                    real = max((len(r) for r in red if r is not None), default=0)
                    if real != mx:
                        raise SequenceError(f"red-degree drift: {mx} != {real}")
                append(mx)
                idx += 1
        except SequenceError as exc:
            raise SequenceError(f"step {idx}: {exc}") from None
        except IndexError:  # a negative, dead or not yet created id
            if step[0] == "k":
                msg = f"contracting dead/unknown vertex ({step[1]},{step[2]})"
            elif level is not None:
                msg = f"level decrease of dead vertex {step[1]}"
            else:
                msg = "d-step on dead vertex"
            raise SequenceError(f"step {idx}: {msg}") from None
        finally:
            self.next_id = z
            self._max_red = mx
            self.steps_done = idx

    def contract(self, x: int, y: int) -> int:
        """Contract x and y into a fresh vertex, returning its id."""
        z = self.next_id
        self.replay((("k", x, y, z),), [])
        return z

    def decrease_level(self, x: int) -> None:
        """Lower the level of x by one (a ``d`` step)."""
        if self.level is None:
            raise SequenceError("no level assignment present")
        self.replay((("d", x),), [])


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
    from scratch every k steps to catch drift; a negative k is a
    ``ValueError``.  Errors name the failing step: ``"step i: ..."``.
    """
    if debug_recheck < 0:
        raise ValueError(f"debug_recheck must be >= 0, got {debug_recheck}")
    if seq.n != n:
        raise SequenceError(f"sequence is for n={seq.n}, graph has n={n}")
    t = Trigraph(n, edges, levels)
    per_step: list[int] = []
    t.replay(seq.steps, per_step, debug_recheck)
    # the replay checked every fresh id, so it made the contractions
    return WidthReport(max(per_step, default=0), per_step,
                       t.next_id - n == n - 1)


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
    n = seq.n
    k = len(keep_sorted)
    # per dense id: number of kept originals, restricted id or -1
    size = n + len(seq.steps)
    cnt = [0] * size
    rid = [-1] * size
    for i, v in enumerate(keep_sorted):
        if 0 <= v < n:
            cnt[v] = 1
            rid[v] = i
    out = ContractionSequence(k)
    append = out.steps.append
    fresh = k
    for step in seq.steps:
        if step[0] != "k":
            continue
        _, x, y, z = step
        cx, cy = cnt[x], cnt[y]
        cnt[z] = cx + cy
        if cx and cy:
            append(("k", rid[x], rid[y], fresh))
            rid[z] = fresh
            fresh += 1
        else:
            rid[z] = rid[x] if cx else rid[y]
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
    """Read ``write_seq``'s format, checking each record as it is read."""
    n = declared = fresh = -1
    steps: list[Step] = []
    try:
        for ln, raw, parts in records(text):
            tag = parts[0]
            if tag == "p":
                n, declared = read_header(parts, "tww-seq", n >= 0)
                fresh = n
            elif tag not in ("k", "d"):
                raise FormatError(f"unknown record {tag!r}")
            elif n < 0:
                raise FormatError("step before the 'p tww-seq' header")
            elif tag == "k":
                _, x, y, z = parts
                z = int(z)
                if z != fresh:
                    raise FormatError(
                        f"contraction produces {z}, expected fresh id {fresh}")
                steps.append(("k", int(x), int(y), z))
                fresh += 1
            else:
                _, x = parts
                steps.append(("d", int(x)))
    except (IndexError, ValueError) as exc:
        raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p tww-seq' header")
    if declared != len(steps):
        raise FormatError(f"declared {declared} steps, found {len(steps)}")
    return ContractionSequence(n, steps)
