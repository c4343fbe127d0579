"""Trigraphs, contractions with the red-edge rule, and sequence verification.

A contraction of x, y into a fresh z keeps the common black neighbours
black and turns every other inherited adjacency red:
``N(z) = (N(x) | N(y)) - {x, y}`` and
``red(z) = (red(x) | red(y) | (N(x) ^ N(y))) - {x, y}``.

A sequence is contractions only: step i is a pair ``(x, y)`` that
contracts x and y into the fresh vertex n + i.  Its width is the maximum
red degree seen after any step.  The trigraph keeps a histogram of red
degrees, updated by each contraction only at z and its red neighbours, so
the verifier reads the running maximum after every step in O(1).

A trigraph stores its adjacency in lists indexed by the dense ids of the
sequence, 0..2n-2: ``black[v]`` and ``red[v]`` are sets, and both are
``None`` once v is contracted; the vertices without a red edge share one
empty ``frozenset``.  ``Trigraph.replay`` holds the one definition of a
step: the verifier replays a whole sequence through it, and the per-step
checker of ``instrument`` replays one step per call, which resumes where
the last call stopped.  A trigraph carries no levels:
the checker keeps its own, next to its step rule (level-preserving,
level-respecting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Iterable

from .plane_graph import FormatError, pause_gc, read_header, records

Step = tuple[int, int]  # (x, y): step i contracts x and y into n + i

_NO_RED: frozenset[int] = frozenset()  # the red set of every fresh trigraph


class SequenceError(ValueError):
    """Invalid contraction sequence (a step that is no pair of ids, or
    that names a dead, negative or not yet created id)."""


def is_vertex_id(v, n: int) -> bool:
    """Whether v is one of the ids 0..n-1: an int (or an object a list
    takes as an index) in range, not a float or None."""
    try:
        return 0 <= index(v) < n
    except TypeError:
        return False


def _edge_refusal(edge, n: int) -> str:
    """Why ``edge`` is no edge on the ids 0..n-1 of a simple graph."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        return f"edge {edge!r} is not a pair of vertex ids"
    for w in (u, v):
        if not is_vertex_id(w, n):
            return f"edge endpoint {w} outside 0..{n - 1}"
    return f"loop edge at {u}"


@dataclass
class ContractionSequence:
    """Ordered contraction steps over a graph on vertices 0..n-1.

    Each step is a pair ``(x, y)``.  Fresh ids are forced, so a step does
    not carry one: step i contracts x and y into vertex n + i.
    """

    n: int
    steps: list[Step] = field(default_factory=list)

    def is_full(self) -> bool:
        return len(self.steps) == max(self.n - 1, 0)


@dataclass
class WidthReport:
    width: int
    per_step_max: list[int]
    full: bool


class Trigraph:
    """Mutable trigraph with black/red adjacency.

    Vertices carry the dense ids of a sequence: the originals 0..n-1, then
    one fresh id per contraction, so ``black`` and ``red`` are lists
    indexed by id (length ``next_id``).  ``black[v]`` and ``red[v]`` are
    sets of live ids, and both are ``None`` once v is contracted.

    Shared objects: ``red[v]`` is one empty ``frozenset`` (``_NO_RED``),
    shared by every vertex, until v has a red edge; ``replay`` then gives v
    a set of its own.  The black sets hold the int objects of the edges
    and of the fresh ids, so the ids that ``parse_plane`` interns stay one
    object each.

    Single-writer.  ``_red_hist[d]`` counts the live vertices of red degree
    d and ``_max_red`` is the largest d with a nonzero count; ``replay``
    keeps both current, so it reads the maximum after each step in O(1).
    ``steps_done`` counts the steps replayed.  Writing to ``black``/``red``
    directly bypasses that bookkeeping, and a red set may be the shared
    frozenset: assign a new set rather than add to it.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        black: list[set[int] | None] = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
                if u == v or u < 0 or v < 0:
                    raise IndexError  # a loop; a list would wrap a negative id
                black[u].add(v)
                black[v].add(u)
            except (IndexError, TypeError, ValueError):  # no pair, a bad id
                raise SequenceError(_edge_refusal(edge, n)) from None
        self.black = black
        self.red: list[set[int] | frozenset[int] | None] = [_NO_RED] * n
        self._red_hist = [n] + [0] * n  # all n vertices start at red degree 0
        self._max_red = 0
        self.next_id = n
        self.steps_done = 0

    def replay(self, steps: Iterable[Step], per_step: list[int],
               recheck: int = 0) -> None:
        """Apply ``steps`` in order, appending the maximum red degree after
        each one to ``per_step``.

        This is the one definition of a step.  ``(x, y)`` contracts the live
        x, y into the fresh z, ``next_id``: common black neighbours keep a
        black edge to z, and every other neighbour of x or y becomes red to
        z.  A step that is no pair of ids is refused.  Errors are
        ``SequenceError("step i: ...")`` with i counted over every step this
        trigraph has replayed, and so is the rescan: with ``recheck=K`` the
        red degrees are recounted from scratch after every K-th step to
        catch drift in the histogram.
        """
        black, red, hist = self.black, self.red, self._red_hist
        append = per_step.append
        z = self.next_id
        mx = self._max_red
        idx = self.steps_done  # global index of ``step``
        try:
            for step in steps:
                x, y = step
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
                # z takes over the sets of x: bx becomes its black and rx
                # (once, if x had no red edge) its red neighbourhood
                xy = {x, y}
                once = bx ^ by
                once -= xy
                bx &= by
                # common black neighbours keep a black edge and their red
                # degree
                for w in bx:
                    bw = black[w]
                    bw -= xy
                    bw.add(z)
                # a black edge to only one of x, y is dropped
                for w in once:
                    bw = black[w]
                    bw -= xy
                if rx is _NO_RED:
                    rx = once
                else:
                    rx |= once
                rx |= ry
                rx -= xy
                for w in rx:
                    rw = red[w]
                    if rw is _NO_RED:
                        rw = red[w] = set()
                    d = len(rw)
                    rw -= xy
                    rw.add(z)
                    e = len(rw)
                    if e != d:
                        hist[d] -= 1
                        hist[e] += 1
                black.append(bx)
                red.append(rx or _NO_RED)
                d = len(rx)
                hist[d] += 1
                # any red degree but z's grew by at most one
                mx = mx + 1 if mx >= d else d
                while mx and not hist[mx]:
                    mx -= 1
                z += 1
                if recheck and (idx + 1) % recheck == 0:
                    real = max((len(r) for r in red if r is not None), default=0)
                    if real != mx:
                        raise SequenceError(f"red-degree drift: {mx} != {real}")
                append(mx)
                idx += 1
        except SequenceError as exc:
            raise SequenceError(f"step {idx}: {exc}") from None
        except IndexError:  # a negative, dead or not yet created id
            raise SequenceError(f"step {idx}: contracting dead/unknown vertex "
                                f"({x},{y})") from None
        except (TypeError, ValueError):  # no pair, or ids that are no ints
            raise SequenceError(
                f"step {idx}: {step!r} is not a pair of vertex ids") from None
        finally:
            self.next_id = z
            self._max_red = mx
            self.steps_done = idx


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@pause_gc()
def verify_sequence(n: int, edges: Iterable[tuple[int, int]],
                    seq: ContractionSequence,
                    debug_recheck: int = 0) -> WidthReport:
    """Replay a sequence, reporting the exact max red degree after each step.

    With ``debug_recheck=k`` the incremental red-degree maximum is recomputed
    from scratch every k steps to catch drift; a negative k is a
    ``ValueError``.  Errors name the failing step: ``"step i: ..."``.
    """
    if debug_recheck < 0:
        raise ValueError(f"debug_recheck must be >= 0, got {debug_recheck}")
    if seq.n != n:
        raise SequenceError(f"sequence is for n={seq.n}, graph has n={n}")
    per_step: list[int] = []
    Trigraph(n, edges).replay(seq.steps, per_step, debug_recheck)
    return WidthReport(max(per_step, default=0), per_step, seq.is_full())


# ---------------------------------------------------------------------------
# Restriction to an induced subgraph
# ---------------------------------------------------------------------------


def restrict_sequence(seq: ContractionSequence, keep: Iterable[int]
                      ) -> ContractionSequence:
    """Restrict a sequence to the subgraph induced on ``keep``.

    A contraction survives iff both sides still represent at least one kept
    original vertex; the kept originals are renumbered 0..k-1 in sorted
    order and fresh ids follow deterministically.  A kept id that is no
    int in 0..n-1 raises ``SequenceError``, and so does a step that the
    verifier would refuse for its shape or its ids, as ``"step i: ..."``.
    """
    kept = set(keep)
    n = seq.n
    k = len(kept)
    # per dense id: number of kept originals, -1 while not live (not yet
    # created or contracted); restricted id or -1
    size = n + len(seq.steps)
    cnt = [0] * n + [-1] * len(seq.steps)
    rid = [-1] * size
    try:
        keep_sorted = sorted(kept)
        if keep_sorted and not (0 <= keep_sorted[0] and keep_sorted[-1] < n):
            raise IndexError  # cnt reaches past n, and wraps a negative id
        for i, v in enumerate(keep_sorted):
            cnt[v] = 1
            rid[v] = i
    except (IndexError, TypeError):  # an id out of range, or no int
        bad = next(v for v in kept if not is_vertex_id(v, n))
        raise SequenceError(
            f"kept vertex {bad!r} outside 0..{n - 1}") from None
    out = ContractionSequence(k)
    append = out.steps.append
    fresh = k
    try:
        for z, step in enumerate(seq.steps, n):
            x, y = step
            if x < 0 or y < 0 or x == y:
                raise IndexError  # a list would wrap a negative id
            cx, cy = cnt[x], cnt[y]
            if cx < 0 or cy < 0:
                raise IndexError
            cnt[x] = cnt[y] = -1
            cnt[z] = cx + cy
            if cx and cy:
                append((rid[x], rid[y]))
                rid[z] = fresh
                fresh += 1
            else:
                rid[z] = rid[x] if cx else rid[y]
    except IndexError:  # a negative, dead, repeated or not yet created id
        raise SequenceError(f"step {z - n}: ({x},{y}) is not a pair of live "
                            f"vertices") from None
    except (TypeError, ValueError):  # no pair, or ids that are no ints
        raise SequenceError(
            f"step {z - n}: {step!r} is not a pair of vertex ids") from None
    return out


# ---------------------------------------------------------------------------
# Sequence text format
# ---------------------------------------------------------------------------


def write_seq(seq: ContractionSequence, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p tww-seq {seq.n} {len(seq.steps)}")
    for z, (x, y) in enumerate(seq.steps, seq.n):
        lines.append(f"k {x} {y} {z}")
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
            elif tag != "k":
                raise FormatError(f"unknown record {tag!r}")
            elif n < 0:
                raise FormatError("step before the 'p tww-seq' header")
            else:
                _, x, y, z = parts
                z = int(z)
                if z != fresh:
                    raise FormatError(
                        f"contraction produces {z}, expected fresh id {fresh}")
                steps.append((int(x), int(y)))
                fresh += 1
    except (IndexError, ValueError) as exc:
        raise FormatError(f"line {ln}: {raw!r}: {exc}") from exc
    if n < 0:
        raise FormatError("missing 'p tww-seq' header")
    if declared != len(steps):
        raise FormatError(f"declared {declared} steps, found {len(steps)}")
    return ContractionSequence(n, steps)
