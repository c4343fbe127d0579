"""Trigraphs, contractions with the red-edge rule, and sequence verification.

A contraction of x, y into a fresh z keeps the common black neighbours
black and turns every other inherited adjacency red:
``N(z) = (N(x) | N(y)) - {x, y}`` and
``red(z) = (red(x) | red(y) | (N(x) ^ N(y))) - {x, y}``.

A sequence is contractions only: step i is a pair ``(x, y)`` that
contracts x and y into the fresh vertex n + i.  Its width is the maximum
red degree seen after any step.  The trigraph keeps a histogram of red
degrees, updated by each contraction only where a red degree changes, so
the verifier reads the running maximum after every step in O(1).

In the partition view of twin-width (Bonnet, Kim, Thomasse and Watrigant)
a vertex of the trigraph is a part of the original vertex set, and z is
the union of the parts of x and y.  So z can keep the storage and the
name of one of them.  A trigraph names every live part by one original
vertex in 0..n-1: its adjacency lives in lists of n sets indexed by part
name, ``name`` maps each sequence id to its part, and the vertices
without a red edge share one empty ``frozenset``.  A step keeps the name
of one side, a, and merges the other side, b, into it: it relabels b's
neighbours from b to a and turns red a's black neighbours that b lacks,
while a's red neighbours keep their edge as it is.  Whichever side keeps
its name, every black edge of either side is touched: it leads to a
common black neighbour, and there are no more of those than the smaller
side has neighbours, or it turns red (or merges into a red edge), which
happens to an edge once.  So the choice decides only whose red edges are
relabelled, and a step keeps the name of the side with more red edges.
A step then costs O(smaller side + edges that turn red), whatever the
degree of the part it grows.

``Trigraph.replay`` holds the one definition of a step: the verifier
replays a whole sequence through it, and the per-step checker of
``instrument`` replays one step per call, which resumes where the last
call stopped.  A trigraph carries no levels: the checker keeps its own
by part name, next to its step rule (level-preserving,
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
    """Mutable trigraph with black/red adjacency, one part per live id.

    Every live part is named by one original vertex in 0..n-1, so
    ``black`` and ``red`` are lists of n entries indexed by part name.
    ``black[a]`` and ``red[a]`` are sets of part names, and both are
    ``None`` once part a is merged into another.  ``name[v]`` maps the
    sequence id v to its part's name: -1 once v is contracted, and a
    step appends the name of its new part, so ``len(name)`` is the id
    the next step creates.  A fresh trigraph names part v by v, so there
    names and ids agree.  Every other entry of ``name`` is -1, so the
    live id of part a is ``name.index(a)``; only messages need it.

    Shared objects: ``red[a]`` is one empty ``frozenset`` (``_NO_RED``),
    shared by every part, until a has a red edge; ``replay`` then gives a
    a set of its own.  ``name`` and the sets hold the int objects of the
    edges, which ``parse_plane`` interns, so names cost no int object of
    their own, and a step makes none.

    Single-writer.  ``_red_hist[d]`` counts the live parts of red degree
    d and ``_max_red`` is the largest d with a nonzero count; ``replay``
    keeps both current, so it reads the maximum after each step in O(1).
    Writing to ``black``/``red`` directly bypasses that bookkeeping, and a
    red set may be the shared frozenset: assign a new set rather than add
    to it.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        black: list[set[int] | None] = [set() for _ in range(n)]
        name: list = [None] * n  # filled with the edges' int objects
        for edge in edges:
            try:
                u, v = edge
                if u == v or u < 0 or v < 0:
                    raise IndexError  # a loop; a list would wrap a negative id
                black[u].add(v)
                black[v].add(u)
                name[u] = u
                name[v] = v
            except (IndexError, TypeError, ValueError):  # no pair, a bad id
                raise SequenceError(_edge_refusal(edge, n)) from None
        if not all(black):  # isolated vertices have no int object yet
            name = [v if a is None else a for v, a in enumerate(name)]
        self.black = black
        self.red: list[set[int] | frozenset[int] | None] = [_NO_RED] * n
        self.name = name
        self._red_hist = [n] + [0] * n  # all n parts start at red degree 0
        self._max_red = 0

    def replay(self, steps: Iterable[Step], per_step: list[int],
               recheck: int = 0) -> None:
        """Apply ``steps`` in order, appending the maximum red degree after
        each one to ``per_step``.

        This is the one definition of a step.  ``(x, y)`` contracts the live
        x, y into the fresh z, ``len(name)``: common black neighbours keep a
        black edge to z, and every other neighbour of x or y becomes red to
        z.  z's part keeps the name of the side with more red edges, a
        (x's on a tie), and takes in the other side, b: only b's neighbours
        and a's black neighbours are touched, never a's red ones.  A step
        that is no pair of ids is refused.  Errors are
        ``SequenceError("step i: ...")`` with i counted over every step this
        trigraph has replayed, and so is the rescan: with ``recheck=K`` the
        red degrees are recounted from scratch after every K-th step to
        catch drift in the histogram.
        """
        black, red, name = self.black, self.red, self.name
        hist = self._red_hist
        append = per_step.append
        z = len(name)
        mx = self._max_red
        idx = z - len(black)  # global index of ``step``
        try:
            for step in steps:
                x, y = step
                if x == y:
                    raise SequenceError("cannot contract a vertex with itself")
                if x < 0 or y < 0:
                    raise IndexError  # a list would wrap a negative id
                a, b = name[x], name[y]
                if a < 0 or b < 0:
                    raise IndexError
                ba = black[a]
                bb = black[b]
                ra = red[a]
                rb = red[b]
                if len(ra) < len(rb):
                    a, b = b, a
                    ba, bb = bb, ba
                    ra, rb = rb, ra
                name[x] = name[y] = -1
                name.append(a)
                black[b] = red[b] = None
                hist[len(ra)] -= 1
                hist[len(rb)] -= 1
                # the edge between the two sides goes
                if b in ba:
                    ba.remove(b)
                    bb.remove(a)
                elif b in ra:
                    ra.remove(b)
                    rb.remove(a)
                # ba keeps the common black neighbours; the rest turn red
                up = ba - bb
                ba -= up
                # b's red neighbours are red to a from now on: one red edge
                # fewer for those that were red to both
                for w in rb:
                    rw = red[w]
                    rw.remove(b)
                    if a in rw:
                        d = len(rw)
                        hist[d + 1] -= 1
                        hist[d] += 1
                    else:
                        rw.add(a)
                # b's black neighbours drop b; those not black to a turn red
                # to a, and so do a's black neighbours not black to b
                for w in bb:
                    black[w].remove(b)
                    if w not in ba:
                        rw = red[w]
                        if a not in rw:  # not red to a already
                            if rw is _NO_RED:
                                rw = red[w] = set()
                            d = len(rw)
                            rw.add(a)
                            hist[d] -= 1
                            hist[d + 1] += 1
                for w in up:
                    black[w].remove(a)
                    rw = red[w]
                    if a not in rw:  # not red to b before
                        if rw is _NO_RED:
                            rw = red[w] = set()
                        d = len(rw)
                        rw.add(a)
                        hist[d] -= 1
                        hist[d + 1] += 1
                if ra is _NO_RED:
                    ra = set()
                ra |= rb
                ra |= up
                bb -= ba
                ra |= bb
                red[a] = ra or _NO_RED
                d = len(ra)
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
            self._max_red = mx


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
