"""Shared machinery for the two sequence builders.

The recursions have Theta(n) depth in the worst case, so they do not
recurse on the Python stack.  A region call does its entry work at once;
when it finishes without a sub-call it returns its result, and otherwise
it returns a generator for the rest, which ``yield``s each sub-call's
return value (either kind) and gets the finished result back.
``run_trampoline`` drives the generators with an explicit stack.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from types import GeneratorType

from .layering import BfsTree
from .plane_graph import PlaneGraph
from .trigraph import ContractionSequence, Step


class BuilderError(RuntimeError):
    """A structural invariant of the construction failed (never expected on
    valid inputs; indicates a bug or a corrupted embedding)."""


class BuildCtx:
    """Step emitter plus static geometry shared by every recursive call."""

    def __init__(self, g: PlaneGraph, t: BfsTree, checker=None):
        self.g = g
        self.t = t
        self.steps: list[Step] = []
        self.next_id = g.n
        self.checker = checker

    def contract(self, x: int, y: int) -> int:
        z = self.next_id
        self.next_id += 1
        self.steps.append(("k", x, y, z))
        if self.checker is not None:
            self.checker.on_contract(x, y, z)
        return z

    def decrease(self, x: int) -> None:
        self.steps.append(("d", x))
        if self.checker is not None:
            self.checker.on_decrease(x)

    def push_region(self, sink: int, v1: int, v2: int, b1, b2) -> None:
        if self.checker is not None:
            self.checker.push_region(sink, v1, v2, b1, b2)

    def pop_region(self, survivors: dict[int, int]) -> None:
        if self.checker is not None:
            self.checker.pop_region(survivors.values())

    def sequence(self) -> ContractionSequence:
        return ContractionSequence(self.g.n, list(self.steps))


def check_mode(checker, mode: str) -> None:
    """Refuse, before any work, a checker made for the other mode."""
    if checker is not None and checker.mode != mode:
        raise ValueError(f"{checker.mode} checker given to a {mode} build")


def run_trampoline(call, *args):
    """Return the result of ``call(*args)``, a region call of the protocol
    above, with every nested sub-call driven on an explicit stack.

    A finished value, at the root or yielded by a generator, goes straight
    back to the caller; a generator is pushed and run until it returns."""
    gen = call(*args)
    if type(gen) is not GeneratorType:
        return gen
    stack = []
    value = None
    while True:
        try:
            child = gen.send(value)
        except StopIteration as stop:
            value = stop.value
            if not stack:
                return value
            gen = stack.pop()
        else:
            if type(child) is GeneratorType:
                stack.append(gen)
                gen = child
                value = None
            else:
                value = child


def merge_survivors(ctx: BuildCtx, base: dict[int, int], adds, top: int,
                    where: str) -> dict[int, int]:
    """Merge the ``(level, id)`` pairs ``adds`` into the survivor dict
    ``base`` in place, then contract each level that now holds two vertices,
    deepest first, as the sorted pair; returns ``base``.

    Python code visits only the levels in ``adds``, so handing a child's
    survivors up does not cost a loop over every level it spans; the one
    whole-dict pass is the bound check's ``min()``.  Every level must lie
    strictly below ``top`` (``where`` names that level in the error)."""
    pairs: dict[int, int] = {}
    for i, w in adds:
        if i in pairs:
            raise BuilderError(f"level {i} holds 3 vertices")
        if i in base:
            pairs[i] = w
        else:
            base[i] = w
    if base and min(base) <= top:
        raise BuilderError(f"interior vertex at or above {where}")
    for i in sorted(pairs, reverse=True):
        a, b = sorted((base[i], pairs[i]))
        base[i] = ctx.contract(a, b)
    return base


def climb(t: BfsTree, x: int, sink: int, v1: int,
          v2: int) -> tuple[list[int], int]:
    """Walk the tree path up from ``x`` to its first proper ancestor on P1
    or P2, the vertical paths from ``v1`` and ``v2`` up to ``sink``; return
    the vertices passed, bottom-up from ``x``, and that ancestor."""
    dep, parent, tin, tout = t.depth, t.parent, t.tin, t.tout
    ds, t1, t2 = dep[sink], tin[v1], tin[v2]
    path = [x]
    z = parent[x]
    while not (dep[z] >= ds and (tin[z] <= t1 < tout[z]
                                 or tin[z] <= t2 < tout[z])):
        path.append(z)
        z = parent[z]
    return path, z


def fold_contract(ctx: BuildCtx, items: list[tuple[int, int]]) -> int | None:
    """Contract a list of (level, id) pairs down to one vertex, repeatedly
    taking the two entries that are deepest (then lowest id)."""
    pool = [(-i, w) for i, w in items]
    heapify(pool)
    while len(pool) > 1:
        la, a = heappop(pool)
        lb, b = heappop(pool)
        heappush(pool, (max(la, lb), ctx.contract(a, b)))
    return pool[0][1] if pool else None
