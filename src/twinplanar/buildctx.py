"""Shared machinery for the two sequence builders.

The recursions have Theta(n) depth in the worst case, so recursive calls
are written as generators that ``yield`` sub-calls and are driven by a
trampoline with an explicit stack.
"""

from __future__ import annotations

from typing import Generator

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

    def push_region(self, spec) -> None:
        if self.checker is not None:
            self.checker.push_region(spec)

    def pop_region(self, survivors: dict[int, int]) -> None:
        if self.checker is not None:
            self.checker.pop_region(survivors.values())

    def sequence(self) -> ContractionSequence:
        return ContractionSequence(self.g.n, list(self.steps))


def run_trampoline(gen: Generator):
    """Drive nested generator calls with an explicit stack."""
    stack = [gen]
    value = None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as stop:
            value = stop.value
            stack.pop()
        else:
            stack.append(child)
            value = None
    return value


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


def fold_contract(ctx: BuildCtx, items: list[tuple[int, int]]) -> int | None:
    """Contract a list of (level, id) pairs down to one vertex, repeatedly
    taking the two entries that are deepest (then lowest id)."""
    pool = sorted(items, key=lambda p: (-p[0], p[1]))
    while len(pool) > 1:
        (la, a), (lb, b) = pool[0], pool[1]
        z = ctx.contract(a, b)
        pool = pool[2:]
        pool.append((min(la, lb), z))
        pool.sort(key=lambda p: (-p[0], p[1]))
    return pool[0][1] if pool else None
