"""Per-step invariant checking for the sequence builders (--assert mode).

Replays every emitted step on a trigraph simulation and asserts, against
the innermost active region of the recursion:

* step discipline (min-level-respecting resp. level-preserving),
* goodness of the level assignment after every step,
* strict level-crossing of all edges in bipartite runs,
* the red-degree ceilings of the recursion: interior vertices at most
  8 (planar) / 6 (bipartite) globally; boundary vertices at most 5 (with
  the one 6-exception) / 4 inside the region; right wrapping path at most
  3 / 2; designated lid vertices at most 2,
* sink blackness and the sink-protection discipline.

The final phase (contracting the few leftovers) is outside the
recursion's discipline; there only the global red-degree cap is asserted.
"""

from __future__ import annotations

from .layering import BfsTree
from .plane_graph import PlaneGraph
from .seq_bipartite import WIDTH_BOUND as BIPARTITE_BOUND
from .seq_planar import WIDTH_BOUND as PLANAR_BOUND
from .trigraph import Trigraph


class InvariantViolation(AssertionError):
    pass


class InvariantChecker:
    def __init__(self, mode: str):
        if mode not in ("planar", "bipartite"):
            raise ValueError(mode)
        self.mode = mode
        self.cap_global = PLANAR_BOUND if mode == "planar" else BIPARTITE_BOUND
        self.cap_boundary = 5 if mode == "planar" else 4
        self.cap_right = 3 if mode == "planar" else 2
        self.g: PlaneGraph | None = None
        self.t: BfsTree | None = None
        self.sim: Trigraph | None = None
        self.region: dict[int, int] = {}
        self.pure: dict[int, int | None] = {}
        self.stack: list[tuple[int, object]] = []
        self._next_rid = 0
        self.final_phase = False
        self.steps_checked = 0

    # -- wiring ---------------------------------------------------------

    def bind(self, g: PlaneGraph, t: BfsTree) -> None:
        self.g, self.t = g, t
        self.sim = Trigraph(g.n, g.edges, levels=t.depth)
        self.pure = {v: t.depth[v] for v in range(g.n)}

    def push_region(self, spec) -> None:
        self.stack.append((self._next_rid, spec))
        self._next_rid += 1

    def pop_region(self, survivors) -> None:
        rid, spec = self.stack.pop()
        # at region end the sink must see no red edge to survivors.
        # For a T-wrapped region (no side faces, so two boundary vertices
        # per level) the survivors of the now 1-reduced face also stay below
        # the interior red ceiling of 7 (resp. 6 bipartite).
        sim = self.sim
        wrapped = spec.b1 is None and spec.b2 is None
        cap = 7 if self.mode == "planar" else 6
        for v in survivors:
            if spec.sink in sim.red[v]:
                raise InvariantViolation(
                    f"sink {spec.sink} keeps a red edge to survivor {v}")
            if wrapped and len(sim.red[v]) > cap:
                raise InvariantViolation(
                    f"survivor {v} of a 1-reduced wrapped face has red "
                    f"degree {len(sim.red[v])} > {cap}")
        parent_rid = self.stack[-1][0] if self.stack else -1
        for v in survivors:
            self.region[v] = parent_rid
        # the region must be 1-reduced per level among survivors
        seen = set()
        for v in survivors:
            lv = sim.level[v]
            if lv in seen:
                raise InvariantViolation("two survivors on one level")
            seen.add(lv)

    def enter_final_phase(self) -> None:
        self.final_phase = True

    # -- steps ------------------------------------------------------------

    def on_contract(self, x: int, y: int, z: int) -> None:
        sim = self.sim
        t = self.t
        self.steps_checked += 1
        lx, ly = sim.level[x], sim.level[y]
        if not self.final_phase:
            if self.mode == "bipartite":
                if lx != ly:
                    raise InvariantViolation(
                        f"non level-preserving contraction ({x}@{lx}, {y}@{ly})")
            else:
                if lx != ly:
                    if abs(lx - ly) != 1:
                        raise InvariantViolation("level gap 2 contraction")
                    hi = x if lx > ly else y
                    lo = min(lx, ly)
                    for w in sim.neighbors(hi):
                        if sim.level[w] != lo:
                            raise InvariantViolation(
                                f"level-respecting broken: nbr {w} of {hi} at "
                                f"{sim.level[w]} != {lo}")
        got = sim.contract(x, y)
        if got != z:
            raise InvariantViolation(f"fresh id drift {got} != {z}")
        px, py = self.pure.pop(x, None), self.pure.pop(y, None)
        self.pure[z] = px if (px is not None and px == py) else None

        lz = sim.level[z]
        for w in sim.neighbors(z):
            gap = abs(sim.level[w] - lz)
            if self.mode == "bipartite" and gap != 1 and not self.final_phase:
                raise InvariantViolation(
                    f"bipartite edge ({z},{w}) spans {gap} levels")
            if gap > 1 and not self.final_phase:
                raise InvariantViolation(f"level assignment not good at ({z},{w})")

        rid = self.stack[-1][0] if self.stack else -1
        self.region[z] = rid
        self._check_red_caps(z)
        if not self.final_phase and self.stack:
            self._check_region_conditions(z)

    def on_decrease(self, x: int) -> None:
        self.steps_checked += 1
        self.sim.decrease_level(x)  # validates legality

    # -- condition checks ---------------------------------------------------

    def _check_red_caps(self, z: int) -> None:
        sim = self.sim
        for v in (z, *sim.red[z]):
            if len(sim.red[v]) > self.cap_global:
                raise InvariantViolation(
                    f"red degree {len(sim.red[v])} > {self.cap_global} at {v}")

    def _check_region_conditions(self, z: int) -> None:
        sim, t = self.sim, self.t
        rid, spec = self.stack[-1]
        n = self.g.n
        touched = {z, *sim.red[z], *sim.black[z]}
        for w in touched:
            if w >= n:
                continue  # contracted vertices are never on a skeleton
            if not spec.on_boundary(t, w):
                continue
            in_region = sum(1 for u in sim.red[w] if self.region.get(u) == rid)
            cap = self.cap_boundary
            if spec.b2 is not None and w == spec.b2[1]:
                cap = self.cap_boundary + 1  # the B2 right-lid exception
            if spec.on_right(t, w):
                cap = min(cap, self.cap_right)
            if spec.b1 is not None and w in spec.b1:
                cap = min(cap, 2)
            if spec.b2 is not None and w == spec.b2[0]:
                cap = min(cap, 2)
            if in_region > cap:
                raise InvariantViolation(
                    f"boundary vertex {w} has {in_region} red edges into the "
                    f"region (cap {cap})")
        # sink protection: a vertex adjacent to the sink must be black there
        # and stem from a single original level equal to its current one
        s = spec.sink
        if s in sim.red[z]:
            raise InvariantViolation(f"red edge onto the sink {s}")
        if s in sim.black[z] and self.pure.get(z) != sim.level[z]:
            raise InvariantViolation(
                f"sink-protection broken: {z} adjacent to sink {s} stems from "
                f"mixed levels")
