"""Per-step invariant checking for the sequence builders (--assert mode).

Checks the entry geometry of every region of the recursion, in O(1) tree
queries per region:

* the region's cycle D is T-wrapped: its lid is no tree edge and its sink
  lies above both lid ends (both modes),
* in planar runs, the side faces B1 and B2 divide D as a vertical/
  horizontal division: horizontal lids, no triangles, B1 sharing D's sink
  and wrapping paths, B2 wrapped inside P1 and P0 (plus P2 without B1),
  edge-disjoint from B1.

Replays every emitted step on a trigraph simulation and asserts, against
the innermost active region of the recursion:

* step discipline (level-respecting resp. level-preserving, as
  ``trigraph.classify_step`` defines them),
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
from .trigraph import VIOLATION, Trigraph, classify_step


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
        # the step rule of the recursion (see trigraph.classify_step)
        self.discipline = "respecting" if mode == "planar" else "preserving"
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
        self._check_division(spec)
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
        self.steps_checked += 1
        if not self.final_phase and classify_step(
                sim, ("k", x, y, z), self.discipline) == VIOLATION:
            raise InvariantViolation(
                f"contraction ({x}@{sim.level[x]}, {y}@{sim.level[y]}) is not "
                f"level-{self.discipline}")
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

    def _check_division(self, spec) -> None:
        """Entry geometry of a region, in O(1) tree queries.

        D (sink, lid v1-v2, wrapping paths P1 from v1 and P2 from v2 up to
        the sink) must be T-wrapped.  In planar runs (B1, B2) must divide D
        as a vh-division does; the messages carry its clause labels.  Clause
        (a) holds by construction, since C is D ^ B1 ^ B2 and never
        materialised, and clause (c) needs the skeleton, which the builder
        keeps implicit.
        """
        t = self.t
        dep, parent, on_vertical = t.depth, t.parent, t.on_vertical
        s, v1, v2 = spec.sink, spec.v1, spec.v2
        if parent[v1] == v2 or parent[v2] == v1:
            raise InvariantViolation(
                f"(wrapped) D lid is a tree edge: ({v1},{v2})")
        if not (t.is_ancestor(s, v1) and t.is_ancestor(s, v2)):
            raise InvariantViolation(
                f"(wrapped) D sink is not above both lid ends: sink {s}, "
                f"lid ({v1},{v2})")
        b1, b2 = spec.b1, spec.b2
        if b1 is not None:
            a1, b1v = b1
            _check_side_lid(t, "B1", a1, b1v, s)
            if not (on_vertical(a1, v1, s) and on_vertical(b1v, v2, s)):
                raise InvariantViolation(
                    f"(b) B1 wrapping paths not subpaths of D's: lid "
                    f"({a1},{b1v}), D lid ({v1},{v2}), sink {s}")
        if b2 is None:
            return
        a2, b2v, u1, v0 = b2
        u1_on_p1 = on_vertical(u1, v1, s)
        s2 = u1 if u1_on_p1 else s  # the sink of B2
        _check_side_lid(t, "B2", a2, b2v, s2)
        if b1 is not None and not (u1_on_p1 and dep[u1] >= dep[a1]):
            raise InvariantViolation(
                f"(d) B2 not edge-disjoint from B1: B2 sink {s2}, B1 lid "
                f"({a1},{b1v})")
        if not on_vertical(a2, v1, s2):
            raise InvariantViolation(
                f"(d) B2 left wrapping path not inside P1: {a2} up to {s2}")
        # P0 runs from v0 up to u1; B2's right path continues along P2 to
        # the sink when u1 sits there
        if not (t.is_ancestor(u1, b2v) and t.is_ancestor(b2v, v0)
                and (u1_on_p1 or b1 is None and on_vertical(u1, v2, s))):
            raise InvariantViolation(
                f"(d) B2 right wrapping path not inside P0 (or P0+P2): "
                f"{b2v} up to {u1}, P0 from {v0}")

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


def _check_side_lid(t: BfsTree, name: str, a: int, b: int, sink: int) -> None:
    """(pre) of a vh-division: a side face's lid is horizontal and the side
    face is no triangle."""
    dep = t.depth
    if dep[a] != dep[b]:
        raise InvariantViolation(
            f"(pre) {name} lid is not horizontal: ({a},{b}) at levels "
            f"{dep[a]}, {dep[b]}")
    if dep[a] - dep[sink] == 1:
        raise InvariantViolation(
            f"(pre) {name} is a triangle: lid ({a},{b}), sink {sink}")
