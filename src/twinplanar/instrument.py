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

A step looks only at the new vertex and its neighbours.  Per-vertex state
lives in lists over the dense ids, and a region's boundary is a dozen
constants (``region_bounds``), so a boundary test is a few comparisons;
it runs only for a vertex with more than two red edges into the region,
since every boundary cap is at least 2.  A checked build costs about 2.3
times a plain one on stacked triangulations of 3,000 vertices (2-core VM,
CPython 3.11); about a quarter of the extra time is the one-step trigraph
replay.
"""

from __future__ import annotations

from typing import NamedTuple

from .layering import BfsTree
from .plane_graph import PlaneGraph
from .seq_bipartite import WIDTH_BOUND as BIPARTITE_BOUND
from .seq_planar import WIDTH_BOUND as PLANAR_BOUND
from .trigraph import VIOLATION, Trigraph, classify_step

# where a vertex sits relative to a region's boundary (``boundary_class``)
OFF, ON, ON_RIGHT = 0, 1, 2


class InvariantViolation(AssertionError):
    pass


class RegionSpec(NamedTuple):
    """A region as it enters: P1 and P2 run from the lid ends ``v1`` and
    ``v2`` up to ``sink``; ``b1`` is the top sub-face's lid (a1, b1), ``b2``
    the side sub-face's lid and vertical path P0 as (a2, b2, u1, v0)."""

    sink: int
    v1: int
    v2: int
    b1: tuple[int, int] | None
    b2: tuple[int, int, int, int] | None


def region_bounds(t: BfsTree, spec: RegionSpec) -> tuple:
    """The constants that decide which vertices lie on a region's boundary.

    The boundary runs along vertical paths: P1 from v1 and P2 from v2 up to
    the sink, and with a B2 side face also P0 from v0 up to u1.  A vertex is
    on such a path iff it is an ancestor of the bottom end with a depth in
    the path's range, so a path is its bottom's tin plus a depth range.
    The side faces cut parts off: B1 the tops of P1 and P2 above its lid;
    B2 the depths strictly between u1 and its lid end a2 on P1 when u1 sits
    on P1, else the tops of P1 above a2 and of P2 above u1; of P0 only the
    part from u1 down to B2's other lid end belongs.

    Returns ``(ds, t1, d1, lo1, cut_lo, cut_hi, t2, d2, lo2, t0, lo0,
    hi0)``: P1 is tin t1 and depths ds..d1, on the boundary from lo1 down
    except for cut_lo < depth < cut_hi; P2 is t2 and ds..d2, on it from lo2
    down; the P0 part is t0 and lo0..hi0 (empty without B2).

    The planar peel drops lid ends after entry; the entry lid still classes
    every vertex a region's steps touch exactly, as a peeled end's lid face
    is a triangle on its tree parent, which leaves it no edge into the rest.
    """
    dep, tin, tout = t.depth, t.tin, t.tout
    s, v1, v2, b1, b2 = spec
    ds, t1, d1 = dep[s], tin[v1], dep[v1]
    lo1 = lo2 = ds
    cut_lo = cut_hi = 0
    t0, lo0, hi0 = -1, 1, 0
    if b1 is not None:
        lo1, lo2 = max(ds, dep[b1[0]]), max(ds, dep[b1[1]])
    if b2 is not None:
        a2, b2v, u1, v0 = b2
        du1 = dep[u1]
        if ds <= du1 <= d1 and tin[u1] <= t1 < tout[u1]:
            cut_lo, cut_hi = du1, dep[a2]
        else:
            lo1, lo2 = max(lo1, dep[a2]), max(lo2, du1)
        t0, lo0, hi0 = tin[v0], du1, min(dep[b2v], dep[v0])
    return (ds, t1, d1, lo1, cut_lo, cut_hi, tin[v2], dep[v2], lo2,
            t0, lo0, hi0)


def boundary_class(t: BfsTree, bounds: tuple, w: int) -> int:
    """``OFF``, ``ON`` or ``ON_RIGHT`` for a vertex w of the completed
    graph, given a region's ``region_bounds``: ``ON_RIGHT`` is a boundary
    vertex anywhere on P2, where the right-path cap applies.  A vertex on
    both P1 and P2 is judged by P1's cut-offs."""
    ds, t1, d1, lo1, cut_lo, cut_hi, t2, d2, lo2, t0, lo0, hi0 = bounds
    dw, tw, ow = t.depth[w], t.tin[w], t.tout[w]
    right = ds <= dw <= d2 and tw <= t2 < ow
    if ds <= dw <= d1 and tw <= t1 < ow:
        on = dw >= lo1 and not cut_lo < dw < cut_hi
    elif right:
        on = dw >= lo2
    else:
        return ON if lo0 <= dw <= hi0 and tw <= t0 < ow else OFF
    return (ON_RIGHT if right else ON) if on else OFF


class InvariantChecker:
    def __init__(self, mode: str):
        if mode not in ("planar", "bipartite"):
            raise ValueError(mode)
        self.mode = mode
        self.cap_global = PLANAR_BOUND if mode == "planar" else BIPARTITE_BOUND
        self.cap_boundary = 5 if mode == "planar" else 4
        self.cap_right = 3 if mode == "planar" else 2
        self.cap_wrapped = 7 if mode == "planar" else 6
        # the step rule of the recursion (see trigraph.classify_step)
        self.discipline = "respecting" if mode == "planar" else "preserving"
        self.t: BfsTree | None = None
        self.sim: Trigraph | None = None
        self.n = 0
        # over the dense ids 0..2n-2: the region a vertex was made or handed
        # up in (-1: none), and its original level while it stems from one
        self.region: list[int] = []
        self.pure: list[int | None] = []
        # per active region: [rid, spec, region_bounds or None until needed]
        self.stack: list[list] = []
        self._next_rid = 0
        self.final_phase = False
        self.steps_checked = 0

    # -- wiring ---------------------------------------------------------

    def bind(self, g: PlaneGraph, t: BfsTree) -> None:
        if self.t is not None:  # final_phase and the stack are per build
            raise ValueError("InvariantChecker already bound to a build")
        self.t = t
        n = self.n = g.n
        self.sim = Trigraph(n, g.edges, levels=t.depth)
        self.region = [-1] * (2 * n - 1)
        self.pure = [*t.depth, *[None] * (n - 1)]

    def push_region(self, sink: int, v1: int, v2: int, b1, b2) -> None:
        spec = RegionSpec(sink, v1, v2, b1, b2)
        self._check_division(spec)
        self.stack.append([self._next_rid, spec, None])
        self._next_rid += 1

    def pop_region(self, survivors) -> None:
        """``survivors``: the region's surviving ids, a sized collection."""
        s, _, _, b1, b2 = self.stack.pop()[1]
        if not survivors:
            return
        # at region end the sink must see no red edge to survivors.
        # For a T-wrapped region (no side faces, so two boundary vertices
        # per level) the survivors of the now 1-reduced face also stay below
        # the interior red ceiling of 7 (resp. 6 bipartite).
        sim = self.sim
        red, region = sim.red, self.region
        wrapped = b1 is None and b2 is None
        cap = self.cap_wrapped
        parent_rid = self.stack[-1][0] if self.stack else -1
        for v in survivors:
            rv = red[v]
            if s in rv:
                raise InvariantViolation(
                    f"sink {s} keeps a red edge to survivor {v}")
            if wrapped and len(rv) > cap:
                raise InvariantViolation(
                    f"survivor {v} of a 1-reduced wrapped face has red "
                    f"degree {len(rv)} > {cap}")
            region[v] = parent_rid
        # the region must be 1-reduced per level among survivors
        if len(set(map(sim.level.__getitem__, survivors))) < len(survivors):
            raise InvariantViolation("two survivors on one level")

    def enter_final_phase(self) -> None:
        self.final_phase = True

    # -- steps ------------------------------------------------------------

    def on_contract(self, x: int, y: int, z: int) -> None:
        sim = self.sim
        self.steps_checked += 1
        final = self.final_phase
        if not final and classify_step(
                sim, ("k", x, y, z), self.discipline) == VIOLATION:
            raise InvariantViolation(
                f"contraction ({x}@{sim.level[x]}, {y}@{sim.level[y]}) is not "
                f"level-{self.discipline}")
        got = sim.contract(x, y)
        if got != z:
            raise InvariantViolation(f"fresh id drift {got} != {z}")
        pure = self.pure
        px = pure[x]
        pure[z] = px if px == pure[y] else None

        level, red = sim.level, sim.red
        rz, bz = red[z], sim.black[z]
        lz = level[z]
        if not final:
            # every edge at z spans one level (bipartite), at most one (planar)
            ok = ((lz - 1, lz + 1) if self.mode == "bipartite"
                  else (lz - 1, lz, lz + 1))
            for w in bz:
                if level[w] not in ok:
                    self._bad_edge(z, w)
            for w in rz:
                if level[w] not in ok:
                    self._bad_edge(z, w)

        stack = self.stack
        self.region[z] = stack[-1][0] if stack else -1
        cap = self.cap_global
        if len(rz) > cap:
            raise InvariantViolation(f"red degree {len(rz)} > {cap} at {z}")
        for v in rz:
            if len(red[v]) > cap:
                raise InvariantViolation(
                    f"red degree {len(red[v])} > {cap} at {v}")
        if final or not stack:
            return

        # boundary caps of the innermost region: every cap is at least 2,
        # so only a vertex with more red edges into the region can break
        # one (contracted vertices are never on a skeleton)
        n, region, rid = self.n, self.region, stack[-1][0]
        for w in (*rz, *bz):
            if w < n and len(red[w]) > 2:
                in_region = [*map(region.__getitem__, red[w])].count(rid)
                if in_region > 2:
                    self._check_boundary(w, in_region)
        # sink protection: a vertex adjacent to the sink must be black there
        # and stem from a single original level equal to its current one
        s = stack[-1][1].sink
        if s in rz:
            raise InvariantViolation(f"red edge onto the sink {s}")
        if s in bz and pure[z] != lz:
            raise InvariantViolation(
                f"sink-protection broken: {z} adjacent to sink {s} stems from "
                f"mixed levels")

    def on_decrease(self, x: int) -> None:
        self.steps_checked += 1
        self.sim.decrease_level(x)  # validates legality

    # -- condition checks ---------------------------------------------------

    def _bad_edge(self, z: int, w: int) -> None:
        gap = abs(self.sim.level[w] - self.sim.level[z])
        if self.mode == "bipartite":
            raise InvariantViolation(
                f"bipartite edge ({z},{w}) spans {gap} levels")
        raise InvariantViolation(f"level assignment not good at ({z},{w})")

    def _check_boundary(self, w: int, in_region: int) -> None:
        """w's ``in_region`` red edges into the innermost region stay within
        its cap if w is on the region's boundary."""
        _, spec, bounds = top = self.stack[-1]
        if bounds is None:
            bounds = top[2] = region_bounds(self.t, spec)
        where = boundary_class(self.t, bounds, w)
        if where == OFF:
            return
        b1, b2 = spec.b1, spec.b2
        cap = self.cap_boundary
        if b2 is not None and w == b2[1]:
            cap += 1  # the B2 right-lid exception
        if where == ON_RIGHT:
            cap = min(cap, self.cap_right)
        if b1 is not None and w in b1 or b2 is not None and w == b2[0]:
            cap = min(cap, 2)
        if in_region > cap:
            raise InvariantViolation(
                f"boundary vertex {w} has {in_region} red edges into the "
                f"region (cap {cap})")

    def _check_division(self, spec: RegionSpec) -> None:
        """Entry geometry of a region, in O(1) tree queries.

        D (sink, lid v1-v2, wrapping paths P1 from v1 and P2 from v2 up to
        the sink) must be T-wrapped.  In planar runs (B1, B2) must divide D
        as a vh-division does; the messages carry its clause labels.  Clause
        (a) holds by construction, since C is D ^ B1 ^ B2 and never
        materialised, and clause (c) needs the skeleton, which the builder
        keeps implicit.  "z on Pi" is: z is an ancestor of Pi's bottom end,
        no higher than its top.
        """
        t = self.t
        dep, parent, tin, tout = t.depth, t.parent, t.tin, t.tout
        s, v1, v2, b1, b2 = spec
        if parent[v1] == v2 or parent[v2] == v1:
            raise InvariantViolation(
                f"(wrapped) D lid is a tree edge: ({v1},{v2})")
        t1, t2, d1, d2, ds = tin[v1], tin[v2], dep[v1], dep[v2], dep[s]
        if not (tin[s] <= t1 < tout[s] and tin[s] <= t2 < tout[s]):
            raise InvariantViolation(
                f"(wrapped) D sink is not above both lid ends: sink {s}, "
                f"lid ({v1},{v2})")
        if b1 is not None:
            a1, b1v = b1
            _check_side_lid(t, "B1", a1, b1v, s)
            if not (ds <= dep[a1] <= d1 and tin[a1] <= t1 < tout[a1]
                    and ds <= dep[b1v] <= d2 and tin[b1v] <= t2 < tout[b1v]):
                raise InvariantViolation(
                    f"(b) B1 wrapping paths not subpaths of D's: lid "
                    f"({a1},{b1v}), D lid ({v1},{v2}), sink {s}")
        if b2 is None:
            return
        a2, b2v, u1, v0 = b2
        du1, tu1, ou1 = dep[u1], tin[u1], tout[u1]
        u1_on_p1 = ds <= du1 <= d1 and tu1 <= t1 < ou1
        s2 = u1 if u1_on_p1 else s  # the sink of B2
        _check_side_lid(t, "B2", a2, b2v, s2)
        if b1 is not None and not (u1_on_p1 and du1 >= dep[a1]):
            raise InvariantViolation(
                f"(d) B2 not edge-disjoint from B1: B2 sink {s2}, B1 lid "
                f"({a1},{b1v})")
        if not (dep[s2] <= dep[a2] <= d1 and tin[a2] <= t1 < tout[a2]):
            raise InvariantViolation(
                f"(d) B2 left wrapping path not inside P1: {a2} up to {s2}")
        # P0 runs from v0 up to u1; B2's right path continues along P2 to
        # the sink when u1 sits there
        tb = tin[b2v]
        if not (tu1 <= tb < ou1 and tb <= tin[v0] < tout[b2v]
                and (u1_on_p1 or b1 is None
                     and ds <= du1 <= d2 and tu1 <= t2 < ou1)):
            raise InvariantViolation(
                f"(d) B2 right wrapping path not inside P0 (or P0+P2): "
                f"{b2v} up to {u1}, P0 from {v0}")


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
