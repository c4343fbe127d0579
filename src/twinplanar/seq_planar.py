"""Width-8 contraction sequences for plane triangulations.

The recursion works on a wrapped cycle D carrying a vertical/horizontal
division (C, B1, B2).  All geometry lives in the untouched input
triangulation: vertical paths are parent chains of the left-aligned BFS
tree, so a wrapped cycle is just (lid dart, sink) and regions never get
materialised.  Each invocation either peels a lid-end vertex with no
interior edges, or splits along a vertical path P0 into two recursive
sub-calls plus a level-by-level merge, and finishes with the two-pass
second stage that leaves at most one interior vertex per level (maximally
1-reduced).
"""

from __future__ import annotations

from dataclasses import dataclass

from .buildctx import BuildCtx, BuilderError, fold_contract, run_trampoline
from .layering import BfsTree, check_left_aligned, left_aligned_bfs_tree
from .plane_graph import PlaneGraph, connect_components, pause_gc, triangulate
from .trigraph import (ContractionSequence, WidthReport, restrict_sequence,
                       verify_sequence)

WIDTH_BOUND = 8  # the verified width every planar_sequence result must meet


@dataclass
class RegionSpec:
    """Geometry of one core invocation, for the invariant checker.

    ``b1`` holds the lid ends (a1, b1) of the top sub-face; ``b2`` holds
    (a2, b2, u1, v0) of the side sub-face plus its vertical path P0.
    """

    sink: int
    v1: int
    v2: int
    b1: tuple[int, int] | None
    b2: tuple[int, int, int, int] | None
    bipartite: bool = False

    def on_left(self, t: BfsTree, v: int) -> bool:
        return t.on_vertical(v, self.v1, self.sink)

    def on_right(self, t: BfsTree, v: int) -> bool:
        return t.on_vertical(v, self.v2, self.sink)

    def on_boundary(self, t: BfsTree, v: int) -> bool:
        dep = t.depth
        if self.on_left(t, v):
            if self.b1 is not None and dep[v] < dep[self.b1[0]]:
                return False
            if self.b2 is not None:
                a2, _b2v, u1, _v0 = self.b2
                if t.on_vertical(u1, self.v1, self.sink):
                    if dep[u1] < dep[v] < dep[a2]:
                        return False
                elif dep[v] < dep[a2]:
                    return False
            return True
        if self.on_right(t, v):
            if self.b1 is not None and dep[v] < dep[self.b1[1]]:
                return False
            if self.b2 is not None:
                a2, _b2v, u1, _v0 = self.b2
                if not t.on_vertical(u1, self.v1, self.sink):
                    if dep[v] < dep[u1]:
                        return False
            return True
        if self.b2 is not None:
            a2, b2v, u1, v0 = self.b2
            if t.on_vertical(v, v0, u1) and dep[v] <= dep[b2v]:
                return True
        return False


def _lid_face(g: PlaneGraph, lid_dart: int) -> tuple[int, int, int]:
    """Darts (d1, d2) following the lid inside the disk and the third vertex."""
    walk = g.faces[g.face_of[lid_dart]]
    if len(walk) != 3:
        raise BuilderError("triangulation face of length != 3")
    i0 = walk.index(lid_dart)
    d1 = walk[i0 - 2]
    d2 = walk[i0 - 1]
    return d1, d2, g.head[d1]


def _core(ctx: BuildCtx, lid_dart: int, sink: int,
          b1: tuple[int, int] | None,
          b2: tuple[int, int, int, int] | None):
    """Generator form of the recursion; returns {level: surviving id}."""
    g, t = ctx.g, ctx.t
    dep = t.depth
    parent = t.parent
    spec = RegionSpec(sink, g.tail[lid_dart], g.head[lid_dart], b1, b2)
    ctx.push_region(spec)

    def on_p1(z: int) -> bool:
        return t.on_vertical(z, spec.v1, sink)

    def on_p2(z: int) -> bool:
        return t.on_vertical(z, spec.v2, sink)

    ec = _edge_count(ctx, sink, spec.v1, spec.v2, b1, b2)

    # ---- peel loop -----------------------------------------------------
    while True:
        v1, v2 = spec.v1, spec.v2
        if dep[v1] < dep[v2]:
            raise BuilderError("lid deeper on the right (left-alignment broken)")
        d1, d2, x = _lid_face(g, lid_dart)
        if b2 is not None:
            if x != b2[3]:
                raise BuilderError("lid face is not the empty division triangle")
            v0 = x
            break
        if on_p1(x) or on_p2(x):
            if ec == 3:
                ctx.pop_region({})
                return {}
            if x == parent[v1]:
                if b1 is not None and dep[x] < dep[b1[0]]:
                    raise BuilderError("peel would cross the B1 lid")
                lid_dart = d1 ^ 1  # (x -> v2)
                spec.v1 = x
                ec -= 1
                continue
            if x == parent[v2]:
                if b1 is not None and dep[x] < dep[b1[1]]:
                    raise BuilderError("peel would cross the B1 lid")
                lid_dart = d2 ^ 1  # (v1 -> x)
                spec.v2 = x
                ec -= 1
                continue
            raise BuilderError("boundary vertex of the lid face is no peel candidate")
        v0 = x
        # vertical shortcut cases: P0 is the single parental edge
        if parent[v0] == v1:
            surv = yield _core(ctx, d1 ^ 1, sink, b1, None)  # lid (v0, v2)
            byl = {lv: [w] for lv, w in surv.items()}
            byl.setdefault(dep[v0], []).append(v0)
            kc = _min_boundary_level(ctx, sink, spec.v1, b1, None)
            out = _second_stage(ctx, byl, kc, spec.v1, spec.v2, ec)
            ctx.pop_region(out)
            return out
        if parent[v0] == v2:
            surv = yield _core(ctx, d2 ^ 1, sink, b1, None)  # lid (v1, v0)
            byl = {lv: [w] for lv, w in surv.items()}
            byl.setdefault(dep[v0], []).append(v0)
            kc = _min_boundary_level(ctx, sink, spec.v1, b1, None)
            out = _second_stage(ctx, byl, kc, spec.v1, spec.v2, ec)
            ctx.pop_region(out)
            return out
        break

    v1, v2 = spec.v1, spec.v2

    # ---- the vertical path P0 ------------------------------------------
    if b2 is None:
        p0 = [v0]
        z = parent[v0]
        while not (on_p1(z) or on_p2(z)):
            p0.append(z)
            z = parent[z]
        u1 = z
        p0.append(u1)
        p0.reverse()
        interior = p0[1:]
    else:
        a2, b2v, u1, _ = b2
        p0 = [v0]
        z = parent[v0]
        while z != u1:
            p0.append(z)
            z = parent[z]
        p0.append(u1)
        p0.reverse()
        interior = [w for w in p0 if dep[w] > dep[b2v]]
    u1_on_p1 = on_p1(u1)
    if b1 is not None:
        lo_ok = dep[b1[0]] if u1_on_p1 else dep[b1[1]]
        if dep[u1] < lo_ok:
            raise BuilderError("P0 exits through a B1 wrapping path")

    # ---- the horizontal edge f1 ------------------------------------------
    f1_dart = -1
    lo = dep[b1[0]] if b1 is not None else dep[sink]
    if b2 is not None:
        s_b2 = u1 if u1_on_p1 else sink  # sink of B2
    for x2 in interior:
        rot = g.rot[x2]
        if u1_on_p1 and any(g.head[d] == u1 for d in rot):
            continue
        lx2 = dep[x2]
        for d in rot:
            q = g.head[d]
            if dep[q] == lx2 and on_p1(q) and dep[q] >= lo:
                if b2 is not None and dep[s_b2] <= dep[q] <= dep[b2[0]]:
                    continue
                f1_dart = d ^ 1  # (x1 -> x2)
                break
        if f1_dart != -1:
            break
    # the search may return the edge {v1, v0} itself (when horizontal); the
    # pi2 shape is keyed on the edge identity, not on how it was found
    fallback = f1_dart == -1 or (g.tail[f1_dart] == v1 and g.head[f1_dart] == v0)
    if f1_dart == -1:
        f1_dart = d2 ^ 1  # (v1 -> v0)
    sink_d1 = u1 if u1_on_p1 else sink

    # ---- recursive sequences pi1 and pi2 ---------------------------------
    if b2 is not None:
        surv1 = yield _core(ctx, f1_dart, sink_d1, (b2[0], b2[1]), None)
    elif u1_on_p1 or b1 is None:
        surv1 = yield _core(ctx, f1_dart, sink_d1, None, None)
    else:
        surv1 = yield _core(ctx, f1_dart, sink, b1, None)

    b1pp = b1 if (b1 is not None and u1_on_p1) else None
    if not fallback:
        x1, x2 = g.tail[f1_dart], g.head[f1_dart]
        surv2 = yield _core(ctx, lid_dart, sink, b1pp, (x1, x2, u1, v0))
        # pi2's region swallowed P0 strictly below x2; only the rest is
        # still alive for the merge
        interior = [w for w in interior if dep[w] <= dep[x2]]
    else:
        sink_d2 = sink if u1_on_p1 else u1
        surv2 = yield _core(ctx, d1 ^ 1, sink_d2, b1pp, None)  # lid (v0, v2)

    # ---- merge pi3 --------------------------------------------------------
    # (vacuous when B2's right wrapping path already covers all of P0)
    merged: dict[int, int] = {}
    if interior:
        k = dep[interior[0]]
        for idx in range(len(interior) - 1, -1, -1):
            y = interior[idx]
            i = dep[y]
            if i == k and b2 is None and u1_on_p1:
                # the top P0 vertex neighbours u1 (its tree parent); pairing
                # it with the right side would put a red edge on C1's sink
                tt = surv1.pop(i, None)
                merged[i] = ctx.contract(y, tt) if tt is not None else y
            else:
                zz = surv2.pop(i, None)
                merged[i] = ctx.contract(y, zz) if zz is not None else y

    byl: dict[int, list[int]] = {i: [w] for i, w in merged.items()}
    for i, w in surv1.items():
        byl.setdefault(i, []).append(w)
    for i, w in surv2.items():
        byl.setdefault(i, []).append(w)
    kc = _min_boundary_level(ctx, sink, v1, b1, b2)
    out = _second_stage(ctx, byl, kc, v1, v2, ec)
    ctx.pop_region(out)
    return out


def _min_boundary_level(ctx: BuildCtx, sink: int, v1: int, b1, b2) -> int:
    """Minimum level on V(C): the sink unless B1 (or a B2 reaching P2 from
    the sink side) cuts the top of the cycle away."""
    dep = ctx.t.depth
    if b1 is not None:
        return dep[b1[0]]
    if b2 is not None:
        a2, _b2v, u1, _v0 = b2
        if not ctx.t.on_vertical(u1, v1, sink):
            return min(dep[a2], dep[u1])
    return dep[sink]


def _edge_count(ctx: BuildCtx, sink: int, v1: int, v2: int,
                b1, b2) -> int:
    dep = ctx.t.depth
    ec = (dep[v1] - dep[sink]) + (dep[v2] - dep[sink]) + 1
    if b1 is not None:
        ec += 1 - (dep[b1[0]] - dep[sink]) - (dep[b1[1]] - dep[sink])
    if b2 is not None:
        a2, b2v, u1, _ = b2
        if ctx.t.on_vertical(u1, v1, sink):
            ec += 1 + dep[b2v] - dep[a2]
        else:
            ec += (1 + (dep[b2v] - dep[u1])
                   - (dep[a2] - dep[sink]) - (dep[u1] - dep[sink]))
    return ec


def _second_stage(ctx: BuildCtx, byl: dict[int, list[int]],
                  kc: int, v1: int, v2: int, ec: int) -> dict[int, int]:
    """Pairwise per-level pass, then the downward drain with contractions or
    dummy level decreases, stopping at the boundary maximum (one deeper for
    triangles).  ``kc`` is the minimum level on the boundary of C.
    Leaves at most one vertex per level."""
    dep = ctx.t.depth
    if not byl:
        return {}
    if min(byl) <= kc:
        raise BuilderError("interior vertex at or above the boundary minimum")
    for i in sorted(byl, reverse=True):
        lst = byl[i]
        if len(lst) == 2:
            a, b = sorted(lst)
            byl[i] = [ctx.contract(a, b)]
        elif len(lst) > 2:
            raise BuilderError(f"level {i} holds {len(lst)} vertices before stage 2")
    ell = kc + 2 if ec == 3 else max(dep[v1], dep[v2])
    j = max(byl)
    while j > ell:
        if j in byl:
            xv = byl.pop(j)[0]
            if j - 1 in byl:
                byl[j - 1] = [ctx.contract(xv, byl[j - 1][0])]
            else:
                ctx.decrease(xv)
                byl[j - 1] = [xv]
        j -= 1
    return {i: lst[0] for i, lst in byl.items()}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _outer_triangle_call(g: PlaneGraph, t: BfsTree) -> tuple[int, int]:
    """Lid dart (disk on the left) and sink of the outer triangle."""
    walk = g.faces[g.outer_face]
    if len(walk) != 3:
        raise BuilderError("outer face is not a triangle")
    r = t.root
    lid = None
    for d in walk:
        if r not in (g.tail[d], g.head[d]):
            lid = d
    if lid is None:
        raise BuilderError("no outer edge avoiding the root")
    for d in walk:
        for v in (g.tail[d],):
            if v != r and t.parent[v] != r:
                raise BuilderError("outer triangle vertex not a child of the root")
    return lid ^ 1, r


def planar_sequence(g0: PlaneGraph, checker=None,
                    ) -> tuple[ContractionSequence, WidthReport]:
    """Full contraction sequence of width <= 8 for a simple plane graph.

    Pipeline: connect, triangulate (keeping g0 induced), left-aligned BFS
    tree from a root on the outer triangle, the core recursion on the outer
    face, a final phase on the <= 5 leftover vertices, then restriction back
    to V(g0).  The returned report comes from replaying the restricted
    sequence with the independent verifier; an empty graph or a verified
    width above ``WIDTH_BOUND`` raises ``BuilderError``.
    """
    seq0, report, _ = planar_sequence_full(g0, checker)
    return seq0, report


@pause_gc()
def planar_sequence_full(g0: PlaneGraph, checker=None, verify: bool = True):
    if g0.n == 0:
        raise BuilderError("empty graph: nothing to contract")
    if not g0.is_simple():
        raise BuilderError("input must be simple")
    gc, vm1 = connect_components(g0)
    g, vm2 = triangulate(gc)
    vm = vm1.compose(vm2)
    r = g.tail[g.outer_dart]
    t = left_aligned_bfs_tree(g, r)
    if checker is not None:
        bad = check_left_aligned(g, t)
        if bad is not None:
            raise BuilderError(f"tree not left-aligned: {bad}")
        checker.bind(g, t)
    ctx = BuildCtx(g, t, checker)
    lid_dart, sink = _outer_triangle_call(g, t)
    surv = run_trampoline(_core(ctx, lid_dart, sink, None, None))
    leftovers = [(lv, v) for lv, v in surv.items()]
    owalk = g.faces[g.outer_face]
    for d in owalk:
        v = g.tail[d]
        leftovers.append((t.depth[v], v))
    if checker is not None:
        checker.enter_final_phase()
    fold_contract(ctx, leftovers)
    seq = ctx.sequence()
    if not seq.is_full():
        raise BuilderError("sequence does not contract to a single vertex")
    if g.n == g0.n:
        seq0 = seq  # nothing was added, the ids already match g0
    else:
        keep = [vm.old_to_new[v] for v in range(g0.n)]
        seq0 = restrict_sequence(seq, keep)
    report = verify_sequence(g0.n, g0.edges, seq0) if verify else None
    if report is not None and report.width > WIDTH_BOUND:
        raise BuilderError(
            f"verified width {report.width} exceeds the bound {WIDTH_BOUND}")
    return seq0, report, (seq, g, t)
