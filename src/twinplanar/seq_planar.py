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

``run_pipeline`` (the build) and ``verified`` (the replay held to the
width bound) are the driver that this builder and the bipartite one in
``seq_bipartite`` share.
"""

from __future__ import annotations

from .buildctx import (BuildCtx, BuilderError, check_mode, climb,
                       fold_contract, merge_survivors, run_trampoline)
from .layering import BfsTree, check_left_aligned, left_aligned_bfs_tree
from .plane_graph import PlaneGraph, connect_components, pairs, pause_gc, triangulate
from .trigraph import (ContractionSequence, WidthReport, restrict_sequence,
                       verify_sequence)

WIDTH_BOUND = 8  # the verified width every planar_sequence result must meet


def _core(ctx: BuildCtx, lid_dart: int, sink: int,
          b1: tuple[int, int] | None,
          b2: tuple[int, int, int, int] | None,
          p0: tuple[list[int], int] | None = None):
    """One region of the recursion, under the sub-call protocol of
    ``buildctx``: peels the lid, then returns {level: surviving id} if the
    region was a single triangle, or else a generator for the rest.  A B2
    region also gets ``p0``, its parent's P0 bottom-up and the index of x2
    on it."""
    g, t = ctx.g, ctx.t
    dep, parent, tin, tout = t.depth, t.parent, t.tin, t.tout
    head, nxt = g.head, g.face_next
    v1, v2 = g.tail[lid_dart], head[lid_dart]
    if ctx.checker is not None:
        ctx.checker.push_region(sink, v1, v2, b1, b2)
    ec = _edge_count(ctx, sink, v1, v2, b1, b2)
    ds = dep[sink]

    # ---- peel loop -----------------------------------------------------
    while True:
        if dep[v1] < dep[v2]:
            raise BuilderError("lid deeper on the right (left-alignment broken)")
        d1 = nxt[lid_dart]
        d2 = nxt[d1]
        if nxt[d2] != lid_dart:
            raise BuilderError("triangulation face of length != 3")
        x = head[d1]
        if b2 is not None:
            if x != b2[3]:
                raise BuilderError("lid face is not the empty division triangle")
            break
        # x on P1 or P2: an ancestor of v1 or v2 no higher than the sink
        tx, ox = tin[x], tout[x]
        if dep[x] >= ds and (tx <= tin[v1] < ox or tx <= tin[v2] < ox):
            if ec == 3:
                if ctx.checker is not None:
                    ctx.checker.pop_region(())
                return {}
            if x == parent[v1]:
                if b1 is not None and dep[x] < dep[b1[0]]:
                    raise BuilderError("peel would cross the B1 lid")
                lid_dart = d1 ^ 1  # (x -> v2)
                v1 = x
                ec -= 1
                continue
            if x == parent[v2]:
                if b1 is not None and dep[x] < dep[b1[1]]:
                    raise BuilderError("peel would cross the B1 lid")
                lid_dart = d2 ^ 1  # (v1 -> x)
                v2 = x
                ec -= 1
                continue
            raise BuilderError("boundary vertex of the lid face is no peel candidate")
        # x is the apex v0, off P1 and P2; vertical shortcut cases: P0 is
        # v0's parental edge, the sub-call's lid (v0, v2) resp. (v1, v0)
        if parent[x] == v1:
            return _shrink(ctx, d1 ^ 1, x, sink, b1, v1, v2, ec)
        if parent[x] == v2:
            return _shrink(ctx, d2 ^ 1, x, sink, b1, v1, v2, ec)
        break
    return _split(ctx, lid_dart, sink, b1, b2, d1, d2, x, ec, p0)


def _shrink(ctx: BuildCtx, sub_lid: int, v0: int, sink: int, b1, v1: int,
            v2: int, ec: int):
    """Rest of a region with lid (v1, v2) whose P0 is v0's parental edge:
    one sub-call on the cycle past v0 (lid ``sub_lid``), then the second
    stage with v0 added."""
    surv = yield _core(ctx, sub_lid, sink, b1, None)
    kc = _min_boundary_level(ctx, sink, v1, b1, None)
    out = _second_stage(ctx, surv, ((ctx.t.depth[v0], v0),), kc, v1, v2, ec)
    if ctx.checker is not None:
        ctx.checker.pop_region(out.values())
    return out


def _split(ctx: BuildCtx, lid_dart: int, sink: int, b1, b2, d1: int, d2: int,
           v0: int, ec: int, p0: tuple[list[int], int] | None):
    """Rest of a region split along the vertical path P0 from v0: the
    sub-calls pi1 and pi2, the merge pi3 and the second stage.  A B2
    region's P0 is the part of its parent's below the B2 lid, so it comes
    in ``p0`` instead of being walked again."""
    g, t = ctx.g, ctx.t
    dep, parent, tin, tout = t.depth, t.parent, t.tin, t.tout
    head = g.head
    v1, v2 = g.tail[lid_dart], head[lid_dart]
    ds = dep[sink]
    t1 = tin[v1]

    # ---- the vertical path P0, bottom-up; path[:top] lies in the region --
    if b2 is None:
        path, u1 = climb(t, v0, sink, v1, v2)
        top = len(path)
    else:
        path, top = p0
        u1 = b2[2]
    u1_on_p1 = dep[u1] >= ds and tin[u1] <= t1 < tout[u1]
    if b1 is not None:
        lo_ok = dep[b1[0]] if u1_on_p1 else dep[b1[1]]
        if dep[u1] < lo_ok:
            raise BuilderError("P0 exits through a B1 wrapping path")

    # ---- the horizontal edge f1 ------------------------------------------
    # the first interior x2, top down, with a P1 neighbour x1 on its level,
    # below B1's lid, that is not adjacent to u1 on P1; below u1 only u1's
    # child on P0 can be adjacent to it
    f1_dart = -1
    lo = max(dep[b1[0]] if b1 is not None else ds, ds)
    for i2 in range(top - 1, -1, -1):
        x2 = path[i2]
        lx2 = dep[x2]
        if lx2 < lo or u1_on_p1 and parent[x2] == u1:
            continue
        for d in g.rot[x2]:
            q = head[d]
            if dep[q] == lx2 and tin[q] <= t1 < tout[q]:
                f1_dart = d ^ 1  # (x1 -> x2)
                break
        if f1_dart != -1:
            break
    # the search may return the edge {v1, v0} itself (when horizontal); the
    # pi2 shape is keyed on the edge identity, not on how it was found
    fallback = f1_dart == -1 or (g.tail[f1_dart] == v1 and head[f1_dart] == v0)
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
        x1 = g.tail[f1_dart]
        surv2 = yield _core(ctx, lid_dart, sink, b1pp, (x1, x2, u1, v0),
                            (path, i2))
        # pi2's region swallowed P0 strictly below x2
        bottom = i2
    else:
        sink_d2 = sink if u1_on_p1 else u1
        surv2 = yield _core(ctx, d1 ^ 1, sink_d2, b1pp, None)  # lid (v0, v2)
        bottom = 0

    # ---- merge pi3 (vacuous when B2's right wrapping path already covers
    # all of P0) -----------------------------------------------------------
    adds: list[tuple[int, int]] = []
    for idx in range(bottom, top):
        y = path[idx]
        i = dep[y]
        # the top P0 vertex neighbours u1 (its tree parent); pairing it with
        # the right side would put a red edge on C1's sink
        side = surv1 if idx == top - 1 and b2 is None and u1_on_p1 else surv2
        zz = side.pop(i, None)
        adds.append((i, ctx.contract(y, zz) if zz is not None else y))

    # the larger child's survivors are the base the rest merges into
    if len(surv1) < len(surv2):
        surv1, surv2 = surv2, surv1
    adds += surv2.items()
    kc = _min_boundary_level(ctx, sink, v1, b1, b2)
    out = _second_stage(ctx, surv1, adds, kc, v1, v2, ec)
    if ctx.checker is not None:
        ctx.checker.pop_region(out.values())
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


def _second_stage(ctx: BuildCtx, base: dict[int, int], adds,
                  kc: int, v1: int, v2: int, ec: int) -> dict[int, int]:
    """Merge ``adds`` into the child survivors ``base`` with the pairwise
    per-level pass, then drain: contract level ell + 1 into ell, where ell
    is the boundary maximum (one deeper for triangles).  ``kc`` is the
    minimum level on the boundary of C.  Leaves at most one vertex per
    level, none below ell, in ``base``, which is returned.  No merged level
    lies below ell + 1 and ell holds a survivor whenever ell + 1 does
    (argued below), so the drain is at most one contraction."""
    dep = ctx.t.depth
    surv = merge_survivors(ctx, base, adds, kc, "the boundary minimum")
    ell = kc + 2 if ec == 3 else max(dep[v1], dep[v2])
    # Let R be this region after the peel, int(R) its interior, dR its
    # boundary cycle, M the levels of ``surv`` here, lam = dep v1 >= dep v2
    # (the peel checks it), and "adds" the vertices of int(R) in no sub-call
    # (v0, or the P0 vertices of the merge).  int(R) is the adds plus the
    # interiors of the sub-calls.  The completion is a simple plane
    # triangulation, so 3-connected when n >= 4, and BFS levels of
    # neighbours differ by at most one.  "Above" is a smaller level.
    # (1) dR holds v1, v2, B2's lid end x2 and tree ancestors of them
    #     (``region_bounds``), and dep x2 < lam by (2) for R's parent,
    #     whose lid R keeps.  So every vertex of dR but v1 and v2 lies above
    #     lam, and kc < lam, as dR has a third vertex.  If ec > 3, ell =
    #     lam.  A triangle's corners sit on kc and kc + 1 = lam, so ell = kc
    #     + 2 = lam + 1.  Without side faces it is the sink over a
    #     horizontal lid; with B1, v2 is B1's lid end b1 on kc and v1 a
    #     child of a1; B2 leaves no triangle (with u1 on P1, or with B1, dR
    #     has four edges or more, and with u1 on P2 a triangle needs dep x2
    #     = lam).
    # (2) When R splits, dep v0 <= lam, so x2, which is v0 or above it on
    #     P0, lies above lam (if x2 = v0, its partner x1 is a proper
    #     ancestor of v1: x1 = v1 is the fallback).  For dep v0 <= dep v2 +
    #     1 <= lam + 1, and if dep v0 = lam + 1 = dep v2 + 1, v0's parent p
    #     is no lid end (R would shrink), so p lies inside D by (1), as does
    #     its tree path up to its first vertex u on P1 or P2.  The edges
    #     from u into D form one arc of u's rotation between its two
    #     D-edges, and the arcs turn the same way all round D.  So, counting
    #     from the anchor (outside D at the sink, the parental edge below
    #     it), either P1's branch comes first at the sink and precedes the
    #     interior at every P1 vertex while P2's follows it at every P2
    #     vertex, or the mirror image.  Either way v1 or v2 precedes p in
    #     the preorder, which is the BFS queue order within a level, and
    #     would have adopted v0 before p.
    # (3) Call z in int(R) visible if every region Q below R in the
    #     recursion with z in int(Q) has dep z <= ell_Q.  By induction over
    #     the regions, children first: the levels in M are exactly the
    #     depths of the visible vertices.  An add is visible and on its own
    #     level in M; a vertex of a child Q is visible in R iff it is
    #     visible in Q and no deeper than ell_Q, and Q hands up the levels
    #     of its own M down to ell_Q, by (4) and (5) for Q.
    # (4) Every level in M is at most ell + 1.  The adds are v0 and the P0
    #     vertices above it, and dep v0 <= dep v2 + 1 <= ell + 1, since v0
    #     and v2 share the lid face.  A child Q hands up levels <= ell_Q.
    #     Its peel moves its lid ends up its entry cycle dQ, so lam_Q is at
    #     most dQ's deepest level, and ell_Q <= lam_Q + 1 by (1).  After a
    #     shrink, dQ is dR plus v0, whose parent is v1 or v2, so ell_Q =
    #     lam_Q <= lam + 1 unless Q is a triangle; a triangle Q keeps R's
    #     sink and B1 and has no B2, so ell_Q = kc + 2 <= lam + 1.  After a split, dQ lies on dR
    #     and P0, on levels <= lam by (1) and (2), so ell_Q <= lam + 1.
    # (5) If ell + 1 is in M, so is ell.  Let w be visible at depth ell + 1
    #     and K its component among the vertices of int(R) below ell.  Its
    #     neighbours sit on ell (deeper ones would be in K or on dR) and
    #     separate it from the vertices of dR other than v1 and v2 (a cycle
    #     has three), so there are at least three of them, and one, z, is in
    #     int(R) by (1).  z is visible: a region Q below R with z inside and
    #     ell_Q < ell would hold z's neighbour in K inside, then all of K,
    #     which lies below dQ; so also w, though dep w > ell_Q.  So z sits on
    #     ell, which is in M by (3).
    if ell + 1 in surv:
        if ell not in surv:
            raise BuilderError(f"no survivor on level {ell} to drain "
                               f"level {ell + 1} into")
        surv[ell] = ctx.contract(surv.pop(ell + 1), surv[ell])
    return surv


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _outer_triangle_call(g: PlaneGraph, t: BfsTree) -> tuple[int, int]:
    """Lid dart (disk on the left) and sink of the outer triangle."""
    walk = g.outer_walk()
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
        v = g.tail[d]
        if v != r and t.parent[v] != r:
            raise BuilderError("outer triangle vertex not a child of the root")
    return lid ^ 1, r


def _run_core(ctx: BuildCtx) -> tuple[dict[int, int], int]:
    lid_dart, sink = _outer_triangle_call(ctx.g, ctx.t)
    return run_trampoline(_core, ctx, lid_dart, sink, None, None), lid_dart


def _final_phase(ctx: BuildCtx, surv: dict[int, int], lid_dart: int) -> None:
    """Fold the core's survivors and the outer triangle (at most 5
    vertices) into one."""
    g, dep = ctx.g, ctx.t.depth
    leftovers = list(surv.items())
    leftovers += [(dep[g.tail[d]], g.tail[d]) for d in g.outer_walk()]
    fold_contract(ctx, leftovers)


def run_pipeline(g0: PlaneGraph, checker, complete, run_core, final_phase):
    """The build both builders share; each mode supplies the steps that
    differ.

    ``complete(gc)`` turns ``gc``, g0 with its components that have an
    edge joined, into a triangulation or quadrangulation that gives every
    isolated vertex edges, keeping its ids and appending the vertices it adds
    (the entry points read their module's binding at call time, so a
    wrapper put on it, as ``perfbench/spans.py`` does, sees the call);
    ``run_core(ctx)`` runs the recursion on the outer face and returns its
    survivors and lid dart, and ``final_phase(ctx, survivors, lid_dart)``
    contracts what is left into one vertex.  Input rules are refused by the
    layer that owns them, with ``PlaneError``: ``connect_components`` an
    empty graph, the completion a non-simple or (``quadrangulate``) a
    non-bipartite one.  Returns ``(seq0, (seq, g, t))``: the sequence
    restricted back to V(g0), and the completed graph's sequence, graph and
    tree.  It does not verify; ``verified`` does.

    One plane graph is held at a time: the connected graph is dropped once
    the completion is built from it (``_Splicer.finalize`` consumes its
    splicer before its ``build``), and the plain entry points keep only
    ``seq0``, so the completion, its tree, the ``BuildCtx`` and the full
    sequence are freed before the verifier builds its trigraph.
    """
    g = complete(connect_components(g0)[0])[0]
    r = g.tail[g.outer_dart]
    t = left_aligned_bfs_tree(g, r)
    if checker is not None:
        bad = check_left_aligned(g, t)
        if bad is not None:
            raise BuilderError(f"tree not left-aligned: {bad}")
        checker.bind(g, t)
    ctx = BuildCtx(g, t, checker)
    surv, lid_dart = run_core(ctx)
    if checker is not None:
        checker.enter_final_phase()
    final_phase(ctx, surv, lid_dart)
    seq = ctx.sequence()
    del ctx
    if not seq.is_full():
        raise BuilderError("sequence does not contract to a single vertex")
    seq0 = seq if g.n == g0.n else restrict_sequence(seq, range(g0.n))
    return seq0, (seq, g, t)


def verified(g0: PlaneGraph, seq0: ContractionSequence,
             width_bound: int) -> WidthReport:
    """Replay ``seq0`` on g0 with the independent verifier and hold it to
    ``width_bound``, raising ``BuilderError`` above it.  The verifier is
    read from this module's globals, so a wrapper put on ``verify_sequence``
    sees every verified build of both modes.  Call it once ``run_pipeline``'s
    working set is dropped: its trigraph is the largest structure of a
    verified build."""
    report = verify_sequence(g0.n, pairs(g0.tail), seq0)
    if report.width > width_bound:
        raise BuilderError(
            f"verified width {report.width} exceeds the bound {width_bound}")
    return report


@pause_gc()
def planar_sequence(g0: PlaneGraph, checker=None,
                    ) -> tuple[ContractionSequence, WidthReport]:
    """Full contraction sequence of width <= 8 for a simple plane graph.

    Pipeline: connect, triangulate (keeping g0 induced), left-aligned BFS
    tree from a root on the outer triangle, the core recursion on the outer
    face, a final phase on the <= 5 leftover vertices, then restriction back
    to V(g0).  The returned report comes from replaying the restricted
    sequence with the independent verifier.  An empty or non-simple graph
    raises ``PlaneError``, a verified width above ``WIDTH_BOUND``
    ``BuilderError``.
    """
    check_mode(checker, "planar")
    seq0 = run_pipeline(g0, checker, triangulate, _run_core, _final_phase)[0]
    return seq0, verified(g0, seq0, WIDTH_BOUND)


@pause_gc()
def planar_sequence_full(g0: PlaneGraph, checker=None, verify: bool = True):
    """``(seq0, report, (seq, g, t))``: ``planar_sequence``'s result plus
    the completed graph's sequence, graph and tree; ``report`` is None
    when ``verify`` is off."""
    check_mode(checker, "planar")
    seq0, full = run_pipeline(g0, checker, triangulate, _run_core,
                              _final_phase)
    return seq0, verified(g0, seq0, WIDTH_BOUND) if verify else None, full
