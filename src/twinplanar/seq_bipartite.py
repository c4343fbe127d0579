"""Width-6 contraction sequences for plane quadrangulations.

The recursion runs on T-wrapped facial cycles of the (implicit) skeleton.
At the lid it inspects the inner quadrilateral A = (v1, v2, v3, v4) and,
depending on the levels and tree parents of v3 and v4, either shrinks the
cycle across A and recurses once, or splits along a vertical path P3 into
two sub-calls merged level by level.  All steps contract pairs of equal
level, so every intermediate trigraph stays bipartite and every edge spans
exactly one level.
"""

from __future__ import annotations

from .buildctx import (BuildCtx, BuilderError, check_mode, climb,
                       fold_contract, merge_survivors, run_trampoline)
from .layering import BfsTree
from .plane_graph import PlaneGraph, pause_gc, quadrangulate
from .seq_planar import run_pipeline, verified
from .trigraph import ContractionSequence, WidthReport

WIDTH_BOUND = 6  # the verified width every bipartite_sequence result must meet


def _bicore(ctx: BuildCtx, lid_dart: int, sink: int):
    """One region of the recursion, under the sub-call protocol of
    ``buildctx``: returns {level: surviving id} if the lid face is the whole
    region, or else a generator for the rest."""
    g, t = ctx.g, ctx.t
    dep = t.depth
    parent = t.parent
    head, nxt = g.head, g.face_next
    v1, v2 = g.tail[lid_dart], head[lid_dart]
    if dep[v1] != dep[v2] + 1:
        raise BuilderError("lid ends not one level apart (left-alignment broken)")
    if ctx.checker is not None:
        ctx.checker.push_region(sink, v1, v2, None, None)

    d1 = nxt[lid_dart]
    d2 = nxt[d1]
    d3 = nxt[d2]
    if nxt[d3] != lid_dart or d2 == lid_dart:
        raise BuilderError("quadrangulation face of length != 4")
    v3, v4 = head[d1], head[d2]
    ec = dep[v1] + dep[v2] - 2 * dep[sink] + 1

    # base: the lid face is the whole region
    if v4 == parent[v1] and v3 == parent[v2] and ec == 4:
        if ctx.checker is not None:
            ctx.checker.pop_region(())
        return {}

    off_p3 = -1
    if dep[v4] == dep[v1] - 1:
        if dep[v3] == dep[v2] + 1:
            if parent[v3] != v4:
                raise BuilderError("v3's vertical path must continue through v4")
            if v4 == parent[v1]:
                # (a): shrink across A, lid (v3, v2)
                return _bishrink(ctx, d1 ^ 1, sink, ((dep[v3], v3),))
            p3_from = v3  # (e)
            c1_lid, c2_lid = d3 ^ 1, d1 ^ 1  # (v1, v4) and (v3, v2)
        else:
            if v3 != parent[v2]:
                raise BuilderError("v3 one level up must sit on the right path")
            if v4 == parent[v1]:
                # (b): shrink across A, lid (v4, v3)
                return _bishrink(ctx, d2 ^ 1, sink, ())
            if parent[v4] == v3:
                # (c): shrink across A, lid (v1, v4)
                return _bishrink(ctx, d3 ^ 1, sink, ((dep[v4], v4),))
            p3_from = v4  # (f)
            c1_lid, c2_lid = d3 ^ 1, d2 ^ 1  # (v1, v4) and (v4, v3)
    else:
        if dep[v4] != dep[v1] + 1 or dep[v3] != dep[v1]:
            raise BuilderError("impossible level pattern on the lid face")
        if parent[v4] != v1:
            raise BuilderError("v4's vertical path must continue through v1")
        if parent[v3] == v2:
            # (d): shrink across A, lid (v4, v3)
            return _bishrink(ctx, d2 ^ 1, sink, ((dep[v3], v3), (dep[v4], v4)))
        p3_from = v3  # (g)
        off_p3 = v4  # v4 hangs below A, off the vertical path
        c1_lid, c2_lid = d2 ^ 1, d1 ^ 1  # (v4, v3) and (v3, v2)
    return _bisplit(ctx, sink, v1, v2, p3_from, off_p3, c1_lid, c2_lid)


def _bishrink(ctx: BuildCtx, lid_dart: int, sink: int, adds):
    """Rest of a region shrunk across its lid face: one sub-call, then
    ``adds`` merged into its survivors below the sink level."""
    surv = yield _bicore(ctx, lid_dart, sink)
    out = merge_survivors(ctx, surv, adds, ctx.t.depth[sink], "the sink level")
    if ctx.checker is not None:
        ctx.checker.pop_region(out.values())
    return out


def _bisplit(ctx: BuildCtx, sink: int, v1: int, v2: int, p3_from: int,
             off_p3: int, c1_lid: int, c2_lid: int):
    """Rest of a region split along the vertical path P3 from ``p3_from``
    (``off_p3`` is v4 when it hangs below the lid face off P3, else -1):
    the sub-calls on c1_lid and c2_lid and the merge pi3."""
    t = ctx.t
    dep, tin, tout = t.depth, t.tin, t.tout
    ds, t1, t2 = dep[sink], tin[v1], tin[v2]

    # ---- subcases with the vertical path P3 -------------------------------
    p3, u3 = climb(t, p3_from, sink, v1, v2)
    u3_levels = {dep[w]: w for w in p3}
    if off_p3 != -1:
        u3_levels[dep[off_p3]] = off_p3

    du3 = dep[u3]
    sink1 = u3 if du3 >= ds and tin[u3] <= t1 < tout[u3] else sink
    sink2 = (u3 if du3 >= ds and tin[u3] <= t2 < tout[u3] and u3 != sink
             else sink)
    surv1 = yield _bicore(ctx, c1_lid, sink1)
    surv2 = yield _bicore(ctx, c2_lid, sink2)

    # ---- merge pi3: pair the right side with P3 (deep levels) or C1's
    # survivors (levels above P3) ------------------------------------------
    # deepest first; only the smaller child is walked above P3
    k = min(u3_levels)
    m = max(u3_levels)
    adds: list[tuple[int, int]] = []
    small, big = (surv1, surv2) if len(surv1) <= len(surv2) else (surv2, surv1)
    for i in sorted((i for i in small if i > m and i in big), reverse=True):
        adds.append((i, ctx.contract(surv1.pop(i), surv2.pop(i))))
    for i in range(m, k, -1):
        zz = surv2.pop(i, None)
        if zz is not None:
            adds.append((i, ctx.contract(u3_levels.pop(i), zz)))
    # level k (right below u3) may still hold three vertices; the P3 vertex
    # and the survivors inside the sub-cycle sunk at u3 are all black to u3
    # (their constituents' parents are u3), so pairing those two is the one
    # merge that puts no red edge on u3
    if k in surv1 or k in surv2:
        y = u3_levels[k]
        if sink1 == u3 and k in surv1:
            u3_levels.pop(k)
            adds.append((k, ctx.contract(y, surv1.pop(k))))
        elif sink2 == u3 and k in surv2:
            u3_levels.pop(k)
            adds.append((k, ctx.contract(y, surv2.pop(k))))

    # the larger child's survivors are the base the rest merges into
    if len(surv1) < len(surv2):
        surv1, surv2 = surv2, surv1
    adds += u3_levels.items()
    adds += surv2.items()
    out = merge_survivors(ctx, surv1, adds, ds, "the sink level")
    if ctx.checker is not None:
        ctx.checker.pop_region(out.values())
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _outer_quad_call(g: PlaneGraph, t: BfsTree) -> tuple[int, int]:
    walk = g.outer_walk()
    if len(walk) != 4:
        raise BuilderError("outer face is not a quadrangle")
    lids = [d for d in walk if not t.is_tree_edge(d >> 1)]
    if len(lids) != 1:
        raise BuilderError(f"outer cycle has {len(lids)} non-tree edges")
    lid = lids[0] ^ 1  # disk side
    v1 = g.tail[lid]
    if t.depth[v1] != t.depth[g.head[lid]] + 1:
        raise BuilderError("outer lid not one level apart")
    return lid, t.root


def _run_core(ctx: BuildCtx) -> tuple[dict[int, int], int]:
    lid_dart, sink = _outer_quad_call(ctx.g, ctx.t)
    return run_trampoline(_bicore, ctx, lid_dart, sink), lid_dart


def _final_phase(ctx: BuildCtx, surv: dict[int, int], lid_dart: int) -> None:
    """Drain interior survivors deepest-first, then pair the outer
    quadrangle's opposite vertices (twins when nothing else is left)."""
    g, r = ctx.g, ctx.t.root
    v1, v2 = g.tail[lid_dart], g.head[lid_dart]
    others = [g.tail[d] for d in g.outer_walk()]
    w4 = next(v for v in others if v not in (r, v1, v2))
    rem = fold_contract(ctx, list(surv.items()))
    zh = ctx.contract(rem, v1) if rem is not None else v1
    p = ctx.contract(*sorted((v2, w4)))
    q = ctx.contract(zh, r)
    ctx.contract(q, p)


@pause_gc()
def bipartite_sequence(g0: PlaneGraph, checker=None,
                       ) -> tuple[ContractionSequence, WidthReport]:
    """Full contraction sequence of width <= 6 for a simple bipartite plane
    graph: connect, quadrangulate, left-aligned BFS tree, the bicore
    recursion on the outer quadrangle, a final phase pairing opposite outer
    vertices, then restriction back to V(g0).  An empty, non-simple or
    non-bipartite graph raises ``PlaneError``, a verified width above
    ``WIDTH_BOUND`` ``BuilderError``."""
    check_mode(checker, "bipartite")
    seq0 = run_pipeline(g0, checker, quadrangulate, _run_core, _final_phase)[0]
    return seq0, verified(g0, seq0, WIDTH_BOUND)


@pause_gc()
def bipartite_sequence_full(g0: PlaneGraph, checker=None, verify: bool = True):
    """``(seq0, report, (seq, g, t))``: ``bipartite_sequence``'s result plus
    the completed graph's sequence, graph and tree; ``report`` is None
    when ``verify`` is off."""
    check_mode(checker, "bipartite")
    seq0, full = run_pipeline(g0, checker, quadrangulate, _run_core,
                              _final_phase)
    return seq0, verified(g0, seq0, WIDTH_BOUND) if verify else None, full
