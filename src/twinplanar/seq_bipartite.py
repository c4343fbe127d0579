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

from .buildctx import BuildCtx, BuilderError, fold_contract, run_trampoline
from .layering import BfsTree, check_left_aligned, left_aligned_bfs_tree
from .plane_graph import (PlaneGraph, connect_components, find_odd_cycle,
                          pause_gc, quadrangulate)
from .seq_planar import RegionSpec
from .trigraph import (ContractionSequence, WidthReport, restrict_sequence,
                       verify_sequence)

WIDTH_BOUND = 6  # the verified width every bipartite_sequence result must meet


def _quad_face(g: PlaneGraph, lid_dart: int) -> tuple[int, int, int, int, int]:
    walk = g.faces[g.face_of[lid_dart]]
    if len(walk) != 4:
        raise BuilderError("quadrangulation face of length != 4")
    i0 = walk.index(lid_dart)
    d1 = walk[i0 - 3]
    d2 = walk[i0 - 2]
    d3 = walk[i0 - 1]
    return d1, d2, d3, g.head[d1], g.head[d2]


def _bicore(ctx: BuildCtx, lid_dart: int, sink: int):
    """Generator form of the recursion; returns {level: surviving id}."""
    g, t = ctx.g, ctx.t
    dep = t.depth
    parent = t.parent
    v1, v2 = g.tail[lid_dart], g.head[lid_dart]
    if dep[v1] != dep[v2] + 1:
        raise BuilderError("lid ends not one level apart (left-alignment broken)")
    spec = RegionSpec(sink, v1, v2, None, None, bipartite=True)
    ctx.push_region(spec)

    def on_p1(z: int) -> bool:
        return t.on_vertical(z, v1, sink)

    def on_p2(z: int) -> bool:
        return t.on_vertical(z, v2, sink)

    def ret(out: dict[int, int]):
        ctx.pop_region(out)
        return out

    d1, d2, d3, v3, v4 = _quad_face(g, lid_dart)
    ec = dep[v1] + dep[v2] - 2 * dep[sink] + 1

    # base: the lid face is the whole region
    if v4 == parent[v1] and v3 == parent[v2] and ec == 4:
        return ret({})

    p3_from = None
    v4_off_p3 = False
    if dep[v4] == dep[v1] - 1:
        if dep[v3] == dep[v2] + 1:
            if parent[v3] != v4:
                raise BuilderError("v3's vertical path must continue through v4")
            if v4 == parent[v1]:
                # (a): shrink across A, lid (v3, v2)
                surv = yield _bicore(ctx, d1 ^ 1, sink)
                return ret(_bi_second_stage(ctx, _with_extras(surv, [(dep[v3], v3)]), sink))
            p3_from = v3  # (e)
            c1_lid, c2_lid = d3 ^ 1, d1 ^ 1  # (v1, v4) and (v3, v2)
        else:
            if v3 != parent[v2]:
                raise BuilderError("v3 one level up must sit on the right path")
            if v4 == parent[v1]:
                # (b): shrink across A, lid (v4, v3)
                surv = yield _bicore(ctx, d2 ^ 1, sink)
                return ret(_bi_second_stage(ctx, _with_extras(surv, []), sink))
            if parent[v4] == v3:
                # (c): shrink across A, lid (v1, v4)
                surv = yield _bicore(ctx, d3 ^ 1, sink)
                return ret(_bi_second_stage(ctx, _with_extras(surv, [(dep[v4], v4)]), sink))
            p3_from = v4  # (f)
            c1_lid, c2_lid = d3 ^ 1, d2 ^ 1  # (v1, v4) and (v4, v3)
    else:
        if dep[v4] != dep[v1] + 1 or dep[v3] != dep[v1]:
            raise BuilderError("impossible level pattern on the lid face")
        if parent[v4] != v1:
            raise BuilderError("v4's vertical path must continue through v1")
        if parent[v3] == v2:
            # (d): shrink across A, lid (v4, v3)
            surv = yield _bicore(ctx, d2 ^ 1, sink)
            return ret(_bi_second_stage(
                ctx, _with_extras(surv, [(dep[v3], v3), (dep[v4], v4)]), sink))
        p3_from = v3  # (g)
        v4_off_p3 = True  # v4 hangs below A, off the vertical path
        c1_lid, c2_lid = d2 ^ 1, d1 ^ 1  # (v4, v3) and (v3, v2)

    # ---- subcases with the vertical path P3 -------------------------------
    p3 = [p3_from]
    z = parent[p3_from]
    while not (on_p1(z) or on_p2(z)):
        p3.append(z)
        z = parent[z]
    u3 = z
    u3_levels = {dep[w]: w for w in p3}
    if v4_off_p3:
        u3_levels[dep[v4]] = v4

    sink1 = u3 if on_p1(u3) else sink
    sink2 = u3 if (on_p2(u3) and u3 != sink) else sink
    surv1 = yield _bicore(ctx, c1_lid, sink1)
    surv2 = yield _bicore(ctx, c2_lid, sink2)

    # ---- merge pi3: pair the right side with P3 (deep levels) or C1's
    # survivors (levels above P3) ------------------------------------------
    k = min(u3_levels)
    m = max(u3_levels)
    merged: dict[int, int] = {}
    if surv2:
        for i in range(max(surv2), k, -1):
            zz = surv2.get(i)
            if zz is None:
                continue
            if i <= m:
                y = u3_levels.pop(i)
            else:
                y = surv1.pop(i, None)
                if y is None:
                    continue
            del surv2[i]
            merged[i] = ctx.contract(y, zz)
    # level k (right below u3) may still hold three vertices; the P3 vertex
    # and the survivors inside the sub-cycle sunk at u3 are all black to u3
    # (their constituents' parents are u3), so pairing those two is the one
    # merge that puts no red edge on u3
    if k in surv1 or k in surv2:
        y = u3_levels[k]
        if sink1 == u3 and k in surv1:
            u3_levels.pop(k)
            merged[k] = ctx.contract(y, surv1.pop(k))
        elif sink2 == u3 and k in surv2:
            u3_levels.pop(k)
            merged[k] = ctx.contract(y, surv2.pop(k))

    byl: dict[int, list[int]] = {i: [w] for i, w in merged.items()}
    for src in (u3_levels, surv1, surv2):
        for i, w in src.items():
            byl.setdefault(i, []).append(w)
    return ret(_bi_second_stage(ctx, byl, sink))


def _with_extras(surv: dict[int, int],
                 extras: list[tuple[int, int]]) -> dict[int, list[int]]:
    byl: dict[int, list[int]] = {i: [w] for i, w in surv.items()}
    for lv, w in extras:
        byl.setdefault(lv, []).append(w)
    return byl


def _bi_second_stage(ctx: BuildCtx, byl: dict[int, list[int]],
                     sink: int) -> dict[int, int]:
    """One pairwise pass per level, deepest first; leaves the face 1-reduced."""
    if not byl:
        return {}
    if min(byl) <= ctx.t.depth[sink]:
        raise BuilderError("interior vertex at or above the sink level")
    for i in sorted(byl, reverse=True):
        lst = byl[i]
        if len(lst) == 2:
            a, b = sorted(lst)
            byl[i] = [ctx.contract(a, b)]
        elif len(lst) > 2:
            raise BuilderError(f"level {i} holds {len(lst)} vertices")
    return {i: lst[0] for i, lst in byl.items()}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _outer_quad_call(g: PlaneGraph, t: BfsTree) -> tuple[int, int]:
    walk = g.faces[g.outer_face]
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


def bipartite_sequence(g0: PlaneGraph, checker=None,
                       ) -> tuple[ContractionSequence, WidthReport]:
    """Full contraction sequence of width <= 6 for a simple bipartite plane
    graph: connect, quadrangulate, left-aligned BFS tree, the bicore
    recursion on the outer quadrangle, a final phase pairing opposite outer
    vertices, then restriction back to V(g0).  An empty graph or a verified
    width above ``WIDTH_BOUND`` raises ``BuilderError``."""
    seq0, report, _ = bipartite_sequence_full(g0, checker)
    return seq0, report


@pause_gc()
def bipartite_sequence_full(g0: PlaneGraph, checker=None, verify: bool = True):
    if g0.n == 0:
        raise BuilderError("empty graph: nothing to contract")
    if not g0.is_simple():
        raise BuilderError("input must be simple")
    odd = find_odd_cycle(g0)
    if odd is not None:
        raise BuilderError(f"input not bipartite: odd cycle {odd}")
    gc, vm1 = connect_components(g0)
    g, vm2 = quadrangulate(gc)
    vm = vm1.compose(vm2)
    r = g.tail[g.outer_dart]
    t = left_aligned_bfs_tree(g, r)
    if checker is not None:
        bad = check_left_aligned(g, t)
        if bad is not None:
            raise BuilderError(f"tree not left-aligned: {bad}")
        checker.bind(g, t)
    ctx = BuildCtx(g, t, checker)
    lid_dart, sink = _outer_quad_call(g, t)
    surv = run_trampoline(_bicore(ctx, lid_dart, sink))
    if checker is not None:
        checker.enter_final_phase()
    # final phase: drain interior survivors deepest-first, then pair the
    # outer quadrangle's opposite vertices (twins when nothing else is left)
    v1 = g.tail[lid_dart]
    v2 = g.head[lid_dart]
    others = [g.tail[d] for d in g.faces[g.outer_face]]
    w4 = next(v for v in others if v not in (r, v1, v2))
    rem = fold_contract(ctx, [(lv, v) for lv, v in surv.items()])
    zh = ctx.contract(rem, v1) if rem is not None else v1
    p = ctx.contract(*sorted((v2, w4)))
    q = ctx.contract(zh, r)
    ctx.contract(q, p)
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
