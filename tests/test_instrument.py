"""The per-step invariant checker: a bound checker driven into every
message it raises from a step or a region's end (the level rule and the
region entry clauses are pinned in ``test_trigraph.py``, next to the
boundary geometry test)."""

from __future__ import annotations

import re

import pytest

import twinplanar as tp
from twinplanar import layering as ly
from twinplanar.instrument import RegionSpec

# -- a comb of vertical paths -----------------------------------------------
#
# Root 0 with three vertical paths L1..L5, R1..R5 and I1..I5 (the last one
# never on a region boundary), plus M2..M5 hanging from L1.  Each region
# below has sink 0 and lid (L5, R5), so P1 is L and P2 is R; a B2 side face
# (L3, M3) with P0 from M5 up to u1 = L1 puts M on the boundary too.


def comb(pendants=None):
    """The comb with ``pendants[name]`` leaf children under each named
    vertex; returns (graph, tree, {name: id}, {name: [leaf ids]})."""
    ids = {"0": 0}
    edges = []

    def add(name, parent):
        ids[name] = len(ids)
        edges.append((ids[parent], ids[name]))

    for p in "LRI":
        for k in range(1, 6):
            add(f"{p}{k}", f"{p}{k - 1}" if k > 1 else "0")
    for k in range(2, 6):
        add(f"M{k}", f"M{k - 1}" if k > 2 else "L1")
    leaves = {}
    for name, count in (pendants or {}).items():
        leaves[name] = []
        for i in range(count):
            add(f"{name}.{i}", name)
            leaves[name].append(ids[f"{name}.{i}"])
    g = tp.embed_abstract(len(ids), edges)
    return g, ly.left_aligned_bfs_tree(g, 0), ids, leaves


def bound_checker(mode, pendants=None):
    g, t, ids, leaves = comb(pendants)
    chk = tp.InvariantChecker(mode)
    chk.bind(g, t)
    return chk, ids, leaves


def contract(chk, x, y):
    z = chk.sim.next_id
    chk.on_contract(x, y, z)
    return z


def plain_region(v):
    return RegionSpec(0, v["L5"], v["R5"], None, None)


# (spec, boundary vertex, its cap); the helper I-vertex on the same level
# collects as many red edges as w, and stays off every boundary
BOUNDARY_CAPS = {
    "left-path": (plain_region, "L3", 5),
    "right-path": (plain_region, "R3", 3),
    "b1-lid": (lambda v: RegionSpec(0, v["L5"], v["R5"], (v["L2"], v["R2"]),
                                    None), "L2", 2),
    "b2-left-lid": (lambda v: RegionSpec(
        0, v["L5"], v["R5"], None, (v["L3"], v["M3"], v["L1"], v["M5"])),
        "L3", 2),
    "b2-right-lid": (lambda v: RegionSpec(
        0, v["L5"], v["R5"], None, (v["L3"], v["M3"], v["L1"], v["M5"])),
        "M3", 6),
}


@pytest.mark.parametrize("case", list(BOUNDARY_CAPS))
def test_checker_caps_red_edges_from_the_boundary_into_the_region(case):
    make, wname, cap = BOUNDARY_CAPS[case]
    helper = "I" + wname[1]
    chk, v, leaves = bound_checker("planar", {wname: cap + 1,
                                              helper: cap + 1})
    chk.push_region(*make(v))
    # each contraction of a leaf under w with one under the helper adds a
    # region vertex red to w
    pairs = list(zip(leaves[wname], leaves[helper]))
    for a, b in pairs[:cap]:
        contract(chk, a, b)
    a, b = pairs[cap]
    msg = (f"boundary vertex {v[wname]} has {cap + 1} red edges into the "
           f"region (cap {cap})")
    with pytest.raises(tp.InvariantViolation, match=re.escape(msg)):
        contract(chk, a, b)


@pytest.mark.parametrize("mode, each, cap", [("planar", 4, 8),
                                             ("bipartite", 3, 6)])
def test_checker_caps_the_red_degree_globally(mode, each, cap):
    chk, v, leaves = bound_checker(mode, {"I1": each, "R1": each})
    # I1 and R1 share only the root: I2, R2 and the leaves turn red
    red = 2 * each + 2
    with pytest.raises(tp.InvariantViolation,
                       match=f"red degree {red} > {cap} at {chk.sim.next_id}"):
        contract(chk, v["I1"], v["R1"])


def test_checker_rejects_a_red_edge_onto_the_sink():
    chk, v, leaves = bound_checker("planar", {"I1": 1})
    chk.push_region(*plain_region(v))
    # the leaf is not adjacent to the root, I1 is
    with pytest.raises(tp.InvariantViolation,
                       match="red edge onto the sink 0"):
        contract(chk, v["I1"], leaves["I1"][0])


def test_checker_protects_the_sink_from_mixed_levels():
    chk, v, leaves = bound_checker("planar", {"0": 2})
    chk.push_region(*plain_region(v))
    a, b = leaves["0"]
    chk.on_decrease(a)  # a stems from level 1 but now sits on level 0
    z = chk.sim.next_id
    with pytest.raises(tp.InvariantViolation, match=re.escape(
            f"sink-protection broken: {z} adjacent to sink 0 stems from "
            f"mixed levels")):
        contract(chk, a, b)


def test_checker_rejects_a_survivor_red_to_the_sink():
    chk, v, leaves = bound_checker("planar", {"I1": 1})
    z = contract(chk, v["I1"], leaves["I1"][0])  # outside any region
    chk.push_region(*plain_region(v))
    with pytest.raises(tp.InvariantViolation,
                       match=f"sink 0 keeps a red edge to survivor {z}"):
        chk.pop_region([z])


def test_checker_caps_the_survivors_of_a_wrapped_face():
    chk, v, leaves = bound_checker("planar", {"I1": 3, "R1": 3})
    z = contract(chk, v["I1"], v["R1"])  # red degree 8, outside any region
    chk.push_region(*plain_region(v))
    with pytest.raises(tp.InvariantViolation, match=re.escape(
            f"survivor {z} of a 1-reduced wrapped face has red degree 8 > 7")):
        chk.pop_region([z])


def test_checker_rejects_two_survivors_on_one_level():
    chk, v, _ = bound_checker("planar")
    chk.push_region(*plain_region(v))
    with pytest.raises(tp.InvariantViolation,
                       match="two survivors on one level"):
        chk.pop_region([v["L2"], v["R2"]])


def test_checker_rejects_a_level_assignment_that_is_not_good():
    chk, v, _ = bound_checker("planar")
    chk.sim.level[v["I3"]] = 4  # two below I2
    z = chk.sim.next_id
    with pytest.raises(tp.InvariantViolation, match=re.escape(
            f"level assignment not good at ({z},{v['I3']})")):
        contract(chk, v["I2"], v["R2"])


def test_checker_rejects_a_bipartite_edge_inside_a_level():
    # 2 and 3 share a level and an edge, so a bipartite run never meets it
    g = tp.embed_abstract(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    chk = tp.InvariantChecker("bipartite")
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    with pytest.raises(tp.InvariantViolation,
                       match=re.escape("bipartite edge (4,3) spans 0 levels")):
        chk.on_contract(1, 2, 4)


def test_checker_rejects_fresh_id_drift():
    chk, v, _ = bound_checker("planar")
    n = chk.sim.next_id
    with pytest.raises(tp.InvariantViolation,
                       match=f"fresh id drift {n} != {n + 5}"):
        chk.on_contract(v["I2"], v["R2"], n + 5)


def test_checker_accepts_the_comb_regions_as_built():
    # every region above passes its entry check, so each test's failure
    # comes from the step it drives
    chk, v, _ = bound_checker("planar")
    for make, _, _ in BOUNDARY_CAPS.values():
        chk.push_region(*make(v))
    for _ in BOUNDARY_CAPS:
        chk.pop_region([])
    assert chk.stack == []


def test_checker_accepts_a_legal_level_decrease():
    chk, v, leaves = bound_checker("planar", {"L5": 1})
    (a,) = leaves["L5"]  # level 6, its one neighbour L5 on level 5
    chk.on_decrease(a)
    assert chk.sim.level[a] == 5
    assert chk.steps_checked == 1


def test_checker_rejects_a_level_decrease_below_a_neighbour():
    chk, v, _ = bound_checker("planar")
    with pytest.raises(tp.SequenceError, match=re.escape(
            f"illegal level decrease of {v['L4']}: neighbour {v['L5']} at "
            f"level 5 > 3")):
        chk.on_decrease(v["L4"])


# -- one checker, one build of its own mode ----------------------------------


def test_checker_refuses_a_second_build():
    g = tp.gen_triangulation(200, 1)
    chk = tp.InvariantChecker("planar")
    tp.planar_sequence(g, checker=chk)
    steps = chk.steps_checked
    assert steps > 0
    with pytest.raises(ValueError, match="already bound"):
        tp.planar_sequence(g, checker=chk)
    assert chk.steps_checked == steps


@pytest.mark.parametrize("build, graph, mode, other", [
    (tp.planar_sequence, lambda: tp.gen_triangulation(50, 1), "planar",
     "bipartite"),
    (tp.bipartite_sequence, lambda: tp.gen_grid(6, 6), "bipartite",
     "planar"),
], ids=["planar-build", "bipartite-build"])
def test_builders_refuse_a_checker_for_the_other_mode(build, graph, mode,
                                                      other):
    chk = tp.InvariantChecker(other)
    with pytest.raises(ValueError, match=re.escape(
            f"{other} checker given to a {mode} build")):
        build(graph(), checker=chk)
    assert chk.t is None  # refused before any work
