"""The per-step invariant checker: a bound checker driven into every
message it raises from a step or a region's end (the level rule and the
region entry clauses are pinned in ``test_trigraph.py``, next to the
boundary geometry test)."""

from __future__ import annotations

import re

import pytest

import twinplanar as tp
from twinplanar import layering as ly

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
    z = len(chk.sim.name)
    chk.on_contract(x, y, z)
    return z


def plain_region(v):
    return (0, v["L5"], v["R5"], None, None)


# (spec, boundary vertex, its cap); the helper I-vertex on the same level
# collects as many red edges as w, and stays off every boundary
BOUNDARY_CAPS = {
    "left-path": (plain_region, "L3", 5),
    "right-path": (plain_region, "R3", 3),
    "b1-lid": (lambda v: (0, v["L5"], v["R5"], (v["L2"], v["R2"]), None),
               "L2", 2),
    "b2-left-lid": (lambda v: (
        0, v["L5"], v["R5"], None, (v["L3"], v["M3"], v["L1"], v["M5"])),
        "L3", 2),
    "b2-right-lid": (lambda v: (
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
    red, z = 2 * each + 2, len(chk.sim.name)
    with pytest.raises(tp.InvariantViolation,
                       match=f"red degree {red} > {cap} at {z}"):
        contract(chk, v["I1"], v["R1"])


def test_checker_rejects_a_red_edge_onto_the_sink():
    chk, v, leaves = bound_checker("planar", {"I1": 1})
    chk.push_region(*plain_region(v))
    # the leaf is not adjacent to the root, I1 is
    with pytest.raises(tp.InvariantViolation,
                       match="red edge onto the sink 0"):
        contract(chk, v["I1"], leaves["I1"][0])


def test_checker_protects_the_sink_from_mixed_levels():
    # the sink 1 has the neighbour 2 on its own level, and 3, one level
    # deeper, sees only 1 and 2: contracting 2 and 3 is level-respecting,
    # but the result keeps a black edge to the sink and stems from levels 1
    # and 2
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (1, 5)]
    g = tp.embed_abstract(6, edges)
    g = tp.build(g.n, g.edges, g.rot, g.rot[0][0])  # the root 0 outer
    chk = tp.InvariantChecker("planar")
    chk.bind(g, ly.left_aligned_bfs_tree(g, 0))
    chk.push_region(1, 4, 5, None, None)
    with pytest.raises(tp.InvariantViolation, match=re.escape(
            "sink-protection broken: 6 adjacent to sink 1 stems from mixed "
            "levels")):
        contract(chk, 2, 3)


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


def test_checker_rejects_a_contracted_survivor():
    # the checker keeps its levels by part name; a contracted id has none
    chk, v, leaves = bound_checker("planar", {"I1": 1})
    contract(chk, v["I1"], leaves["I1"][0])
    chk.push_region(*plain_region(v))
    with pytest.raises(tp.InvariantViolation,
                       match=f"survivor {v['I1']} is not live"):
        chk.pop_region([v["I1"]])


@pytest.mark.parametrize("mode", ["planar", "bipartite"])
def test_checker_rejects_a_survivor_at_the_sink_level(mode):
    # the region below L1 between the L and M paths; I1 shares the sink's
    # level 1, and I2 one level below passes
    chk, v, _ = bound_checker(mode)
    region = (v["L1"], v["L5"], v["M5"], None, None)
    chk.push_region(*region)
    chk.pop_region([v["I2"]])
    chk.push_region(*region)
    with pytest.raises(tp.InvariantViolation, match=re.escape(
            f"survivor {v['I1']} at or above the sink level 1")):
        chk.pop_region([v["I1"]])


def test_checker_rejects_a_level_assignment_that_is_not_good():
    chk, v, _ = bound_checker("planar")
    chk.level[v["I3"]] = 4  # two below I2
    z = len(chk.sim.name)
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
    n = len(chk.sim.name)
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
