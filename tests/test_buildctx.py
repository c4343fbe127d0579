import pytest

import twinplanar as tp
from twinplanar.buildctx import run_trampoline
from twinplanar.generators import gen_grid, gen_triangulation

# -- the sub-call protocol ---------------------------------------------------


def test_trampoline_returns_a_finished_root_value():
    assert run_trampoline(lambda: {"a": 1}) == {"a": 1}
    assert run_trampoline(lambda x: x, None) is None


def test_trampoline_sends_a_yielded_finished_value_back():
    def parent():
        got = yield {"leaf": 1}
        deeper = yield child(got["leaf"])
        return got, deeper

    def child(v):
        got = yield v + 1
        return got * 10

    assert run_trampoline(parent) == ({"leaf": 1}, 20)


def test_trampoline_returns_from_deep_generator_chains():
    depth = 10 ** 5

    def region(i):
        if i == depth:
            return i
        return rest(i)

    def rest(i):
        below = yield region(i + 1)
        return below + 1

    assert run_trampoline(region, 0) == 2 * depth


def test_trampoline_passes_errors_through():
    def failing():
        yield {}
        raise tp.BuilderError("boom")

    with pytest.raises(tp.BuilderError, match="boom"):
        run_trampoline(failing)


# -- the regions the invariant checker sees ---------------------------------

# region counts pinned from the recursion that drove a generator per region,
# leaf regions included
@pytest.mark.parametrize("mode, graph, regions", [
    ("planar", lambda: gen_triangulation(300, 7), 492),
    ("bipartite", lambda: gen_grid(12, 15), 228),
], ids=["planar", "bipartite"])
def test_every_region_is_pushed_and_popped(mode, graph, regions):
    build = tp.planar_sequence if mode == "planar" else tp.bipartite_sequence
    checker = tp.InvariantChecker(mode)
    calls = {"push": 0, "pop": 0}
    real_push, real_pop = checker.push_region, checker.pop_region

    def push(*region):
        calls["push"] += 1
        real_push(*region)

    def pop(survivors):
        calls["pop"] += 1
        real_pop(survivors)

    checker.push_region, checker.pop_region = push, pop
    build(graph(), checker=checker)
    assert calls == {"push": regions, "pop": regions}
    assert checker.stack == []
