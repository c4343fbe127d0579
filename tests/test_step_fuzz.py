"""Mutated steps of real builds, fed to every library consumer of a sequence.

The parser fuzz mutates text; here one step of a seeded build is mutated
and the sequence handed to ``verify_sequence``, ``reference_verify`` and
``restrict_sequence``, and the mutated step, after the valid prefix, to a
bound checker's ``on_contract``.  Each must answer with ``SequenceError``
or ``InvariantViolation`` and nothing else.  A step that names a dead,
negative or not yet created id, the same id twice, or something that is
no id (None, a float) is refused by all of them, and so is one that is
no pair (the sequence consumers only: the checker is called with two
ids); a pair two levels apart is still a contraction, so only the
checker's step rule refuses it.
"""

import random

import pytest

import twinplanar as tp

TYPED = (tp.SequenceError, tp.InvariantViolation)
ID_KINDS = ("dead", "negative", "past-fresh", "equal", "not-an-id",
            "not-a-pair")


class _FinalPhaseMark(tp.InvariantChecker):
    """A checker that notes how many steps come before the final phase,
    which is outside the level discipline."""

    def enter_final_phase(self):
        self.final_at = self.steps_checked
        super().enter_final_phase()


def _build(mode, n, seed):
    chk = _FinalPhaseMark(mode)
    if mode == "planar":
        g0 = tp.gen_triangulation(n, seed)
        _, _, (seq, g, t) = tp.planar_sequence_full(g0, chk)
    else:
        g0 = tp.gen_quadrangulation(n, seed)
        _, _, (seq, g, t) = tp.bipartite_sequence_full(g0, chk)
    return g, t, seq.steps, chk.final_at


def _checker_after(mode, g, t, prefix):
    chk = tp.InvariantChecker(mode)
    chk.bind(g, t)
    for z, (x, y) in enumerate(prefix, g.n):
        chk.on_contract(x, y, z)
    return chk


def _live_levels(chk):
    """{live id: its level}, read through the trigraph's name map: the
    checker keeps its levels by part name."""
    level = chk.level
    return {v: level[a] for v, a in enumerate(chk.sim.name) if a >= 0}


def _mutate(kind, step, prefix, chk, rng):
    """``step`` changed into a mutation of ``kind``, or None if the state
    after ``prefix`` (replayed by ``chk``) offers none."""
    x, y = step
    z = len(chk.sim.name)
    if kind == "dead":
        if not prefix:
            return None
        dead = rng.choice(prefix)[rng.randrange(2)]
        return (dead, y) if rng.random() < 0.5 else (x, dead)
    if kind == "negative":
        return x, -rng.randrange(1, z + 1)
    if kind == "past-fresh":
        return z + rng.randrange(1, 4), y
    if kind == "equal":
        return x, x
    if kind == "not-an-id":
        return rng.choice([(x, None), (None, y), (x, float(y)), ("d", x)])
    if kind == "not-a-pair":
        return rng.choice([(x,), (x, y, z), ("k", x, y, z), ("k", x, y)])
    # two levels apart: any live pair will do
    level = _live_levels(chk)
    live = list(level)
    pairs = [(u, v) for u in live for v in live if level[v] - level[u] == 2]
    return rng.choice(pairs) if pairs else None


def _answer(call):
    """Whether ``call`` ends in a typed error ("refused") or returns
    ("accepted"); any other exception fails the test."""
    try:
        call()
    except TYPED:
        return "refused"
    return "accepted"


@pytest.mark.parametrize("mode, n, seed", [
    ("planar", 24, 0), ("planar", 45, 1), ("planar", 60, 2),
    ("bipartite", 24, 3), ("bipartite", 45, 4), ("bipartite", 60, 5),
])
def test_mutated_steps_of_a_build_end_in_a_typed_error(mode, n, seed):
    g, t, steps, final_at = _build(mode, n, seed)
    rng = random.Random(f"{mode}-{n}-{seed}")
    keep = rng.sample(range(g.n), g.n // 2)
    made = dict.fromkeys(ID_KINDS + ("two-levels",), 0)
    for i in rng.sample(range(final_at), min(final_at, 10)):
        prefix = steps[:i]
        chk = _checker_after(mode, g, t, prefix)
        for kind in made:
            bad = _mutate(kind, steps[i], prefix, chk, rng)
            if bad is None:
                continue
            made[kind] += 1
            seq = tp.ContractionSequence(g.n, prefix + [bad] + steps[i + 1:])
            answers = {
                "verify": _answer(lambda: tp.verify_sequence(g.n, g.edges, seq)),
                "reference": _answer(
                    lambda: tp.reference_verify(g.n, g.edges, seq)),
                "restrict": _answer(lambda: tp.restrict_sequence(seq, keep)),
            }
            if kind != "not-a-pair":  # the builder hands on_contract ids
                answers["checker"] = _answer(lambda: _checker_after(
                    mode, g, t, prefix).on_contract(*bad, g.n + i))
            if kind == "two-levels":
                assert answers.pop("checker") == "refused", (i, bad)
            else:
                assert set(answers.values()) == {"refused"}, (i, bad, answers)
    assert all(made.values()), made
