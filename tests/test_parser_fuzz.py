"""Mutation fuzzing of the three text formats through the CLI.

Valid ``.plane``, ``.edges`` and ``.seq`` files have lines dropped,
duplicated or swapped and fields replaced or deleted.  Whatever the
mutant, ``seq``, ``verify`` and ``exact`` must end in a result (exit 0) or
a typed error (exit 1 or 2, one ``error:`` or ``invariant violation:``
line), never an uncaught exception.  Every number a mutant holds stays
within twice the largest number of its file, so no mutant sizes a large
allocation.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import twinplanar as tp
from twinplanar.cli import main

GRAPH = tp.gen_stacked_quadrangulation(6, 0)  # bipartite, so both modes run
FILES = {
    "plane": tp.write_plane(GRAPH, ["stacked quadrangulation"]),
    "edges": tp.write_edge_list(GRAPH.n, GRAPH.edges),
    "seq": tp.write_seq(tp.planar_sequence(GRAPH)[0]),
}


def _limit(text: str) -> int:
    return 2 * max(int(t) for t in text.split() if t.isdecimal())


def _field(limit: int):
    return st.one_of(st.integers(0, limit).map(str),
                     st.integers(-limit, -1).map(str),
                     st.sampled_from(["x", "1.5", "0x1", "-"]),
                     st.none())  # None deletes the field


def _mutation(limit: int):
    i, j = st.integers(0, 99), st.integers(0, 99)
    return st.one_of(st.tuples(st.just("drop"), i),
                     st.tuples(st.just("dup"), i),
                     st.tuples(st.just("swap"), i, j),
                     st.tuples(st.just("field"), i, j, _field(limit)))


def _apply(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, i, *rest in mutations:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rest[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            j, value = rest
            fields = lines[i].split()
            j %= len(fields)
            if value is None:
                del fields[j]
            else:
                fields[j] = value
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def mutants(draw):
    kind = draw(st.sampled_from(sorted(FILES)))
    text = FILES[kind]
    muts = draw(st.lists(_mutation(_limit(text)), min_size=1, max_size=3))
    return kind, _apply(text, muts)


def _run(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutants())
def test_every_mutant_ends_in_a_result_or_a_typed_error(mutant):
    kind, text = mutant
    with tempfile.TemporaryDirectory() as tmp:
        files = {k: Path(tmp) / f"f.{k}" for k in FILES}
        for k, path in files.items():
            path.write_text(text if k == kind else FILES[k])
        graph = str(files["plane" if kind == "seq" else kind])
        runs = [["verify", graph, str(files["seq"]), "--embed"]]
        if kind != "seq":
            runs += [["seq", graph, "--mode", mode, "--embed"]
                     for mode in ("planar", "bipartite")]
            runs.append(["exact", graph, "--limit", "8"])
        for args in runs:
            code, err = _run(args)
            assert code in (0, 1, 2), (args, text)
            assert err == "" or err.startswith(
                ("error:", "invariant violation:")), (args, text, err)
            assert "Traceback" not in err
