"""Command-line front end.

Subcommands: ``seq`` (build + verify a contraction sequence), ``verify``,
``exact``, ``prep`` (triangulate/quadrangulate), ``gen`` (seeded corpora)
and ``tree`` (left-aligned BFS parents).  ``verify`` and ``exact`` read
any graph as n and its edges; ``seq``, ``prep`` and ``tree`` need a plane
embedding.  Exit codes: 0 success, 1 format errors and bad generator
arguments, 2 invariant violations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import plane_graph as pg
from . import trigraph as tg
from .buildctx import BuilderError
from .generators import (GeneratorError, gen_grid, gen_quadrangulation,
                         gen_triangulation)
from .instrument import InvariantChecker, InvariantViolation
from .layering import left_aligned_bfs_tree
from .oracle import OracleError, exact_twinwidth
from .seq_bipartite import bipartite_sequence
from .seq_planar import planar_sequence

PRNG_ID = "python-mt19937"


def _read(path: str) -> str:
    """The text of the file ``path``, or of stdin for ``-``.  Input that is
    no UTF-8 text is a format error."""
    try:
        if path != "-":
            return Path(path).read_bytes().decode()
        raw = getattr(sys.stdin, "buffer", None)  # None: a text stream
        return sys.stdin.read() if raw is None else raw.read().decode()
    except UnicodeDecodeError as exc:
        where = "stdin" if path == "-" else path
        raise pg.FormatError(f"{where} is not UTF-8 text: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _is_plane(text: str) -> bool:
    """Whether a graph text is in the plane format: its first 'p' record
    says ``plane``; any other text is read as an edge list."""
    for _, _, parts in pg.records(text):
        if parts[0] == "p":
            return parts[1:2] == ["plane"]
    return False


def _read_edges(path: str) -> tuple[int, list[tuple[int, int]]]:
    """n and the edges of a graph file in either format; a plane file is
    still validated in full."""
    text = _read(path)
    if _is_plane(text):
        g = pg.parse_plane(text)
        return g.n, g.edges
    return pg.parse_edge_list(text)


def _load_graph(path: str, embed: bool) -> pg.PlaneGraph:
    text = _read(path)
    if _is_plane(text):
        return pg.parse_plane(text)
    n, edges = pg.parse_edge_list(text)
    if not embed:
        raise pg.FormatError(
            "input is a bare edge list; pass --embed to let the tool "
            "compute a planar embedding")
    return pg.embed_abstract(n, edges)


def _print_width(width: int, out: str | None) -> None:
    """Print ``width W``, to stderr when the sequence went to stdout."""
    print(f"width {width}", file=sys.stderr if out == "-" else sys.stdout)


def cmd_seq(args) -> int:
    g = _load_graph(args.graph, args.embed)
    checker = InvariantChecker(args.mode) if args.assert_mode else None
    if args.mode == "planar":
        seq, report = planar_sequence(g, checker=checker)
    else:
        seq, report = bipartite_sequence(g, checker=checker)
    if args.out:
        _write(args.out, tg.write_seq(seq))
    _print_width(report.width, args.out)
    return 0


def cmd_verify(args) -> int:
    n, edges = _read_edges(args.graph)
    seq = tg.parse_seq(_read(args.seq))
    report = tg.verify_sequence(n, edges, seq, debug_recheck=args.recheck)
    print(f"width {report.width}")
    if not report.full:
        print("note: sequence is partial", file=sys.stderr)
    return 0


def cmd_exact(args) -> int:
    res = exact_twinwidth(*_read_edges(args.graph), limit=args.limit)
    if args.out:
        _write(args.out, tg.write_seq(res.witness))
    _print_width(res.width, args.out)
    return 0


def cmd_prep(args) -> int:
    g0 = _load_graph(args.graph, args.embed)
    g, _ = pg.connect_components(g0)
    complete = pg.triangulate if args.kind == "triangulate" else pg.quadrangulate
    g2, _ = complete(g)
    # connecting and completing keep the input's ids and append the rest
    comments = [f"prep {args.kind}"] + [f"map {v} {v}" for v in range(g0.n)]
    _write(args.out, pg.write_plane(g2, comments))
    return 0


def _parse_grid(text: str) -> tuple[int, int]:
    r, sep, c = text.partition("x")
    if not (sep and r.isdecimal() and c.isdecimal()):
        raise GeneratorError(f"--grid expects RxC, such as 40x25, got {text!r}")
    return int(r), int(c)


def cmd_gen(args) -> int:
    if args.grid is not None:
        if args.kind == "tri":
            raise GeneratorError("--grid makes a quadrangulation: use 'gen quad'")
        r, c = _parse_grid(args.grid)
        g = gen_grid(r, c)
        comment = f"gen quad grid={r}x{c}"
    elif args.n is None:
        raise GeneratorError("--n is required without --grid")
    else:
        gen = gen_triangulation if args.kind == "tri" else gen_quadrangulation
        g = gen(args.n, args.seed)
        comment = f"gen {args.kind} n={args.n} seed={args.seed} prng={PRNG_ID}"
    _write(args.out, pg.write_plane(g, [comment]))
    return 0


def cmd_tree(args) -> int:
    g = _load_graph(args.graph, args.embed)
    root = args.root
    if root is None:
        root = g.tail[g.outer_dart] if g.m else 0
    t = left_aligned_bfs_tree(g, root)
    print(" ".join(str(p) for p in t.parent))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twinplanar",
        description="Twin-width contraction sequences for planar graphs "
                    "(width <= 8) and bipartite planar graphs (width <= 6).")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("seq", help="build and verify a contraction sequence")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("planar", "bipartite"), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="run the per-step invariant suites while building")
    p.add_argument("--embed", action="store_true")
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("verify", help="replay a sequence and print its width")
    p.add_argument("graph")
    p.add_argument("seq")
    p.add_argument("--recheck", type=int, default=0, metavar="K",
                   help="recompute red degrees from scratch every K steps "
                        "(debug; 64 is the usual choice)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exact", help="exact twin-width by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("prep", help="complete to a triangulation/quadrangulation")
    p.add_argument("kind", choices=("triangulate", "quadrangulate"))
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.add_argument("--embed", action="store_true")
    p.set_defaults(fn=cmd_prep)

    p = sub.add_parser("gen", help="generate a seeded corpus graph")
    p.add_argument("kind", choices=("tri", "quad"))
    p.add_argument("--n", type=int, default=None,
                   help="vertex count of a stacked graph (required without --grid)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None,
                   help="quad only: an RxC grid instead of stacking (no --n)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("tree", help="emit the left-aligned BFS parent array")
    p.add_argument("graph")
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--embed", action="store_true")
    p.set_defaults(fn=cmd_tree)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (pg.FormatError, GeneratorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (pg.PlaneError, tg.SequenceError, BuilderError, InvariantViolation,
            OracleError, ValueError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
