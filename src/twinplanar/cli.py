"""Command-line front end.

Subcommands: ``seq`` (build + verify a contraction sequence), ``verify``,
``exact``, ``prep`` (triangulate/quadrangulate), ``gen`` (seeded corpora)
and ``bench`` (TSV timing table).  Exit codes: 0 success, 1 format errors
and bad generator arguments, 2 invariant violations.
"""

from __future__ import annotations

import argparse
import sys
import time
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
    return sys.stdin.read() if path == "-" else Path(path).read_text()


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


def cmd_seq(args) -> int:
    g = _load_graph(args.graph, args.embed)
    checker = InvariantChecker(args.mode) if args.assert_mode else None
    if args.mode == "planar":
        seq, report = planar_sequence(g, checker=checker)
    else:
        seq, report = bipartite_sequence(g, checker=checker)
    if args.out:
        _write(args.out, tg.write_seq(seq))
    print(f"width {report.width}")
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.embed)
    seq = tg.parse_seq(_read(args.seq))
    levels = None
    if args.root is not None:
        from .layering import bfs_layering
        levels = bfs_layering(g, args.root)
    report = tg.verify_sequence(g.n, g.edges, seq, levels=levels,
                                debug_recheck=args.recheck)
    print(f"width {report.width}")
    if not report.full:
        print("note: sequence is partial", file=sys.stderr)
    return 0


def cmd_exact(args) -> int:
    text = _read(args.graph)
    if _is_plane(text):
        g = pg.parse_plane(text)
        n, edges = g.n, g.edges
    else:
        n, edges = pg.parse_edge_list(text)
    res = exact_twinwidth(n, edges, limit=args.limit)
    if args.out:
        _write(args.out, tg.write_seq(res.witness))
    print(f"width {res.width}")
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


def cmd_bench(args) -> int:
    """One TSV row (n, mode, verified width, build ms) per seeded graph."""
    gen = gen_triangulation if args.mode == "planar" else gen_quadrangulation
    build = planar_sequence if args.mode == "planar" else bipartite_sequence
    if args.seeds < 1:
        raise GeneratorError(f"--seeds must be at least 1, got {args.seeds}")
    for n in args.sizes:
        for seed in range(args.seeds):
            g = gen(n, seed)
            checker = InvariantChecker(args.mode) if args.assert_mode else None
            t0 = time.perf_counter()
            _, report = build(g, checker=checker)
            ms = (time.perf_counter() - t0) * 1000.0
            print(f"{n}\t{args.mode}\t{report.width}\t{ms:.1f}")
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
    p.add_argument("--root", type=int, default=None,
                   help="validate d-steps against BFS levels from this root")
    p.add_argument("--recheck", type=int, default=0, metavar="K",
                   help="recompute red degrees from scratch every K steps "
                        "(debug; 64 is the usual choice)")
    p.add_argument("--embed", action="store_true")
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

    p = sub.add_parser("bench", help="width/runtime TSV over seeded corpora")
    p.add_argument("--mode", choices=("planar", "bipartite"), default="planar")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="run the per-step invariant suites while building")
    p.set_defaults(fn=cmd_bench)
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
