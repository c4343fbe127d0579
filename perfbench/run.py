#!/usr/bin/env python3
"""Benchmark: verified contraction-sequence latency on plane-graph workloads.

    python3 perfbench/run.py --workload tri-stacked --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, one fresh process each

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures untraced requests and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced requests
and prints the per-layer metrics (see ``spans.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails or the package is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one workload in this process (default: each "
                         "workload in its own process, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args: argparse.Namespace, names) -> int:
    """Each workload in a fresh process, so that peak RSS and warm state
    are its own; every workload runs, and the worst exit code is returned."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twinplanar" / "__init__.py").is_file():
        print(f"perfbench: no twinplanar package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import harness  # imports twinplanar
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result, lines = harness.run(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
