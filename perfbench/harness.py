"""One workload run: set-up, correctness gate, closed request loop, metrics.

A request does what ``twinplanar seq`` does minus argument parsing and disk
I/O: ``parse_plane(text)``, the builder with its verification, and
``write_seq(seq)``.  One client sends the next request when the previous
one has returned; there is one process and no thread.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import twinplanar as tp

from spans import Tracer
from workloads import GATE_OFFSET, GATE_SIZE, INPUTS, Workload

FAILURES = (tp.BuilderError, tp.SequenceError, tp.InvariantViolation,
            tp.PlaneError)

# per-layer metric -> layer whose self time per request it reports
LAYER_TIMES = {
    "plane_graph.parse_s": "plane_graph.parse",
    "trigraph.write_s": "trigraph.write",
    "plane_graph.validate_s": "plane_graph.validate",
    "plane_graph.connect_s": "plane_graph.connect",
    "plane_graph.complete_s": "plane_graph.complete",
    "plane_graph.build_s": "plane_graph.build",
    "layering.tree_s": "layering.tree",
    "seq_planar.core_s": "seq_planar.core",
    "seq_bipartite.core_s": "seq_bipartite.core",
    "seq_planar.driver_s": "seq_planar.driver",
    "seq_bipartite.driver_s": "seq_bipartite.driver",
    "trigraph.verify_s": "trigraph.verify",
    "trigraph.restrict_s": "trigraph.restrict",
    "instrument.check_s": "instrument.check",
}
# per-layer counters -> (unit, layer they need)
LAYER_COUNTS = {
    "plane_graph.validate_calls": ("count", "plane_graph.validate"),
    "plane_graph.build_calls": ("count", "plane_graph.build"),
    "plane_graph.growth": ("ratio", "plane_graph.complete"),
    "layering.depth": ("count", "layering.tree"),
    "buildctx.steps": ("count", "buildctx.sequence"),
    "buildctx.dsteps": ("count", "buildctx.sequence"),
    "trigraph.verify_steps_per_s": ("1/s", "trigraph.verify"),
    "instrument.steps_checked": ("count", None),
}
PER_LAYER_UNITS = {**{m: "s" for m in LAYER_TIMES},
                   **{m: unit for m, (unit, _) in LAYER_COUNTS.items()},
                   "trace.coverage": "ratio"}

# Calibration.  On a shared 2-core x86-64 VM (CPython 3.11.7) the speed of
# Python code drifts by a quarter within minutes: medians of request wall
# time over 20 s windows varied by 27%, and by 6% once each request was
# scaled by this fixed pure-Python job timed next to it.  Each timed
# interval is multiplied by REF_S over the mean of the calibration times
# taken right before and right after it, which gives seconds at the speed
# where the job takes REF_S, its median on that VM.
REF_S = 0.0155


def calibrate() -> float:
    """Seconds for a fixed job of dict, set, list and sort work on ints."""
    t0 = perf_counter()
    buckets: dict[int, list[int]] = {}
    for i in range(60_000):
        buckets.setdefault(i % 1009, []).append(i * 7 % 30011)
    seen: set[int] = set()
    for v in buckets.values():
        seen |= set(v)
        v.sort()
    [len(buckets[k]) for k in sorted(seen) if k in buckets]
    return perf_counter() - t0


class Clock:
    """Speed factors from calibrations interleaved with the timed work."""

    def __init__(self):
        self.last = calibrate()
        self.factors: list[float] = []

    def restart(self) -> None:
        """Forget the interval since the previous calibration."""
        self.last = calibrate()

    def factor(self) -> float:
        """Factor for the interval since the previous call."""
        now = calibrate()
        f = REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f


@dataclass
class Reply:
    g: tp.PlaneGraph
    seq: tp.ContractionSequence
    report: tp.WidthReport
    text: str
    checker: tp.InvariantChecker | None
    cli_s: float
    seq_s: float


def request(text: str, wl: Workload) -> Reply:
    """Parse, build and verify, write, through the package's exported
    names.  They are looked up on every call, so a Tracer installed around
    the call sees them."""
    t0 = perf_counter()
    g = tp.parse_plane(text)
    checker = tp.InvariantChecker(wl.mode) if wl.assert_mode else None
    t1 = perf_counter()
    if wl.mode == "planar":
        seq, report = tp.planar_sequence(g, checker=checker)
    else:
        seq, report = tp.bipartite_sequence(g, checker=checker)
    t2 = perf_counter()
    out = tp.write_seq(seq)
    t3 = perf_counter()
    return Reply(g, seq, report, out, checker, t3 - t0, t2 - t1)


def problem(r: Reply, wl: Workload) -> str | None:
    """Why a reply is not a valid product, or None."""
    if r.seq.n != r.g.n or not r.seq.is_full() or not r.report.full:
        return "partial sequence"
    if r.report.width > wl.bound:
        return f"width {r.report.width} above the bound {wl.bound}"
    return None


def make_input(wl: Workload, size: int, seed: int) -> tuple[str, float]:
    """Serialised input graph and the seconds spent in the generator."""
    t0 = perf_counter()
    g = wl.generate(size, seed)
    gen_s = perf_counter() - t0
    if wl.transform is not None:
        g = wl.transform(g, seed)
    return tp.write_plane(g), gen_s


def gate(wl: Workload, seed: int) -> list[str]:
    """Check a small instance against the dense reference verifier."""
    text, _ = make_input(wl, GATE_SIZE, seed * 1000 + GATE_OFFSET)
    try:
        r = request(text, wl)
    except FAILURES as exc:
        return [f"gate: {type(exc).__name__}: {exc}"]
    errors = []
    why = problem(r, wl)
    if why:
        errors.append(f"gate: {why}")
    ref = tp.reference_verify(r.g.n, r.g.edges, r.seq)
    if (ref.width, ref.per_step_max, ref.full) != (
            r.report.width, r.report.per_step_max, r.report.full):
        errors.append(f"gate: reference_verify width {ref.width} != "
                      f"builder width {r.report.width}")
    return errors


def layer_sample(tracer: Tracer, r: Reply, mode: str, f: float
                 ) -> dict[str, float | None]:
    """Per-layer numbers of one traced request (None: not measured); times
    are multiplied by the speed factor f."""
    own, calls = tracer.self_times()
    gone = set(tracer.unmeasured)
    out: dict[str, float | None] = {
        metric: None if layer in gone else own.get(layer, 0.0) * f
        for metric, layer in LAYER_TIMES.items()}
    res = tracer.results
    done = res.get("triangulate") or res.get("quadrangulate")
    tree = res.get("left_aligned_bfs_tree")
    built = res.get("sequence")
    verify_s = own.get("trigraph.verify", 0.0) * f
    out.update({
        "plane_graph.validate_calls": calls.get("plane_graph.validate", 0),
        "plane_graph.build_calls": calls.get("plane_graph.build", 0),
        "plane_graph.growth": done[0].n / r.g.n if done else None,
        "layering.depth": max(tree.depth) if tree else None,
        "buildctx.steps": len(built.steps) if built else None,
        "buildctx.dsteps": (sum(1 for s in built.steps if s[0] == "d")
                            if built else None),
        "trigraph.verify_steps_per_s": (len(r.seq.steps) / verify_s
                                        if verify_s else None),
        "instrument.steps_checked": (r.checker.steps_checked
                                     if r.checker else 0),
    })
    for metric, (_unit, layer) in LAYER_COUNTS.items():
        if layer in gone:
            out[metric] = None
    driver = f"seq_{mode}.driver"
    total = tracer.inclusive(driver)
    out["trace.coverage"] = (1.0 - own.get(driver, 0.0) / total
                             if total and driver not in gone else None)
    return out


def median_or_none(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(wl: Workload, seed: int, seconds: float, traced: bool,
        import_s: float) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    clock = Clock()
    import_s *= REF_S / clock.last
    texts, setup_s, gen_s = [], [], []
    for i in range(INPUTS):
        t0 = perf_counter()
        text, gen = make_input(wl, wl.size, seed * 1000 + i)
        f = clock.factor()
        setup_s.append((perf_counter() - t0) * f)
        gen_s.append(gen * f)
        texts.append(text)
    errors = gate(wl, seed)

    first_digest: list[str | None] = [None] * len(texts)
    concat = hashlib.sha256()

    def serve(k: int, tracer: Tracer | None = None) -> Reply | None:
        """One request on input k; None if it failed."""
        try:
            if tracer is None:
                r = request(texts[k], wl)
            else:
                with tracer:
                    r = request(texts[k], wl)
        except FAILURES as exc:
            errors.append(f"input {k}: {type(exc).__name__}: {exc}")
            return None
        why = problem(r, wl)
        if why:
            errors.append(f"input {k}: {why}")
            return None
        digest = hashlib.sha256(r.text.encode()).hexdigest()
        if first_digest[k] is None:
            first_digest[k] = digest
            concat.update(r.text.encode())
        elif first_digest[k] != digest:
            errors.append(f"input {k}: output differs between requests")
        return r

    serve(0)  # untimed warm-up

    tracer = Tracer() if traced else None
    cli, raw_cli, seq, traced_cli = [], [], [], []
    samples, widths = [], []
    rates = []  # thousand input vertices per second of request time
    attempted = failed = 0
    clock.restart()
    end = perf_counter() + seconds
    while attempted < 1 + traced or perf_counter() < end:
        k = attempted % len(texts)
        trace_this = traced and attempted % 2 == 1
        attempted += 1
        gc.collect()
        r = serve(k, tracer if trace_this else None)
        f = clock.factor()
        if r is None:
            failed += 1
            continue
        widths.append(r.report.width)
        if trace_this:
            traced_cli.append(r.cli_s * f)
            samples.append(layer_sample(tracer, r, wl.mode, f))
        else:
            cli.append(r.cli_s * f)
            raw_cli.append(r.cli_s)
            seq.append(r.seq_s * f)
            rates.append(r.g.n / 1000.0 / cli[-1])
        del r
    if tracer is not None:
        tracer.reset()
    for k in range(len(texts)):  # inputs the timed loop never reached
        if first_digest[k] is None:
            serve(k)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not cli:
        errors.append("no untraced request completed")

    if not traced:
        metrics = {
            "cli_s.p50": (median_or_none(cli), "s"),
            "seq_s.p50": (median_or_none(seq), "s"),
            "kverts_per_s": (median_or_none(rates), "kvert/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "width_max": (max(widths, default=None), "count"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = {m: (median_or_none([s[m] for s in samples]), unit)
                   for m, unit in PER_LAYER_UNITS.items()}
        metrics["generators.gen_s"] = (statistics.median(gen_s), "s")
        metrics["trace.overhead_frac"] = (
            median_or_none(traced_cli) / median_or_none(cli) - 1.0
            if cli and traced_cli else None, "ratio")

    lines = [f"workload {wl.name} seed {seed}: {attempted} requests "
             f"({len(cli)} untraced, {len(traced_cli)} traced), "
             f"{failed} failed",
             f"sha256 of write_seq output over {len(texts)} inputs: "
             + (concat.hexdigest() if all(first_digest) else "incomplete"),
             f"speed factor (reference / calibration): median "
             f"{statistics.median(clock.factors):.4g}, range "
             f"{min(clock.factors):.4g}..{max(clock.factors):.4g}"]
    if raw_cli:
        lines.append(f"cli_s.p50 before scaling: "
                     f"{statistics.median(raw_cli):.6g} s wall clock")
    lines += [f"error: {e}" for e in errors[:10]]
    if len(errors) > 10:
        lines.append(f"... and {len(errors) - 10} more errors")
    if tracer is not None:
        lines += [f"not measured: {name}" for name in tracer.missing]
    for name, (value, unit) in metrics.items():
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<30} {shown}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines
