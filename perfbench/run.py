#!/usr/bin/env python3
"""Benchmark for bcp: end-to-end timings, and per-layer timings from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper7 --seed 1 --seconds 20 --trace 0

`--workload` is paper7, two_sided, ou_td or all.  Requests go through
`bcp.cli.run_request` in this process, with BCP_THREADS set to the
number of CPUs this process may run on.  Every request is checked
against its reference; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics, and the exit
code is 1 when any request failed.

With `--trace 0` the metrics are the end-to-end ones, measured without
tracing.  The host's speed drifts by tens of percent over minutes, so a
fixed calibration loop is timed after every request, and the run's
median wall time is also reported scaled by the ratio of the loop's
time on a reference host (CALIBRATION_REF_S) to its median time in the
run (the `_ref_s` metrics).  With `--trace 1`
the run interleaves untraced, traced and single-thread passes and
reports per-layer metrics: spans are recorded
around calls into bcp's modules from this directory only, and written
with the machine description to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

TARGET_ERROR = 1e-3  # total error (bracket width + 2 SE) for time_to_tol_s
GATE_Z = 4.0
SETUP_REPEATS = 3
CHUNK_SHAPE = (4096, 128)
CHUNK_REPEATS = 5
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_REF_S = 0.1  # the loop's time on the reference host

# Per-layer metrics and their units, in report order.  The first group is
# measured per traced request; mc.speedup, chunk.* and the overhead are not.
# What each should move, with tracing off:
#   cli.parse_s, expr.parse_s: wall_s only at small path counts (ou_td).
#   transforms.reduce_s: wall_s on ou_td (ODE time change) and paper7 (gbm rate ODE).
#   boundary.envelopes_s, boundary.evals, expr.evals: wall_s on ou_td, not on two_sided.
#   kernels.two_sided_s: wall_s and time_to_tol_s on two_sided, not on paper7.
#   kernels.one_sided_s: wall_s on paper7.
#   mc.* and chunk.*: wall_s on paper7 and two_sided.
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "expr.parse_s": "s",
    "transforms.reduce_s": "s",
    "boundary.envelopes_s": "s",
    "boundary.evals": "count",
    "expr.evals": "count",
    "kernels.one_sided_s": "s",
    "kernels.two_sided_s": "s",
    "kernels.calls": "count",
    "kernels.rows": "count",
    "mc.estimate_s": "s",
    "mc.self_s": "s",
    "mc.chunks": "count",
    "mc.lanes": "count",
    "mc.busy_frac": "fraction",
    "mc.speedup": "ratio",
    "chunk.sample_s": "s",
    "chunk.cumsum_s": "s",
    "chunk.kernel_one_sided_s": "s",
    "chunk.kernel_two_sided_s": "s",
    "chunk.fsum_s": "s",
    "chunk.bytes": "bytes",
    "tracing_overhead_frac": "ratio",
}
PER_REQUEST_LAYERS = list(PER_LAYER_UNITS)[:15]
COUNTERS = ("boundary.evals", "expr.evals", "kernels.calls", "mc.chunks")


# Import bcp from this checkout's src/, never from an installed copy.
sys.path.insert(0, SRC)
try:
    import numpy as np
    import scipy

    import bcp
    import bcp.boundary
    import bcp.cli
    import bcp.expr
    import bcp.kernels
    import bcp.mc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import bcp from {SRC}: {exc}")
if not os.path.abspath(bcp.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: bcp imported from {bcp.__file__}, not from {SRC}")

import spans  # noqa: E402
from workloads import DANIELS, Workload, workloads  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level}-{kind}"] = size
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bcp": bcp.__version__,
    }


@contextlib.contextmanager
def bcp_threads(n: int):
    old = os.environ.get("BCP_THREADS")
    os.environ["BCP_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["BCP_THREADS"]
        else:
            os.environ["BCP_THREADS"] = old


# ---------------------------------------------------------------------------
# Requests


@dataclass
class Record:
    case: str
    mode: str  # warmup, plain, traced or one_thread
    request: int
    wall: float = math.nan
    estimate: tuple | None = None  # (mean, std_error, lower, upper)
    error: str | None = None
    calibration: float = math.nan  # calibration loop time right after the request
    layers: dict = field(default_factory=dict)

    @property
    def time_to_tol(self) -> float:
        _, se, lo, hi = self.estimate
        return self.wall * ((hi - lo + 2.0 * se) / TARGET_ERROR) ** 2


def gate(case, estimate) -> str | None:
    """None when the reference lies in [lo - z*se, hi + z*se] and lo <= hi."""
    _, se, lo, hi = estimate
    if not lo <= hi:
        return f"inner estimate {lo!r} above outer {hi!r}"
    z_se = GATE_Z * math.hypot(se, case.reference_se)
    if not lo - z_se <= case.reference <= hi + z_se:
        return (f"reference {case.reference} ({case.reference_kind}) outside "
                f"[{lo - z_se}, {hi + z_se}]")
    return None


def calibration_time() -> float:
    """Time of a fixed pure-Python loop, independent of bcp.

    Its median over a run tracks the host's speed during that run better
    than loops of small numpy calls did in trials on a shared 2-CPU host.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def case_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed]).generate_state(n)]


def run_one(parser, case, seed, mode, request_id, tracer=None) -> Record:
    rec = Record(case.name, mode, request_id)
    argv = list(case.argv) + ["--paths", str(case.paths), "--seed", str(seed)]
    try:
        if tracer is None:
            t0 = time.perf_counter()
            report = bcp.cli.run_request(parser.parse_args(argv))
            rec.wall = time.perf_counter() - t0
        else:
            tracer.request = request_id
            with tracer.span("request"):
                t0 = time.perf_counter()
                with tracer.span("cli.parse"):
                    args = parser.parse_args(argv)
                report = bcp.cli.run_request(args)
                rec.wall = time.perf_counter() - t0
        r = report.results
        rec.estimate = (r["mean"], r["std_error"], r["lower"], r["upper"])
        rec.error = gate(case, rec.estimate)
    except Exception:  # one failed request must not stop the run
        rec.error = traceback.format_exc()
    return rec


# ---------------------------------------------------------------------------
# Tracing


def tracing_patches(tracer):
    """Wrap bcp's layer entry points, as seen by their callers."""

    def kernel_attrs(attrs, args):
        band, x = args[0], args[1]
        one = band.lower.is_infinite or band.upper.is_infinite
        attrs["kind"] = "one_sided" if one else "two_sided"
        attrs["rows"] = int(np.shape(x)[0]) if np.ndim(x) == 2 else 1
        attrs["band"] = id(band)

    GB = bcp.boundary.GeneralBoundary
    BE = bcp.expr.BoundaryExpr
    return [
        (bcp.cli, "parse_boundary", tracer.wrap("expr.parse", bcp.cli.parse_boundary)),
        (bcp.cli, "reduce", tracer.wrap("transforms.reduce", bcp.cli.reduce)),
        (bcp.cli, "estimate_bcp_bracketed",
         tracer.wrap("mc.estimate", bcp.cli.estimate_bcp_bracketed)),
        (bcp.mc, "envelopes", tracer.wrap("boundary.envelopes", bcp.mc.envelopes)),
        (bcp.mc, "band_kernel",
         tracer.wrap("kernels.band_kernel", bcp.mc.band_kernel, kernel_attrs)),
        (GB, "__call__", tracer.counted("boundary.evals", GB.__call__)),
        (BE, "__call__", tracer.counted("expr.evals", BE.__call__)),
    ]


def layer_stats(tracer, request_id: int) -> dict:
    """Per-layer times and counts of one traced request."""
    mine = [s for s in tracer.spans if s.request == request_id]

    def total(name):
        return sum(s.duration for s in mine if s.name == name)

    kernels = [s for s in mine if s.name == "kernels.band_kernel"]
    estimates = [s for s in mine if s.name == "mc.estimate"]
    mc_self = sum(
        spans.self_time(e, [s for s in mine if s.parent == e.id]) for e in estimates
    )
    lanes = len({s.thread for s in kernels})
    bands = len({s.attrs["band"] for s in kernels})
    if kernels:
        phase = max(s.end for s in kernels) - min(s.start for s in kernels)
        busy = sum(s.duration for s in kernels) / (lanes * phase)
    else:
        busy = math.nan
    request = next(s for s in mine if s.name == "request")
    children = [s for s in mine if s.parent == request.id]
    return {
        "cli.parse_s": total("cli.parse"),
        "cli.self_s": spans.self_time(request, children) + total("cli.parse"),
        "expr.parse_s": total("expr.parse"),
        "transforms.reduce_s": total("transforms.reduce"),
        "boundary.envelopes_s": total("boundary.envelopes"),
        "boundary.evals": tracer.counts.get((request_id, "boundary.evals"), 0),
        "expr.evals": tracer.counts.get((request_id, "expr.evals"), 0),
        "kernels.one_sided_s": sum(s.duration for s in kernels
                                   if s.attrs["kind"] == "one_sided"),
        "kernels.two_sided_s": sum(s.duration for s in kernels
                                   if s.attrs["kind"] == "two_sided"),
        "kernels.calls": len(kernels),
        "kernels.rows": sum(s.attrs["rows"] for s in kernels),
        "mc.estimate_s": total("mc.estimate"),
        "mc.self_s": mc_self,
        "mc.chunks": len(kernels) // bands if bands else 0,
        "mc.lanes": lanes,
        "mc.busy_frac": busy,
    }


def chunk_layers(seed: int) -> dict:
    """Stage times of one 4096 x 128 chunk on one thread (median of repeats)."""
    p = bcp.boundary.uniform_partition(1.0, CHUNK_SHAPE[1])
    daniels = bcp.boundary.GeneralBoundary(
        bcp.expr.parse_boundary(DANIELS), "upper", 1.0)
    inner, _ = bcp.boundary.envelopes(daniels, p, 50)
    lower_inf = bcp.boundary.PiecewiseLinearBoundary.infinite(p, "lower")
    lower_one = bcp.boundary.PiecewiseLinearBoundary.from_values(
        p, "lower", np.full(p.n + 1, -1.0))
    one_sided = bcp.boundary.PiecewiseLinearBand(lower_inf, inner)
    two_sided = bcp.boundary.PiecewiseLinearBand(lower_one, inner)
    series = bcp.kernels.SeriesConfig()
    sqrt_dt = np.sqrt(p.dt)
    stages = {k: [] for k in ("sample", "cumsum", "kernel_one_sided",
                              "kernel_two_sided", "fsum")}
    for rep in range(CHUNK_REPEATS):
        t0 = time.perf_counter()
        z = bcp.mc._chunk_stream(seed, rep).standard_normal(CHUNK_SHAPE)
        t1 = time.perf_counter()
        x = np.cumsum(np.multiply(z, sqrt_dt), axis=1)
        t2 = time.perf_counter()
        g1, _ = bcp.kernels.band_kernel(one_sided, x, series)
        t3 = time.perf_counter()
        g2, _ = bcp.kernels.band_kernel(two_sided, x, series)
        t4 = time.perf_counter()
        sums = [(float(np.sum(g)), float(np.sum(g * g))) for g in (g1, g2)]
        math.fsum(s for pair in sums for s in pair)
        t5 = time.perf_counter()
        for name, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            stages[name].append(dt)
    out = {f"chunk.{k}_s": statistics.median(v) for k, v in stages.items()}
    # Computed, not measured: bytes of the chunk's normal draws and node values.
    out["chunk.bytes"] = float(z.nbytes + x.nbytes)
    return out


# ---------------------------------------------------------------------------
# Metrics


def by_case(records, value) -> float:
    """Mean over cases of the per-case median, so the case mix is fixed."""
    groups = {}
    for r in records:
        groups.setdefault(r.case, []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def host_speed(records) -> float:
    """Reference calibration time over the median one measured after records."""
    return CALIBRATION_REF_S / statistics.median(r.calibration for r in records)


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def setup_time() -> float:
    """Median cold start of a fresh interpreter until the CLI parser is built."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "import bcp.cli; bcp.cli.build_parser()")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_repeats(records, key, what) -> None:
    """Mark every record whose `key` differs from its case's first record."""
    first = {}
    for r in records:
        if r.error is not None:
            continue
        value = key(r)
        ref = first.setdefault(r.case, (value, r.mode))
        if value != ref[0]:
            r.error = (f"{what} differ from the {ref[1]} request of the same case: "
                       f"{value!r} != {ref[0]!r}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    lanes = nproc()
    parser = bcp.cli.build_parser()
    seeds = dict(zip((c.name for c in w.cases), case_seeds(seed, len(w.cases))))
    records: list[Record] = []
    tracer = spans.Tracer() if trace else None
    ids = itertools.count(1)

    def one_pass(mode, threads, traced=False):
        with bcp_threads(threads):
            for case in w.cases:
                if traced:
                    with spans.patched(tracing_patches(tracer)):
                        rec = run_one(parser, case, seeds[case.name], mode, next(ids), tracer)
                    if rec.error is None:
                        rec.layers = layer_stats(tracer, rec.request)
                else:
                    rec = run_one(parser, case, seeds[case.name], mode, next(ids))
                rec.calibration = calibration_time()
                records.append(rec)

    # The warm-up pass runs on one thread: it fills lazy caches, and its
    # estimates are the reference for the thread-count invariance check.
    one_pass("warmup", 1)
    cycle = [("plain", lanes, False)]
    if trace:
        cycle += [("traced", lanes, True), ("one_thread", 1, False)]
    # Whole cycles keep the case mix fixed; stop when the next cycle would
    # end nearer to the deadline overshot than undershot.
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        for mode in cycle:
            one_pass(*mode)
        now = time.perf_counter()
        if now + (now - t0) / 2 >= deadline:
            break

    check_repeats(records, lambda r: r.estimate, "estimates")
    if trace:
        traced = [r for r in records if r.mode == "traced"]
        check_repeats(traced, lambda r: {k: r.layers.get(k) for k in COUNTERS}, "counts")
    for r in records:
        if r.error is not None:
            print(f"{w.name}: request {r.request} ({r.case}, {r.mode}) failed: {r.error}",
                  file=sys.stderr)

    failed = sum(r.error is not None for r in records)
    plain = [r for r in records if r.mode == "plain" and r.error is None]
    summary = {
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "samples": len(plain),
    }
    if not plain:
        return summary, None, tracer, records
    wall = by_case(plain, lambda r: r.wall)
    summary["wall_s"] = wall
    summary["time_to_tol_s"] = by_case(plain, lambda r: r.time_to_tol)
    summary["calibration_s"] = statistics.median(r.calibration for r in plain)
    speed = host_speed(plain)
    wall_ref = summary["wall_ref_s"] = wall * speed
    summary["time_to_tol_ref_s"] = summary["time_to_tol_s"] * speed
    pct = high_percentile([r.wall for r in plain])
    if pct is not None:
        summary[f"wall_s_p{pct[0]}"] = pct[1]
        summary[f"wall_ref_s_p{pct[0]}"] = pct[1] * speed
    if not trace:
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return summary, None, tracer, records

    traced = [r for r in records if r.mode == "traced" and r.error is None]
    single = [r for r in records if r.mode == "one_thread" and r.error is None]
    if not traced or not single:
        return summary, None, tracer, records
    layers = {k: by_case(traced, lambda r, k=k: r.layers[k]) for k in PER_REQUEST_LAYERS}
    # Each pass is scaled by its own calibrations, so that a host speed
    # change between passes does not show as speed-up or overhead.
    traced_wall = by_case(traced, lambda r: r.wall)
    single_wall = by_case(single, lambda r: r.wall)
    layers["mc.speedup"] = single_wall * host_speed(single) / wall_ref
    layers.update(chunk_layers(seed))
    layers["tracing_overhead_frac"] = traced_wall * host_speed(traced) / wall_ref - 1.0
    summary["design"] = design_checks(w.name, traced, traced_wall)
    return summary, layers, tracer, records


def design_checks(name: str, traced, traced_wall: float) -> dict:
    """Where the traced run says the time goes, against what the workload expects."""
    layer_self = {
        "cli": by_case(traced, lambda r: r.layers["cli.self_s"]),
        "expr": by_case(traced, lambda r: r.layers["expr.parse_s"]),
        "transforms": by_case(traced, lambda r: r.layers["transforms.reduce_s"]),
        "boundary.envelopes": by_case(traced, lambda r: r.layers["boundary.envelopes_s"]),
        "mc": by_case(traced, lambda r: r.layers["mc.self_s"]),
        "kernels.one_sided": by_case(traced, lambda r: r.layers["kernels.one_sided_s"]),
        "kernels.two_sided": by_case(traced, lambda r: r.layers["kernels.two_sided_s"]),
    }
    largest = max(layer_self, key=layer_self.get)
    # Estimate time outside envelopes is the mc self time plus the wall
    # time covered by kernel spans.
    mc_kernel = by_case(traced, lambda r: r.layers["mc.estimate_s"]
                        - r.layers["boundary.envelopes_s"]) / traced_wall
    expected = {
        "paper7": ("mc + kernels share of wall > 0.5", mc_kernel > 0.5),
        "two_sided": ("largest self time is kernels.two_sided",
                      largest == "kernels.two_sided"),
        "ou_td": ("largest self time is boundary.envelopes",
                  largest == "boundary.envelopes"),
    }[name]
    return {"self_s": layer_self, "largest": largest, "mc_kernel_share": mc_kernel,
            "expectation": expected[0], "holds": expected[1]}


# ---------------------------------------------------------------------------
# Output


# End-to-end metrics of BENCHMARK.json; the raw wall_s and time_to_tol_s are
# printed too, but drift with the host's speed too much to be gated.
E2E_UNITS = {"wall_ref_s": "s", "time_to_tol_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"wall_s": "s", "time_to_tol_s": "s", **E2E_UNITS, "calibration_s": "s"}

NOTES = {
    "wall_s": "one request, parse to bracketed estimate; median per case, "
              "averaged over the workload's cases",
    "time_to_tol_s": f"extrapolated: wall_s * ((bracket width + 2 SE) / {TARGET_ERROR})^2 "
                     "per request, assuming SE ~ paths^-1/2; median per case, "
                     "averaged over cases",
    "wall_ref_s": f"wall_s * {CALIBRATION_REF_S} s / calibration_s: wall_s on a host "
                  "where the calibration loop takes the reference time",
    "time_to_tol_ref_s": "time_to_tol_s scaled like wall_ref_s",
    "calibration_s": f"a fixed pure-Python loop, timed after every "
                     f"request; median; the reference host takes {CALIBRATION_REF_S} s",
    "setup_s": f"fresh interpreter until bcp.cli is imported and the parser is "
               f"built; median of {SETUP_REPEATS}",
    "peak_rss_mb": "peak resident memory of this process so far",
    "chunk.bytes": "computed from array sizes, not measured",
    "mc.speedup": "BCP_THREADS=1 wall_ref over BCP_THREADS=nproc wall_ref",
    "tracing_overhead_frac": "traced wall_ref over untraced wall_ref, minus 1",
    "kernels.one_sided_s": "summed over worker threads",
    "kernels.two_sided_s": "summed over worker threads",
}


def report_lines(w: Workload, summary: dict, layers: dict | None):
    yield (f"{w.name}: {summary['attempted']} requests attempted, "
           f"{summary['failed']} failed, failed_frac = {summary['failed_frac']:.6g}, "
           f"{summary['samples']} timed untraced samples")
    for key, value in summary.items():
        if key.startswith(("wall_s_p", "wall_ref_s_p")):
            yield f"{w.name}: {key} = {value:.6g} s (all cases pooled)"
        elif key in PRINTED_UNITS:
            note = f"  ({NOTES[key]})" if key in NOTES else ""
            yield f"{w.name}: {key} = {value:.6g} {PRINTED_UNITS[key]}{note}"
    for key, value in (layers or {}).items():
        note = f"  ({NOTES[key]})" if key in NOTES else ""
        yield f"{w.name}: {key} = {value:.6g} {PER_LAYER_UNITS[key]}{note}"
    if "design" in summary:
        d = summary["design"]
        yield (f"{w.name}: design check '{d['expectation']}': "
               f"{'holds' if d['holds'] else 'DOES NOT HOLD'} "
               f"(largest self time: {d['largest']}, mc+kernels share "
               f"{d['mc_kernel_share']:.3f})")


def metric_entries(summary: dict, layers: dict | None, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    return {k: {"value": summary[k], "unit": u} for k, u in E2E_UNITS.items()}


def main(argv=None) -> int:
    all_workloads = workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*all_workloads, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    names = list(all_workloads) if args.workload == "all" else [args.workload]

    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"seed {args.seed}, BCP_THREADS={info['nproc']}, {args.seconds:g} s per "
          f"workload, trace={args.trace}")
    setup = None if trace else setup_time()
    attempted = failed = 0
    metrics = {}
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        w = all_workloads[name]
        print(f"{name}: {w.why}; stresses {w.stresses}", flush=True)
        summary, layers, tracer, records = run_workload(w, args.seed, args.seconds, trace)
        attempted += summary["attempted"]
        failed += summary["failed"]
        if summary["samples"] == 0 or (trace and layers is None):
            continue
        if setup is not None:
            summary["setup_s"] = setup
        for line in report_lines(w, summary, layers):
            print(line, flush=True)
        entries = metric_entries(summary, layers, trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in entries.items()})
        result = {
            "workload": {"name": name, "why": w.why, "stresses": w.stresses,
                         "cases": [c.__dict__ for c in w.cases]},
            "seed": args.seed,
            "bcp_threads": info["nproc"],
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": info,
            "summary": summary,
            "metrics": entries,
            "notes": NOTES,
            "requests": [r.__dict__ for r in records],
        }
        if tracer is not None:
            result["spans"] = [s.to_dict() for s in tracer.spans]
            result["counts"] = [{"request": req, "name": k, "count": v}
                                for (req, k), v in tracer.counts.items()]
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=str)
    correct = failed == 0 and attempted > 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
