"""Command-line front end.

Subcommands: bm, ou, ou-td, growth, gbm, reproduce.  Boundaries and
time-dependent coefficients are given as expressions in t (see expr.py);
output is JSON (default), CSV, or plot-data samples of the original and
transformed boundaries.

Exit codes: 0 success, 2 argument/parse error or an output file that
cannot be written, 3 numeric failure, 4 invalid boundary or band.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .boundary import GeneralBoundary, uniform_partition
from .errors import (
    BcpError,
    EvaluationError,
    ExprSyntaxError,
    InvalidBoundariesError,
    InvalidDomainError,
    NumericFailureError,
)
from .expr import parse_boundary
from .mc import McConfig, estimate_bcp_bracketed
from .transforms import GBMSpec, GrowthSpec, OUSpec, TimeVaryingOUSpec, reduce

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BAND = 4


@dataclass(frozen=True)
class RunReport:
    request: dict
    results: dict
    timing_ms: float
    version: str
    curves: dict | None = None  # t/value samples for plot-data output

    def to_dict(self) -> dict:
        return {
            "request": self.request,
            "results": self.results,
            "timing_ms": self.timing_ms,
            "version": self.version,
        }


_CSV_FIELDS = [
    "process",
    "lower",
    "upper",
    "T",
    "n",
    "paths",
    "seed",
    "envelope_samples",
    "mean",
    "std_error",
    "bracket_lower",
    "bracket_upper",
    "bracket_width",
    "timing_ms",
    "version",
]


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Serialize a report; field order is fixed per format."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    if fmt == "csv":
        r = report.results
        row = {
            **report.request,
            "mean": r["mean"],
            "std_error": r["std_error"],
            "bracket_lower": r["lower"],
            "bracket_upper": r["upper"],
            "bracket_width": r["bracket_width"],
            "timing_ms": report.timing_ms,
            "version": report.version,
        }
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "plot-data":
        lines = []
        for name, (ts, vs) in (report.curves or {}).items():
            lines.append(f"# {name}")
            lines.append("t,value")
            for t, v in zip(ts, vs):
                lines.append(f"{t!r},{v!r}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown output format {fmt!r}")


def _boundary_from_text(text: str, side: str, T: float) -> GeneralBoundary | None:
    """The boundary `text` describes, or None for the infinity that means no side."""
    expr = parse_boundary(text)
    if expr.is_constant_inf:  # the wrong-side infinity raises here
        gb = GeneralBoundary.constant(expr(0.0), side, T)
        return gb if gb.finite else None
    return GeneralBoundary(expr, side, T)


def _curve_samples(gb: GeneralBoundary | None, T: float, points: int = 129):
    if gb is None or not gb.finite:
        return None
    ts = np.linspace(0.0, T, points)
    return ts.tolist(), gb(ts).tolist()


_EXPR_FLAGS = ("--lower", "--upper", "--kappa-fn", "--alpha-fn", "--sigma-fn", "--rate")


class _ArgumentParser(argparse.ArgumentParser):
    """Joins each expression flag to the argument after it (FLAG=EXPR)
    before parsing: argparse would take an expression that starts with "-",
    and is not a plain number, for an option."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _EXPR_FLAGS:
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lower", help="lower boundary expression in t", default="-inf")
    p.add_argument("--upper", help="upper boundary expression in t", default="inf")
    p.add_argument("--T", type=float, required=True, help="time horizon")
    p.add_argument("--n", type=int, default=128, help="partition subintervals")
    p.add_argument("--paths", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True, help="RNG seed (no silent entropy)")
    p.add_argument("--envelope-samples", type=int, default=50)
    p.add_argument("--chunk-size", type=int, default=4_096)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--format", choices=["json", "csv", "plot-data"], default="json")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")


def _ou_spec(args: argparse.Namespace) -> OUSpec:
    if not 0 < args.sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {args.sigma2}")
    return OUSpec(x0=args.x0, kappa=args.kappa, alpha=args.alpha, sigma=math.sqrt(args.sigma2))


def _gbm_spec(args: argparse.Namespace) -> GBMSpec:
    try:
        rate = float(args.rate)
    except ValueError:
        rate = parse_boundary(args.rate)
    return GBMSpec(x0=args.x0, sigma=args.sigma, rate=rate)


# One entry per process subcommand: its help, its own required flags as
# (flag, help), and the spec built from the parsed arguments (None is
# Brownian motion).  A flag in _EXPR_FLAGS takes an expression, any other a float.
_FAMILIES = {
    "bm": ("standard Brownian motion", (), lambda args: None),
    "ou": ("mean-reverting process, constant coefficients",
           (("--kappa", None), ("--alpha", None), ("--sigma2", "diffusion variance"),
            ("--x0", None)),
           _ou_spec),
    "ou-td": ("mean reversion with t-dependent coefficients",
              (("--kappa-fn", "kappa expression in t"), ("--alpha-fn", "alpha expression in t"),
               ("--sigma-fn", "sigma expression in t"), ("--x0", None)),
              lambda args: TimeVaryingOUSpec(
                  x0=args.x0, kappa=parse_boundary(args.kappa_fn),
                  alpha=parse_boundary(args.alpha_fn), sigma=parse_boundary(args.sigma_fn))),
    "growth": ("Gompertz-type growth process",
               (("--alpha", None), ("--beta", None), ("--sigma", None), ("--x0", None)),
               lambda args: GrowthSpec(x0=args.x0, alpha=args.alpha, beta=args.beta,
                                       sigma=args.sigma)),
    "gbm": ("geometric Brownian motion",
            (("--sigma", None), ("--rate", "rate expression in t, or a number"), ("--x0", None)),
            _gbm_spec),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bcp",
        description="Boundary crossing probabilities for Brownian motion "
        "and reducible diffusions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in _FAMILIES.items():
        p = sub.add_parser(command, help=help_text)
        _common_flags(p)
        for flag, flag_help in flags:
            kind = {} if flag in _EXPR_FLAGS else {"type": float}
            p.add_argument(flag, help=flag_help, required=True, **kind)

    p_rep = sub.add_parser("reproduce", help="rerun the published benchmark table")
    p_rep.add_argument("table", choices=["paper7"])
    p_rep.add_argument("--paths", type=int, default=1_000_000)
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--format", choices=["json", "table"], default="table")
    return parser


def run_request(args: argparse.Namespace) -> RunReport:
    start = time.perf_counter()
    a = _boundary_from_text(args.lower, "lower", args.T)
    b = _boundary_from_text(args.upper, "upper", args.T)
    if a is None and b is None:
        raise InvalidBoundariesError(
            "upper boundary must be finite or the problem is trivial "
            "(P=1 when both boundaries are infinite)"
        )
    reduced = reduce(_FAMILIES[args.command][2](args), a, b, args.T)

    p = uniform_partition(reduced.horizon, args.n)
    cfg = McConfig(
        paths=args.paths,
        seed=args.seed,
        chunk_size=args.chunk_size,
        antithetic=args.antithetic,
    )
    est = estimate_bcp_bracketed(reduced.lower, reduced.upper, p, args.envelope_samples, cfg)

    elapsed_ms = (time.perf_counter() - start) * 1e3
    request = {"process": args.command, **vars(args)}
    for name in ("command", "format", "output"):
        del request[name]
    results = {
        "mean": est.mean,
        "std_error": est.std_error,
        "lower": est.bracket[0],
        "upper": est.bracket[1],
        "bracket_width": est.bracket_width,
    }
    curves = None
    if args.format == "plot-data":
        curves = {}
        for name, gb, T in (
            ("original_lower", a, args.T),
            ("original_upper", b, args.T),
            ("transformed_lower", reduced.lower, reduced.horizon),
            ("transformed_upper", reduced.upper, reduced.horizon),
        ):
            s = _curve_samples(gb, T)
            if s:
                curves[name] = s
    return RunReport(
        request=request,
        results=results,
        timing_ms=elapsed_ms,
        version=__version__,
        curves=curves,
    )


# The four published benchmark runs: process, argument vector.
_PAPER7_CASES = [
    (
        "mean-reverting, constant barrier",
        ["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0",
         "--upper", "1", "--T", "1"],
        0.721463,
    ),
    (
        "growth, constant barrier",
        ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1",
         "--upper", "exp(1)", "--T", "1"],
        0.721463,
    ),
    (
        "geometric BM, knock-in barrier",
        ["gbm", "--sigma", "0.1", "--rate", "0.1+0.05*exp(-t)", "--x0", "10",
         "--upper", "12", "--T", "1"],
        0.603728,
    ),
    (
        "Brownian motion, Daniels barrier",
        ["bm", "--upper", "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))", "--T", "1"],
        0.520251,
    ),
]


def run_reproduce(args: argparse.Namespace, out) -> int:
    parser = build_parser()
    rows = []
    for label, argv, reference in _PAPER7_CASES:
        sub_args = parser.parse_args(
            argv + ["--n", "128", "--paths", str(args.paths), "--seed", str(args.seed)]
        )
        report = run_request(sub_args)
        rows.append((label, report, reference))
    if args.format == "json":
        payload = [
            {"case": label, "reference": ref, **report.to_dict()}
            for label, report, ref in rows
        ]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(
            f"{'case':<36}{'lower':>10}{'upper':>10}{'mean':>10}"
            f"{'std_err':>10}{'reference':>11}\n"
        )
        for label, report, ref in rows:
            r = report.results
            out.write(
                f"{label:<36}{r['lower']:>10.6f}{r['upper']:>10.6f}"
                f"{r['mean']:>10.6f}{r['std_error']:>10.6f}{ref:>11.6f}\n"
            )
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "reproduce":
            return run_reproduce(args, sys.stdout)
        report = run_request(args)
        payload = emit(report, args.format)
        if args.output == "-":
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            try:
                with open(args.output, "wb") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"bcp: cannot write output: {exc}", file=sys.stderr)
                return EXIT_USAGE
        return EXIT_OK
    except ExprSyntaxError as exc:
        print(f"bcp: boundary expression error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"bcp: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailureError as exc:
        print(f"bcp: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidBoundariesError, EvaluationError, InvalidDomainError) as exc:
        print(f"bcp: invalid boundary: {exc}", file=sys.stderr)
        return EXIT_BAND
    except BcpError as exc:  # any remaining domain error
        print(f"bcp: error: {exc}", file=sys.stderr)
        return EXIT_BAND


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
