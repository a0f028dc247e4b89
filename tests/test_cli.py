import argparse
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

import bcp.cli
from bcp import BcpError
from bcp.cli import (
    EXIT_BAND,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _CSV_FIELDS,
    _EXPR_FLAGS,
    _FAMILIES,
    build_parser,
    emit,
    run,
    run_request,
)
from test_mc import refuse_quadrature

FAST = ["--paths", "2000", "--seed", "3", "--n", "16"]
DANIELS = "0.5 - t*log(0.25+0.25*sqrt(1+8*exp(-1/t)))"


FAMILY_ARGV = {
    "bm": ["bm"],
    "ou": ["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0"],
    "ou-td": ["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0"],
    "growth": ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1"],
    "gbm": ["gbm", "--sigma", "0.1", "--rate", "0.1", "--x0", "1"],
}


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonOutput:
    def test_bm_schema(self, capsys):
        code, out, _ = run_capture(["bm", "--upper", "1", "--T", "1"] + FAST, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"request", "results", "timing_ms", "version"}
        assert set(doc["results"]) >= {
            "mean",
            "std_error",
            "lower",
            "upper",
            "bracket_width",
        }
        assert 0.0 <= doc["results"]["mean"] <= 1.0
        assert doc["request"]["process"] == "bm"
        assert doc["request"]["seed"] == 3

    def test_deterministic_apart_from_timing(self, capsys):
        argv = ["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0",
                "--upper", "1", "--T", "1"] + FAST
        _, out1, _ = run_capture(argv, capsys)
        _, out2, _ = run_capture(argv, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing_ms"), d2.pop("timing_ms")
        assert d1 == d2

    def test_narrow_band_long_horizon(self, capsys):
        # The bridge stays within +-0.01 over T=10 with probability below
        # 1e-40; a fixed cap on the series terms once gave 0.0018 here.
        argv = ["bm", "--n", "1", "--lower=-0.01", "--upper", "0.01", "--T", "10",
                "--paths", "4096", "--seed", "1"]
        code, out, _ = run_capture(argv, capsys)
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["mean"] < 1e-9
        assert "series_cap_hit" not in results

    @pytest.mark.parametrize("family", sorted(FAMILY_ARGV))
    def test_request_echoes_every_parsed_setting(self, family, capsys):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[family]
        dests = [a.dest for a in sub._actions if a.dest not in ("help", "format", "output")]
        code, out, _ = run_capture(FAMILY_ARGV[family] + ["--upper", "2", "--T", "1"] + FAST,
                                   capsys)
        assert code == EXIT_OK
        request = json.loads(out)["request"]
        assert list(request) == ["process"] + dests
        assert request["process"] == family and request["n"] == 16

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_capture(
            ["bm", "--upper", "2", "--T", "1", "--output", str(target)] + FAST, capsys
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(target.read_text())
        assert doc["request"]["upper"] == "2"

    def test_unwritable_output_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_capture(
            ["bm", "--upper", "1", "--T", "1", "--output", str(target)] + FAST, capsys
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("bcp: cannot write output: ")
        assert not target.exists()

    def test_unknown_format(self):
        report = run_request(build_parser().parse_args(["bm", "--upper", "1", "--T", "1"] + FAST))
        with pytest.raises(ValueError, match="unknown output format 'xml'"):
            emit(report, "xml")


class TestCsvOutput:
    def test_header_field_order(self, capsys):
        code, out, _ = run_capture(
            ["bm", "--upper", "1", "--T", "1", "--format", "csv"] + FAST, capsys
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _CSV_FIELDS
        assert len(rows) == 2
        record = dict(zip(rows[0], rows[1]))
        assert 0.0 <= float(record["mean"]) <= 1.0
        assert record["seed"] == "3"


    def test_row_carries_request_settings(self, capsys):
        code, out, _ = run_capture(
            ["bm", "--upper", "1", "--T", "1", "--format", "csv", "--paths", "2000",
             "--seed", "3", "--n", "16", "--envelope-samples", "30"], capsys
        )
        assert code == EXIT_OK
        header, row = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, row))
        assert record["n"] == "16" and record["envelope_samples"] == "30"
        assert "series_terms" not in header


class TestPlotData:
    def test_curves_only_for_plot_data(self):
        from bcp.cli import build_parser, run_request

        argv = ["bm", "--upper", "1", "--T", "1"] + FAST
        assert run_request(build_parser().parse_args(argv)).curves is None

    def test_curves_for_transformed_barrier(self, capsys):
        argv = ["gbm", "--sigma", "0.1", "--rate", "0.1+0.05*exp(-t)", "--x0", "10",
                "--upper", "12", "--T", "1", "--format", "plot-data"] + FAST
        code, out, _ = run_capture(argv, capsys)
        assert code == EXIT_OK
        assert "# original_upper" in out and "# transformed_upper" in out
        section = out.split("# transformed_upper")[1].splitlines()
        first = section[2]  # skip the header line
        t0, v0 = (float(x) for x in first.split(","))
        assert t0 == 0.0
        assert v0 == pytest.approx(10.0 * math.log(1.2), abs=1e-9)


class TestExitCodes:
    def test_both_boundaries_infinite(self, capsys):
        code, _, err = run_capture(["bm", "--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND
        assert "infinite" in err

    @pytest.mark.parametrize("h, expected", [("1e-6", EXIT_OK), ("1e-8", EXIT_OK),
                                             ("1e-300", EXIT_NUMERIC)])
    def test_narrow_two_sided_band(self, h, expected, capsys):
        # +-1e-6 once ran a million series terms over blocks with no path
        # inside; at +-1e-300 the term count is not a float64 integer.
        argv = ["bm", f"--lower=-{h}", "--upper", h, "--T", "1", "--n", "4",
                "--paths", "2000", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(argv, capsys)
        assert code == expected
        if expected == EXIT_OK:
            assert json.loads(out)["results"]["mean"] == 0.0
        else:
            assert "series terms" in err

    @pytest.mark.parametrize("h, n, result", [
        ("1e-4", "4", 0.0), ("1e-6", "4", 0.0), ("1e-8", "4", 0.0), ("1e-16", "128", 0.0),
        ("1e160", "128", 1.0)])
    def test_extreme_band_keeps_result_with_chord_control(self, h, n, result, capsys,
                                                           monkeypatch):
        # The chords' one-interval band needs about 2.7e8 series terms at
        # +-1e-8 and more than MAX_TERMS at +-1e-16; every path leaves the
        # narrow bands and stays in the wide one, so the plain SE is 0 and
        # the quadrature never runs.
        refuse_quadrature(monkeypatch)
        argv = ["bm", f"--lower=-{h}", "--upper", h, "--T", "1", "--n", n,
                "--paths", "2000", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        r = json.loads(out)["results"]
        assert (r["mean"], r["std_error"], r["lower"], r["upper"]) == (result, 0.0, result, result)

    @pytest.mark.parametrize("h", ["1e140", "1e160", "1e300"])
    def test_very_wide_two_sided_band(self, h, capsys):
        # From about +-1e137 the term cap check overflowed (a RuntimeWarning),
        # and from about +-1e154 the widths' product was inf and a series
        # term NaN, so the mean was not a probability (exit 2).
        argv = ["bm", f"--lower=-{h}", "--upper", h, "--T", "1",
                "--paths", "2000", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["results"]["mean"] == 1.0

    def test_upper_inf_literal(self, capsys):
        code, _, _ = run_capture(["bm", "--upper", "inf", "--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND

    @pytest.mark.parametrize("upper, message", [
        ("1/t", "upper boundary evaluated to inf at t=0.0"),
        ("1/(t-0.5)", "upper boundary evaluated to inf at t=0.5")], ids=["at_start", "inside"])
    def test_infinite_boundary_value(self, upper, message, capsys):
        # These once exited 4 with "finite and infinite segments cannot mix
        # in one boundary", naming neither the value nor the time.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_capture(
                ["bm", "--upper", upper, "--T", "1", "--paths", "100", "--seed", "1"], capsys)
        assert code == EXIT_BAND
        assert message in err

    def test_expression_syntax_error(self, capsys):
        code, _, err = run_capture(["bm", "--upper", "1+*2", "--T", "1"] + FAST, capsys)
        assert code == EXIT_USAGE
        assert "expression" in err

    def test_start_outside_band(self, capsys):
        code, _, _ = run_capture(["bm", "--upper", "-1", "--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND

    @pytest.mark.parametrize(
        "argv", [["bm", "--upper", "-1"], ["bm", "--lower", "0.5", "--upper", "1"]],
        ids=["upper_below_start", "lower_above_start"],
    )
    def test_exact_band_excludes_start(self, argv, capsys):
        code, _, err = run_capture(argv + ["--T", "1", "--paths", "4096", "--seed", "1"], capsys)
        assert code == EXIT_BAND
        assert "start point 0 not strictly inside" in err

    @pytest.mark.parametrize(
        "argv", [["bm", "--upper=-0.0001+sqrt(t)"],
                 ["bm", "--lower", "0.0001-sqrt(t)", "--upper", "1"]],
        ids=["upper_below_start", "lower_above_start"],
    )
    def test_curved_side_excludes_start(self, argv, capsys):
        # The outer envelope holds 0 at t = 0; the reduced band does not.
        code, _, err = run_capture(argv + ["--T", "1", "--paths", "4096", "--seed", "1"], capsys)
        assert code == EXIT_BAND
        assert "start point 0 not strictly inside" in err

    @pytest.mark.parametrize("T", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["bm"],
         ["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0"],
         ["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0"],
         ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1"],
         ["gbm", "--sigma", "0.1", "--rate", "0.1", "--x0", "1"]],
        ids=["bm", "ou", "ou_td", "growth", "gbm"],
    )
    def test_nonpositive_horizon(self, argv, T, capsys):
        code, _, err = run_capture(argv + ["--upper", "2", "--T", T] + FAST, capsys)
        assert code == EXIT_USAGE
        assert f"horizon must be positive, got {float(T)}" in err

    @pytest.mark.parametrize("family", sorted(FAMILY_ARGV))
    def test_infinite_horizon(self, family, capsys):
        # bm, ou and gbm once said "partition must start at t=0".
        code, _, err = run_capture(FAMILY_ARGV[family] + ["--upper", "2", "--T", "inf"] + FAST,
                                   capsys)
        assert code == EXIT_USAGE
        assert "horizon must be positive and finite, got inf" in err

    @pytest.mark.parametrize(
        "argv",
        [["ou", "--kappa", "400", "--alpha", "0", "--sigma2", "1", "--x0", "0", "--upper", "1"],
         ["growth", "--alpha", "0.5", "--beta", "400", "--sigma", "1", "--x0", "1",
          "--upper", "3"],
         ["ou-td", "--kappa-fn", "400", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0",
          "--upper", "1"]],
        ids=["ou", "growth", "ou_td"],
    )
    def test_overflowing_time_change(self, argv, capsys):
        # ou and growth once raised OverflowError from math.expm1 (exit 1).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_capture(argv + ["--T", "1", "--paths", "100", "--seed", "1"],
                                       capsys)
        assert code == EXIT_NUMERIC
        assert "is not finite" in err

    @pytest.mark.parametrize(
        "family, flag, value, message",
        [("ou", "--alpha", "inf", "alpha must be finite, got inf"),
         ("ou", "--x0", "nan", "x0 must be finite, got nan"),
         ("ou", "--kappa", "inf", "kappa must be positive and finite, got inf"),
         ("ou", "--sigma2", "-1", "sigma2 must be positive and finite, got -1.0"),
         ("ou", "--sigma2", "inf", "sigma2 must be positive and finite, got inf"),
         ("ou-td", "--x0", "nan", "x0 must be finite, got nan"),
         ("growth", "--alpha", "inf", "alpha must be positive and finite, got inf"),
         ("growth", "--x0", "nan", "x0 must be positive and finite, got nan"),
         ("gbm", "--sigma", "inf", "sigma must be positive and finite, got inf"),
         ("gbm", "--rate", "nan", "rate must be finite, got nan"),
         ("gbm", "--rate", "inf", "rate must be finite, got inf")],
    )
    def test_non_finite_process_parameter(self, family, flag, value, message, capsys):
        # ou --alpha inf once exited 4 after a RuntimeWarning, and ou --x0 nan
        # exited 4 with "boundary evaluated to NaN at t=0.0".
        argv = list(FAMILY_ARGV[family])
        argv[argv.index(flag) + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_capture(argv + ["--upper", "2", "--T", "1"] + FAST, capsys)
        assert code == EXIT_USAGE
        assert message in err

    def test_series_terms_flag_removed(self, capsys):
        code, _, err = run_capture(["bm", "--upper", "1", "--T", "1", "--paths", "100",
                                    "--seed", "1", "--series-terms", "2"], capsys)
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --series-terms 2" in err

    def test_seed_outside_64_bits(self, capsys):
        code, _, err = run_capture(
            ["bm", "--upper", "1", "--T", "1", "--paths", "4096", "--seed", "-1"], capsys
        )
        assert code == EXIT_USAGE
        assert "seed must be in [0, 2**64)" in err

    def test_crossed_boundaries(self, capsys):
        code, _, _ = run_capture(
            ["gbm", "--sigma", "0.2", "--rate", "0", "--x0", "1",
             "--upper", "-2", "--T", "1"] + FAST,
            capsys,
        )
        assert code == EXIT_BAND

    @pytest.mark.parametrize(
        "argv",
        [["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1",
          "--lower", "0.2*t", "--upper", "exp(1)"],
         ["gbm", "--sigma", "0.1", "--rate", "0.1", "--x0", "10", "--lower", "2*t",
          "--upper", "12"]],
        ids=["growth", "gbm"],
    )
    def test_lower_zero_only_at_start(self, argv, capsys):
        # The log map sends the lower boundary to -inf at t = 0 only; no
        # envelope can follow that.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_capture(argv + ["--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND
        assert "identically 0" in err

    @pytest.mark.parametrize(
        "argv",
        [["gbm", "--sigma", "0.1", "--rate", "0.1", "--x0", "10", "--lower", "-1",
          "--upper", "12"],
         ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1",
          "--lower=-0.5", "--upper", "exp(1)"]],
        ids=["gbm", "growth"],
    )
    def test_negative_lower_side(self, argv, capsys):
        # The log map needs a lower side of at least 0.
        code, _, err = run_capture(argv + ["--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND
        assert "lower boundary cannot be negative" in err

    def test_rate_beyond_chebyshev_piece_limit(self, capsys):
        argv = ["gbm", "--sigma", "0.1", "--rate", "sin(100000*t)", "--x0", "10",
                "--upper", "12", "--T", "1", "--paths", "512", "--seed", "1"]
        code, _, err = run_capture(argv, capsys)
        assert code == EXIT_NUMERIC
        assert "the rate needs more than 1024 Chebyshev pieces" in err

    def test_other_domain_error(self, monkeypatch, capsys):
        def fail(args):
            raise BcpError("no such thing")

        monkeypatch.setattr(bcp.cli, "run_request", fail)
        code, _, err = run_capture(["bm", "--upper", "1", "--T", "1"] + FAST, capsys)
        assert code == EXIT_BAND
        assert err == "bcp: error: no such thing\n"

    def test_bcp_threads_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("BCP_THREADS", "abc")
        code, _, err = run_capture(["bm", "--upper", "1", "--T", "1"] + FAST, capsys)
        assert code == EXIT_USAGE
        assert "BCP_THREADS must be an integer" in err

    @pytest.mark.parametrize("flag, message", [("--upper=-inf", "upper boundary cannot be -inf"),
                                               ("--lower=inf", "lower boundary cannot be +inf")])
    def test_wrong_side_infinity(self, flag, message, capsys):
        code, _, err = run_capture(["bm", "--upper", "1", "--T", "1", flag] + FAST, capsys)
        assert code == EXIT_BAND
        assert message in err

    def test_missing_required_flag(self, capsys):
        # argparse exits with status 2 on its own.
        code, _, _ = run_capture(["bm", "--upper", "1"] + FAST, capsys)
        assert code == EXIT_USAGE

    def test_bad_numeric_argument(self, capsys):
        code, _, _ = run_capture(
            ["ou", "--kappa", "-1", "--alpha", "0", "--sigma2", "1", "--x0", "0",
             "--upper", "1", "--T", "1"] + FAST,
            capsys,
        )
        assert code == EXIT_USAGE


class TestSubcommands:
    def test_ou_td(self, capsys):
        argv = ["ou-td", "--kappa-fn", "1+0.5*t", "--alpha-fn", "0.1",
                "--sigma-fn", "0.5", "--x0", "0", "--upper", "0.8", "--T", "1"] + FAST
        code, out, _ = run_capture(argv, capsys)
        assert code == EXIT_OK
        assert 0.0 < json.loads(out)["results"]["mean"] < 1.0

    @pytest.mark.parametrize(
        "sigma,where",
        [("1-2*t", "sigma(0.5) = 0"), ("sqrt(t-0.5)", "sigma(0) = nan")],
        ids=["reaches_zero", "nan"],
    )
    def test_ou_td_sigma_not_positive(self, sigma, where, capsys):
        argv = ["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--sigma-fn", sigma,
                "--x0", "0", "--upper", "1", "--T", "1", "--paths", "4096", "--seed", "1"]
        code, _, err = run_capture(argv, capsys)
        assert code == EXIT_NUMERIC
        assert "sigma must be finite and positive on [0, T]" in err
        assert where in err

    @pytest.mark.parametrize("alpha, beta, sigma, message", [
        ("0.5", "0.6", "1e-310", "log(v/x0)/sigma is not finite at sigma = 1e-310"),
        ("1e10", "1e-300", "1", "the log mean ((alpha - sigma^2/2)/beta - log x0)/sigma = inf")],
        ids=["subnormal_sigma", "log_mean"])
    def test_growth_overflow_exits_3(self, alpha, beta, sigma, message, capsys):
        # log(3/2)/sigma and alpha/beta overflow; both once exited 4 with
        # "boundary evaluated to NaN at t=0.0", naming neither.
        argv = ["growth", "--alpha", alpha, "--beta", beta, "--sigma", sigma, "--x0", "2",
                "--upper", "3", "--T", "1", "--paths", "500", "--seed", "1"]
        code, _, err = run_capture(argv, capsys)
        assert code == EXIT_NUMERIC and message in err

    def test_growth(self, capsys):
        argv = ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1",
                "--x0", "1", "--upper", "exp(1)", "--T", "1"] + FAST
        code, out, _ = run_capture(argv, capsys)
        assert code == EXIT_OK

    def test_gbm_zero_lower_is_one_sided(self, capsys):
        # log(0) = -inf: a zero lower boundary leaves the upper one alone.
        argv = ["gbm", "--sigma", "0.1", "--rate", "0.1", "--x0", "10",
                "--upper", "12", "--T", "1"] + FAST
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_capture(argv[:7] + ["--lower", "0"] + argv[7:], capsys)
        assert code == EXIT_OK
        _, one_sided, _ = run_capture(argv, capsys)
        assert json.loads(out)["results"] == json.loads(one_sided)["results"]

    def test_two_sided_band(self, capsys):
        argv = ["bm", "--lower", "-1", "--upper", "1", "--T", "1"] + FAST
        code, out, _ = run_capture(argv, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["lower"] <= doc["results"]["mean"] <= doc["results"]["upper"]

    @pytest.mark.parametrize(
        "argv",
        [["bm", "--lower=-1", "--upper", "1+0.5*t", "--seed", "3"],
         ["bm", "--lower=-0.5-t", "--upper", "1", "--seed", "3"],
         ["bm", "--lower=-0.5-t", "--upper", "1", "--seed", "1"]],
        ids=["straight_upper", "straight_lower", "straight_lower_seed_1"],
    )
    def test_two_sided_band_with_straight_side(self, argv, capsys):
        # A straight side's envelopes differ by an ulp; rounding in the
        # series once put the inner sum above the outer one, and the request
        # exited 2 with "bracket lower bound exceeds upper bound".
        code, out, err = run_capture(argv + ["--T", "1", "--paths", "4096"], capsys)
        assert code == EXIT_OK, err
        r = json.loads(out)["results"]
        assert r["lower"] <= r["mean"] <= r["upper"]


class TestFamilyTable:
    """One `_FAMILIES` entry per process subcommand; `_EXPR_FLAGS` types its flags."""

    def test_one_entry_per_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [*_FAMILIES, "reproduce"] == [*FAMILY_ARGV, "reproduce"]

    @pytest.mark.parametrize("command", list(_FAMILIES))
    def test_expression_flags_take_text_others_floats(self, command):
        flags = [flag for flag, _ in _FAMILIES[command][1]]
        argv = [command, "--T", "1", "--seed", "1"] + [a for f in flags for a in (f, "2")]
        args = build_parser().parse_args(argv)
        for flag in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            assert (value, type(value)) == (("2", str) if flag in _EXPR_FLAGS else (2.0, float))

    def test_expressions_parsed_at_request_time(self, monkeypatch):
        # The builders look parse_boundary up in the module when the request runs.
        seen = []
        parse = bcp.cli.parse_boundary
        monkeypatch.setattr(bcp.cli, "parse_boundary",
                            lambda text: seen.append(text) or parse(text))
        argv = FAMILY_ARGV["ou-td"] + ["--upper", "1", "--T", "1"] + FAST
        args = build_parser().parse_args(argv)
        assert seen == []
        run_request(args)
        assert seen == ["-inf", "1", "0.5", "0", "1"]


class TestLeadingMinus:
    """An expression that starts with "-" may follow its flag after a space."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [(["bm", "--upper", "1"], "--lower", "-0.5-t"),
         (["bm", "--lower", "-2"], "--upper", "-(-1)+t"),
         (["ou-td", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0"], "--kappa-fn", "-(-0.5)"),
         (["ou-td", "--kappa-fn", "0.5", "--sigma-fn", "1", "--x0", "0"], "--alpha-fn", "-0.1*t"),
         (["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--x0", "0"], "--sigma-fn", "-(-1)"),
         (["gbm", "--sigma", "0.1", "--x0", "1"], "--rate", "-0.05+0.1*exp(-t)")],
        ids=["lower", "upper", "kappa_fn", "alpha_fn", "sigma_fn", "rate"],
    )
    def test_spaced_value_parses_like_joined(self, argv, flag, value):
        tail = ["--T", "1", "--seed", "3"]
        spaced = build_parser().parse_args(argv + [flag, value] + tail)
        joined = build_parser().parse_args(argv + [f"{flag}={value}"] + tail)
        assert spaced == joined
        assert getattr(spaced, flag[2:].replace("-", "_")) == value

    def test_request_runs_as_joined(self, capsys):
        argv = ["bm", "--upper", "1", "--T", "1", "--paths", "4096", "--seed", "3"]
        code, spaced, err = run_capture(argv + ["--lower", "-0.5-t"], capsys)
        assert code == EXIT_OK, err
        _, joined, _ = run_capture(argv + ["--lower=-0.5-t"], capsys)
        r = json.loads(spaced)["results"]
        assert r == json.loads(joined)["results"] and r["lower"] <= r["upper"]

    def test_flag_without_value(self, capsys):
        code, _, err = run_capture(["bm", "--upper", "1", "--T", "1", "--seed", "1", "--lower"],
                                   capsys)
        assert code == EXIT_USAGE
        assert "argument --lower: expected one argument" in err

    def test_help_gives_no_joined_form_advice(self, capsys):
        for command in FAMILY_ARGV:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            assert "=EXPR" not in capsys.readouterr().out


class TestEmptyInnerBand:
    # The boundaries are valid, but the inner envelope, shifted inward by
    # the curvature pad, excludes the start or closes; these requests once
    # exited 4.  The inner band's probability is 0, the lower end.  The
    # first two upper ends were re-recorded when the control came to run on
    # 32 columns (0.169 and 0.0691 with 16 columns; both within 0.17
    # combined SEs), and the third when the least-squares line replaced the
    # chord as the control, which then loses to the plain mean (0.1905,
    # within 0.1 combined SEs).
    @pytest.mark.parametrize(
        "argv, upper",
        [(["bm", "--upper", "0.0005+sqrt(t)"], 0.170),
         (["bm", "--lower=-1", "--upper", "0.0005+sqrt(t)"], 0.0696),
         (["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0",
           "--upper", "0.0005+sqrt(t)"], 0.191),
         (["bm", "--lower", "sqrt(t)-0.0005", "--upper", "sqrt(t)+0.002", "--n", "16"], 0.0)],
        ids=["bm_one_sided", "bm_two_sided", "ou", "inner_band_closes"],
    )
    def test_lower_end_is_zero(self, argv, upper, capsys):
        code, out, err = run_capture(
            argv + ["--T", "1", "--paths", "4096", "--seed", "1"], capsys
        )
        assert code == EXIT_OK, err
        r = json.loads(out)["results"]
        assert r["lower"] == 0.0
        assert r["upper"] == pytest.approx(upper, abs=5e-4)
        assert r["mean"] == 0.5 * r["upper"]


# One request per family, with (mean, std_error, lower, upper) recorded before
# every family's reduced problem came from one constructor.  The rows of
# one-sided bands were re-recorded when they gained the straight-chord control;
# the SEs of ou_td_const and gbm_zero_lower, which are rounding, again when a
# controlled SE came to cover both bracket ends.  The two-sided rows, bm_pm1,
# gbm_lower and growth_lower, were re-recorded when two-sided bands gained the
# chord control, each within 1.3 combined SEs of its plain value.  The rows
# whose control is the sides' least-squares lines were re-recorded when those
# lines joined the chords as controls, each mean within 1.6 combined SEs of
# its chord value.  gbm_lower, whose fitted lines' quadrature floor lies above
# the chords', keeps its values.  The rounding-level SEs of ou_td_const and
# gbm_zero_lower moved (the latter by one ulp) when the SE came to be summed
# from each chunk's deviations about its own mean, and gbm_zero_lower's again,
# from 3.17e-17 to 3.06e-17 with its mean and bracket unchanged, when its
# control became the fitted lines in place of the chords.
FAMILY_PINS = [
    (["bm", "--upper", DANIELS],
     (0.5206080124365846, 0.0008080934363765314, 0.5204515561704748, 0.5207644687026944)),
    # A straight band: it runs on 8 of the 16 intervals, and is its own
    # control, so the result is the quadrature's mu_c +- eps.
    (["bm", "--lower=-1", "--upper", "1"],
     (0.37077742979952394, 0.0, 0.3707774297994342, 0.3707774297996137)),
    (["bm", "--upper", DANIELS, "--antithetic"],
     (0.520664664933006, 0.0005241944724640105, 0.5205160024174327, 0.5208133274485792)),
    (["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0", "--upper", "1"],
     (0.7214056466212302, 0.00018786767034541086, 0.7213743653906346, 0.7214369278518259)),
    (["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1",
      "--upper", "exp(1)"],
     (0.7214056466212302, 0.00018786767034541086, 0.7213743653906346, 0.7214369278518259)),
    (["gbm", "--sigma", "0.1", "--rate", "0.1+0.05*exp(-t)", "--x0", "10",
      "--lower", "8", "--upper", "12"],
     (0.603627193869934, 0.00035275097925092436, 0.6036032431547569, 0.603651144585111)),
    (["ou-td", "--kappa-fn", "0.5", "--alpha-fn", "0", "--sigma-fn", "1", "--x0", "0",
      "--upper", "exp(0.5*t)"],
     (0.885110408906788, 2.3285009339634636e-17, 0.8851104089067878, 0.8851104089067883)),
    (["ou-td", "--kappa-fn", "0.5+0.25*sin(t)", "--alpha-fn", "0.1*t",
      "--sigma-fn", "1+0.2*t", "--x0", "0", "--upper", "1+0.5*t"],
     (0.8271955436732462, 0.00044616793926450783, 0.8270995992594818, 0.8272914880870106)),
    # growth and gbm through the log map, off x0 = 1 and sigma = 1, with a lower side.
    (["growth", "--alpha", "0.3", "--beta", "0.8", "--sigma", "0.6", "--x0", "2",
      "--lower", "0.5", "--upper", "5+t"],
     (0.9786075836664023, 0.0003575905164377156, 0.9785908244154348, 0.9786243429173699)),
    (["gbm", "--sigma", "0.3", "--rate", "0.02", "--x0", "2", "--lower", "0",
      "--upper", "3*exp(0.1*t)"],
     (0.9047714610820947, 3.06107623624609e-17, 0.9047714610820945, 0.9047714610820949)),
]


class TestFamilyPins:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, pinned", FAMILY_PINS,
        ids=["bm_daniels", "bm_pm1", "bm_antithetic", "ou", "growth", "gbm_lower",
             "ou_td_const", "ou_td_varying", "growth_lower", "gbm_zero_lower"],
    )
    def test_results_bit_identical(self, argv, pinned, threads, monkeypatch):
        monkeypatch.setenv("BCP_THREADS", threads)
        args = build_parser().parse_args(
            argv + ["--T", "1", "--n", "16", "--paths", "4096", "--seed", "3"]
        )
        r = run_request(args).results
        assert (r["mean"], r["std_error"], r["lower"], r["upper"]) == pinned


class TestReproduce:
    def test_table_has_four_rows(self, capsys):
        code, out, _ = run_capture(
            ["reproduce", "paper7", "--paths", "2000", "--seed", "1"], capsys
        )
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 5  # header + 4 cases
        assert "reference" in lines[0]

    def test_json_format(self, capsys):
        code, out, _ = run_capture(
            ["reproduce", "paper7", "--paths", "2000", "--seed", "1",
             "--format", "json"], capsys
        )
        assert code == EXIT_OK
        docs = json.loads(out)
        assert len(docs) == 4
        refs = sorted(d["reference"] for d in docs)
        assert refs == sorted([0.721463, 0.721463, 0.603728, 0.520251])
        for d in docs:
            # At 2000 paths expect rough agreement only.
            assert abs(d["results"]["mean"] - d["reference"]) < 0.05


class TestNoScipyRuntime:
    def test_requests_leave_scipy_unimported(self):
        # Run every family and the paper7 table in one process, so that a
        # lazy import inside a request shows up, not only one at import time.
        code = """
import io, sys
from bcp.cli import build_parser, run_reproduce, run_request
parser = build_parser()
fast = ["--paths", "4096", "--seed", "1"]
for argv in (
    ["bm", "--lower", "-1", "--upper", "1", "--T", "1"],
    ["ou", "--kappa", "0.5", "--alpha", "0", "--sigma2", "1", "--x0", "0",
     "--upper", "1", "--T", "1"],
    ["ou-td", "--kappa-fn", "0.5+0.25*sin(t)", "--alpha-fn", "0.1*t", "--sigma-fn", "1+0.2*t",
     "--x0", "0", "--upper", "1+0.5*t", "--T", "1"],
    ["growth", "--alpha", "0.5", "--beta", "0.5", "--sigma", "1", "--x0", "1",
     "--upper", "exp(1)", "--T", "1"],
    ["gbm", "--sigma", "0.1", "--rate", "0.1+0.05*exp(-t)", "--x0", "10",
     "--upper", "12", "--T", "1"],
):
    run_request(parser.parse_args(argv + fast))
run_reproduce(parser.parse_args(["reproduce", "paper7"] + fast), io.StringIO())
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bcp.cli", "bm", "--upper", "1", "--T", "1"] + FAST,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["request"]["process"] == "bm"
