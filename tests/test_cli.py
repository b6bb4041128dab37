import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperline import cli, extsum, goldbach, hermite, intervals, seqfield
from hyperline.cli import eval_wat_expr, parse_rational, render, run

F = Fraction


SRC = Path(__file__).resolve().parents[1] / "src"
CLI_MAIN = 'from hyperline.cli import main; import sys; sys.argv[0] = "hyperline"; main()'
# Block mpmath: importing it in the child then raises ImportError.
STDLIB_ONLY_MAIN = 'import sys; sys.modules["mpmath"] = None; ' + CLI_MAIN


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestParseRational:
    def test_fraction_form(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-87") == -87

    def test_decimal_and_scientific(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("1e-6") == F(1, 10 ** 6)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("pi")

    @pytest.mark.parametrize("text", ["1/0", "inf", "-Infinity", "nan"])
    def test_zero_denominator_and_non_finite(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestWatExpressions:
    def test_absorption_of_eps(self):
        assert eval_wat_expr("1# + eps_d - eps_d").render() == "1# - eps_d"

    def test_plain_sum(self):
        assert eval_wat_expr("1/2# + 1/3#").render() == "5/6#"

    def test_delta_dominates(self):
        assert eval_wat_expr("2# + eps_d + DELTA_d").render() == "2# + DELTA_d"

    def test_leading_minus(self):
        assert eval_wat_expr("-3/2# + eps_d").render() == "-3/2# + eps_d"

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            eval_wat_expr("1# + + eps_d")
        with pytest.raises(ValueError):
            eval_wat_expr("omega#")
        with pytest.raises(ValueError):
            eval_wat_expr("1# +")


class TestOutputs:
    def test_goldbach_matches_library(self, capsys):
        code, out = capture(capsys, ["goldbach", "--limit", "5000"])
        assert code == 0
        assert out == render(goldbach.goldbach_report(5000), "json") + "\n"

    def test_hermite_m(self, capsys):
        code, out = capture(capsys, ["hermite", "m", "--n", "1", "--p", "3",
                                     "--k", "0"])
        assert code == 0
        assert json.loads(out) == {"M": "32"}

    def test_cert_roundtrip(self, capsys):
        code, out = capture(capsys, ["hermite", "cert", "--coeffs", "3,-1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"] == {"m0_nondivisible": True,
                                 "mk_divisible": True, "eps_half": True}
        rebuilt = hermite.certificate_from_dict(doc)
        assert hermite.verify_certificate(rebuilt)

    def test_degree_six_certificate_prints(self, capsys):
        # I and M_0 have 4813 digits, past the interpreter's 4300-digit limit
        code, out = capture(capsys, ["hermite", "cert", "--coeffs", "11,2,-3,1,1,-1,1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["prime"] == 269
        assert len(doc["I"]) == 4813
        assert hashlib.sha256(",".join(doc["M"]).encode()).hexdigest() == (
            "c344977f25f64af41f6665ce1f707a6611f689ba1ba005ea277e8aa41c13caa3")
        assert hashlib.sha256(doc["I"].encode()).hexdigest() == (
            "012896f1ac9a916fcc4006b544823bdf265e3ce8f2960dfbb79cf356c1b345cf")
        assert hermite.verify_certificate(hermite.certificate_from_dict(doc))

    @pytest.mark.parametrize("argv,coeffs", [
        (["--coeffs", "-87,32"], [-87, 32]),
        (["--coeffs=-87,32"], [-87, 32]),
        (["--coeffs", "-1/2,3"], [F(-1, 2), 3])])
    def test_cert_negative_leading_coefficient(self, capsys, argv, coeffs):
        code, out = capture(capsys, ["hermite", "cert", *argv])
        assert code == 0
        doc = json.loads(out)
        assert [F(int(a), int(b)) for a, b in doc["coeffs"]] == coeffs
        assert hermite.verify_certificate(hermite.certificate_from_dict(doc))

    def test_sieve_doc(self, capsys):
        code, out = capture(capsys, ["sieve", "--depth", "200", "--steps", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["removed_bases"] == [2, 3, 5, 6, 7]
        lo, hi = (F(v) for v in doc["residual"])
        assert lo <= 1 <= hi

    def test_wat_doc(self, capsys):
        code, out = capture(capsys, ["wat", "--expr", "1# + eps_d - eps_d"])
        assert code == 0
        assert json.loads(out)["canonical"] == "1# - eps_d"

    def test_dirichlet_pi(self, capsys):
        code, out = capture(capsys, ["dirichlet", "--alpha", "pi",
                                     "--count", "4"])
        assert code == 0
        doc = json.loads(out)
        pairs = [(c["p"], c["q"]) for c in doc["convergents"]]
        assert pairs == [("3", "1"), ("22", "7"), ("333", "106"),
                         ("355", "113")]

    def test_dirichlet_rational(self, capsys):
        code, out = capture(capsys, ["dirichlet", "--alpha", "7/3",
                                     "--count", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["convergents"][-1] == {"p": "7", "q": "3",
                                          "abs_err_upper": "0"}

    def test_liouville(self, capsys):
        code, out = capture(capsys, ["liouville", "--m", "2", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == "11" and doc["q"] == "100"
        assert doc["bound_holds"] is True

    def test_liouville_largest_n(self, capsys):
        code, out = capture(capsys, ["liouville", "--m", "2", "--n", "5"])
        assert code == 0
        p = sum(10 ** (120 - math.factorial(j)) for j in range(1, 6))
        assert json.loads(out) == {
            "m": 2, "n": 5, "p": str(p), "q": str(10 ** 120),
            "error_interval": [f"1/{10 ** 720}", f"1/{5 * 10 ** 719}"],
            "bound_holds": True}

    def test_extsum_note_says_why_wst_interval_is_null(self, capsys):
        code = run(["extsum", "--series", "pser(2)", "--depth", "256"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["wst_interval"] is None
        assert captured.err == ("note: wst_interval: no Cauchy window at "
                                "tolerance 1/1000000 within depth 256\n")

    def test_extsum_with_wst_interval_writes_no_note(self, capsys):
        code = run(["extsum", "--series", "geom(1/2)", "--depth", "256"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["wst_interval"] is not None
        assert captured.err == ""

    def test_extsum_geometric(self, capsys):
        code, out = capture(capsys, ["extsum", "--series", "geom(1/2)",
                                     "--depth", "128"])
        assert code == 0
        doc = json.loads(out)
        assert doc["divergent"] is False
        assert doc["value"].endswith("- eps_d")

    def test_extsum_large_exponent_prints(self, capsys):
        # the exact 128-term sum of 1/(n+1)^120 has over 4300 digits
        code, out = capture(capsys, ["extsum", "--series", "pser(120)",
                                     "--depth", "64"])
        assert code == 0
        lo, hi = json.loads(out)["eta_interval"]
        assert F(lo) < F(sympy.Rational(sympy.zeta(120).evalf(400))) < F(hi)
        assert len(lo) < 600 and len(hi) < 600

    def test_csv_format(self, capsys):
        code, out = capture(capsys, ["--format", "csv", "dirichlet",
                                     "--alpha", "pi", "--count", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,abs_err_upper"
        assert lines[1].startswith("3,1,")
        code2, out2 = capture(capsys, ["dirichlet", "--alpha", "pi",
                                       "--count", "2", "--format", "csv"])
        assert code2 == 0 and out2 == out


ALL_SUBCOMMANDS = [
    ["goldbach", "--limit", "3000"],
    ["sieve", "--depth", "300", "--steps", "4"],
    ["extsum", "--series", "geom(1/3)", "--depth", "256"],
    ["hermite", "m", "--n", "2", "--p", "5", "--k", "1"],
    ["hermite", "cert", "--coeffs", "3,-1"],
    ["dirichlet", "--alpha", "pi", "--count", "3"],
    ["liouville", "--m", "2", "--n", "3"],
    ["wat", "--expr", "2# - eps_d + DELTA_d"],
]


class TestDeterminismAndExitCodes:
    def test_identical_runs(self, capsys):
        first = capture(capsys, ["goldbach", "--limit", "2000"])
        second = capture(capsys, ["goldbach", "--limit", "2000"])
        assert first == second

    @pytest.mark.parametrize("argv", ALL_SUBCOMMANDS,
                             ids=[a[0] + "-" + a[1].lstrip("-") for a in ALL_SUBCOMMANDS])
    def test_every_subcommand_deterministic_json(self, capsys, argv):
        code, out = capture(capsys, argv)
        assert code == 0
        doc = json.loads(out)  # canonical JSON document
        assert out == json.dumps(doc, indent=2) + "\n"
        code2, out2 = capture(capsys, argv)
        assert code2 == 0 and out2 == out

    def test_usage_error(self, capsys):
        code = run(["goldbach", "--nonsense", "1"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command(self, capsys):
        code = run(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_undetermined_exit(self, capsys):
        code = run(["extsum", "--series", "harmonic"])
        err = capsys.readouterr().err
        assert code == 3
        assert "undetermined" in err

    def test_search_exhausted_exit(self, capsys):
        code = run(["hermite", "cert", "--coeffs", "3,-1", "--p-cap", "3"])
        err = capsys.readouterr().err
        assert code == 4
        assert "prime" in err

    def test_bad_wat_expression(self, capsys):
        code = run(["wat", "--expr", "1# + bogus"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["extsum", "--series", "geom(1/2)", "--tolerance", "1/0"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "inf"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "nan"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "0"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "-1/3"],
        ["extsum", "--series", "geom(1/0)"],
        ["extsum", "--series", "pser(0)"],
        ["extsum", "--series", "alt(geom(x))"],
        ["extsum", "--series", "powers_recip(2)"],
        ["extsum", "--series", "harmonic(3)"],
        ["wat", "--expr", "1#", "--depth", "-3"],
        ["wat", "--expr", "1#", "--depth", "0"],
        ["--depth", "ten", "wat", "--expr", "1#"],
        ["dirichlet", "--alpha", "1/0", "--count", "3"],
        ["hermite", "cert", "--coeffs", "3,1/0"],
        ["hermite", "cert", "--coeffs", "0,1"],
        ["sieve", "--steps", "1", "--depth", "1"],
        ["wat", "--expr", "1/0#"],
        ["extsum", "--series", "geom(1e-20000)"],
    ], ids=" ".join)
    def test_bad_input_is_usage_error(self, capsys, argv):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "error" in err

    @pytest.mark.parametrize("argv,option", [
        (["extsum", "--series", "geom(1/2)", "--tolerance", "1e-5000", "--depth", "64"],
         "--tolerance"),
        (["extsum", "--series", "geom(1/2)", "--tolerance", "1e-3000000"], "--tolerance"),
        (["extsum", "--series", "pser(2045)", "--depth", "64"], "--series"),
        (["extsum", "--series", "pser(2041)", "--depth", "64"], "--series"),
        (["extsum", "--series", "alt(pser(1790))", "--depth", "64"], "--series"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_output_too_large_is_refused_up_front(self, capsys, argv, option):
        # refused by the argparse type function, before any work runs
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"argument {option}:" in err and "4300" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("series", ["pser(100000000)", "alt(pser(100000000))",
                                        "alt( alt(pser( 2043 )))"])
    def test_huge_pser_is_refused_before_its_tail_bound(self, capsys, series):
        # the tail bound 1/((k-1) 128^(k-1)) alone would take seconds to build
        start = time.perf_counter()
        code = run(["extsum", "--series", series, "--depth", "64"])
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert code == 2
        assert "argument --series:" in err and "would print more than 4300 digits" in err

    @pytest.mark.parametrize("argv", [
        ["extsum", "--series", "pser(2040)", "--depth", "64"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "1e-2140", "--depth", "64"],
    ], ids=" ".join)
    def test_output_just_below_the_limit_prints(self, capsys, argv):
        code, out = capture(capsys, argv)
        assert code == 0
        assert json.loads(out)["series"] == argv[2]

    def test_hermite_expansion_past_the_work_bound_is_refused_up_front(self, capsys):
        # M_0(3, 3001), over 4300 digits, was refused; its expansion's size
        # N * hermite_M_min_bits is below 2^30, so it prints (0.4 s, 157 MB)
        code, out = capture(capsys, ["hermite", "m", "--n", "3", "--p", "3001", "--k", "0"])
        assert code == 0
        assert intervals._from_decimal(json.loads(out)["M"]) == hermite.hermite_M(3, 3001, 0)
        for n, p, admitted in [(1, 8191, True), (1, 8209, False), (3, 3041, True),
                               (3, 3049, False)]:
            degree = (n + 1) * p - 1
            assert (degree * hermite.hermite_M_min_bits(n, p) <= 2 ** 30) == admitted
        # the first prime past the bound at n = 1 (0.3 s, 267 MB) is refused unrun
        def refuse(*_args):
            raise AssertionError("the expansion ran")

        start = time.perf_counter()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli.hermite, "hermite_Ms", refuse)
            code = run(["hermite", "m", "--n", "1", "--p", "8209"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith("hyperline: error: hermite m --n 1 --p 8209: "
                                     "its expansion would hold more than 2^30 bits\n")

    @pytest.mark.parametrize("argv,want", [
        (["liouville", "--m", "3", "--n", "50"], 2),
        (["liouville", "--m", "2", "--n", "6"], 0),
        (["liouville", "--m", "2", "--n", str(10 ** 18)], 2),
        (["liouville", "--m", "1000000000", "--n", "2"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_liouville_work_is_bounded_up_front(self, capsys, argv, want):
        # --n 50 used to build 10^(51!); --m 10^9 used to build q^m; --n 6,
        # whose error_interval end has 5041 digits, was refused and prints
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == want
        n = int(argv[-1])
        if want == 2:
            assert captured.err == (f"error: 10^({n + 1}!) would have more than "
                                    f"{2 ** 20} digits\n")
            return
        doc = json.loads(captured.out)
        p, q = hermite.liouville_partial(n)
        assert (doc["p"], doc["q"]) == (str(p), str(q))
        assert doc["error_interval"][0] == "1/1" + "0" * math.factorial(n + 1)

    def test_hermite_integer_just_below_the_limit_prints(self, capsys):
        # M_1(1, 1307) has 4293 digits; the next prime, 1319, gives 4337
        code, out = capture(capsys, ["hermite", "m", "--n", "1", "--p", "1307", "--k", "1"])
        assert code == 0
        assert len(json.loads(out)["M"]) == 4293

    @pytest.mark.parametrize("p", ["1319", "2039"])
    def test_hermite_integer_past_4300_digits_prints(self, capsys, p):
        # M_0(1, p) for p in 1319..2039 has over 4300 digits: it was refused
        # once computed, and now prints through the decimal codec
        code, out = capture(capsys, ["hermite", "m", "--n", "1", "--p", p])
        assert code == 0
        m = json.loads(out)["M"]
        assert len(m) > 4300
        assert intervals._from_decimal(m) == hermite.hermite_M(1, int(p))

    @pytest.mark.parametrize("limit", [10 ** 10 + 1, 10 ** 20])
    def test_goldbach_limit_above_the_cap_is_refused_up_front(self, capsys, monkeypatch,
                                                              limit):
        # 10^20 used to ask perfect_powers for 10^10 squares
        def refuse(_limit):
            raise AssertionError("perfect powers were enumerated")

        monkeypatch.setattr(cli.goldbach, "perfect_powers", refuse)
        code = run(["goldbach", "--limit", str(limit)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"hyperline: error: goldbach --limit {limit}: limits above 10^10 are refused\n")

    @pytest.mark.parametrize("argv,want,message", [
        # used to allocate a depth-sized array: MemoryError
        (["sieve", "--depth", str(10 ** 12), "--steps", "1"], 0, ""),
        (["sieve", "--steps", "10001"], 2,
         "hyperline: error: sieve --steps 10001: steps above 10^4 are refused\n"),
        (["sieve", "--depth", str(10 ** 18 + 1), "--steps", "1"], 2,
         f"hyperline: error: sieve --depth {10 ** 18 + 1}: depths above 10^18 are refused\n"),
        # used to read every exact partial sum up to 10^8: MemoryError
        (["extsum", "--series", "harmonic", "--depth", str(10 ** 8)], 2,
         "hyperline: error: extsum --depth 100000000: depths above 50000 are refused\n"),
        (["extsum", "--series", "pser(2)", "--depth", str(10 ** 8)], 2,
         "hyperline: error: extsum --depth 100000000: depths above 50000 are refused\n"),
        # its residual has over 4300 digits: it was refused, and prints
        (["sieve", "--depth", "100000", "--steps", "10000"], 0, ""),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_work_is_bounded(self, capsys, argv, want, message):
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert code == want
        assert captured.err.endswith(message) and "Traceback" not in captured.err
        if want == 0:
            doc = json.loads(captured.out)
            assert captured.err == "" and len(doc["removed_bases"]) == int(argv[-1])
            assert doc == goldbach.euler_sieve(int(argv[2]), int(argv[-1])).to_dict()
        if argv[2] == "100000":
            assert len(captured.out.encode()) == 1_046_629 + 1

    @pytest.mark.parametrize("depth,want", [
        ("1048576", 0), ("1048577", 2), ("1" + "0" * 400, 2), ("7" * 5000, 2)],
        ids=lambda v: v[:12] if isinstance(v, str) else None)
    def test_wat_depth_is_capped_by_its_scan_work(self, capsys, depth, want):
        # forms decide every wat sum without a scan, but a depth past 2^20
        # would let a sign scan read more than 2^19 + 1 indices
        code = run(["wat", "--expr", "1#+eps_d", "--depth", depth])
        captured = capsys.readouterr()
        assert code == want and "Traceback" not in captured.err
        if want == 0:
            assert json.loads(captured.out)["canonical"] == "1# + eps_d"
        else:
            assert captured.out == "" and captured.err.endswith(
                f"hyperline: error: wat --depth {depth}: a sign scan of [depth/2, depth] "
                "would read more than 2^19 + 1 indices\n")

    @pytest.mark.parametrize("argv,message", [
        (["sieve", "--steps", "1"], "depths above 10^18 are refused"),
        (["extsum", "--series", "geom(1/2)"], "depths above 50000 are refused"),
        (["wat", "--expr", "1#"],
         "a sign scan of [depth/2, depth] would read more than 2^19 + 1 indices"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_depth_past_4300_digits_meets_the_work_caps(self, capsys, argv, message):
        depth = "7" * 5000
        code = run(argv + ["--depth", depth])
        err = capsys.readouterr().err
        assert code == 2
        assert err.endswith(f"error: {argv[0]} --depth {depth}: {message}\n")

    @pytest.mark.parametrize("argv,want,message", [
        (["goldbach", "--limit", "{V}"], 2,
         "hyperline: error: goldbach --limit {V}: limits above 10^10 are refused"),
        (["sieve", "--steps", "{V}"], 2,
         "hyperline: error: sieve --steps {V}: steps above 10^4 are refused"),
        (["hermite", "m", "--n", "{V}", "--p", "3"], 2,
         "hyperline: error: hermite m --n {V} --p 3: n times the degree (n+1)p - 1 "
         "above 2^17 is refused"),
        (["hermite", "m", "--n", "1", "--p", "-{V}"], 2, "error: p must be a prime >= 2"),
        (["hermite", "m", "--n", "1", "--p", "3", "--k", "{V}"], 2,
         "error: need 0 <= k <= n"),
        (["hermite", "cert", "--coeffs", "3,-1", "--p-cap", "-{V}"], 4,
         "error: no qualifying prime below -{V}"),
        (["hermite", "cert", "--coeffs", "3,-1", "--p-cap", "{V}"], 0, ""),
        (["dirichlet", "--alpha", "7/3", "--count", "{V}"], 0, ""),
        (["liouville", "--m", "2", "--n", "-{V}"], 2, "error: n must be >= 1"),
        (["liouville", "--m", "2", "--n", "{V}"], 2,
         "error: 10^({W}!) would have more than 1048576 digits"),
        # echoed as a JSON number, which json.dumps cannot print past 4300 digits
        (["liouville", "--m", "{V}", "--n", "2"], 2,
         "hyperline liouville: error: argument --m: invalid int value: '{V}'"),
    ], ids=lambda v: " ".join(v)[:32] if isinstance(v, list) else None)
    def test_integer_options_past_4300_digits_meet_the_caps(self, capsys, argv, want,
                                                            message):
        # each was refused by int() as "invalid int value", though an integer
        value = "7" * 5000
        fill = {"V": value, "W": value[:-1] + "8"}
        start = time.perf_counter()
        code = run([a.format(**fill) for a in argv])
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert code == want, captured.err[-200:]
        assert "set_int_max_str_digits" not in captured.err
        if want:
            assert captured.out == ""
            assert captured.err.endswith(message.format(**fill) + "\n")
        else:
            # the same document as a small value gives
            small = [a.replace("{V}", "10000") for a in argv]
            assert captured.err == "" and captured.out == capture(capsys, small)[1]

    @pytest.mark.parametrize("series", [
        "geom(1e-20000)", "geom(1e-100000)", "geom(1e-1_000_000_000)", "geom(9999e4300)",
        "alt(geom(-1/1" + "0" * 4300 + "))", "geom(1/" + "7" * 4301 + ")"],
        ids=lambda v: v[:24])
    def test_unprintable_geom_ratio_is_refused_by_name(self, capsys, series):
        # it leaked CPython's set_int_max_str_digits hint; a huge exponent
        # also took seconds to build 10^exponent
        start = time.perf_counter()
        code = run(["extsum", "--series", series])
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and "set_int_max_str_digits" not in err
        assert err.endswith(f"error: argument --series: series {series!r}: "
                            "its ratio would print more than 4300 digits\n")

    @pytest.mark.parametrize("series", ["pser(" + "7" * 5000 + ")",
                                        "alt(pser(" + "7" * 5000 + "))"],
                             ids=lambda v: v[:24])
    def test_unprintable_pser_exponent_is_refused_by_name(self, capsys, series):
        # int() of the exponent leaked CPython's set_int_max_str_digits hint
        code = run(["extsum", "--series", series])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and "set_int_max_str_digits" not in err
        assert err.endswith(f"error: argument --series: series {series!r}: "
                            "eta_interval would print more than 4300 digits\n")

    @pytest.mark.parametrize("argv", [
        ["extsum", "--series", "geom(999/1000)", "--depth", "20000"],
        ["extsum", "--series", "geom(99999999999999999999/100000000000000000000)"],
        ["extsum", "--series", "geom(-99999/100000)"],
        ["extsum", "--series", "geom(9999999999/10000000000)"],
        ["extsum", "--series", "alt(geom(999/1000))"],
        ["extsum", "--series", "geom(9/10)", "--depth", "50000", "--tolerance", "1e-1000"],
    ], ids=" ".join)
    def test_slow_certified_series_is_refused(self, capsys, argv):
        # geom ratios near 1, or a fine tolerance, freeze the bracket tables
        # late, and the pairs grow by bits(b) per index: these ran 4 s to 46 s
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        depth = argv[argv.index("--depth") + 1] if "--depth" in argv else "4096"
        label = str(extsum.parse_series(argv[2]).label)
        assert code == 2 and "Traceback" not in err
        assert err.endswith(f"hyperline: error: extsum --series {label} --depth {depth}: "
                            "its partial sums would floor more than 2^28 bits of terms\n")

    @pytest.mark.parametrize("series", [
        "geom(1/3)", "geom(12345678901234567890/98765432109876543210)", "powers_recip",
        "pser(2)", "alt(pser(2))"])
    def test_fast_series_at_the_depth_cap_are_admitted(self, capsys, series):
        start = time.perf_counter()
        code, out = capture(capsys, ["extsum", "--series", series, "--depth", "50000"])
        assert time.perf_counter() - start < 5
        assert code == 0 and json.loads(out)["eta_interval"] is not None

    def test_table_work_estimate_stays_below_the_cap(self):
        # the refusal's measure: extent times the bits of the pair there
        scale = seqfield.shadow_scale(F(1, 10 ** 6), 4096)
        assert scale == 23 + 13 + 3
        work = extsum.table_work(extsum.parse_series("geom(99/100)"), 4096, scale, 1 << 28)
        assert work == 4096 * (len(bin(99 ** 4097)) - 2 + len(bin(100 ** 4097)) - 2)
        assert work <= cli._MAX_TABLE_WORK
        # a split series' halves freeze by its bound at twice their index
        work = extsum.table_work(extsum.parse_series("geom(-99/100)"), 4096, scale, 1 << 28)
        assert work == 4097 * (len(bin(99 ** 4098)) - 2 + len(bin(100 ** 4098)) - 2)
        assert extsum.table_work(extsum.harmonic_series(), 4096, scale, 1 << 28) == 0

    def test_output_past_the_stdout_cap_is_refused(self, capsys):
        # its document renders to 1,050,607 bytes, newline excluded
        code = run(["sieve", "--depth", "1000000", "--steps", "10000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: output of 1050608 bytes is over the stdout cap "
                                "of 2^20 - 1 bytes\n")
        doc = goldbach.euler_sieve(10 ** 6, 10 ** 4).to_dict()
        assert len(render(doc, "json").encode()) == 1_050_607

    @pytest.mark.parametrize("size,printed", [(2 ** 20 - 2, True), (2 ** 20 - 1, False)])
    def test_stdout_cap_counts_the_newline(self, capsys, monkeypatch, size, printed):
        # a document of `size` bytes prints `size + 1`, which must stay under 2^20
        monkeypatch.setattr(cli, "render", lambda doc, fmt: "7" * size)
        code = run(["wat", "--expr", "1#"])
        captured = capsys.readouterr()
        assert (code, len(captured.out)) == ((0, size + 1) if printed else (2, 0))
        assert ("over the stdout cap" in captured.err) != printed

    @pytest.mark.parametrize("argv", [
        ["wat", "--expr", "7" * 5000 + "#"],
        ["wat", "--expr", "1/" + "7" * 5000 + "#"],
        ["dirichlet", "--alpha", "1/" + "7" * 5000, "--count", "3"],
        ["extsum", "--series", "geom(1/2)", "--tolerance", "1/" + "7" * 5000],
        ["extsum", "--series", "pser(" + "0" * 5000 + "3)"],
        ["extsum", "--series", "pser(-" + "7" * 5000 + ")"],
    ], ids=lambda v: " ".join(a[:16] for a in v))
    def test_long_argv_numbers_read_without_the_digit_limit(self, capsys, argv):
        # each exited 2 with CPython's set_int_max_str_digits hint
        code = run(argv)
        captured = capsys.readouterr()
        assert "set_int_max_str_digits" not in captured.err
        if argv[0] == "wat":
            # a reduced rational r prints as the label r#
            assert code == 0 and json.loads(captured.out)["canonical"] == argv[2]
        elif argv[0] == "dirichlet":
            # 1/N = [0; N]: its last convergent is 1/N itself
            assert code == 0
            p, q = [(c["p"], c["q"]) for c in json.loads(captured.out)["convergents"]][-1]
            assert (p, q) == ("1", "7" * 5000)
        elif argv[0] == "extsum" and "--tolerance" in argv:
            # refused by the grid bound, which keeps its figure
            assert code == 2 and captured.err.endswith(
                f"error: argument --tolerance: tolerance {argv[-1]!r} would print "
                "more than 4300 digits\n")
        elif "-" in argv[2]:
            assert code == 2 and captured.err.endswith(
                f"error: argument --series: bad series {argv[2]!r}: exponent must be >= 1\n")
        else:
            # the exponent 000...03 is 3, and the series is labelled pser(3)
            assert code == 0
            assert captured.out == capture(capsys, ["extsum", "--series", "pser(3)"])[1]

    def test_all_zero_split_series_exits_at_once(self):
        # the split cursor used to scan forever for a negative term
        limit = ("import resource; "
                 "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)); ")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", limit + CLI_MAIN, "extsum", "--series", "alt(geom(0))",
             "--depth", "16"], env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["eta_interval"] == ["0", "0"]

    @pytest.mark.parametrize("argv,message", [
        (["hermite", "cert", "--coeffs", "5000,1,1,-1"],
         "hermite cert --coeffs 5000,1,1,-1: the Hermite integers at the first prime "
         "would pass 2^17 bits"),
        (["hermite", "cert", "--coeffs", "1/7,-2/9,5/11,1/13"],
         "hermite cert --coeffs 1/7,-2/9,5/11,1/13: the Hermite integers at the first "
         "prime would pass 2^17 bits"),
        (["hermite", "cert", "--coeffs", "9" * 60 + ",1", "--p-cap", "1" + "0" * 400],
         f"hermite cert --coeffs {'9' * 60},1: the Hermite integers at the first prime "
         "would pass 2^17 bits"),
        (["hermite", "m", "--n", "300", "--p", "2"],
         "hermite m --n 300 --p 2: n times the degree (n+1)p - 1 above 2^17 is refused"),
        (["hermite", "m", "--n", str(2 ** 64), "--p", "17"],
         f"hermite m --n {2 ** 64} --p 17: n times the degree (n+1)p - 1 above 2^17 "
         "is refused"),
    ], ids=lambda v: " ".join(v)[:40] if isinstance(v, list) else None)
    def test_hermite_work_is_bounded(self, capsys, argv, message):
        # 2.4 s and 410 MB, 8 s and 1.4 GB, a trial division past 10^60, 1.3 s,
        # and an expansion of degree 17 * 2^64
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert code == 2 and err.endswith(f"hyperline: error: {message}\n")

    def test_negative_prime_cap_exhausts_at_once(self, capsys):
        # the search counted up to the first prime from -10^40
        start = time.perf_counter()
        code = run(["hermite", "cert", "--coeffs", "11/2,-4,11", "--p-cap", "-" + "9" * 40])
        assert time.perf_counter() - start < 1
        assert code == 4 and "no qualifying prime" in capsys.readouterr().err

    def test_coefficient_beyond_prime_cap_exhausts_at_once(self, capsys):
        # b_0 = 10^400 puts the first prime far above the cap; no search runs
        code = run(["hermite", "cert", "--coeffs", "1e400,1"])
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err


def readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


class TestReadmeCommands:
    """Every command in the README's CLI block runs and prints a document."""

    @pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
    def test_runs_and_parses(self, capsys, argv):
        code, out = capture(capsys, argv)
        assert code == 0
        if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            header, *rows = csv.reader(out.splitlines())
            assert rows and all(len(row) == len(header) for row in rows)
            doc = dict(zip(header, rows[0]))
        else:
            doc = json.loads(out)
        if "alt(pser(2))" in argv:
            # pi^2/12 = sum (-1)^n / (n+1)^2, enclosed via pi in [lo, hi]
            pi_lo, pi_hi = F("3.14159265358979"), F("3.14159265358980")
            lo, hi = json.loads(doc["wst_interval"])
            assert F(lo) <= pi_lo ** 2 / 12 and pi_hi ** 2 / 12 <= F(hi)
            assert len(lo) < 40 and len(hi) < 40


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_command_needs_no_mpmath(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STDLIB_ONLY_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# CLI fuzz: argument lists from a small vocabulary.  Depth, p and series stay
# small so each run takes milliseconds; values include negative, malformed
# and huge-exponent ones.
FUZZ_COMMANDS = {
    ("goldbach",): {"--limit": ["1000", "4"]},
    ("sieve",): {"--steps": ["3", "1"]},
    ("extsum",): {"--series": ["geom(1/2)", "geom(-1/3)", "alt(pser(2))", "pser(2045)",
                               "harmonic", "alt(harmonic)", "powers_recip", "geom(x)",
                               "pser(0)"]},
    ("hermite", "m"): {"--n": ["1", "3"], "--p": ["3", "5", "4"], "--k": ["0", "2"]},
    ("hermite", "cert"): {"--coeffs": ["3,-1", "-87,32", "1/2,1/3,-1/7", "0,1", "1e400,1",
                                       "3,1/0", "3"],
                          "--p-cap": ["3", "100"]},
    ("dirichlet",): {"--alpha": ["pi", "e", "7/3", "1e400", "tau"], "--count": ["4", "40"]},
    ("liouville",): {"--m": ["2", "50"], "--n": ["2", "3"]},
    ("wat",): {"--expr": ["1# + eps_d - eps_d", "2# - DELTA_d", "1# +", "omega#", "-1/2#",
                          "1/0#"]},
    ("frobnicate",): {},
    (): {},
}
FUZZ_SHARED = {"--tolerance": ["1/1000", "1e-2000", "1e-5000", "1e-3000000", "1e400"],
               "--format": ["json", "csv", "xml"], "--bogus": ["1"]}
FUZZ_VALUES = ["0", "-1", "-87,32", "1e-3000000", "1e400", "nan", "inf", "1/0", "x", ""]
FUZZ_DEPTHS = ["1", "2", "16", "64"]


@st.composite
def cli_argv(draw):
    def value(good):  # four in five well formed
        return draw(st.sampled_from(good if draw(st.integers(0, 4)) else FUZZ_VALUES))

    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = list(command)
    for option, good in FUZZ_COMMANDS[command].items():
        if draw(st.integers(0, 7)):  # required options are usually present
            argv += [option, value(good)]
    for _ in range(draw(st.integers(0, 2))):
        option = draw(st.sampled_from(sorted(FUZZ_SHARED)))
        argv += [option, value(FUZZ_SHARED[option])]
    return argv + ["--depth", value(FUZZ_DEPTHS)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_fuzz_exit_codes(capsys, argv):
    code = run(argv)
    err = capsys.readouterr().err
    assert code in {0, 2, 3, 4}, (argv, err)
    assert "Traceback" not in err, (argv, err)
