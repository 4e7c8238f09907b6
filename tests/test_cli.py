import argparse
import json
from math import gcd

import pytest

from radsym import cli, symbols
from radsym.cli import _build_parser, run
from radsym.modgroup import Cusp, GroupId, cusp_equivalent, cusps, schreier_generators
from radsym.periods import NumericPeriod
from radsym.symbols import SymbolValue


def test_sum(capsys):
    assert run(["sum", "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1/18"


def test_sum_domain_error(capsys):
    assert run(["sum", "2", "4"]) == 1
    assert "error" in capsys.readouterr().err


def test_symbol_sl2z(capsys):
    assert run(["symbol", "--group", "sl2z", "--matrix", "1,1,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_symbol_json(capsys):
    assert run(["symbol", "--group", "gamma", "--level", "2",
                "--matrix", "3,2,4,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "0"
    assert payload["trace_class"] == "hyperbolic"
    assert payload["group"] == "Gamma(2)"


def test_symbol_phi_flag(capsys):
    assert run(["symbol", "--group", "sl2z", "--matrix", "2,1,1,1",
                "--phi"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_symbol_batch_csv(tmp_path, capsys):
    f = tmp_path / "mats.txt"
    f.write_text("1,1,0,1\n2,1,1,1\n# comment\n3,2,4,3\n")
    assert run(["symbol", "--group", "sl2z", "--input", str(f),
                "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "matrix,value,method"
    assert len(lines) == 4
    assert lines[1].split(",")[-2] == "1"


def test_symbol_gamma_level29_exact(capsys):
    # the C_{29,j} denominators reach ~1.3e8; the row is still exact
    assert run(["symbol", "--group", "gamma", "--level", "29",
                "--matrix", "842,29,29,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "principal-level/exact"
    assert payload["trace_class"] == "hyperbolic"


def test_symbol_gamma_deep_matrix(capsys):
    # |c| ~ 1.9e18; the Gamma(7)\SL2(Z) coset sum of this element's symbols
    # equals its classical Psi, 81, so 13/7 is pinned as a regression value
    m = ("13124060127688695144,-942264745386866363,"
         "1914338710032917315,-137443280482063926")
    assert run(["symbol", "--group", "gamma", "--level", "7",
                "--matrix", m, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "principal-level/exact"
    assert payload["value"] == "13/7"


def test_symbol_needs_level(capsys):
    assert run(["symbol", "--group", "gamma0", "--matrix", "1,1,0,1"]) == 1


@pytest.mark.parametrize("argv", [
    ["symbol", "--matrix", "2,1,1,1"],
    ["cusps"],
    ["cosets"],
    ["torsion", "--divisor", "inf:0"],
    ["period", "--matrix", "2,1,1,1", "--divisor", "inf:0"],
], ids=lambda argv: argv[0])
def test_sl2z_refuses_level(capsys, argv):
    # each used to exit 0 with --level 5 ignored
    assert run(argv + ["--group", "sl2z", "--level", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: --group sl2z takes no --level"
    assert run(argv + ["--group", "sl2z"]) == 0


def test_symbol_refuses_json_with_csv(capsys):
    # used to print CSV and exit 0
    assert run(["symbol", "--group", "sl2z", "--matrix", "2,1,1,1",
                "--json", "--csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--csv" in captured.err and "--json" in captured.err


@pytest.mark.parametrize("extra", [
    ["--level", "11"],
    ["--divisor", "0:1,inf:-1", "--level", "11"],
], ids=["level", "divisor"])
def test_period_refuses_tol_without_numeric(capsys, extra):
    # --level 11 --tol 5 used to print the exact -10 and exit 0
    assert run(["period", "--matrix", "1,0,11,1", "--tol", "5"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol ")
    assert run(["period", "--matrix", "1,0,11,1"] + extra) == 0


def test_symbol_level_zero_is_out_of_range(capsys):
    # --level 0 is given, so the error is its range, not a missing --level
    assert run(["symbol", "--group", "gamma0", "--level", "0",
                "--matrix", "1,1,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level must be >= 1" in captured.err
    assert "needs --level" not in captured.err


def test_malformed_matrix(capsys):
    assert run(["symbol", "--group", "sl2z", "--matrix", "1,2,3"]) == 1


def test_cusp_zero_over_zero_is_rejected(capsys):
    # 0/0 is no point of P^1(Q); it must not be read as infinity
    assert run(["symbol", "--group", "gamma0", "--level", "11",
                "--cusp", "0/0", "--matrix", "4,1,11,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0/0" in captured.err


@pytest.mark.parametrize("argv", [
    ["symbol", "--group", "gamma0", "--level", "11", "--cusp", "abc",
     "--matrix", "4,1,11,3"],
    ["torsion", "--group", "gamma0", "--level", "11",
     "--divisor", "abc:1,inf:-1"],
], ids=["symbol", "torsion"])
def test_cusp_that_is_no_number_is_rejected(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: 'abc' is not a cusp"


@pytest.mark.parametrize("argv, message", [
    (["symbol", "--group", "gamma", "--level", "3", "--matrix", "1,x,0,1"],
     "error: '1,x,0,1' is not an integer matrix a,b,c,d[;e]"),
    (["symbol", "--group", "gamma", "--level", "3", "--matrix", "1,2,0,1;y"],
     "error: '1,2,0,1;y' is not an integer matrix a,b,c,d[;e]"),
    (["period", "--matrix", "2,1,1,z", "--numeric"],
     "error: '2,1,1,z' is not an integer matrix a,b,c,d[;e]"),
    (["torsion", "--level", "11", "--divisor", "0:x,inf:-1"],
     "error: divisor term '0:x' has a multiplicity that is not an integer"),
    (["torsion", "--level", "11", "--divisor", "0:1,inf:"],
     "error: divisor term 'inf:' has a multiplicity that is not an integer"),
], ids=["matrix-entry", "matrix-scale", "period-matrix", "divisor-multiplicity",
        "divisor-empty-multiplicity"])
def test_non_integer_input_names_the_matrix_or_term(capsys, argv, message):
    # int()'s own message ("invalid literal for int() with base 10") named
    # neither the matrix nor the divisor term
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_period_numeric(capsys):
    assert run(["period", "--matrix", "5,2,2,1", "--numeric",
                "--tol", "1e-8"]) == 0
    v = float(capsys.readouterr().out.strip())
    assert abs(v - 0.0) < 1e-8  # psi of [[5,2],[2,1]] is 0


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_period_numeric_bad_tol(capsys, tol):
    # --tol nan used to switch the error check off and print 97
    assert run(["period", "--matrix", "6,563,1,94", "--numeric",
                "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be positive" in captured.err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one run, argparse exits included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_reused_across_calls(capsys):
    # the parser is built once per process; a usage error or another
    # subcommand in between must not change what a later call prints
    calls = [["symbol", "--group", "nosuch", "--matrix", "1,1,0,1"],
             ["symbol", "--group", "sl2z", "--matrix", "2,1,1,1"],
             ["sum", "1", "3"],
             ["cusps", "--group", "gamma0", "--level", "6", "--json"]]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert fresh[0][0] == 2 and "invalid choice" in fresh[0][2]
    assert fresh[1] == (0, "0\n", "")
    _build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, flag, out", [
    (["symbol", "--group", "sl2z", "--matrix", "-5,2,-3,1"], "--matrix", "-1\n"),
    (["symbol", "--group", "gamma0", "--level", "5", "--cusp", "-1/5",
      "--matrix", "2,1,5,3"], "--cusp", "1/2\n"),
    (["torsion", "--group", "gamma0", "--level", "11", "--divisor",
      "-1/11:1,0:-1"], "--divisor",
     "divisor +1(inf) -1(0) on Gamma0(11): torsion of order 5 [exact]\n"),
    (["period", "--matrix", "-5,2,-3,1", "--numeric"], "--matrix", "-1\n"),
    (["symbol", "--group", "sl2z", "--mat", "-5,2,-3,1"], "--mat", "-1\n"),
    (["symbol", "--group", "gamma0", "--level", "5", "--cus", "-1/5",
      "--matrix", "2,1,5,3"], "--cus", "1/2\n"),
    (["torsion", "--group", "gamma0", "--level", "11", "--div",
      "-1/11:1,0:-1"], "--div",
     "divisor +1(inf) -1(0) on Gamma0(11): torsion of order 5 [exact]\n"),
    (["period", "--mat", "-5,2,-3,1", "--num"], "--mat", "-1\n"),
], ids=["symbol-matrix", "symbol-cusp", "torsion-divisor", "period-matrix",
        "symbol-mat", "symbol-cus", "torsion-div", "period-mat"])
def test_value_with_a_leading_minus_after_a_space(capsys, argv, flag, out):
    # argparse took "-5,2,-3,1" for an unknown flag and exited 2, also after
    # an abbreviated flag; the space form must read as the "=" form
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    assert _outcome(capsys, argv) == _outcome(capsys, joined) == (0, out, "")


def test_negative_numbers_and_flags_keep_their_meaning(capsys):
    # a plain negative number is still a positional, and a flag after a
    # value-taking flag is still a flag, not its value
    assert _outcome(capsys, ["sum", "-3", "7"]) == (0, "1/14\n", "")
    code, out, err = _outcome(capsys, ["symbol", "--group", "sl2z",
                                       "--matrix", "--json"])
    assert code == 2 and out == "" and "expected one argument" in err


def test_ambiguous_abbreviation_before_a_leading_minus_still_exits_2(capsys):
    # "--c" of symbol could be --cusp or --csv, after a space as after "="
    spaced = _outcome(capsys, ["symbol", "--group", "sl2z", "--c", "-1"])
    joined = _outcome(capsys, ["symbol", "--group", "sl2z", "--c=-1"])
    assert spaced == joined
    assert spaced[0] == 2 and "ambiguous option" in spaced[2]


def test_period_exact_level(capsys):
    assert run(["period", "--matrix", "1,1,0,1", "--level", "11"]) == 0
    assert capsys.readouterr().out.strip() == "-10"


@pytest.mark.parametrize("level", ["0", "-3"])
def test_period_level_out_of_range(capsys, level):
    # --level is given, so the error is its range, not a missing route
    assert run(["period", "--matrix", "1,1,0,1", "--level", level]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level must be >= 1" in captured.err
    assert "period needs" not in captured.err


@pytest.mark.parametrize("extra, message", [
    (["--numeric", "--divisor", "0:1,inf:-1", "--level", "11"], "--numeric"),
    (["--numeric", "--level", "7"], "--numeric"),
    (["--group", "gamma1", "--level", "11"], "--group gamma1 needs --divisor"),
    (["--numeric", "--group", "gamma0"], "--numeric"),
], ids=["numeric-divisor", "numeric-level", "gamma1-without-divisor",
        "numeric-explicit-gamma0"])
def test_period_refuses_flags_it_would_ignore(capsys, extra, message):
    # each used to exit 0: the divisor's exact period, the quadrature without
    # its level, the Gamma0 x0-exact value for a Gamma1 group, and the
    # quadrature printing -10 under an explicit --group gamma0
    assert run(["period", "--matrix", "1,1,11,12"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_torsion_json(capsys):
    assert run(["torsion", "--group", "gamma0", "--level", "11",
                "--divisor", "0:-1,inf:1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 5
    assert payload["status"] == "exact"
    assert len(payload["generators"]) == len(payload["periods"])


def test_torsion_roundtrip(capsys):
    # re-verify the emitted certificate from its own JSON
    assert run(["torsion", "--group", "gamma0", "--level", "11",
                "--divisor", "0:-1,inf:1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from fractions import Fraction

    from radsym.modgroup import GroupId, parse_matrix
    from radsym.periods import Divisor, divisor_period

    G = GroupId.gamma0(11)
    D = Divisor.from_dict(G, {"0": -1, "inf": 1})
    for gtext, ptext in zip(payload["generators"], payload["periods"]):
        g = parse_matrix(gtext)
        assert divisor_period(D, g).rational == Fraction(ptext)
        assert (Fraction(ptext) * payload["order"]).denominator == 1


def test_cusps(capsys):
    assert run(["cusps", "--group", "gamma0", "--level", "11", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cusps"]) == 2


def test_cusps_show_the_least_member_of_each_class(capsys):
    # each class of Gamma0(30) is shown by its (q, p)-least member, 1/d
    assert run(["cusps", "--group", "gamma0", "--level", "30", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["cusp"] for row in payload["cusps"]] == [
        "inf", "0", "1/2", "1/3", "1/5", "1/6", "1/10", "1/15"]
    assert [row["width"] for row in payload["cusps"]] == [
        "1", "30", "15", "10", "6", "5", "3", "2"]
    assert run(["torsion", "--group", "gamma0", "--level", "30",
                "--divisor", "1/10:1,inf:-1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["divisor"] == "-1(inf) +1(1/10)"
    assert payload["order"] == 6


def test_cosets(capsys):
    assert run(["cosets", "--group", "gamma", "--level", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == 6


def test_cosets_refuses_a_group_with_no_table(capsys):
    assert run(["cosets", "--group", "gamma0+", "--level", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unsupported containment Gamma0(6)+ <= SL2(Z)\n"


def test_verify_suites(capsys):
    assert run(["verify", "cocycle", "--count", "200"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(["verify", "coset-sum", "--level", "2"]) == 0
    assert run(["verify", "oracle-consistency", "--level", "5"]) == 0
    assert run(["verify", "oracle-consistency", "--level", "9"]) == 0


def test_verify_oracle_consistency_passes_at_composite_levels(capsys):
    # x0_period_exact is the period of D_N at every N, the intermediate
    # cusps included; 27, 32 and 36 put weight on split classes
    for level in ["6", "8", "15", "27", "32", "36"]:
        assert run(["verify", "oracle-consistency", "--level", level]) == 0
        assert capsys.readouterr().out == "oracle-consistency: PASS\n"


def oracle_consistency_failures(levels):
    return [f for n in levels
            for f in cli._suite_oracle_consistency(argparse.Namespace(level=n))]


def test_oracle_consistency_sweep_gamma0_2_to_60():
    # x0_period_exact against the period of D_N on the 671 Schreier
    # generators of Gamma0(2..60)
    assert sum(len(schreier_generators(GroupId.gamma0(n)))
               for n in range(2, 61)) == 671
    assert oracle_consistency_failures(range(2, 61)) == []


def test_oracle_consistency_sweep_catches_peel_lift_mutants(monkeypatch):
    # the split classes of Gamma0(N), gcd(d, N/d) > 2, take _psi_lift,
    # and D_N weighs them at 8 of the levels 2..60 (18, 27, 32, 36, 45, 48,
    # 50 and 54): doubling every value, or adding 1 at the class of 1/3,
    # fails the sweep.  A uniform +1 on every split class passes it, since
    # the split multiplicities of D_N sum to 0 at every N <= 60
    lift = symbols._psi_lift
    mutants = [
        lambda G, cu, g: SymbolValue.exact(2 * lift(G, cu, g).rational),
        lambda G, cu, g: SymbolValue.exact(
            lift(G, cu, g).rational + cusp_equivalent(G, cu, Cusp(1, 3))),
    ]
    for mutant in mutants:
        monkeypatch.setattr(symbols, "_psi_lift", mutant)
        assert oracle_consistency_failures(range(2, 61))
    for n in range(2, 61):
        split = [gcd(cu.q, n) for cu, _w in cusps(GroupId.gamma0(n))
                 if gcd(gcd(cu.q, n), n // gcd(cu.q, n)) > 2]
        assert sum((n - d * d) // gcd(d * d, n) for d in split) == 0, n


@pytest.mark.parametrize("suite", ["oracle-consistency", "coset-sum"])
def test_verify_level_zero_is_out_of_range(capsys, suite):
    # level 0 is not replaced by the suite's default levels
    assert run(["verify", suite, "--level", "0"]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "level must be >= 1" in captured.err


@pytest.mark.parametrize("suite", ["reciprocity", "cocycle", "lemma"])
def test_verify_refuses_level_on_sl2z_suites(capsys, suite):
    # these suites check SL2(Z) only, so a --level would be ignored
    assert run(["verify", suite, "--level", "5"]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"error: the {suite} suite takes no --level" in captured.err


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("suite", ["cocycle", "coset-sum"])
def test_verify_count_below_one_is_an_error(capsys, suite, count):
    # a suite that ran no check does not pass
    assert run(["verify", suite, "--count", count]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "error: --count must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["cocycle", "--tol", "5", "--count", "10"],
    ["reciprocity", "--tol", "1e-3"],
    ["coset-sum", "--tol", "1e-3"],
    ["oracle-consistency", "--tol", "1e-3"],
    ["reciprocity", "--seed", "3"],
    ["oracle-consistency", "--seed", "3"],
    ["oracle-consistency", "--count", "10"],
])
def test_verify_refuses_flags_the_suite_never_reads(capsys, argv):
    # --tol is read by lemma only, --seed by cocycle, coset-sum and lemma,
    # --count by every suite but oracle-consistency
    assert run(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"error: the {argv[0]} suite takes no {argv[1]}" in captured.err


@pytest.mark.parametrize("argv", [
    ["reciprocity", "--count", "20"],
    ["cocycle", "--seed", "3", "--count", "10"],
    ["coset-sum", "--level", "3", "--seed", "3", "--count", "10"],
    ["lemma", "--tol", "1e-6", "--seed", "3", "--count", "1"],
])
def test_verify_reads_every_flag_of_its_suite(capsys, argv):
    assert run(["verify", *argv]) == 0
    assert f"{argv[0]}: PASS" in capsys.readouterr().out


def test_verify_lemma_fails_an_understated_error(capsys, monkeypatch):
    # each period is moved off Psi by 1e-9 and reports an error of 1e-10:
    # within tol = 1e-8 of Psi, but outside its own error
    period_numeric = cli.period_numeric

    def understated(g, tol):
        p = period_numeric(g, tol)
        return NumericPeriod(p.approx + 1e-9, 1e-10)

    monkeypatch.setattr(cli, "period_numeric", understated)
    assert run(["verify", "lemma", "--count", "1"]) == 1
    assert "lemma: FAIL" in capsys.readouterr().out


def test_deterministic_output(capsys):
    args = ["torsion", "--group", "gamma0", "--level", "11",
            "--divisor", "0:-1,inf:1", "--json"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second
