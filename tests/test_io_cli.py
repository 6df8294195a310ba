import hashlib
import time

import pytest

from conormal import ParseError
from conormal.io import parse_ideal_file, parse_ideal_text
from conormal.constructions import EXAMPLE61_PRIME
from conormal.cli import main
from conormal.harness import ExperimentConfig, conjecture_experiment, criteria_table

from conftest import EXAMPLE61_TEXT, EXAMPLE61_VARS, example61_ideal

# the transcribed text of Example 6.1 under an ideal-file header
EXAMPLE61_FILE = f"ring p={EXAMPLE61_PRIME} vars={','.join(EXAMPLE61_VARS)}\n{EXAMPLE61_TEXT}\n"


def test_parse_benchmark_file_round_trip():
    ideal = example61_ideal()
    parsed = parse_ideal_text(EXAMPLE61_FILE)
    assert parsed.ring == ideal.ring
    assert parsed.generators == ideal.generators
    # printing the parsed generators and parsing them again changes nothing
    header = EXAMPLE61_FILE.splitlines()[0]
    printed = "\n".join([header] + [parsed.ring.format_poly(g) for g in parsed.generators])
    assert parse_ideal_text(printed).generators == parsed.generators


def test_parse_header_errors():
    with pytest.raises(ParseError):
        parse_ideal_text("")
    with pytest.raises(ParseError):
        parse_ideal_text("ring p=4 vars=x,y\nx")
    with pytest.raises(ParseError):
        parse_ideal_text("ring p=2 vars=x\nx")
    with pytest.raises(ParseError):
        parse_ideal_text("ring p=abc vars=x\nx")
    with pytest.raises(ParseError):
        parse_ideal_text("ring vars=x p=7\nx")
    with pytest.raises(ParseError):
        parse_ideal_text("ring p=7 vars=\nx")
    with pytest.raises(ParseError):
        parse_ideal_text("ring p=7 vars=x")
    for header in ("ring p=7", "field p=7 vars=x"):
        with pytest.raises(ParseError, match="malformed header"):
            parse_ideal_text(header + "\nx")
    # the modulus is read by the body's rule for integers: ASCII digits only
    for modulus in ("31_991", "+31991", "\u0663\u0661\u0669\u0669\u0661"):
        with pytest.raises(ParseError) as err:
            parse_ideal_text(f"ring p={modulus} vars=x,y\nx")
        assert str(err.value) == f"modulus {modulus!r} is not an integer at line 1, column 1"
    # variable names the ring refuses are header errors too, at its start
    for header in (
        "ring p=7 vars=x,x", "ring p=7 vars=x,1y", "ring p=7 vars=x,,y", "ring p=7 vars=x,y,"
    ):
        with pytest.raises(ParseError) as err:
            parse_ideal_text(header + "\nx")
        assert (err.value.line, err.value.column) == (1, 1)


def test_parse_body_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_ideal_text("ring p=7 vars=x,y\nx^2 + + y")
    assert err.value.line == 2
    assert err.value.column == 7
    with pytest.raises(ParseError) as err:
        parse_ideal_text("ring p=7 vars=x,y\nx\nz + y")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "body, line, column",
    [("x + y^200", 2, 5), ("x\n3 - x^70*y^70", 3, 5), ("x^60*y*x^61", 2, 1)],
)
def test_parse_out_of_range_exponents_carry_their_position(body, line, column):
    with pytest.raises(ParseError) as err:
        parse_ideal_text("ring p=7 vars=x,y\n" + body)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_ideal_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("ring p=7 vars=x,y\nx^2 + y\nx*y\n")
    ideal = parse_ideal_file(path)
    assert len(ideal.generators) == 2


def test_cli_selftest_exit_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out


def test_cli_verify_example61(capsys):
    assert main(["verify-example61"]) == 0
    out = capsys.readouterr().out
    assert "verdict: all facts hold" in out
    assert "fact h-vector (1, 5, 4): ok" in out


def test_verify_example61_refuses_frozen_points_not_in_general_position(monkeypatch):
    # ten points on a line of P^5 have Hilbert function 1, 2, 3, ..., not
    # the generic 1, 6, 10
    from conormal import harness
    from conormal.points import make_point_set

    line = [(1, t, 0, 0, 0, 0) for t in range(10)]
    monkeypatch.setattr(harness, "example61_points", lambda: make_point_set(5, 31991, line))
    with pytest.raises(ValueError, match="not in general position"):
        harness.verify_example61(ExperimentConfig(command="verify-example61"))


def test_cli_verify_example61_refuses_another_prime(capsys):
    # the frozen points live over GF(31991); --p cannot move them
    assert main(["verify-example61", "--p", "32003"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GF(31991)" in captured.err


def test_cli_criteria_table(capsys):
    assert main(["criteria-table", "--cmax", "5", "--smax", "8"]) == 0
    out = capsys.readouterr().out
    assert "c=5: undecided q in [11]" in out
    assert "c=5: 10 points" in out


def test_cli_analyze_points(capsys):
    # the square of the ideal of a plane triangle is classically not
    # saturated, hence not Cohen-Macaulay: exit code 1
    assert main(["analyze", "--points", "2,3", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "cm_square: NotCM" in out


def test_cli_analyze_file(tmp_path, capsys):
    path = tmp_path / "bench.txt"
    path.write_text(EXAMPLE61_FILE)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cm_square: CM" in out
    assert "q: 11" in out


def test_cli_analyze_the_field_itself(tmp_path, capsys):
    # the linear forms span every variable: the quotient is the field
    path = tmp_path / "field.txt"
    path.write_text("ring p=7 vars=x,y\nx\ny\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\nhf: 1\n" in out and "\ntau: 1\n" in out and "cm_square: n/a" in out


def test_cli_analyze_rejects_a_quotient_that_is_not_local(tmp_path, capsys):
    path = tmp_path / "two_points.txt"
    path.write_text("ring p=7 vars=x,y\nx^2 - x\ny\n")
    assert main(["analyze", str(path)]) == 1
    assert "not local" in capsys.readouterr().err


def test_cli_analyze_points_skips_buchberger_on_the_points_basis(monkeypatch, capsys):
    # the vanishing ideal is already a reduced basis; only file input goes
    # through Buchberger in the harness
    import conormal.harness as harness

    monkeypatch.setattr(harness, "buchberger", None)
    assert main(["analyze", "--points", "3,5", "--seed", "1"]) in (0, 1)
    assert "e: 5" in capsys.readouterr().out


def test_cli_analyze_needs_input(capsys):
    assert main(["analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: analyze needs a file path or --points c,n\n"


def test_cli_analyze_takes_a_file_or_points_not_both(tmp_path, capsys):
    path = tmp_path / "bench.txt"
    path.write_text(EXAMPLE61_FILE)
    assert main(["analyze", str(path), "--points", "4,9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: analyze takes a file path or --points c,n, not both\n"


def test_cli_missing_ideal_file_is_an_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err


def test_cli_unwritable_output_is_an_error(tmp_path, capsys):
    out_path = tmp_path / "no" / "such" / "report.txt"
    argv = ["criteria-table", "--cmax", "3", "--smax", "3", "--output", str(out_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("points", ["5", "3,x", "1,2,3"])
def test_cli_points_needs_c_and_n(points, capsys):
    assert main(["analyze", "--points", points]) == 1
    assert "--points needs c,n" in capsys.readouterr().err


def test_cli_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ring p=7 vars=x\nx + + x\n")
    assert main(["analyze", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_conjecture_long_gate(capsys):
    assert main(["conjecture", "--c", "7"]) == 1
    assert "allow-long" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_conjecture_needs_a_trial(trials, capsys):
    assert main(["conjecture", "--c", "5", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: an Artinian reduction needs at least 1 trial, got {trials}\n"


def test_cli_conjecture_c5(capsys):
    assert main(["conjecture", "--c", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "counterexample: true" in out


def test_cli_stretched_suite_small_grid(capsys):
    assert main(["stretched-suite", "--cmax", "3", "--smax", "2"]) == 0
    out = capsys.readouterr().out
    assert "c=3 s=2 r=0" in out
    assert "suite: ok" in out
    assert "FAILED" not in out


def test_cli_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["criteria-table", "--cmax", "3", "--smax", "3", "--output", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_cli_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("CONORMAL_STEP_BUDGET", "250")
    code = main(["verify-example61"])
    assert code in (1, 2)  # cannot finish inside 250 steps
    capsys.readouterr()
    monkeypatch.setenv("CONORMAL_STEP_BUDGET", "bogus")
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CONORMAL_STEP_BUDGET='bogus' is not an integer\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        # an integer is ASCII digits after an optional '-', as in an ideal file
        (["analyze", "--points", "\u0663,\u0666"], None, "--points needs c,n, got '\u0663,\u0666'"),
        (["analyze", "--points", "3,+6"], None, "--points needs c,n, got '3,+6'"),
        (["analyze", "--points", "3,6", "--p", "31_991"], None, "--p='31_991' is not an integer"),
        (["analyze", "--points", "3,6", "--seed", "+0"], None, "--seed='+0' is not an integer"),
        (["conjecture", "--c", "abc"], None, "--c='abc' is not an integer"),
        (["conjecture", "--c", "5", "--n", "1_0"], None, "--n='1_0' is not an integer"),
        (["conjecture", "--c", "5", "--trials", " 1"], None, "--trials=' 1' is not an integer"),
        (["conjecture", "--c", "5", "--budget", "1e3"], None, "--budget='1e3' is not an integer"),
        (["stretched-suite", "--cmax", "\uff13"], None, "--cmax='\uff13' is not an integer"),
        (["criteria-table", "--smax=-"], None, "--smax='-' is not an integer"),
        (["selftest"], "+5", "CONORMAL_STEP_BUDGET='+5' is not an integer"),
        (["selftest"], "\u0665", "CONORMAL_STEP_BUDGET='\u0665' is not an integer"),
    ],
)
def test_cli_integers_are_ascii_digits(argv, env, message, monkeypatch, capsys):
    # a bad spelling is an input error (exit 1), never a usage error (exit 2)
    if env is None:
        monkeypatch.delenv("CONORMAL_STEP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CONORMAL_STEP_BUDGET", env)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjecture"], "the following arguments are required: --c"),
        # argparse takes -x for an option, so --seed has no value
        (["conjecture", "--c", "5", "--seed", "-x"], "argument --seed: expected one argument"),
    ],
)
def test_cli_usage_errors_are_input_errors(argv, message, capsys):
    # exit 1 like every other input error; exit 2 is Inconclusive only
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--help"])
    assert exc.value.code == 0
    assert "--allow-long" in capsys.readouterr().out


def test_cli_integers_take_a_minus_sign_and_leading_zeros(capsys):
    argv = ["criteria-table", "--cmax", "3", "--smax", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.replace("seed: 0", "seed: -3")
    assert main(["criteria-table", "--cmax", "03", "--smax", "003", "--seed", "-3"]) == 0
    assert capsys.readouterr().out == expected


def test_reports_are_reproducible():
    config = ExperimentConfig(command="conjecture", c=5, seed=3)
    text1, code1 = conjecture_experiment(config)
    text2, code2 = conjecture_experiment(config)
    assert text1 == text2 and code1 == code2
    t1, _ = criteria_table(ExperimentConfig(command="criteria-table", cmax=4, smax=4))
    t2, _ = criteria_table(ExperimentConfig(command="criteria-table", cmax=4, smax=4))
    assert t1 == t2


def test_parse_skips_comments(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text("# a comment\nring p=7 vars=x,y\n# another\nx^2\n")
    assert len(parse_ideal_file(path).generators) == 1


def test_cli_analyze_rejects_higher_dimension(tmp_path, capsys):
    # a single quadric in four variables has a two-dimensional quotient:
    # no linear form can make it Artinian
    path = tmp_path / "surface.txt"
    path.write_text("ring p=31991 vars=x,y,z,w\nx*y - z*w\n")
    assert main(["analyze", str(path), "--trials", "2"]) == 1
    assert "dimension above 1" in capsys.readouterr().err


def test_cli_conjecture_tiny_budget_is_inconclusive(capsys):
    assert main(["conjecture", "--c", "5", "--seed", "1", "--budget", "60"]) == 2
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_cli_points_past_the_degree_limit_fail_at_once(capsys):
    started = time.monotonic()
    assert main(["analyze", "--points", "2,100000", "--budget", "100"]) == 1
    assert "past total degree 120" in capsys.readouterr().err
    assert time.monotonic() - started < 5


def test_cli_points_in_p0_blame_the_dimension(capsys):
    # P^0 is the fault, not the degree limit it would otherwise run into
    assert main(["analyze", "--points", "0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: projective dimension must be at least 1, got 0\n"


def test_cli_points_can_exhaust_the_budget_in_the_vanishing_ideal(capsys):
    # 500 points in P^2 need an echelon of 500 columns per degree
    started = time.monotonic()
    assert main(["analyze", "--points", "2,500", "--budget", "1000"]) == 2
    assert "inconclusive: reduction step budget of 1000 exceeded" in capsys.readouterr().out
    assert time.monotonic() - started < 10


def test_verify_example61_single_trial():
    # the certifying linear form is found on the first trial
    from conormal.harness import verify_example61

    text, code = verify_example61(
        ExperimentConfig(command="verify-example61", trials=1)
    )
    assert code == 0
    assert "cm_trials: 1" in text
    assert "verdict: all facts hold" in text


def test_report_echoes_config():
    config = ExperimentConfig(command="conjecture", c=5, seed=3, trials=2)
    text, _ = conjecture_experiment(config)
    assert "command: conjecture" in text
    assert "seed: 3" in text
    assert "trials: 2" in text
    assert "p: 31991" in text
    assert "agreement: true" in text


@pytest.mark.parametrize(
    "argv, code, sha256",
    [
        (["verify-example61"], 0,
         "e1282fc09ce439856d39671c2b8ee0b7b5cfe70ca0da4a34357c7d3bb56fda44"),
        (["conjecture", "--c", "5"], 0,
         "d0124f2e8a4dbf383c0e021d89a2767e7248cd07738c2879a27537b624cdbeed"),
        (["conjecture", "--c", "5", "--n", "8"], 1,
         "ec8bdbbf5d3ed7e8a34e1db6c83562da02c1f272cfc32b177b8d8916f90894ab"),
        (["stretched-suite", "--cmax", "4", "--smax", "3"], 0,
         "f9f3ea24b7d08b7ebdda15df12875464c868b88e165744f34bb4a4b89f11a144"),
        (["conjecture", "--c", "5", "--p", "2147483647"], 0,
         "bb29334d83fe2df9f63b5240ed25d84ec1f6aed3b300ae307db2052015977bff"),
        (["conjecture", "--c", "5", "--n", "11"], 1,
         "c6054d7e4b182f167ac071e66bd2e39187f73f3f93279283a20b983f6fc0d60b"),
        (["analyze", "--points", "4,9"], 1,
         "a33b8fbae31c320af78aa0007bb55d67f5be5682c7308e4115937e31baeb78e1"),
        (["analyze", "triple.txt"], 0,
         "64325bd366ad1f9d65f34bf3f8854cb7f3967ce6226c43c6d90d5628ae89a8aa"),
        (["analyze", "stretched.txt"], 0,
         "f73214a0a5ddd8899d0908ccfeb14c0abccca9d064261933a34e1b6616de88c7"),
    ],
)
def test_report_bytes_are_pinned(argv, code, sha256, tmp_path, monkeypatch, capsys):
    # whole reports at seed 0: CM, CM, NotCM by counting, a stretched grid,
    # CM over a larger prime, NotCM by the sweep (n = 11, where counting
    # proves nothing), points NotCM, a file whose reduction keeps a linear
    # element, and a local ring whose filtration is not its grading; a
    # refactor must leave them byte-identical, and a change that alters them
    # says why and updates the pin
    monkeypatch.delenv("CONORMAL_STEP_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    # the two points (0:1:0) and (0:0:1) of P^2: I = (x, yz)
    (tmp_path / "triple.txt").write_text("ring p=31991 vars=x,y,z\nx\ny*z\n")
    # graded standard-monomial counts 1 3 2, local hf 1 3 1 1, socle degrees 1 3
    (tmp_path / "stretched.txt").write_text(
        "ring p=31991 vars=x,y,z\nx^2\nx*y\nx*z\ny*z\nz^3 - 5*y^2\n"
    )
    assert main(argv + ["--seed", "0"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["verify-example61"], 100),
        (["stretched-suite"], 50),
        (["analyze", "EXAMPLE61"], 100),
        (["conjecture", "--c", "5", "--seed", "1"], 60),
        (["conjecture", "--c", "5"], 0),
        (["analyze", "--points", "2,500"], 1000),
    ],
)
def test_an_exhausted_budget_exits_2_in_every_verb(argv, budget, tmp_path, monkeypatch, capsys):
    # wherever the budget runs out, the report is the config echo and the
    # reason, and the exit code is 2 (Inconclusive)
    monkeypatch.delenv("CONORMAL_STEP_BUDGET", raising=False)
    path = tmp_path / "bench.txt"
    path.write_text(EXAMPLE61_FILE)
    argv = [str(path) if a == "EXAMPLE61" else a for a in argv]
    assert main(argv + ["--budget", str(budget)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == f"command: {argv[0]}" and f"budget: {budget}" in lines
    assert lines[-1] == f"inconclusive: reduction step budget of {budget} exceeded"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, env",
    [(["conjecture", "--c", "5", "--budget", "-1"], None), (["selftest"], "-1")],
)
def test_cli_rejects_a_negative_budget(argv, env, monkeypatch, capsys):
    # from the flag or from the environment: an input error, not an
    # Inconclusive verdict
    if env is None:
        monkeypatch.delenv("CONORMAL_STEP_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CONORMAL_STEP_BUDGET", env)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the step budget must be at least 0, got -1\n"


def test_run_calls_the_verb_bound_to_its_name(monkeypatch):
    # a wrapper bound to a verb's name in the harness (as the benchmark's
    # tracer binds one) is what `run` calls
    import conormal.harness as harness

    calls = []
    monkeypatch.setattr(harness, "conjecture_experiment", lambda config: calls.append(config) or ("", 0))
    config = ExperimentConfig(command="conjecture", c=5)
    assert harness.run(config) == ("", 0) and calls == [config]


def test_cli_analyze_refuses_a_ring_that_is_not_cm(tmp_path, capsys):
    # R/(x^2, xy) has the Hilbert function 1, 2, 1, 1, ...: it falls, so
    # R/I is not CM and the reduction refuses it
    path = tmp_path / "embedded.txt"
    path.write_text("ring p=31991 vars=x,y\nx^2\nx*y\n")
    assert main(["analyze", str(path)]) == 1
    assert "not Cohen-Macaulay" in capsys.readouterr().err


def test_cli_analyze_refuses_a_hilbert_function_that_leaves_its_plateau(tmp_path, capsys):
    # R/(x^3, xy) has the Hilbert function 1, 2, 2, 1, 1, ...: it levels off
    # at 2 in degree 1, which passes the reduction, and then falls, so R/I
    # is not CM and e is 1, not 2
    path = tmp_path / "plateau.txt"
    path.write_text("ring p=31991 vars=x,y\nx^3\nx*y\n")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: R/I is not Cohen-Macaulay of dimension 1: its Hilbert function "
        "leaves its plateau 2 in degree 3, at 1\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conjecture", "--c", "4"], "error: the experiment needs --c at least 5"),
        (["stretched-suite", "--cmax", "2"], "error: the grid starts at c=3, s=2"),
        (
            ["analyze", "--points", "3,40", "--p", "3"],
            "error: no general configuration of 40 points in P^3 over GF(3) "
            "after 10 redraws (seed 0)",
        ),
    ],
)
def test_cli_refuses_arguments_out_of_range(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("vars=x,y\n1", "error: the quotient is the zero ring"),
        ("vars=x,y\nx - x", "error: an ideal needs at least one nonzero generator"),
        ("vars=x,y\nx y", "parse error: expected '+' or '-', found 'y' at line 2, column 3"),
        ("vars=x,y\nx$y", "parse error: unexpected character '$' at line 2, column 2"),
        ("vars=x,y\nx^", "parse error: expected an integer exponent after '^' at line 2, column 1"),
        ("vars=x,y\nx *", "parse error: expected a coefficient or variable at line 2, column 3"),
        ("vars=x,x\nx", "parse error: duplicate variable names at line 1, column 1"),
        ("vars=x,1y\nx", "parse error: variable name '1y' is not an identifier at line 1, column 1"),
        ("vars=x,,y\nx", "parse error: variable name '' is not an identifier at line 1, column 1"),
        ("vars=x,y,\nx", "parse error: variable name '' is not an identifier at line 1, column 1"),
        # digits are ASCII: a superscript two or an Arabic-Indic three is no integer
        ("vars=x,y\n2\u00b2*x", "parse error: unexpected character '\u00b2' at line 2, column 2"),
        ("vars=x,y\n\u0663*x", "parse error: unexpected character '\u0663' at line 2, column 1"),
    ],
)
def test_cli_refuses_ideal_files(text, message, tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text(f"ring p=31991 {text}\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
