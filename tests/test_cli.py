import json
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from qlidstone import cli, qspecial
from qlidstone.qcore import QContext
from qlidstone.qpolys import IdentityReport, build_family, build_numbers


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_numbers_csv(capsys):
    code, out = run(capsys, "numbers", "--kind", "beta", "--s", "1/2", "--order", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,numerator,denominator"
    assert lines[2] == "1,-1,2"  # beta_1 = -1/2
    assert len(lines) == 10


def test_numbers_json_schema(capsys):
    code, out = run(capsys, "numbers", "--kind", "im", "--s", "1/2", "--order", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["rows"][1] == [1, -1, 2]


def test_identities_all_pass(capsys):
    code, out = run(capsys, "identities", "--all", "--s", "1/2", "--order", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    names = {r["name"] for r in doc["results"]}
    assert {"connection_F1", "q_square_relation", "eq18"} <= names


def test_identities_failure_exit_code(capsys, monkeypatch):
    # inject a failing check to exercise the nonzero-exit path honestly
    import qlidstone.qpolys as qp

    def broken(ctx, n_max):
        return IdentityReport(name="broken", max_n=n_max, passed=False,
                              results=((0, False),),
                              first_failure={"n": 0, "lhs": ["1"], "rhs": ["2"]})

    monkeypatch.setitem(qp._REGISTRY, "broken", broken)
    code, out = run(capsys, "identities", "--name", "broken", "--s", "1/2")
    doc = json.loads(out)
    assert code == 1
    assert doc["pass"] is False
    assert doc["results"][0]["first_failure"]["n"] == 0


def test_zeros_json(capsys):
    code, out = run(capsys, "zeros", "--kind", "sq-eta", "--qfloat", "0.25")
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["bound_check"] is True
    assert doc["report"]["value"] == pytest.approx(2.3474430832, rel=1e-9)


def test_expand_exact_zero(capsys):
    code, out = run(capsys, "expand", "--kind", "bernoulli", "--fn", "phi:4:1/2", "--K", "2", "--s", "1/2")
    doc = json.loads(out)
    assert code == 0
    assert doc["residual"] == "exact-zero"
    assert doc["exact"] is True


def test_expand_stream_file(capsys, tmp_path):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps(["0", "1", "0", "1/8"]))
    code, out = run(capsys, "expand", "--kind", "euler", "--fn", f"stream:@{path}", "--K", "2", "--s", "1/2")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["data_at_zero"]) == 3


def test_expand_bad_fn_spec(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "--kind", "euler", "--fn", "nope:1", "--K", "1", "--s", "1/2"])
    assert err.value.code == 2
    capsys.readouterr()


def test_guichard_solve(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(["1", "0", "1/4"]))
    code, out = run(capsys, "guichard", "--preset", "alsalam-half", "--p", "4", "--coeffs", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["verified"] is True
    assert len(doc["g"]) == 4


def test_expand_zero_denominator_names_the_spec(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["expand", "--kind", "bernoulli", "--fn", "phi:4:1/0", "--K", "2", "--s", "1/2"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == ["error: bad function spec 'phi:4:1/0': Fraction(1, 0)"]


def test_unwritable_output_exit_2(capsys, tmp_path):
    # every command is rendered and written by main; a path it cannot open is named, with no traceback
    target = str(tmp_path / "missing" / "x.json")
    for argv in (["numbers", "--kind", "beta", "--s", "1/2", "--order", "5"],
                 ["identities", "--name", "eq18", "--s", "1/2", "--order", "2"],
                 ["zeros", "--kind", "cq-eta", "--qfloat", "0.25"],
                 ["guichard", "--p", "4"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--output", target])
        assert err.value.code == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot write --output {target!r}: No such file or directory"]


_KNOWN = ("connection_F1, connection_F2, reflection_B, reflection_beta, eq16, eq17, eq18, q_square_relation, "
          "translation_B, translation_E, numbers_agree_Eq10, ladders, eq4_decomposition, euler_decomposition, "
          "hermite_rep")
_COEFF_FILES = {"scalar.json": "5", "empty.json": "", "nested.json": "[[1]]"}


@pytest.mark.parametrize("argv, message", [
    ("numbers --kind beta", "one of --s or --q is required"),
    ("numbers --kind beta --s 1/2 --q 1/81", "give only one of --s or --q"),
    ("numbers --kind beta --s 7/3", "s must lie in (0, 1), got 7/3"),
    ("numbers --kind beta --q 1/5", "q = 1/5 is not the fourth power of a rational"),
    ("identities --name bogus --s 1/2", f"unknown identity 'bogus'; known: {_KNOWN}"),
    ("identities --all --s 1/2 --order 2 --format csv", "this command has no tabular form; use --format json"),
    ("zeros --kind sq-eta --qfloat 1.5", "--qfloat must lie in (0, 1), got 1.5"),
    ("zeros --kind cq-eta --qfloat nan", "--qfloat must lie in (0, 1), got nan"),
    pytest.param("zeros --kind sq-eta --qfloat 0.99999", "tail bound did not converge: (a; base)_inf at a = "
                 "-2.467388763340686e-10, base = 0.9999800001000001 needs more than 1000000 factors",
                 id="zeros --kind sq-eta --qfloat 0.99999-tail bound did not converge"),
    ("expand --kind euler --fn nope:1 --K 1 --s 1/2",
     "bad function spec 'nope:1'; use rho:n, mono:n, phi:n:a, or stream:@file"),
    ("expand --kind euler --fn rho:-1 --K 1 --s 1/2", "bad function spec 'rho:-1': n must be nonnegative"),
    ("expand --kind euler --fn stream:@missing.json --K 1 --s 1/2",
     "bad coefficient file 'missing.json': [Errno 2] No such file or directory: 'missing.json'"),
    ("expand --kind euler --fn stream:@nested.json --K 1 --s 1/2",
     "bad coefficient file 'nested.json': Invalid literal for Fraction: '[1]'"),
    ("expand --kind euler --fn mono:2 --K 1 --s 1/2 --output missing/x.json",
     "cannot write --output 'missing/x.json': No such file or directory"),
    ("guichard --p 1", "p = 1 reduces alsalam-half to the classical case; use preset ones"),
    ("guichard --p 1/2 --growth-order 3", "--growth-order needs p > 1 (the bound is stated for q = 1/p < 1)"),
    ("guichard --p 0", "p must be positive"),
    ("guichard --p 4 --coeffs scalar.json",
     "bad coefficient file 'scalar.json': expected a JSON array of coefficients, got int"),
    ("guichard --p 4 --coeffs empty.json",
     "bad coefficient file 'empty.json': Expecting value: line 1 column 1 (char 0)"),
    ("guichard --p 4 --output .", "cannot write --output '.': Is a directory"),
])
def test_error_messages_are_pinned(capsys, monkeypatch, tmp_path, argv, message):
    # every usage error exits 2 with exactly this one stderr line and nothing on stdout
    monkeypatch.chdir(tmp_path)
    for name, text in _COEFF_FILES.items():
        (tmp_path / name).write_text(text)
    assert _outcome(capsys, argv.split()) == (2, "", f"error: {message}\n")


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["numbers", "--kind", "beta", "--s", "7/3"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: s must lie in (0, 1), got 7/3\n"
    with pytest.raises(SystemExit) as err:
        cli.main(["numbers", "--kind", "beta", "--s", "abc"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["identities", "--name", "bogus", "--s", "1/2"])
    assert err.value.code == 2
    capsys.readouterr()
    # a q far beyond the float range that is not a fourth power
    with pytest.raises(SystemExit) as err:
        cli.main(["numbers", "--kind", "beta", "--q", f"1/{10 ** 401}"])
    assert err.value.code == 2
    assert "not the fourth power" in capsys.readouterr().err
    for argv, flag in [
        (["polys", "--family", "rho", "--order", "-1", "--s", "1/2"], "--order"),
        (["numbers", "--kind", "beta", "--order", "-1", "--s", "1/2"], "--order"),
        (["identities", "--all", "--order", "-1", "--s", "1/2"], "--order"),
        (["lidstone-basis", "--kind", "A", "--K", "-1", "--s", "1/2"], "--K"),
        (["expand", "--kind", "euler", "--fn", "rho:2", "--K", "-1", "--s", "1/2"], "--K"),
        (["guichard", "--p", "4", "--growth-order", "-1"], "--growth-order"),
    ]:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
    # coefficient files must hold one JSON array; the message names the file
    for name, text in [("scalar.json", "5"), ("string.json", '"12"'), ("object.json", '{"a": 1}'),
                       ("broken.json", "[1,"), ("entry.json", '["1/0"]'), ("missing.json", None)]:
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for argv in (["expand", "--kind", "euler", "--fn", f"stream:@{path}", "--K", "1", "--s", "1/2"],
                     ["guichard", "--p", "4", "--coeffs", str(path)]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2, (name, argv[0])
            assert str(path) in capsys.readouterr().err


def test_zeros_near_q_one_exit_2(capsys):
    # the residual's product needs more than 1000000 factors at q = 0.99999
    with pytest.raises(SystemExit) as err:
        cli.main(["zeros", "--kind", "sq-eta", "--qfloat", "0.99999"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tail bound did not converge" in captured.err


@pytest.mark.parametrize("kind, name", [("sq-eta", "Sq_eta"), ("cq-eta", "Cq_eta"), ("sinq", "Sinq")])
def test_zeros_tiny_base_exit_2(capsys, kind, name):
    # the scan bounds q**-1.5 and q**-3 leave the float range at q = 1e-300
    with pytest.raises(SystemExit) as err:
        cli.main(["zeros", "--kind", kind, "--qfloat", "1e-300"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {name} scan bounds at q = 1e-300 leave the float range"]


@pytest.mark.parametrize("q", ["1e-60", "1e-100"])
def test_zeros_sinq_at_a_tiny_base(capsys, q):
    assert cli.main(["zeros", "--kind", "sinq", "--qfloat", q]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["value"] == pytest.approx(float(q) ** -1.5, rel=1e-12)


@pytest.mark.parametrize("q", ["1e-85", "1e-100"])
def test_zeros_sq_eta_at_a_tiny_base(capsys, q):
    # w**(2k+1) alone leaves the float range here, though the terms of the series do not
    assert cli.main(["zeros", "--kind", "sq-eta", "--qfloat", q]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["value"] == pytest.approx(float(q) ** -0.75, rel=1e-12)


def test_guichard_growth_at_a_tiny_base_exit_2(capsys):
    # the growth statistic needs the first Sinq zero at q = 1/p = 1e-200
    with pytest.raises(SystemExit) as err:
        cli.main(["guichard", "--preset", "ones", "--p", str(10 ** 200), "--growth-order", "4"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Sinq scan bounds at q = 1e-200 leave the float range"]


@pytest.mark.parametrize("p, message", [
    (10 ** 35, "(2 xi_1)**6 at q = 1e-35, xi_1 = 3.16228e+52 leaves the float range"),
    (10 ** 40, "(2 xi_1)**6 at q = 1e-40, xi_1 = 1e+60 leaves the float range"),
])
def test_guichard_growth_past_the_float_range_exit_2(capsys, p, message):
    # xi_1 is found, but the statistic's factor (2 xi_1)**n overflows a float (it was an OverflowError traceback)
    assert _outcome(capsys, ["guichard", "--preset", "ones", "--p", str(p), "--growth-order", "6"]) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind, s", [("euler", f"1/{10 ** 30}"), ("bernoulli", f"1/{10 ** 76}"),
                                     ("bernoulli", "999999/1000000")])
def test_expand_without_a_zero_reports_no_cap(capsys, kind, s):
    # the convergence cap's zero search cannot answer at a tiny base (its scan bounds overflow)
    # nor near q = 1 (its residual's product does not converge); the exact expansion still runs
    code, out = run(capsys, "expand", "--kind", kind, "--fn", "mono:2", "--K", "1", "--s", s)
    doc = json.loads(out)
    assert code == 0
    assert doc["residual"] == "exact-zero"
    assert doc["cap"] is None


def test_zeros_sq_eta_at_q_0_9999(capsys):
    # the residual's product takes about 2.2e5 factors here
    code, out = run(capsys, "zeros", "--kind", "sq-eta", "--qfloat", "0.9999")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["value"] == pytest.approx(1.5708356029741515e-4, rel=1e-12)
    assert report["residual"] < 1e-12


def test_q_flag_fourth_power(capsys):
    code, out = run(capsys, "numbers", "--kind", "beta", "--q", "1/16", "--order", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,3,8"
    with pytest.raises(SystemExit) as err:
        cli.main(["numbers", "--kind", "beta", "--q", "1/5"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: q = 1/5 is not the fourth power of a rational\n"


def test_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(["polys", "--family", "beta", "--s", "3/5", "--order", "6",
                         "--output", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_file(capsys, tmp_path):
    target = tmp_path / "zeros.json"
    code = cli.main(["zeros", "--kind", "cq-eta", "--qfloat", "0.25", "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["command"] == "zeros"


def test_lidstone_basis_command(capsys):
    code, out = run(capsys, "lidstone-basis", "--kind", "A", "--K", "3", "--s", "1/2")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["entries"]) == 4
    # A_0 = x / eta: symmetric-Laurent coefficients (0, 1/(2 eta)) = (0, 2/5)
    assert doc["entries"][0]["coeffs"] == ["0/1", "2/5"]


@contextmanager
def _no_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_numbers_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "numbers", "--kind", "suslov-b", "--s", "9999/10000", "--order", "40")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    values = build_numbers(QContext(Fraction(9999, 10000)), "suslov_Bq", 40)
    with _no_int_digit_limit():
        rows = [row for row in json.loads(out)["rows"] if len(str(abs(row[1]))) > 4300]
        assert rows
        for n, num, den in rows:
            assert Fraction(num, den) == values[n]


def test_polys_past_the_int_digit_limit(capsys):
    code, out = run(capsys, "polys", "--family", "suslov-b", "--s", "9999/10000", "--order", "28")
    assert code == 0
    entries = build_family(QContext(Fraction(9999, 10000)), "suslov_B", 28)
    with _no_int_digit_limit():
        pairs = [
            (text, c)
            for entry, poly in zip(json.loads(out)["entries"], entries)
            for text, c in zip(entry["coeffs"], poly.coeffs)
        ]
        assert any(len(text.split("/")[0].lstrip("-")) > 4300 for text, _ in pairs)
        for text, c in pairs:
            assert Fraction(text) == c


# -- the parser and the float zeros shared across main calls ---------------------


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(["1", "0", "1/4"]))
    requests = [
        ["numbers", "--kind", "beta", "--s", "1/2", "--order", "bogus"],  # usage error first
        ["numbers", "--kind", "suslov-e", "--s", "3/5", "--order", "5", "--format", "csv"],
        ["lidstone-basis", "--kind", "B", "--K", "2", "--s", "2/5", "--format", "text"],
        ["guichard", "--preset", "ones", "--p", "2", "--coeffs", str(path)],
    ]
    shared = [_outcome(capsys, argv) for argv in requests]
    assert shared[0][0] == 2 and "argument --order" in shared[0][2]
    assert [code for code, _, _ in shared[1:]] == [0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in requests]
    assert shared == fresh


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import qlidstone.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "0"


def test_zero_search_failure_is_not_memoized(capsys):
    for _ in range(2):
        code, out, err = _outcome(capsys, ["zeros", "--kind", "sq-eta", "--qfloat", "0.99999"])
        assert (code, out) == (2, "")
        assert "tail bound did not converge" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the always-full device /dev/full")
@pytest.mark.parametrize("argv", ["numbers --kind beta --s 1/2 --order 2",
                                  "polys --family suslov-b --s 9999/10000 --order 30"])
def test_failed_stdout_write_exit_2(argv):
    # a short text fails at the flush, a long one in the write; either is one error line, with no
    # traceback and no complaint from the interpreter's own final flush
    src = Path(cli.__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "qlidstone.cli", *argv.split()], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (2, "error: cannot write to stdout: No space left on device\n")


def test_guichard_growth_with_q_rounding_to_one_exit_2(capsys, monkeypatch):
    # q = 1/p is below 1 but rounds to 1.0, where no zero search can run; the check comes before one
    monkeypatch.setattr(qspecial, "smallest_positive_zero", lambda *args: pytest.fail("a zero search ran"))
    p = "100000000000000001/100000000000000000"
    assert _outcome(capsys, ["guichard", "--preset", "ones", "--p", p, "--growth-order", "6"]) == (
        2, "", f"error: --growth-order needs q = 1/p < 1 as a float, but at --p {p} q = 1/p rounds to 1.0\n")


def test_zero_search_message_shows_a_q_near_one_in_full(capsys):
    code, out, err = _outcome(capsys, ["zeros", "--kind", "sq-eta", "--qfloat", "0.999999999999"])
    assert (code, out) == (2, "")
    assert err.startswith("error: Sq_eta series at q = 0.999999999999, w = ")


@pytest.mark.parametrize("kind", ["bernoulli", "euler"])
def test_expand_stream_past_the_float_range_is_strict_json(capsys, tmp_path, kind):
    # at s = 1/17, f_16 / psi_16 exceeds the float range while psi_16 rho_16(x) is tiny; tau and the
    # residual used to print Infinity, and one more zero made the residual's fsum fail on -inf + inf
    def reject(name):
        raise AssertionError(f"{name} is not strict JSON")

    path = tmp_path / "f.json"
    path.write_text(json.dumps(["0"] * 16 + ["1"]))
    code, out = run(capsys, "expand", "--kind", kind, "--fn", f"stream:@{path}", "--K", "0", "--s", "1/17")
    doc = json.loads(out, parse_constant=reject)
    assert code == 0
    assert doc["tau_estimate"] == pytest.approx(4.866115546113668e19, rel=1e-12)
    assert 1e277 < doc["residual"] < 1e279
    path.write_text(json.dumps(["0"] * 17 + ["1"]))
    assert _outcome(capsys, ["expand", "--kind", kind, "--fn", f"stream:@{path}", "--K", "0", "--s", "1/17"]) == (
        2, "", "error: the grid residual leaves the float range\n")
