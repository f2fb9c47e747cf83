import json

import pytest

from qlidstone import cli
from qlidstone.qpolys import IdentityReport


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


def test_usage_errors_exit_2(capsys):
    assert cli.main(["numbers", "--kind", "beta", "--s", "7/3"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["numbers", "--kind", "beta", "--s", "abc"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["identities", "--name", "bogus", "--s", "1/2"])
    assert err.value.code == 2
    capsys.readouterr()
    # a q far beyond the float range that is not a fourth power
    assert cli.main(["numbers", "--kind", "beta", "--q", f"1/{10 ** 401}"]) == 2
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


def test_q_flag_fourth_power(capsys):
    code, out = run(capsys, "numbers", "--kind", "beta", "--q", "1/16", "--order", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,3,8"
    assert cli.main(["numbers", "--kind", "beta", "--q", "1/5"]) == 2
    capsys.readouterr()


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
