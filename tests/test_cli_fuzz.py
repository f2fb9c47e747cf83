"""Grammar-driven fuzzing of the command line.

Each argv is drawn from ``cli.build_parser()``'s own actions: its subcommands,
flags, choices and argument types, mixed with adversarial values (bases at
1/10**k and 1 - 10**-k, 5e-324, nan, a huge p, broken coefficient files, an
unwritable --output).  Orders, K and --growth-order stay at 6 or below so that
every call is cheap.  Whatever the input, ``main`` must end in exit 0, 1 or 2,
never in a traceback, and an exit 2 prints exactly one ``error:`` line; an argv that
gives both --s and --q exits 2.
"""

import argparse
import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from qlidstone import cli

_SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

# per flag, values the flag accepts (bases near 0 and 1 among them) and values it rejects
_INTS = (["0", "1", "2", "3", "6"], ["-1", "x", "1.5"])
# the height of s sets the cost of exact work: on a 2-vCPU host an order-6 identity suite takes 1.8 s at s = 1/10**76
# and 6 s at s = 5e-324 (a 1074-bit rational), so bases stop at 1/10**30 and 5e-324 is drawn only
# where it is rejected or stays cheap: as q (no rational fourth root), as p and as --qfloat
_BASES = ["1/2", "3/5", "9/10", "1/10", "1/1000", f"1/{10 ** 30}", "99/100", "999999/1000000",
          f"{10 ** 17 - 1}/{10 ** 17}"]
_NOT_BASES = ["0", "1", "7/3", "1/0", "nan", "abc", ""]
_VALUES = {
    "s": (_BASES, _NOT_BASES),
    "q": (["1/16", "81/625", f"1/{10 ** 120}", f"{999 ** 4}/{1000 ** 4}"], _NOT_BASES + ["1/5", "5e-324"]),
    "p": (["1/2", "2", "4", "7/3", "11/10", "1000001/1000000", f"{10 ** 17 + 1}/{10 ** 17}", str(10 ** 35),
           str(10 ** 40), str(10 ** 45), str(10 ** 200), "5e-324"], ["0", "1/0", "nan", "abc", ""]),
    "qfloat": (["0.25", "0.5", "0.999", "0.9999", "0.99999", "1e-17", "1e-100", "1e-300", "5e-324"],
               ["0", "1", "1.5", "-0.5", "nan", "inf", "abc"]),
    "name": (["eq18", "connection_F1", "translation_B"], ["bogus", ""]),
    "fn": (["rho:3", "mono:2", "phi:4:1/2", "phi:1:5e-324"],
           ["phi:4:1/0", "phi:3:nan", "rho:-1", "rho:x", "mono", "nope:1", "stream:x"]),
}
_FILES = {"good.json": '["1", "0", "1/4"]', "emptylist.json": "[]", "empty.json": "", "nested.json": "[[1]]",
          "text.json": '["x"]', "object.json": '{"a": 1}', "huge.json": "[1e400]", "bools.json": "[true]"}


@pytest.fixture(scope="module")
def values(tmp_path_factory):
    """:data:`_VALUES` with the file paths each flag accepts and rejects: coefficient files,
    a path that does not exist, a directory, and --output targets that cannot be written."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(text)
    paths = [str(root / name) for name in _FILES] + [str(root / "missing.json"), str(root)]
    specs = [f"stream:@{path}" for path in paths]
    return {**_VALUES, "coeffs": (paths[:2], paths[2:]),
            "fn": (_VALUES["fn"][0] + specs[:2], _VALUES["fn"][1] + specs[2:]),
            "output": ([], [str(root / "missing" / "x.json"), str(root)])}


def _draw_argv(data, values):
    command = data.draw(st.sampled_from(sorted(_SUBPARSERS)))
    argv = [command]
    for action in _SUBPARSERS[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        # a required flag is left out one time in ten, --output given one time in ten, others half the time
        odds = 9 if action.required else 1 if action.dest == "output" else 5
        if data.draw(st.integers(0, 9)) >= odds:
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.choices:
            good, bad = sorted(action.choices), ["bogus"]
        elif action.type is cli._nonnegative_int:
            good, bad = _INTS
        else:
            good, bad = values[action.dest]
        rejected = not good or data.draw(st.integers(0, 9)) == 0  # one time in ten
        argv += [action.option_strings[0], data.draw(st.sampled_from(bad if rejected else good))]
    return argv


def _parses(text: str, fmt: str) -> bool:
    if fmt == "json":
        def reject(name):
            raise ValueError(f"{name} is not JSON")
        return isinstance(json.loads(text, parse_constant=reject), dict)
    if fmt == "csv":
        limit = csv.field_size_limit(len(text) + 1)  # a cell can hold a whole polynomial
        try:
            rows = list(csv.reader(io.StringIO(text)))
        finally:
            csv.field_size_limit(limit)
        return len(rows) >= 1 and len({len(row) for row in rows}) == 1
    return text.endswith("\n") and "schema_version: 1" in text


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_cleanly(values, data):
    argv = _draw_argv(data, values)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--s" in argv and "--q" in argv:
        assert code == 2, argv
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        assert err.getvalue() == "" and _parses(out.getvalue(), fmt), argv
