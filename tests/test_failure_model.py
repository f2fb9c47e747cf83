"""The package's one failure model.

Bad input raises ValueError (or ZeroDivisionError), a numeric loop that reaches
its bound raises ``qcore.LimitError``, and an ``IntegrityError`` is a bug that
nothing catches.  Only ``cli.main`` turns a failure into an exit code.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from qlidstone import cli, lidstone, qspecial
from qlidstone.qcore import IntegrityError, LimitError, QContext

SRC = Path(cli.__file__).resolve().parent
BROAD = {"RuntimeError", "Exception", "BaseException"}


def _name(node):
    """The bare name an exception expression refers to, e.g. RuntimeError in RuntimeError("...")."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def _violations(tree: ast.AST, module: str):
    found = []
    main = next((f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"), None)
    in_main = {id(n) for n in ast.walk(main)} if module == "cli" and main else set()
    for node in ast.walk(tree):
        where = f"{module}.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in BROAD:
            found.append(f"{where}: raise {_name(node.exc)}")
        if isinstance(node, ast.Name) and node.id == "SystemExit" and id(node) not in in_main:
            found.append(f"{where}: SystemExit outside cli.main")
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None:
                found.append(f"{where}: bare except")
            found += [f"{where}: except {_name(t)}" for t in caught if t is not None and _name(t) in BROAD]
    return found


def test_source_raises_and_catches_only_the_model():
    found = [v for path in sorted(SRC.glob("*.py")) for v in _violations(ast.parse(path.read_text()), path.stem)]
    assert found == []


@pytest.mark.parametrize("snippet, count", [
    ("raise RuntimeError('x')", 1),
    ("raise Exception", 1),
    ("try:\n    f()\nexcept RuntimeError:\n    pass", 1),
    ("try:\n    f()\nexcept (ValueError, Exception):\n    pass", 1),
    ("try:\n    f()\nexcept:\n    pass", 1),
    ("def g():\n    raise SystemExit(2)", 1),
    ("raise LimitError('x')\ntry:\n    f()\nexcept (ValueError, LimitError):\n    pass", 0),
])
def test_the_guard_sees_each_breach(snippet, count):
    assert len(_violations(ast.parse(snippet), "m")) == count


def test_main_alone_may_exit():
    assert _violations(ast.parse("def main():\n    raise SystemExit(2)"), "cli") == []
    assert len(_violations(ast.parse("def main():\n    raise SystemExit(2)"), "lidstone")) == 1


def _raiser(error):
    def first_zero(kind, q):
        raise error
    return first_zero


def test_a_limit_leaves_the_expansion_without_a_cap(monkeypatch):
    monkeypatch.setattr(qspecial, "first_zero", _raiser(LimitError("tail bound did not converge")))
    assert lidstone._zero_cap(QContext(Fraction(1, 2)), "Sq_eta") is None


@pytest.mark.parametrize("error", [IntegrityError("routes disagree"), RecursionError("too deep")])
def test_a_bug_is_not_read_as_a_missing_cap(monkeypatch, capsys, error):
    # both are RuntimeErrors; before the model, _zero_cap turned them into cap: null
    monkeypatch.setattr(qspecial, "first_zero", _raiser(error))
    with pytest.raises(type(error)):
        lidstone._zero_cap(QContext(Fraction(1, 2)), "Sq_eta")
    with pytest.raises(type(error)):
        cli.main(["zeros", "--kind", "sq-eta", "--qfloat", "0.25"])
    assert capsys.readouterr().err == ""


def test_a_limit_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setattr(qspecial, "first_zero", _raiser(LimitError("no zero")))
    with pytest.raises(SystemExit) as err:
        cli.main(["zeros", "--kind", "sq-eta", "--qfloat", "0.25"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: no zero\n"
