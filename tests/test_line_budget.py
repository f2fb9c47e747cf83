"""The package's size mark: src/qlidstone/*.py stays at or below LINE_BUDGET lines.

Counted as ``wc -l`` counts them.  The mark is the one set for the package
before the diagnostics module is added, which is to be budgeted against it.
"""

from pathlib import Path

LINE_BUDGET = 2900
SRC = Path(__file__).resolve().parent.parent / "src" / "qlidstone"


def test_package_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py")))
    assert lines <= LINE_BUDGET, f"src/qlidstone/*.py has {lines} lines, over the mark of {LINE_BUDGET}"
