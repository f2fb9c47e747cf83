"""The library surface that no command reaches: one sweep of every subcommand, every
choice of each, under ``sys.setprofile``, records which public module-level functions of
``qlidstone`` it calls.  Each function it does not reach must be on UNREACHED with the
reason it is kept; a function kept only for the tests belongs in ``tests/oracles.py``.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys

import pytest

import qlidstone
from qlidstone import cli, qcore

UNREACHED = {
    # timed or run by name in the benchmark's tracer and workloads
    "symlaurent.q_translate": "perfbench/tracer.py times it by name, and qlidstone.__all__ exports it",
    "qspecial.positive_zeros": "perfbench/tracer.py times it by name (qspecial.float_zero_s)",
    "qspecial.jackson_bessel_zeros": "perfbench/tracer.py times it by name; acceptance criterion 6 interlaces its zeros",
    "qspecial.refine_zero_exact": "the expansion workload's refinement jobs, timed by perfbench/tracer.py",
    "lidstone.residual_on_grid": "the expansion workload's function norms, timed by perfbench/tracer.py",
    "lidstone.trig_rho_stream": "the expansion workload's sine and cosine streams",
    # the paper's claims, read by the acceptance criteria
    "lidstone.counterexample_report": "acceptance criterion 5: vanishing boundary data of a nonzero function",
    "lidstone.growth_condition_note": "the growth condition under which the paper's expansions converge",
    "guichard.dotplus_translate": "acceptance criterion 7: the translation of the difference solver",
    "guichard.p_derivative": "acceptance criterion 7: the p-derivative of the difference solver",
    "guichard.bp_polynomials": "acceptance criterion 7: the B_p polynomials, their ladder and jump",
    # the store API
    "qcore.clear_tables": "empties the table store, for a caller that starts cold or bounds its memory",
}


def _public_functions():
    """{code object: "module.name"} of every public function defined at module level in the
    package; a table is read through the function it wraps."""
    out = {}
    for info in pkgutil.iter_modules(qlidstone.__path__):
        module = importlib.import_module(f"qlidstone.{info.name}")
        for name, obj in vars(module).items():
            fn = getattr(obj, "__wrapped__", obj)
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out[fn.__code__] = f"{info.name}.{name}"
    return out


def _sweep(tmp_path):
    coeffs = tmp_path / "f.json"
    coeffs.write_text(json.dumps(["1/2", 0, "-1/3", 2]))
    s = ["--s", "1/2"]
    return ([["numbers", "--kind", k, "--order", "6", *s] for k in ("beta", "suslov-b", "suslov-e", "im")]
            + [["polys", "--family", f, "--order", "6", *s]
               for f in ("suslov-b", "beta", "suslov-e", "tilde-e", "rho", "hermite", "monomial")]
            + [["lidstone-basis", "--kind", k, "--K", "3", *s] for k in ("A", "B", "M", "Mtilde")]
            + [["identities", "--all", "--order", "6", *s]]
            + [["zeros", "--kind", k, "--qfloat", "0.5"] for k in ("sq-eta", "cq-eta", "sinq")]
            + [["expand", "--kind", k, "--fn", fn, "--K", "2", *s] for k in ("bernoulli", "euler")
               for fn in ("rho:3", "mono:3", "phi:3:1/3", f"stream:@{coeffs}")]
            + [["guichard", "--preset", p, "--p", "2", "--coeffs", str(coeffs), "--growth-order", "4"]
               for p in ("ones", "alsalam-half")]
            + [["numbers", "--kind", "beta", "--q", "1/16", "--format", f] for f in ("csv", "text")]
            + [["polys", "--family", "rho", *s, "--output", str(tmp_path / "out.json")]])


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """The public functions the sweep does not call, run cold: a table or parser held from an
    earlier test would answer without calling the function that builds it."""
    public, seen = _public_functions(), set()

    def profile(frame, event, arg):
        if event == "call":  # also a generator resumed
            seen.add(frame.f_code)

    argvs = _sweep(tmp_path_factory.mktemp("surface"))
    qcore.clear_tables()
    cli.build_parser.cache_clear()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
        qcore.clear_tables()
    return {name for code, name in public.items() if code not in seen}


def test_every_unreached_function_is_kept_for_a_stated_reason(unreached):
    assert unreached - set(UNREACHED) == set(), "no command reaches these: move them to tests/oracles.py"


def test_the_allow_list_names_only_unreached_functions(unreached):
    assert set(_public_functions().values()) >= set(UNREACHED), "allow-listed names that no longer exist"
    assert set(UNREACHED) - unreached == set(), "allow-listed names that a command now reaches"
