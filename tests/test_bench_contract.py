"""The names the benchmark's tracer times and observes must exist in the program.

``perfbench/tracer.py`` wraps the public functions of each qlidstone module and
the ``SymPoly``/``Series`` arithmetic methods, and ``Tracer.install`` raises when
a name in ``TIMED`` or ``OBSERVED`` is missing.  A refactor that renames or
deletes one of them would break every traced benchmark run; this catches it
in the test suite.  The tracer is loaded by path and not modified.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_contract", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = sorted(set(tracer.TIMED_NAMES) | set(tracer.OBSERVED))


def test_tracer_names_cover_method_paths():
    assert "fps.Series.__mul__" in NAMES and "fps.Series.__truediv__" in NAMES
    assert "symlaurent.change_basis" in NAMES and "lidstone.residual_on_grid" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_is_a_public_function_of_its_module(name):
    layer, *path = name.split(".")
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"qlidstone.{layer}")
    if len(path) == 1:
        obj = vars(module).get(path[0])
        assert inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
        assert not path[0].startswith("_"), name
    else:
        cls_name, attr = path
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
        assert attr in tracer.ARITHMETIC, name
        assert inspect.isfunction(cls.__dict__.get(attr)), name


def test_tracer_installs(tmp_path):
    # in a fresh interpreter, since install rebinds the program's functions; the benchmark
    # worker has imported the CLI by then.  One traced job, then the metrics, which read
    # the hits and misses of qpolys._family_series through its cache_info()
    code = ("import importlib.util, qlidstone.cli\n"
            f"spec = importlib.util.spec_from_file_location('t', {str(TRACER_PATH)!r})\n"
            "t = importlib.util.module_from_spec(spec); spec.loader.exec_module(t)\n"
            "tracer = t.Tracer(); tracer.install()\n"
            "assert qlidstone.cli.main(['identities', '--all', '--s', '1/2', '--order', '4']) == 0\n"
            "m = tracer.metrics()\n"
            "assert m['qpolys.calls'] > 0 and 0 < m['qpolys.family_cache_hit_ratio'] < 1, m\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
