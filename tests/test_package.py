"""The package loads its modules on first use, and a CLI process loads only
what its command needs.  Each check runs in a fresh interpreter, since this
one has long since loaded every module."""

import json
import os
import subprocess
import sys

import quandles

SRC = os.path.dirname(os.path.dirname(quandles.__file__))


def run_python(code, *args):
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_public_name_resolves_and_is_then_bound_in_the_package():
    found = run_python(
        "import json, sys\n"
        "import quandles\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('quandles.'))\n"
        "unbound = [name for name in quandles.__all__ if name not in vars(quandles)]\n"
        "missing = [name for name in quandles.__all__ if getattr(quandles, name, None) is None]\n"
        "later = [name for name in quandles.__all__ if name not in vars(quandles)]\n"
        "print(json.dumps([loaded, len(unbound), missing, later]))\n"
    )
    assert found == [[], len(quandles.__all__), [], []]
    for name in quandles.__all__:
        assert getattr(quandles, name) is vars(quandles)[name]


def test_the_package_namespace_matches_its_modules():
    starred = {}
    exec("from quandles import *", starred)
    assert set(starred) - {"__builtins__"} == set(quandles.__all__)
    assert set(quandles.__all__) <= set(dir(quandles))
    assert quandles.perms.orbit is quandles.orbit is starred["orbit"]
    assert quandles.ClosureLimitError is quandles.core.ClosureLimitError
    assert quandles.BudgetExceededError is quandles.enumeration.BudgetExceededError


def test_validate_and_predict_load_neither_triplets_nor_enumeration(tmp_path):
    path = tmp_path / "r5.json"
    path.write_text(quandles.dumps_quandle(quandles.dihedral_quandle(5)), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from quandles.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('quandles'))]))\n"
    )
    for argv in (["validate", str(path)], ["predict", "45"]):
        status, loaded = run_python(code, *argv)
        assert status == 0
        assert "quandles.triplets" not in loaded and "quandles.enumeration" not in loaded
    assert run_python(code, "validate", str(path))[1] == ["quandles", "quandles.cli", "quandles.core"]
    assert run_python(code, "predict", "45")[1] == [
        "quandles", "quandles.classify", "quandles.cli", "quandles.core"
    ]
