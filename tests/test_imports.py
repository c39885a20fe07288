"""The analytic modules and commands run on the standard library alone:
only the simulator, and so only `simulate`, loads numpy.

Each case runs in a fresh interpreter, because this one has numpy loaded
already. No module imports a name it never uses.
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

# argv[1:] is one cli.main argv as JSON; prints [exit code, numpy loaded]
RUN_CLI = """\
import contextlib, io, json, sys
from sweepdefense import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps([rc, "numpy" in sys.modules]))
"""

# prints [modules imported, numpy loaded]
IMPORT_ALL = """\
import importlib, json, pkgutil, sys
import sweepdefense
names = sorted(m.name for m in pkgutil.iter_modules(sweepdefense.__path__))
for name in names:
    if name != "simulator":
        importlib.import_module("sweepdefense." + name)
print(json.dumps([names, "numpy" in sys.modules]))
"""

# prints [exit code, stderr] of `simulate` where numpy cannot be imported
RUN_SIMULATE_WITHOUT_NUMPY = """\
import contextlib, io, json, sys
sys.modules["numpy"] = None  # import numpy now raises ModuleNotFoundError
from sweepdefense import cli
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    rc = cli.main(["simulate", "--config", "configs/simulate-circular.cfg"])
print(json.dumps([rc, err.getvalue()]))
"""

PACKAGE = SRC / "sweepdefense"

ALL_PROTOCOLS = "circular-pincer,spiral-pincer,circular-same,spiral-same"

ANALYTIC = {
    "critical-speeds": ["--n", "2,8,32"],
    "max-radius": ["--protocol", ALL_PROTOCOLS, "--n", "2,8", "--Vs", "40"],
    "sweep-count": ["--protocol", ALL_PROTOCOLS, "--n", "2,8", "--Vs", "40"],
    "schedule": ["--protocol", ALL_PROTOCOLS, "--n", "2,8", "--Vs", "40"],
    "totals": ["--protocol", ALL_PROTOCOLS, "--n", "2,8", "--speed-mode", "delta-own",
               "--dV", "5"],
}


def fresh_python(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_cli_names_only_analytic_commands_besides_simulate():
    from sweepdefense import cli

    assert set(cli._COMMANDS) == set(ANALYTIC) | {"simulate"}


@pytest.mark.parametrize("command", sorted(ANALYTIC))
def test_analytic_command_loads_no_numpy(command):
    rc, numpy_loaded = fresh_python(RUN_CLI, json.dumps([command, *ANALYTIC[command]]))
    assert rc == 0
    assert not numpy_loaded


def test_every_module_but_the_simulator_loads_no_numpy():
    names, numpy_loaded = fresh_python(IMPORT_ALL)
    assert {"affine", "cli", "protocols", "report", "simulator"} <= set(names)
    assert not numpy_loaded


def test_simulate_without_numpy_fails_with_an_error_line():
    rc, err = fresh_python(RUN_SIMULATE_WITHOUT_NUMPY)
    assert rc == 1
    assert err.startswith("error: simulate needs numpy") and "Traceback" not in err


def numeric_cells_close(got, want):
    """Cell by cell: text exactly, numbers to the simulate goldens'
    tolerance (rel 1e-8, abs 1e-9)."""
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= max(1e-8 * abs(w), 1e-9)


@pytest.mark.parametrize("name", ["simulate-circular", "simulate-spiral"])
def test_simulate_loads_numpy_and_matches_its_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    argv = ["simulate", "--config", str(ROOT / "configs" / f"{name}.cfg"), "--out", str(out)]
    rc, numpy_loaded = fresh_python(RUN_CLI, json.dumps(argv))
    assert rc == 0
    assert numpy_loaded
    with open(out, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN / f"{name}.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, gold in zip(got[1:], want[1:]):
        assert len(row) == len(gold)
        assert all(map(numeric_cells_close, row, gold)), (row, gold)


def unused_imports(source):
    """Names an import in source binds that no name in it reads, `__all__`
    counting as a read of each name it lists."""
    bound, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os.path\nfrom a import b as c, d\n__all__ = ['d']\nos.sep\n"
    assert unused_imports(source) == [(2, "c")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
