"""The import boundary: scipy loads at the first statistic, numpy only for batched.

Importing scipy (and numpy under it) costs more than everything else a
CLI command does, so ``import repro.cli`` must load neither, commands
that compute no statistic must never load them, and the first p-value,
interval or spending level must load scipy and return exactly what a
direct :mod:`scipy.special` call gives.  This test process already
holds scipy, so every runtime check runs in a fresh interpreter.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Appended to every snippet: which of scipy and numpy it loaded.
_REPORT_HEAVY = """
import sys
print(sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "numpy"}))
"""


def _printed_after(snippet: str, cwd: Path) -> list:
    """Run ``snippet`` in a fresh interpreter; the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def _heavy_after(snippet: str, cwd: Path) -> list:
    """Run ``snippet`` in a fresh interpreter; the heavy packages it loaded."""
    return _printed_after(textwrap.dedent(snippet) + _REPORT_HEAVY, cwd)


def test_importing_the_cli_loads_neither_scipy_nor_numpy(tmp_path):
    assert _heavy_after("import repro.cli", tmp_path) == []


#: What a command that analyses or sweeps nothing never needs: the
#: static analyzer, the worker pool and hunt, and the simulation
#: backends.  The ``setup_s`` of the ``paper`` and ``hunt`` benchmarks
#: is a fresh ``repro table1``, which pays for ``import repro.cli``.
_NOT_AT_STARTUP = (
    "repro.analysis",
    "repro.harness.parallel",
    "repro.harness.supervisor",
    "repro.harness.hunt",
    "repro.sim.scalar",
    "repro.sim.batched",
    "repro.sim.lockstep",
)


def test_importing_the_cli_loads_no_analysis_pool_or_backend(tmp_path):
    snippet = textwrap.dedent(f"""
        import sys
        import repro.cli
        print(sorted(
            name for name in sys.modules
            for owner in {_NOT_AT_STARTUP!r}
            if name == owner or name.startswith(owner + ".")
        ))
    """)
    assert _printed_after(snippet, tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["table2"],
    ["fig2"],
    ["lint"],
    ["hunt", "--static", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_commands_without_statistics_load_neither(tmp_path, argv):
    argv = [arg.format(out=tmp_path) for arg in argv]
    snippet = f"""
        import repro.cli
        assert repro.cli.main({argv!r}) == 0
    """
    assert _heavy_after(snippet, tmp_path) == []


_SAMPLES = """
a = [1.0, 2.5, 2.0, 3.5, 4.0]
b = [2.0, 3.0, 4.5, 5.0, 6.5]
"""

#: name -> (the first statistic, computed as ``got``; the same value as
#: ``want``, straight from scipy.special).
_FIRST_CALLS = {
    "welch_t_test": (
        """
        from repro.stats.ttest import welch_t_test
        result = welch_t_test(a, b)
        got = result.pvalue
        """,
        "2.0 * (1.0 - special.stdtr(result.dof, abs(result.statistic)))",
    ),
    "student_t_test": (
        """
        from repro.stats.ttest import student_t_test
        result = student_t_test(a, b)
        got = result.pvalue
        """,
        "2.0 * (1.0 - special.stdtr(result.dof, abs(result.statistic)))",
    ),
    "mean_confidence_interval": (
        """
        from repro.stats.ci import mean_confidence_interval
        result = mean_confidence_interval(a, 0.95)
        got = result.upper
        """,
        "result.mean + float(special.stdtrit(4, 0.5 + 0.95 / 2.0))"
        " * math.sqrt(sum((x - result.mean) ** 2 for x in a) / 4 / 5)",
    ),
    "obrien_fleming_spending": (
        """
        from repro.stats.sequential import obrien_fleming_spending
        got = obrien_fleming_spending(0.4)
        """,
        "float(2.0 * (1.0 - special.ndtr("
        "float(special.ndtri(1.0 - 0.05 / 2.0)) / math.sqrt(0.4))))",
    ),
}


@pytest.mark.parametrize("name", sorted(_FIRST_CALLS))
def test_first_statistic_loads_scipy_and_returns_its_value(tmp_path, name):
    call, direct = _FIRST_CALLS[name]
    snippet = (
        "import math, sys\n" + _SAMPLES + textwrap.dedent(call)
        + textwrap.dedent(f"""
            assert "scipy.special" in sys.modules
            from scipy import special
            want = {direct}
            assert type(got) is type(want), (type(got), type(want))
            assert got == want, (got, want)
        """)
    )
    assert _heavy_after(snippet, tmp_path) == ["numpy", "scipy"]


def _sources() -> list:
    return sorted(PACKAGE.rglob("*.py"))


def test_only_the_owner_module_names_scipy():
    naming = [
        str(path.relative_to(PACKAGE)) for path in _sources()
        if "scipy" in path.read_text().lower()
    ]
    assert naming == [os.path.join("stats", "_special.py")]


def _numpy_import_scopes(path: Path) -> list:
    """The enclosing function (or ``<module>``) of each numpy import."""
    scopes = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                scopes.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return scopes


def test_numpy_is_imported_only_by_the_lockstep_engine_and_its_probe():
    importers = {}
    for path in _sources():
        scopes = _numpy_import_scopes(path)
        if scopes:
            importers[str(path.relative_to(PACKAGE))] = scopes
    assert importers == {
        os.path.join("sim", "batched.py"): ["__init__"],
        os.path.join("sim", "lockstep.py"): ["<module>"],
        os.path.join("sim", "_lanes.py"): ["<module>"],
        os.path.join("sim", "_memory.py"): ["<module>"],
        os.path.join("sim", "_pass.py"): ["<module>"],
        os.path.join("sim", "_solve.py"): ["<module>"],
    }
