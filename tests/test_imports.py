"""What the package imports.

No linter ships with the test environment, so an AST scan stands in for
flake8's F401: a name bound by a module-level import must be read somewhere
in the module (annotations included) or be listed in ``__all__``.  A line
that carries ``# noqa: F401`` is exempt.

The package needs numpy only: scipy serves the tests and the benchmark as an
independent oracle, so a fresh interpreter that imports levyrep and runs the
checkers and a marks simulation must not load it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levyrep"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each module-level import binding never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, node.end_lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        (start, name)
        for start, end, name in bound
        if name not in used
        and not any("noqa: F401" in lines[i - 1] for i in range(start, end + 1))
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: tau) -> None:\n"
        "    print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def scipy_modules_after(code: str) -> list[str]:
    """The ``scipy*`` entries of sys.modules after a fresh interpreter runs
    ``code`` from the repository root with the package's sources first on
    its path."""
    report = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1].replace("'", '"'))


PACKAGE_RUN = """
import json
from pathlib import Path
import levyrep
import levyrep.cli
from levyrep import (MarketSpec, check_assumption1, check_assumption3, grid_from_dict,
                     malliavin_classify, model_from_dict, simulate)
assert Path(levyrep.__file__).parent == Path("src/levyrep").resolve()
for name in ("merton", "nig", "vg"):
    cfg = json.loads(Path(f"configs/{name}_digital.json").read_text())
    model = model_from_dict(cfg["model"])
    alpha = grid_from_dict(cfg.get("grid", {})).alpha
    check_assumption1(model, alpha, 0.0, cfg["T"])
    m = cfg["market"]
    check_assumption3(MarketSpec(r=m["r"], T=m["T"], K=m["K"], model=model), alpha=alpha)
    malliavin_classify(model)
    if cfg.get("sim", {}).get("scheme") == "marks":
        simulate(model, 1.0, 5, 20, seed=1, scheme="marks", eps_jump=cfg["sim"]["eps_jump"])
"""


def test_package_runs_without_scipy():
    assert scipy_modules_after(PACKAGE_RUN) == []


def test_scipy_check_flags_an_import():
    assert "scipy.integrate" in scipy_modules_after("import scipy.integrate")
