"""The names the benchmark under perfbench/ hooks into, checked without running it.

perfbench/spans.py wraps every function its TRACED table names, and
perfbench/child.py patches and calls names of the modules it imports; a
name that goes missing breaks a traced or audited benchmark run, which no
other test starts. The benchmark's files are read as syntax trees.
"""

import ast
import importlib
import types
from pathlib import Path

from iegirs.beamforming import SolverOptions
from iegirs.config import ScenarioConfig
from iegirs.harness import run_monte_carlo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def test_traced_names_resolve():
    tables = [ast.literal_eval(node.value) for node in _tree("spans.py").body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    assert len(tables) == 1
    traced = [f"{module}.{name}" for module, names in tables[0].items() for name in names]
    assert "beamforming.top_eigenvalue" in traced
    missing = [name for name in traced
               if not callable(getattr(importlib.import_module(f"iegirs.{name.split('.')[0]}"),
                                       name.split(".")[1], None))]
    assert missing == []


def test_child_names_resolve():
    # every attribute child.py reads or patches on an iegirs module it
    # imported, and every name it imports from one
    modules, missing = {}, []
    tree = _tree("child.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, importlib.import_module(a.name))
                           for a in node.names if a.name.startswith("iegirs"))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("iegirs"):
            source = importlib.import_module(node.module)
            for a in node.names:
                value = getattr(source, a.name, None)
                if value is None:
                    missing.append(f"{node.module}.{a.name}")
                elif isinstance(value, types.ModuleType):
                    modules[a.asname or a.name] = value
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("harness", name) for name in ("run_monte_carlo", "build_scenario", "run_scheme",
                                           "recompute_wsr")} <= used
    missing += [f"{alias}.{attr}" for alias, attr in sorted(used)
                if not callable(getattr(modules[alias], attr, None))]
    assert missing == []


def test_default_outer_cap_readable():
    # child.py records it, and run.py counts the solves that stop at it
    assert isinstance(SolverOptions().max_outer, int) and SolverOptions().max_outer >= 1


def test_row_rate_assignable():
    # smoke.py corrupts rows' rates to check that the audit trips
    row = run_monte_carlo(ScenarioConfig(N=8, Q=2, trials=1, schemes=("no_irs",)))[0]
    row.wsr_bits *= 1.0 + 1e-6
    row.wsr_bits = float("nan")
    assert row.wsr_bits != row.wsr_bits
