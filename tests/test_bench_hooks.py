"""The names and hooks of the benchmark under perfbench/, checked without running it.

perfbench/spans.py wraps every function its TRACED table names, and
perfbench/child.py patches and calls names of the modules it imports; a
name that goes missing breaks a traced or audited benchmark run, which no
other test starts. The name checks read the benchmark's files as syntax
trees; TestBenchmarkHooks loads its tracer and row capture and runs them
on small scenes.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np
import yaml

from iegirs.beamforming import SolverOptions, two_stage_solve
from iegirs.channel import build_scenario
from iegirs.cli import main as cli_main
from iegirs.config import SCHEME_DIMS, ScenarioConfig
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


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_monte_carlo_spans_nest_under_the_simulator(self):
        # the Tracer keeps one span stack per process, so every traced call
        # of a Monte Carlo run must come from the calling thread, nested
        # under the simulator's span
        from iegirs import asymptotics, channel
        spans = _load_perfbench("spans")
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.active = True
            per = channel.DRAW_BLOCK_BYTES // (4 * 64 * 8)
            asymptotics.simulate_grouped_cascades(asymptotics.AsymptoticInputs(N=64, Q=4),
                                                  2 * per + 3, np.random.default_rng(0))
        finally:
            tracer.active = False
            tracer.uninstall()
        names = [tracer.names[span[0]] for span in tracer.spans]
        assert names[0] == "asymptotics.simulate_grouped_cascades"
        # one combine_cascade per block of draws
        assert names[1:] == ["grouping.combine_cascade"] * 3
        assert all(span[3] == 0 for span in tracer.spans[1:])

    def test_loop_block_updates_are_traced(self):
        # the alternating loop calls the public block updates, so the traced
        # run counts its auxiliary updates, objective evaluations and MM steps
        from iegirs.grouping import adjacent_grouping
        spans = _load_perfbench("spans")
        cfg = ScenarioConfig(N=16, Q=4, M=2, K=2, trials=2, seed=13)
        ch = build_scenario(cfg, np.random.default_rng(1))
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.active = True
            res = two_stage_solve(ch, 4, cfg.power_watts, cfg.weights,
                                  grouping=adjacent_grouping(16, 4))
        finally:
            tracer.active = False
            tracer.uninstall()
        calls = {name.split(".")[1]: n for name, n in tracer.summary()["calls"].items()
                 if name.startswith("beamforming.")}
        assert calls["solve_fp"] == 1 and res.iterations > 1
        assert calls["update_auxiliaries"] == calls["update_precoder"] == res.iterations
        assert calls["fp_objective"] == len(res.trace_steps)
        assert calls["mm_step"] >= calls["update_rcv_mm"] > 0

    def test_benchmark_rows_audit_clean(self, tmp_path):
        # perfbench/child.py reads the rows run_monte_carlo returns and audits
        # each one with recompute_wsr; a row it cannot re-derive fails every
        # benchmark run, so catch it here
        child = _load_perfbench("child")
        cfg_path = tmp_path / "scene.yaml"
        cfg = ScenarioConfig(N=32, Q=2, M=2, K=2, trials=1, seed=13)
        cfg_path.write_text(yaml.safe_dump(cfg.to_dict()))
        capture = child.Capture()
        capture.install()
        try:
            cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv"),
                      "--quiet"])
        finally:
            capture.uninstall()
        rows = [r for batch in capture.rows for r in batch]
        assert {r.scheme for r in rows} == set(SCHEME_DIMS)
        assert child.audit_trial_rows(capture.rows, capture.draws) == 0
        assert len(capture.solve_refs) == len(rows)
