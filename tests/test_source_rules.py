"""Rules src/iegirs/ (and, in the last three, tests/) keeps, checked on syntax trees or classes."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from iegirs import AsymptoticInputs, RicianLink, ScenarioConfig, SolverOptions

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "iegirs").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements, so a runtime invariant must raise a real error
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_thread_imports(path):
    # the program runs on the calling thread; the benchmark's one-thread rescale assumes it
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    threads = [n for n in names if n and n.split(".")[0] in ("threading", "concurrent")]
    assert threads == [], f"{path.name} imports {threads}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_scipy_imported_only_by_acceptance(path):
    # scipy.special alone costs about 19 MB and 0.25 s; only criterion c07's scipy.optimize needs scipy
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    scipy = [n for n in names if n.split(".")[0] == "scipy"]
    assert path.name == "acceptance.py" or scipy == [], f"{path.name} imports {scipy}"


@pytest.mark.parametrize("cls, ints, floats", [
    (ScenarioConfig, ["M", "K", "N", "Q", "trials", "seed"],
     ["user_radius", "kappa_bi", "kappa_iu", "kappa_bu", "power_dbm", "noise_dbm"]),
    (SolverOptions, ["max_outer"], ["tol"]),
    (AsymptoticInputs, ["N", "Q"], ["delta_bi", "delta_iu", "kappa_bi", "kappa_iu"]),
    (RicianLink, [], ["delta", "kappa"])],
    ids=["ScenarioConfig", "SolverOptions", "AsymptoticInputs", "RicianLink"])
def test_checked_fields_by_annotation(cls, ints, floats):
    # check_fields reads each field's annotation as its kind; under
    # `from __future__ import annotations` every annotation is a string, no
    # field would match int or float, and every check would be skipped
    assert [f.name for f in fields(cls) if f.type is int] == ints
    assert [f.name for f in fields(cls) if f.type is float] == floats
    # checked once, at construction: an assignment afterwards would skip the checks
    assert cls.__dataclass_params__.frozen


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_weights_rule_only_in_config(path):
    # one rule for the rate weights, config.checked_weights: no other module reads
    # MAX_WEIGHT or raises an error about the weights, so the rule cannot split again
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "MAX_WEIGHT"
             or isinstance(node, ast.Attribute) and node.attr == "MAX_WEIGHT"
             or isinstance(node, ast.ImportFrom) and "MAX_WEIGHT" in (a.name for a in node.names)]
    checks = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and any(isinstance(c, ast.Constant) and "weights" in str(c.value)
                      for c in ast.walk(node))]
    assert path.name == "config.py" or reads == checks == [], \
        f"{path.name} reads MAX_WEIGHT on lines {reads}, checks weights on lines {checks}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_float_modulo(path):
    # np.mod(x, 1.0) takes 234 us per 10^4-vector against 8 us for the
    # bit-identical x - np.floor(x), grouping._wrap, the one wrap of the package
    banned = {"mod", "remainder", "fmod"}
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in banned
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and banned & {a.name for a in node.names}]
    assert uses == [], f"{path.name} uses np.mod, np.remainder or np.fmod on lines {uses}"


def _lines_naming(tree, word):
    """Lines where word is a name, an attribute, an imported name or a string constant."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == word
                   or isinstance(node, ast.Attribute) and node.attr == word
                   or isinstance(node, ast.Constant) and node.value == word
                   or isinstance(node, ast.ImportFrom) and word in (a.name for a in node.names)})


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_seeding_only_in_harness(path):
    # harness.py makes every seeding decision, a trial's SeedSequence and one child per
    # scheme, and a scheme's seed is its only randomness: scheme_problem redraws the
    # frozen phases from it, so no module captures or rebuilds a generator's state
    tree = ast.parse(path.read_text(), filename=str(path))
    seeds, states = _lines_naming(tree, "SeedSequence"), _lines_naming(tree, "bit_generator")
    assert path.name == "harness.py" or seeds == [], f"{path.name} seeds on lines {seeds}"
    assert states == [], f"{path.name} reads a bit-generator state on lines {states}"


CASCADE_LINKS = {"h_bi", "h_iu", "h_bi_stat", "h_iu_stat"}
LINKS = CASCADE_LINKS | {"h_bu", "h_bu_stat"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_cascade_formed_only_in_channel(path):
    # one rule forms a cascade, channel.cascaded_channel, behind ChannelSet.cascade and
    # stat_cascades, and the same rule behind channel.cascade_draws: beamforming.py and
    # harness.py name none of the links a cascade is formed from, asymptotics.py draws no
    # Rician realization of its own, and no module makes a conjugated copy of a ChannelSet
    # link or of its rows
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in CASCADE_LINKS
             or isinstance(node, ast.Name) and node.id in CASCADE_LINKS]
    conj = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr in ("conj", "conjugate")
            and any(isinstance(a, ast.Attribute) and a.attr in LINKS
                    for a in (b.value if isinstance(b, ast.Subscript) else b
                              for b in node.args[:1] + [node.func.value]))]
    draws = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and {"rician_from_normals", "sample_rician"} & {a.name for a in node.names}
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "standard_normal"]
    assert path.name not in ("beamforming.py", "harness.py") or names == [], \
        f"{path.name} names a link on lines {names}"
    assert path.name != "asymptotics.py" or draws == [], \
        f"{path.name} draws a Rician realization on lines {draws}"
    assert conj == [], f"{path.name} conjugates a ChannelSet link on lines {conj}"


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _functions(path, top_level=True):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in (tree.body if top_level else ast.walk(tree))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_reference_oracles_only_in_oracles_module():
    # one oracle per concept, in tests/oracles.py: a test module calls oracles.<name>
    # instead of defining a reference of its own or another copy of one
    shared = {node.name for node in _functions(ORACLES)}
    defined = [f"{path.name}:{node.lineno} {node.name}" for path in TESTS
               if path != ORACLES for node in _functions(path)
               if node.name.lstrip("_").startswith("reference_") or node.name.lstrip("_") in shared]
    assert defined == [], f"reference oracles outside tests/oracles.py: {defined}"


def test_no_function_body_copied():
    # a function body of two or more statements, docstring aside, appears once across the
    # package and the tests: a test that needs the package's own formula calls it
    where = {}
    for path in SOURCES + TESTS:
        for node in _functions(path, top_level=False):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) >= 2:
                dump = ast.dump(ast.Module(body=body, type_ignores=[]))
                where.setdefault(dump, []).append(f"{path.name}:{node.lineno} {node.name}")
    copies = [names for names in where.values() if len(names) > 1]
    assert copies == [], f"function bodies defined more than once: {copies}"


def test_top_level_names_defined_once_in_tests():
    # a helper or test class that two test modules need is defined in one of them, not copied
    names = [node.name for path in TESTS for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert repeated == [], f"top-level names defined twice in tests/: {repeated}"


def _is_call_of(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == name


SOLVE_RULES = {
    # a trace's relative steps, np.diff(s) / np.maximum(1.0, |s[:-1]|), formed by bf.trace_fall
    "trace rule": lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
    and _is_call_of(node.left, "diff") and _is_call_of(node.right, "maximum"),
    # the precoder's budget slack 1 + 1e-9, bf.BUDGET_FACTOR
    "budget factor": lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
    and {getattr(side, "value", None) for side in (node.left, node.right)} == {1, 1e-9},
}


@pytest.mark.parametrize("rule", SOLVE_RULES)
def test_solve_rule_written_once(rule):
    # each invariant of a solve is written once, in beamforming.py: solve_fp and
    # PrecodingMatrix raise on it, and the audit, criterion c10 and the tests call it
    where = [f"{path.name}:{node.lineno}" for path in SOURCES + TESTS
             for node in ast.walk(ast.parse(path.read_text())) if SOLVE_RULES[rule](node)]
    assert len(where) == 1 and where[0].startswith("beamforming.py:"), \
        f"the {rule} is written at {where}"
