"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete, or `iegirs validate` for the same checks outside pytest.
"""

import functools
import warnings

import pytest

from iegirs import acceptance


@functools.cache
def _outcome(criterion):
    # each criterion runs once per session; the tests that read its outcome share it
    return criterion()


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance_criterion(criterion):
    name = criterion.__name__
    passed, detail = _outcome(criterion)
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_c07_xi_oracle_is_tight():
    # with its exact gradient the (P3.1) oracle lands within rounding of the closed form
    passed, detail = _outcome(acceptance.c07_auxiliary_closed_forms)
    xi_err = float(detail.split("xi vs oracle ")[1].split(",")[0])
    assert passed and xi_err <= 1e-10, detail


def test_c12_closes_its_files():
    # c12 reads both CSVs back; a file left to the garbage collector warns under python -X dev
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        passed, detail = acceptance.c12_end_to_end_determinism()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert passed and leaks == [], (detail, leaks)


def test_run_goes_on_after_a_criterion_raises(monkeypatch, capsys):
    # a criterion that raises is one FAIL line naming the error, and the next criterion runs:
    # the first solve's trace opens 1.0, 0.0, a fall of 1 relative that solve_fp raises on
    opening, objective = [0.0, 1.0], acceptance.bf.fp_objective
    monkeypatch.setattr(acceptance.bf, "fp_objective",
                        lambda *args: opening.pop() if opening else objective(*args))
    c10, c12 = acceptance.run(["c10", "c12"])
    assert c10.name == "c10_alternating_convergence" and not c10.passed
    assert c10.detail.startswith("raised RuntimeError: objective trace falls by 1.00e+00"), c10
    assert c12.name == "c12_end_to_end_determinism" and c12.passed, c12
    assert capsys.readouterr().out.startswith(
        f"FAIL  c10_alternating_convergence ({c10.seconds:.1f}s): raised RuntimeError: ")
