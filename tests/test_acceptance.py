"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete, or `iegirs validate` for the same checks outside pytest.
"""

import functools

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
