"""Acceptance gate: every criterion of the built-in verify suite must pass
at its stated tolerance.  One pass/fail line is printed per criterion, and a
failing one names its failed gates."""

import pytest

from entroflow.verify import CRITERIA, run_criterion


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_criterion(name):
    result = run_criterion(name)
    print(result.line())
    assert result.gates
    assert result.passed, result.line()
