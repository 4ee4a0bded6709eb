"""CriterionResult's gates: one relation table decides pass and fail."""

import math

import pytest

from entroflow.verify import CRITERIA, SUITES, CriterionResult

# (relation, a value that holds against bound 1, one that does not)
RELATIONS = [("<=", 1.0, 1.5), ("<", 0.5, 1.0), (">=", 1.0, 0.5), (">", 1.5, 1.0),
             ("==", 1.0, 0.5)]


def result(*gates, runtime=0.0):
    return CriterionResult("criterion-xx test", "details", list(gates), runtime)


@pytest.mark.parametrize("relation,holds,fails", RELATIONS,
                         ids=[r[0] for r in RELATIONS])
def test_each_relation_holds_and_fails_as_written(relation, holds, fails):
    assert result(("g", holds, relation, 1.0)).passed
    res = result(("g", fails, relation, 1.0))
    assert not res.passed and res.failed == ["g"]


@pytest.mark.parametrize("relation", [r[0] for r in RELATIONS])
def test_nan_fails_every_relation(relation):
    res = result(("ok", 1.0, "<=", 1.0), ("nan", math.nan, relation, 1.0))
    assert not res.passed and res.failed == ["nan"]


def test_status_gate_compares_strings():
    assert result(("run/M1", "pass", "==", "pass")).passed
    assert result(("run/M1", "fail", "==", "pass")).failed == ["run/M1"]


def test_empty_gate_list_is_not_passed():
    res = result()
    assert not res.passed and res.failed == []
    assert res.line() == "FAIL criterion-xx test: details; failed: no gates [0.00s]"


def test_line_names_failed_gates_on_fail_lines_only():
    res = result(("a", 2.0, "<=", 1.0), ("b", 0.0, "<=", 1.0), ("c", 0.0, ">", 1.0),
                 runtime=1.234)
    assert res.line() == "FAIL criterion-xx test: details; failed: a, c [1.23s]"
    assert result(("b", 0.0, "<=", 1.0), runtime=1.234).line() == \
        "PASS criterion-xx test: details [1.23s]"


def test_suites_derive_from_criteria_in_order():
    assert SUITES["all"] == list(CRITERIA)
    assert sorted(name for suite, names in SUITES.items() if suite != "all"
                  for name in names) == list(CRITERIA)
    assert SUITES["identities"] == ["criterion-02", "criterion-03", "criterion-07",
                                    "criterion-08"]
    assert SUITES["monotone"] == ["criterion-04", "criterion-05", "criterion-06"]
