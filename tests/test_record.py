"""The committed record of outputs (``tests/record.py``), recomputed byte for byte.

Every sandwich report, under one counting thread and under the default count,
and every ``reference_certify`` op result must equal its committed text.  A
change that moves a value rewrites the record with
``scripts/rewrite_record.py`` and lists what moved.
"""

import pytest

import record


@pytest.fixture(scope="module")
def committed():
    return record.load()


def test_the_record_holds_80_reports_and_192_op_results(committed):
    assert sum(k.endswith((".csv", ".json")) for k in committed) == 2 * 80
    assert sum(k.startswith("reference_certify/") for k in committed) == 192


@pytest.mark.parametrize("n_workers", [1, None], ids=["one_worker", "default_workers"])
def test_reports_match_the_record(committed, n_workers):
    got = record.reports(n_workers)
    assert got.keys() == {k for k in committed if not k.startswith("reference_certify/")}
    assert record.moved({k: committed[k] for k in got}, got) == []


def test_op_results_match_the_record(committed):
    got = record.op_results()
    assert got.keys() == {k for k in committed if k.startswith("reference_certify/")}
    assert record.moved({k: committed[k] for k in got}, got) == []
