"""The committed record of outputs (``tests/record.py``), recomputed byte for byte.

Every sandwich report, under one counting thread and under the default count,
and every ``reference_certify`` op result must equal its committed text.  A
change that moves a value rewrites the record with
``scripts/rewrite_record.py`` and lists what moved.
"""

import importlib.util
import json
import sys

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


def _rewrite_script(monkeypatch):
    """``scripts/rewrite_record.py`` loaded as a module; the search paths it adds are dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("rewrite_record", record.ROOT / "scripts" / "rewrite_record.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_rewrite_check_exits_1_when_a_value_moved(committed, monkeypatch, capsys):
    script = _rewrite_script(monkeypatch)
    saved = []
    monkeypatch.setattr(record, "save", saved.append)
    key = "reference_certify/20240527/normal.cert[0]"
    cert = json.loads(committed[key])
    cert["residual_max"] *= 2.0
    dropped = next(k for k in committed if k.endswith(".csv"))
    cases = {"unchanged": (dict(committed), 0),
             "one value moved": ({**committed, key: json.dumps(cert)}, 1),
             "one output dropped": ({k: v for k, v in committed.items() if k != dropped}, 1)}
    for name, (new, status) in cases.items():
        monkeypatch.setattr(record, "compute", lambda new=new: new)
        assert script.main(["--check"]) == status, name
        listed = capsys.readouterr().out
        assert (key + ".residual_max" in listed) == (name == "one value moved"), name
        assert (dropped in listed) == (name == "one output dropped"), name
    assert saved == []  # --check leaves the record as it is
    assert script.main([]) == 0 and saved == [new]  # a rewrite succeeds whatever moved
