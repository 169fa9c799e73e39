"""The committed record of outputs: the sandwich reports and the ``reference_certify`` op results.

The ops are those of ``bench/workloads.py``: the ``chaos_sandwich`` and
``pearson_sandwich`` scenarios on seeds 20240527 and 1-9 (80 reports, each as
CSV and as JSON) and the ``reference_certify`` ops on seeds 20240527 and 1-3
(192 results).  Each output is kept as the exact text the program writes, so
comparing texts compares bytes.  ``tests/test_record.py`` recomputes the
record; ``scripts/rewrite_record.py`` rewrites it and lists every value that
moved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATH = ROOT / "tests" / "record.json"
sys.path.append(str(ROOT / "bench"))

import workloads  # noqa: E402
from steintail import verify  # noqa: E402

SANDWICH_SEEDS = (20240527, *range(1, 10))
CERTIFY_SEEDS = (20240527, 1, 2, 3)


def _text(result) -> str:
    """An op result as text: a certificate's own JSON, anything else (floats, lists, tuples) as JSON."""
    return result.to_json() if hasattr(result, "to_json") else json.dumps(result)


def reports(n_workers=None) -> dict[str, str]:
    """key -> text of every sandwich report, counted on ``n_workers`` threads (None: the default)."""
    out = {}
    for workload in ("chaos_sandwich", "pearson_sandwich"):
        for seed in SANDWICH_SEEDS:
            for op in workloads.WORKLOADS[workload](seed):
                rep = verify.run_scenario(op.spec, n_workers=n_workers)
                out[f"{workload}/{seed}/{op.name}.csv"] = rep.to_csv()
                out[f"{workload}/{seed}/{op.name}.json"] = rep.to_json()
    return out


def op_results() -> dict[str, str]:
    """key -> text of every ``reference_certify`` op result."""
    return {f"reference_certify/{seed}/{op.name}": _text(op.run())
            for seed in CERTIFY_SEEDS for op in workloads.reference_certify(seed)}


def compute(n_workers=None) -> dict[str, str]:
    return {**reports(n_workers), **op_results()}


def load() -> dict[str, str]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def save(record: dict[str, str]) -> None:
    PATH.write_text(json.dumps(record, indent=0) + "\n", encoding="utf-8")


def _values(key: str, text: str) -> dict[str, object]:
    """The values in one output by their place: CSV cells by row and column, JSON leaves by path."""
    if key.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        return {f"{row[0]}:{col}": cell for row in rows[1:] for col, cell in zip(rows[0][1:], row[1:])}
    leaves = {}

    def walk(path: str, v) -> None:
        if isinstance(v, dict):
            for k, w in v.items():
                walk(f"{path}.{k}", w)
        elif isinstance(v, list):
            for i, w in enumerate(v):
                walk(f"{path}[{i}]", w)
        else:
            leaves[path] = v

    walk("", json.loads(text))
    return leaves


def _relative(old, new) -> str:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "-"
    if a == b:
        return "0"
    return f"{(b - a) / abs(a):.3g}" if a != 0.0 and math.isfinite(a) and math.isfinite(b) else "-"


def moved(old: dict[str, str], new: dict[str, str]) -> list[tuple[str, object, object, str]]:
    """(key and place, old value, new value, relative change) of every value that differs between two records."""
    out = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:  # an output added or dropped
            out.append((key, "absent" if a is None else "present", "absent" if b is None else "present", "-"))
            continue
        va, vb = _values(key, a), _values(key, b)
        places = [p for p in sorted(va.keys() | vb.keys()) if va.get(p) != vb.get(p)]
        out += [(key + p, va.get(p), vb.get(p), _relative(va.get(p), vb.get(p))) for p in places]
        if not places:  # the same values in other bytes
            out.append((key, a, b, "-"))
    return out
