"""Rewrite the committed record of outputs (``tests/record.json``) and list every value that moved.

    PYTHONPATH=src python3 scripts/rewrite_record.py [--check]

Recomputes the 80 sandwich reports and the 192 ``reference_certify`` op
results (``tests/record.py``) and prints, for each value that differs from the
committed record, its place, its old value, its new value and the relative
change.  ``--check`` prints the list, leaves the record as it is and exits
with status 1 when any value moved (0 when none did), so it can gate a
commit or a CI step.  A change that moves a value lists it in CHANGES.md and
says why it moved.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import record  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="list the moved values without rewriting the record; exit 1 if any moved")
    args = p.parse_args(argv)
    new = record.compute()
    old = record.load() if record.PATH.exists() else {}
    moves = record.moved(old, new)
    for place, a, b, rel in moves:
        print(f"{place}\told {a}\tnew {b}\trelative {rel}")
    print(f"{len(moves)} values moved; {len(new)} outputs", file=sys.stderr)
    if args.check:
        return 1 if moves else 0
    record.save(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
