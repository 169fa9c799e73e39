"""steintail benchmark: one workload per call, one JSON result on the last line.

    python3 bench/run.py --workload chaos_sandwich --seed 20240527 --seconds 12 --trace 0

Run from the root of a steintail source tree; the package is imported from
``src/`` (nothing is installed).  Each workload runs in a few fresh worker
processes, one after another, so the load is single-threaded apart from the
two-thread determinism replay.  Each worker measures its set-up (interpreter
start, ``import steintail``, building the workload's laws and specs), one
cold pass and then warm passes for ``--seconds`` / processes.

``--trace 0`` prints the end-to-end metrics, each the median over the run:

* ``pass_s``: one warm pass over the workload's op list;
* ``cold_pass_s``: the first pass of a fresh process, lazy tables empty;
* ``setup_s``: fresh interpreter to workload built;
* ``peak_rss_mb``: peak resident memory of a worker process.

The three timings are in reference-host seconds: each stretch of op time is
scaled by the host-speed probes of ``bench/hostspeed.py`` run around it.  On
a shared 2-core VM the unscaled medians of runs of one workload spread by up
to 30%; over ten seeds the scaled ``pass_s`` and ``cold_pass_s`` spread by
1.5-6% (quartile distance over median).  The unscaled medians go to
standard error.

``--trace 1`` runs one worker that alternates untraced and traced warm
passes and prints the per-layer metrics of ``bench/layers.py``.

Every op is checked (see ``bench/workloads.py``); ``failed`` / ``attempted``
is the run's failure ratio, and ``correct`` is true only when no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# worker processes per untraced run: each pays set-up plus one cold pass, so
# the workload with the 7 s pass gets fewer of them
PROCESSES = {"chaos_sandwich": 5, "pearson_sandwich": 3, "reference_certify": 6}
DEADLINE_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    p.add_argument("--seed", type=int, default=20240527)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _spawn(args, budget: float, index: int, deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--budget", repr(budget),
           "--index", str(index), "--trace", str(args.trace)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(reports: list[dict]) -> dict:
    med = statistics.median
    print("unscaled medians: pass_s {!r} cold_pass_s {!r}".format(
        med([t for r in reports for t in r["warm_pass_s"]]), med([r["cold_pass_s"] for r in reports])),
        file=sys.stderr)
    return {
        "pass_s": _metric(med([t for r in reports for t in r["warm_scaled_s"]]), "s"),
        "cold_pass_s": _metric(med([r["cold_scaled_s"] for r in reports]), "s"),
        "setup_s": _metric(med([r["setup_s"] for r in reports]), "s"),
        "peak_rss_mb": _metric(med([r["peak_rss_mb"] for r in reports]), "MB"),
    }


def _per_layer(report: dict) -> dict:
    from layers import per_layer_metrics

    med = statistics.median
    rows = report["layer_rows"]
    values = {name: med([row[name] for row in rows]) for name in rows[0]}
    values["pearson.build_law_s"] = report["build_law_s"]
    values["trace.overhead"] = med(report["traced_pass_s"]) / med(report["warm_pass_s"]) - 1.0
    return {name: _metric(values[name], unit) for name, unit, _ in per_layer_metrics()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "steintail" / "__init__.py").is_file():
        print(f"no steintail sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    n_proc = 1 if args.trace else PROCESSES[args.workload]
    try:
        reports = [_spawn(args, args.seconds / n_proc, i, deadline) for i in range(n_proc)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        for name in r.get("missing", []):
            print(f"not traced (attribute missing): {name}", file=sys.stderr)
        for msg in r["messages"]:
            print(f"FAILED {msg}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = _per_layer(reports[0]) if args.trace else _end_to_end(reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
