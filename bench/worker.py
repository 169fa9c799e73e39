"""One benchmark process: set up a workload, run passes, report one JSON line.

Started by ``run.py`` in a fresh interpreter, so that set-up and the first
(cold) pass are what a fresh ``steintail`` process pays.  The cold pass also
warms every lazy table before the warm passes are timed.  Each op is timed
on its own; checks and the determinism replay run outside the timed region.

Untraced: reports set-up time (unscaled), the cold pass, every warm pass
(each raw and scaled to reference host speed, see ``hostspeed.py``) and
peak RSS.  Traced
(``--trace 1``): alternates untraced and traced warm passes, unscaled, and
reports the per-layer metrics of each traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

PROBE_EVERY_S = 1.0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of warm passes")
    p.add_argument("--index", type=int, default=0, help="process index; offsets the replayed op")
    p.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Attempted and failed ops; failures are kept as messages, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op_name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.append(f"{op_name}: {'; '.join(errors)}")


def _safe(fn, *args):
    """(result, errors) of fn(*args); an exception becomes an error message."""
    try:
        return fn(*args), []
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return None, [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]


def run_pass(ops, ledger: Ledger, replay_index=None, speed=None) -> tuple[float, float]:
    """Raw and host-speed-scaled sums of the ops' wall times.

    ``speed`` returns the host-speed factor of a probe run.  It runs at the
    start, after every ``PROBE_EVERY_S`` of op time and at the end; each
    stretch of op time is scaled by the mean factor of the probes around it.
    Probes, checks and the replay of one op all run untimed.
    """
    clock = time.perf_counter
    raw = scaled = stretch = 0.0
    last = speed() if speed else 0.0
    results = []
    for i, op in enumerate(ops):
        t0 = clock()
        res, errs = _safe(op.run)
        dt = clock() - t0
        raw += dt
        stretch += dt
        if speed and (stretch >= PROBE_EVERY_S or i == len(ops) - 1):
            now = speed()
            scaled += stretch * 0.5 * (last + now)
            last, stretch = now, 0.0
        if not errs:
            check, errs = _safe(op.check, res)
            errs = errs or check
        ledger.record(op.name, errs)
        results.append(None if errs else res)
    if replay_index is not None:
        k = replay_index % len(ops)
        if results[k] is not None:
            replay, errs = _safe(ops[k].replay, results[k])
            ledger.record(ops[k].name + " (replay)", errs or replay)
    return raw, scaled


def time_public_equivalents(ops) -> Counter:
    """Time the public calls equivalent to verify's private routes into pearson and chaos."""
    from steintail import chaos, pearson
    from steintail.chaos import HermiteSeries
    from steintail.verify import Hypothesis

    from layers import SAMPLE_CASES

    out = Counter()
    clock = time.perf_counter
    for op in ops:
        spec = getattr(op, "spec", None)
        if spec is None:
            continue
        if isinstance(spec.x_model, HermiteSeries):
            refs = []
            if spec.hypothesis in (Hypothesis.DOMINATES_LOWER, Hypothesis.SANDWICH):
                refs.append(spec.reference)
            if spec.hypothesis in (Hypothesis.DOMINATED_UPPER, Hypothesis.SANDWICH):
                refs.append(spec.upper_coeffs)
            for ref in refs:
                t0 = clock()
                chaos.dominance_margin(spec.x_model, ref)
                out["chaos.margin"] += clock() - t0
        else:
            t0 = clock()
            pearson.sample(spec.x_model, spec.n_samples, spec.seed)
            dt = clock() - t0
            out["pearson.sample"] += dt
            out[f"pearson.sample_ns_per_draw.{SAMPLE_CASES[spec.x_model.case.value]}"] += \
                dt / spec.n_samples * 1e9
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import steintail
    if Path(steintail.__file__).resolve().parent != (root / "src" / "steintail").resolve():
        print(f"steintail imported from {steintail.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t_spawn
    out = {"setup_s": setup_s}
    if tracer:
        out["build_law_s"] = tracer.summary()["incl"]["pearson.build_law"]
        out["missing"] = tracer.missing
        tracer.uninstall()
        tracer.reset()

    ledger = Ledger()
    speed = None
    if not tracer:
        import hostspeed  # after set-up, so that its imports stay out of setup_s
        hostspeed.probe()  # the first call pays one-off costs
        speed = hostspeed.probe
    out["cold_pass_s"], out["cold_scaled_s"] = run_pass(ops, ledger, args.index, speed)
    warm, warm_scaled, traced, layer_rows = [], [], [], []
    start = time.monotonic()
    n = 0
    while n == 0 or time.monotonic() - start < args.budget:
        n += 1
        raw, scaled_s = run_pass(ops, ledger, args.index + n, speed)
        warm.append(raw)
        warm_scaled.append(scaled_s)
        if tracer:
            tracer.install()
            traced.append(run_pass(ops, ledger)[0])
            tracer.uninstall()
            summary = tracer.summary()
            tracer.reset()
            eq = time_public_equivalents(ops)
            row = {name: fn(summary, eq) for name, _, _, fn in layers.PER_LAYER}
            row["trace.coverage"] = sum(summary["layer_self"].values()) / traced[-1]
            layer_rows.append(row)
    out.update(warm_pass_s=warm, warm_scaled_s=warm_scaled, traced_pass_s=traced,
               layer_rows=layer_rows,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               attempted=ledger.attempted, failed=ledger.failed, messages=ledger.messages[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
