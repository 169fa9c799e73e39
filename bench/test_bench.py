"""Checks of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

Two traced runs with one seed must give identical counts, so later changes
may cite them as counts; the traced self times must account for the traced
pass (a check of the harness's own overhead, not of how time is split
between layers); and on pearson_sandwich the counting stage must hold the
inverse-CDF draws that the public sampler times.  Each traced run takes
from a few seconds (reference_certify) to about half a minute
(pearson_sandwich).
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import per_layer_metrics  # noqa: E402
from run import PROCESSES  # noqa: E402

WORKLOADS = sorted(PROCESSES)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@functools.lru_cache(maxsize=None)
def _traced(workload: str, seed: int, repeat: int) -> dict:
    """Result of a traced run; ``repeat`` tells apart runs with one seed."""
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_self_times_cover_the_pass(workload):
    first, second = _traced(workload, 7, 0), _traced(workload, 7, 1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert 0.95 <= res["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
    counts = [name for name, unit, _ in per_layer_metrics() if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_sampling_is_charged_to_the_counting_stage():
    # verify reaches the sampler through a private helper, so the draws'
    # time is verify.count_s self time; pearson.sample_s times the same
    # draws through the public sampler, outside the traced pass
    m = _traced("pearson_sandwich", 7, 0)["metrics"]
    ratio = m["pearson.sample_s"]["value"] / m["verify.count_s"]["value"]
    assert 2.0 / 3.0 <= ratio <= 1.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
