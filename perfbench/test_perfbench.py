"""Smoke tests for the benchmark itself (tiny inputs, seconds per run).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
from run import load_library  # noqa: E402

workloads = load_library()
from spans import Recorder, layer_metrics, plain_api  # noqa: E402


def bench(cwd, workload, trace, seed=2):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_changed_exact_field_counts_as_failed():
    wl = workloads.turan_families(0, True)
    unit = wl.passes(0)[0]
    out = unit.run(plain_api(workloads.API_NAMES))
    got = json.loads(json.dumps(out.exact))
    assert wl.count_failed(got, got, out.verdicts) == 0
    assert wl.count_failed({**got, "conclusion": "inconclusive"}, got, out.verdicts) == 1


def test_traced_names_are_restored_and_self_time_excludes_children():
    import specturan.theorems as th

    original = th.joint_size
    rec = Recorder()
    rec.install()
    try:
        assert th.joint_size is not original
        api = rec.api(["check_theorem1", "make_turan_plus_edge"])
        api.check_theorem1(api.make_turan_plus_edge(12, 2), 2)
    finally:
        rec.uninstall()
    assert th.joint_size is original
    m = layer_metrics(rec.spans)
    assert m["subgraph.joint_calls"] == 1 and m["graph.build_calls"] == 1
    root = next(s for s in rec.spans if s[0] == "check_theorem1")
    children = sum(s[3] - s[2] for s in rec.spans if s[4] == rec.spans.index(root))
    assert m["theorems.self_s"] == pytest.approx(root[3] - root[2] - children)


def test_random_hunt_cells_digest_logs_and_counterexamples_together():
    from types import SimpleNamespace

    def report(log, cx):
        row = {"n": 8, "m": 3, "hypothesis_yes": 1, "conclusion_yes": 0}
        return SimpleNamespace(instances_checked=5, inconclusive_log=log,
                               counterexamples=cx, stats={"per_n": [row]})

    log = [{"n": 8, "trial": 0, "check": "t1.2"}]
    cx = [{"n": 8, "theorem": "t1", "hypothesis": "yes", "conclusion": "no", "graph": "8 3\n"}]
    cells = [workloads._random_exact(report(*a))["cells"]["8"] for a in
             (([], []), (log, []), (log, cx))]
    assert len({c[-1] for c in cells}) == 3


def test_random_hunt_verdict_checks_fail_one_n_at_a_time():
    wl = workloads.random_hunt(3, True)
    unit = wl.checks()[0]
    out = unit.run(plain_api(workloads.API_NAMES))
    got = json.loads(json.dumps(out.exact))
    assert out.verdicts == 3 * 3 * len(got["cells"])  # trials x checks per n
    n = next(iter(got["cells"]))
    ref = {**got, "cells": {**got["cells"], n: [got["cells"][n][0], "0" * 16]}}
    assert wl.count_failed(got, got, out.verdicts) == 0
    assert wl.count_failed(ref, got, out.verdicts) == 9
