"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_workloads_and_layer_map_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.PER_LAYER) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload):
    m = run.measure(workload, seed=5, seconds=0, trace=True, size="tiny")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(m, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, m.checks
        expected = {spec["name"]: spec["unit"] for spec in SPEC[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    e2e = run.result_line(m, False)["metrics"]
    assert all(e2e[name]["value"] > 0 for name in run.END_TO_END)


def test_perturbed_eigenvalue_counts_as_failure():
    wl = workloads.WORKLOADS["spectra"]
    jobs = wl.jobs(1, "tiny")
    rep_dir = run._new_dir("selftest", "corrupt")
    try:
        res = run.run_worker(rep_dir, jobs, False)
        clean, _ = wl.check(rep_dir, jobs, None)
        assert res is not None and all(ok for _, ok, _ in clean), clean
        path = os.path.join(rep_dir, "out", jobs[0][0] + ".json")
        with open(path) as fh:
            data = json.load(fh)
        data["spectrum"]["eigenvalues"][3] += 1e-6
        with open(path, "w") as fh:
            json.dump(data, fh)
        checks = run._cli_checks(jobs, res, rep_dir) + wl.check(rep_dir, jobs, None)[0]
    finally:
        shutil.rmtree(rep_dir)
    failed = [label for label, ok, _ in checks if not ok]
    assert failed == [f"{jobs[0][0]} eigenvalues match eigvalsh to 1e-10",
                      f"{jobs[0][0]} eigenvalue sum matches the trace to 1e-10"]
    m = run.Measurement("spectra", 1, [run.Rep(jobs, False, res, {}, 0)],
                        [res["setup_s"]], checks)
    line = run.result_line(m, False)
    assert not line["correct"]
    assert (line["failed"], line["attempted"]) == (2, len(jobs) * 5)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
