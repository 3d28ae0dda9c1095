"""Print the memory high-water mark of a benchmark worker after each job of
one benchmark workload.

Usage: python tools/job_hwm.py SRC WORKLOAD SEED

For k = 0, 1, ..., runs `perfbench/worker.py` on the first k jobs of the
full-size job list of WORKLOAD (certify, spectra or montecarlo, from
`perfbench/workloads.py`) at SEED, as a benchmark rep runs it: a fresh
process with PYTHONPATH=SRC, in a fresh temporary directory that holds the
workload's input files and an out/ directory.  Each line is the worker's
own `peak_rss_kb` (VmHWM, in kB) for one prefix: the first is the CLI's
import alone, the last the figure of which a workload's `peak_rss_mb` is
the median.  A job that exits nonzero or raises is marked.  Run it once
against each of two source trees to see which job sets a workload's
`peak_rss_mb`.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


def _worker(src, workload, jobs):
    """The worker's result dict for `jobs`, run in a fresh rep directory;
    None if the worker process failed."""
    with tempfile.TemporaryDirectory() as rep:
        os.makedirs(os.path.join(rep, "out"))
        for fname, content in workload.files.items():
            with open(os.path.join(rep, fname), "w") as fh:
                json.dump(content, fh)
        spec, result = os.path.join(rep, "spec.json"), os.path.join(rep, "result.json")
        with open(spec, "w") as fh:
            json.dump({"jobs": jobs, "trace": False, "result": result}, fh)
        proc = subprocess.run([sys.executable, WORKER, spec], cwd=rep,
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0 or not os.path.exists(result):
            return None
        with open(result) as fh:
            return json.load(fh)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    src, name, seed = os.path.abspath(argv[0]), argv[1], int(argv[2])
    if not os.path.isdir(os.path.join(src, "dpptails")):
        print(f"no dpptails package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"no workload {name!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    jobs = workload.jobs(seed, "full")
    failed = 0
    for k in range(len(jobs) + 1):
        label = jobs[k - 1][0] if k else "import"
        res = _worker(src, workload, jobs[:k])
        if res is None:
            failed += 1
            print(f"{label:<22}worker failed")
            continue
        last = res["jobs"][-1] if k else {"rc": 0}
        failed += last["rc"] != 0
        mark = "" if last["rc"] == 0 else f"  exit {last['rc']}"
        print(f"{label:<22}VmHWM {res['peak_rss_kb']:>6} kB{mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
