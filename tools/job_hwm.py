"""Print the memory high-water mark and resident size after each job of one
benchmark workload.

Usage: python tools/job_hwm.py SRC WORKLOAD SEED

Imports `dpptails.cli` from the source directory SRC in this fresh
interpreter, as a benchmark worker does, then runs the full-size job list
of WORKLOAD (certify, spectra or montecarlo, from `perfbench/workloads.py`)
at SEED through `dpptails.cli.main` in a temporary directory that is
removed afterwards.  After the import and after each job it prints VmHWM
and VmRSS from /proc/self/status, in kB.  The job list module is imported
after the first line, so that line is the CLI's import alone.  Run it once
against each of two source trees, in fresh processes, to see which job sets
a workload's `peak_rss_mb`.
"""

import contextlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _status():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return "  ".join(f"{key} {fields[key].split()[0]:>6} kB" for key in ("VmHWM", "VmRSS"))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    src, name, seed = os.path.abspath(argv[0]), argv[1], int(argv[2])
    sys.path.insert(0, src)
    from dpptails import cli
    print(f"{'import':<22}{_status()}")

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"dpptails imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"no workload {name!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "out"))
        for fname, content in workload.files.items():
            with open(os.path.join(tmp, fname), "w") as fh:
                json.dump(content, fh)
        os.chdir(tmp)
        for job_id, job_argv in workload.jobs(seed, "full"):
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(job_argv)
            failed += rc != 0
            print(f"{job_id:<22}{_status()}" + (f"  exit {rc}" if rc else ""))
        os.chdir(ROOT)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
