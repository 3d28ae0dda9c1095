"""Print `sha256  file` for every output of the benchmark job lists.

Usage: python tools/output_digests.py SRC SEED

Runs the full-size certify, spectra and montecarlo job lists of
`perfbench/workloads.py` through `dpptails.cli.main`, importing `dpptails`
from the source directory SRC, in a temporary directory that is removed
afterwards.  Then prints the digest of the bytes of `exact.discretize(...)
.matrix` for the spectra systems at orders 192, 384 and 1024 and for the
montecarlo system (sine [-3, 3] at order 128): the job outputs hash
eigenvalues and draws, not the Nystrom matrices.  Run it once against each
of two source trees and diff the outputs to check that a change keeps the
output bytes; `tools/output_drift.py` says how far they moved.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("certify", "spectra", "montecarlo")
# (kernel, window, orders) of the Nystrom matrices whose bytes are hashed
MATRICES = [("sine", (-3.0, 3.0), (192, 384, 1024)), ("airy", (-2.0, 0.0), (192, 384, 1024)),
            ("bessel:s=0.5", (0.5, 4.0), (192, 384, 1024)), ("sine", (-3.0, 3.0), (128,))]


def run_jobs(src, seed, dest):
    """Run the full job list of each workload in NAMES at `seed` with
    `dpptails` imported from `src`: workload NAME runs in dest/NAME and
    leaves its outputs in dest/NAME/out.  Returns the number of jobs that
    failed, or None if `dpptails` was imported from elsewhere."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    from dpptails import cli
    from workloads import WORKLOADS

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"dpptails imported from {cli.__file__}, not {src}", file=sys.stderr)
        return None
    failed = 0
    cwd = os.getcwd()
    for name in NAMES:
        workload = WORKLOADS[name]
        work = os.path.join(dest, name)
        os.makedirs(os.path.join(work, "out"))
        for fname, content in workload.files.items():
            with open(os.path.join(work, fname), "w") as fh:
                json.dump(content, fh)
        os.chdir(work)
        try:
            for job_id, job_argv in workload.jobs(seed, "full"):
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli.main(job_argv)
                if rc != 0:
                    failed += 1
                    print(f"{name}/{job_id}: exit {rc}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    return failed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, seed = os.path.abspath(argv[0]), int(argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        failed = run_jobs(src, seed, tmp)
        if failed is None:
            return 2
        for name in NAMES:
            out = os.path.join(tmp, name, "out")
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{fname}")
    from dpptails import exact, kernels

    for kid, (a, b), orders in MATRICES:
        for order in orders:
            d = exact.discretize(kernels.make_kernel(kid), kernels.Interval(a, b), order)
            digest = hashlib.sha256(d.matrix.tobytes()).hexdigest()
            print(f"{digest}  matrix/{kid}[{a:g},{b:g}]@{order}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
