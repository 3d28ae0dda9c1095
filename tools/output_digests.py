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
output bytes.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (kernel, window, orders) of the Nystrom matrices whose bytes are hashed
MATRICES = [("sine", (-3.0, 3.0), (192, 384, 1024)), ("airy", (-2.0, 0.0), (192, 384, 1024)),
            ("bessel:s=0.5", (0.5, 4.0), (192, 384, 1024)), ("sine", (-3.0, 3.0), (128,))]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, seed = os.path.abspath(argv[0]), int(argv[1])
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    from dpptails import cli, exact, kernels
    from workloads import WORKLOADS

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"dpptails imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("certify", "spectra", "montecarlo"):
            workload = WORKLOADS[name]
            work = os.path.join(tmp, name)
            os.makedirs(os.path.join(work, "out"))
            for fname, content in workload.files.items():
                with open(os.path.join(work, fname), "w") as fh:
                    json.dump(content, fh)
            os.chdir(work)
            for job_id, job_argv in workload.jobs(seed, "full"):
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli.main(job_argv)
                if rc != 0:
                    failed += 1
                    print(f"{name}/{job_id}: exit {rc}", file=sys.stderr)
            os.chdir(tmp)
            for fname in sorted(os.listdir(os.path.join(work, "out"))):
                with open(os.path.join(work, "out", fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{fname}")
    for kid, (a, b), orders in MATRICES:
        for order in orders:
            d = exact.discretize(kernels.make_kernel(kid), kernels.Interval(a, b), order)
            digest = hashlib.sha256(d.matrix.tobytes()).hexdigest()
            print(f"{digest}  matrix/{kid}[{a:g},{b:g}]@{order}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
