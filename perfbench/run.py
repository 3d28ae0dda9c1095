"""dpptails benchmark: one workload's CLI job list, each rep in a fresh interpreter.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Reps repeat while another fits in --seconds; every rep's outputs are checked.
--trace 0 reports the end-to-end metrics as medians over the reps.
--trace 1 alternates untraced reps with traced ones, which time every layer
call through in-memory spans, and reports the per-layer metrics.  The
workloads, metrics and layer map are described in perfbench/README.md.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full result
with the environment record and the spans goes to perfbench/out/results/.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 11          # bare interpreter starts whose median is setup_s
WORKER_TIMEOUT_S = 150

# metric name -> unit, as BENCHMARK.json defines them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# per-layer metric -> (end-to-end metric it should move, workload)
PER_LAYER = {
    "specfun.gauss_legendre_s": ("wall_s", "spectra"),
    "kernels.kernel_matrix_cold_s": ("wall_s", "spectra"),
    "kernels.kernel_matrix_warm_s": ("wall_s", "spectra"),
    "kernels.growth_envelope_s": ("wall_s", "certify"),
    "exact.discretize_s": ("wall_s", "spectra"),
    "exact.spectrum_s": ("wall_s,cpu_s", "spectra"),
    "exact.eigensystem_s": ("wall_s", "montecarlo"),
    "exact.count_distribution_s": ("wall_s", "spectra"),
    "exact.exp_moment_bracket_s": ("wall_s", "certify"),
    "bounds.build_bound_report_s": ("wall_s", "certify"),
    "bounds.b_constant_s": ("wall_s", "certify"),
    "bounds.c_constant_s": ("wall_s", "certify"),
    "bounds.tail_table_s": ("wall_s", "certify"),
    "bounds.tail_fn_s": ("wall_s", "certify"),
    "sampler.sample_s": ("wall_s", "montecarlo"),
    "sampler.draw_us": ("wall_s", "montecarlo"),
    "sampler.mc_exp_moment_s": ("wall_s", "montecarlo"),
    "sampler.na_probe_s": ("wall_s", "montecarlo"),
    "sampler.to_jsonl_s": ("wall_s,peak_rss_mb", "montecarlo"),
    "sampler.jsonl_bytes": ("wall_s,peak_rss_mb", "montecarlo"),
    "cli.bound_s": ("wall_s", "certify"),
    "cli.compare_s": ("wall_s", "certify"),
    "cli.exact_s": ("wall_s", "spectra"),
    "cli.sample_s": ("wall_s", "montecarlo"),
    "cli.self_s": ("wall_s", "all"),
    "cli.bytes_written": ("wall_s", "all"),
    "exact.matrix_order_sum": ("none (work count)", "spectra"),
    "exact.rank": ("none (work count)", "spectra"),
    "sampler.points_per_config": ("none (work count)", "montecarlo"),
    "bounds.n_max_sum": ("none (work count)", "certify"),
    "exact.eig_max_abs_err": ("none (health)", "spectra"),
    "exact.refinement_drift": ("none (health)", "spectra"),
    "bounds.min_dominance_slack": ("none (health)", "certify"),
    "trace_gap_s": ("none (tracing overhead)", "all"),
}

CLI_COMMANDS = ("bound", "compare", "exact", "sample")


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Rep:
    jobs: list
    traced: bool
    worker: dict            # the worker's result file, or None if it failed
    health: dict
    bytes_written: int

    def seconds(self, command=None):
        """Job-list seconds, or those of one CLI subcommand's jobs."""
        return sum((j["seconds"] for j, (_, argv) in zip(self.worker["jobs"], self.jobs)
                    if command is None or argv[0] == command), 0.0)


@dataclass
class Measurement:
    workload: str
    seed: int
    reps: list
    setup_s: list
    checks: list            # (label, ok, detail) for every operation


def run_worker(rep_dir, jobs, traced):
    """Run one worker process; its result dict with setup_s added, or None."""
    spec = os.path.join(rep_dir, "spec.json")
    result = os.path.join(rep_dir, "result.json")
    with open(spec, "w") as fh:
        json.dump({"jobs": jobs, "trace": traced, "result": result}, fh)
    with open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
        start = _now()
        try:
            proc = subprocess.run([sys.executable, WORKER, spec], cwd=rep_dir,
                                  env=dict(os.environ, PYTHONPATH=SRC),
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=WORKER_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not os.path.exists(result):
        return None
    with open(result) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - start
    return res


def _cli_checks(jobs, res, rep_dir):
    if res is None:
        with open(os.path.join(rep_dir, "stderr.txt")) as fh:
            detail = fh.read()[-2000:]
        return [(f"{job_id} worker", False, detail) for job_id, _ in jobs]
    return [(f"{j['id']} exit code", j["rc"] == 0, j["error"] or f"rc={j['rc']}")
            for j in res["jobs"]]


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _new_dir(*parts, files=None):
    """A fresh rep directory with an out/ subdirectory and the input files."""
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "out"))
    for name, content in (files or {}).items():
        with open(os.path.join(path, name), "w") as fh:
            json.dump(content, fh)
    return path


def measure(workload, seed, seconds, trace, size="full"):
    """Run reps of `workload` for `seconds`, checking every rep's outputs."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    work = f"{workload}-{seed}-{os.getpid()}"
    checks = []
    setup = []

    def bare_start():
        res = run_worker(_new_dir("work", work, "setup"), [], False)
        if res is None:
            checks.append(("setup probe", False, "worker failed"))
        else:
            setup.append(res["setup_s"])

    # untimed: fills the bytecode and file caches that every CLI user has warm
    run_worker(_new_dir("work", work, "warmup"), [], False)
    ref_dir = None
    if wl.reference:
        ref_dir = _new_dir("work", work, "reference", files=wl.files)
        jobs = wl.reference(seed, size)
        checks += _cli_checks(jobs, run_worker(ref_dir, jobs, False), ref_dir)
    reps = []
    t0 = _now()
    deadline = t0 + seconds
    # setup_s comes from SETUP_SAMPLES bare starts, one due every
    # seconds / SETUP_SAMPLES and run before the next rep, whatever the workload
    bare_starts = 0
    rep_s = 0.0
    # a rep starts only if one more, as long as the last, ends by the deadline
    while not reps or _now() + rep_s <= deadline or (trace and len(reps) < 2):
        while (bare_starts < SETUP_SAMPLES
               and _now() >= t0 + bare_starts * seconds / SETUP_SAMPLES):
            bare_start()
            bare_starts += 1
        started = _now()
        traced = trace and len(reps) % 2 == 1
        rep_dir = _new_dir("work", work, f"rep{len(reps)}", files=wl.files)
        jobs = wl.jobs(seed, size)
        res = run_worker(rep_dir, jobs, traced)
        rep_checks = _cli_checks(jobs, res, rep_dir)
        health = {}
        if res is not None:
            output_checks, health = wl.check(rep_dir, jobs, ref_dir)
            rep_checks += [(label, bool(ok), detail) for label, ok, detail in output_checks]
        checks += rep_checks
        reps.append(Rep(jobs, traced, res, health, _dir_bytes(os.path.join(rep_dir, "out"))))
        if all(ok for _, ok, _ in rep_checks):
            shutil.rmtree(rep_dir)
        rep_s = _now() - started
    for _ in range(bare_starts, SETUP_SAMPLES):
        bare_start()
    for name in ("warmup", "reference", "setup"):
        shutil.rmtree(os.path.join(OUT, "work", work, name), ignore_errors=True)
    try:
        os.rmdir(os.path.join(OUT, "work", work))
    except OSError:
        pass    # a failed rep's directory is kept for inspection
    return Measurement(workload, seed, reps, setup, checks)


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(m):
    ok = [r for r in m.reps if r.worker is not None and not r.traced]
    return {
        "wall_s": _median(r.seconds() for r in ok),
        "cpu_s": _median(r.worker["cpu_s"] for r in ok),
        "setup_s": _median(m.setup_s),
        "peak_rss_mb": _median(r.worker["peak_rss_kb"] / 1024.0 for r in ok),
    }


def per_layer_metrics(m):
    ok = [r for r in m.reps if r.worker is not None]
    plain = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    out = {name: _median(r.worker["layers"][name] for r in traced)
           for name in traced[0].worker["layers"]}
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = _median(r.seconds(command) for r in plain)
    out["cli.bytes_written"] = _median(r.bytes_written for r in ok)
    for name in ("exact.refinement_drift", "bounds.min_dominance_slack"):
        out[name] = _median(r.health.get(name, 0.0) for r in ok)
    out["trace_gap_s"] = (_median(r.worker["layers"]["traced_total_s"] for r in traced)
                          - end_to_end_metrics(m)["wall_s"])
    return {name: out[name] for name in PER_LAYER_UNITS}


def result_line(m, trace):
    """The benchmark's one-line JSON result."""
    failed = sum(1 for _, ok, _ in m.checks if not ok)
    if trace:
        values, units = per_layer_metrics(m), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(m), END_TO_END
    return {"correct": failed == 0, "attempted": len(m.checks), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values}}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    with open("/proc/cpuinfo") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else None,
        "seed": seed,
    }


def _print_report(m, trace, line):
    untraced = sum(1 for r in m.reps if not r.traced)
    print(f"workload {m.workload}, seed {m.seed}: {untraced} untraced reps, "
          f"{len(m.reps) - untraced} traced reps, {len(m.setup_s)} bare starts for setup_s")
    if trace:
        for name, spec in line["metrics"].items():
            moves, workload = PER_LAYER[name]
            print(f"  {name:30s} {spec['value']:>14.6g} {spec['unit']:6s}"
                  f" -> {moves} on {workload}")
    else:
        for name, spec in line["metrics"].items():
            print(f"  {name:30s} {spec['value']:>14.6g} {spec['unit']}")
    base = "CLI invocations and output checks"
    print(f"  {'fail_ratio':30s} {line['failed'] / line['attempted']:>14.6g} "
          f"({line['failed']} failed / {line['attempted']} attempted {base})")
    for label, ok, detail in m.checks:
        if not ok:
            print(f"  FAILED {label}: {detail}")


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpptails", "cli.py")):
        print(f"no dpptails sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dpptails
    if not os.path.abspath(dpptails.__file__).startswith(SRC + os.sep):
        print(f"dpptails imported from {dpptails.__file__}, not {SRC}", file=sys.stderr)
        return 2
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    done = {r.traced for r in m.reps if r.worker is not None}
    if not done >= {False, bool(args.trace)}:
        for label, ok, detail in m.checks:
            if not ok:
                print(f"FAILED {label}: {detail}", file=sys.stderr)
        print("no rep completed; no result", file=sys.stderr)
        return 1
    line = result_line(m, bool(args.trace))
    env = environment(args.seed)
    print("env " + json.dumps(env))
    _print_report(m, bool(args.trace), line)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    path = os.path.join(OUT, "results", f"{name}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "result": line,
                   "checks": m.checks,
                   "reps": [{"traced": r.traced, "health": r.health,
                             "bytes_written": r.bytes_written, "worker": r.worker}
                            for r in m.reps],
                   "setup_s": m.setup_s}, fh, separators=(",", ":"))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
