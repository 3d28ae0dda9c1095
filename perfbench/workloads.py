"""Workload job lists and the checks on their outputs.

A job is (job_id, argv) for `dpptails.cli.main`; it runs in a rep
directory and writes its outputs under out/<job_id>.  A check is
(label, ok, detail).  Every CLI invocation and every check is one operation
of the fail ratio.  "tiny" sizes serve the benchmark's self-test only.
"""

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

Q_SPEC = {"family": "gaussian_bump", "amplitude": 1.0, "center": [0.0, 0.0],
          "width": 1.0, "support": [-3.0, 3.0, -3.0, 3.0]}

BOUND_HEADER_KEYS = {"kernel", "window", "order", "seed", "version",
                     "c_single_sigma", "exponent_note"}
BOUND_REPORT_KEYS = {"kernel", "window", "sigma", "B", "B_tilde", "delta",
                     "c1", "c2", "c", "d", "table"}

EIG_ABS_TOL = 1e-10
PMF_SUM_TOL = 1e-12
MEAN_COUNT_STDERRS = 5.0
SHORT_RERUN_SAMPLES = {"full": 200, "tiny": 50}


@dataclass(frozen=True)
class Workload:
    jobs: object          # (seed, size) -> [(job_id, argv)]
    check: object         # (rep_dir, jobs, reference_dir) -> (checks, health)
    files: dict           # input files written into every rep directory
    reference: object = None   # (seed, size) -> jobs run once per benchmark run


def _job(job_id, *argv):
    return job_id, [*argv, "--out", f"out/{job_id}"]


def _option(argv, name, default=None):
    """Value of `name` in argv, given as "name value" or "name=value"."""
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


# ---------------------------------------------------------------------------
# certify: bound reports and dominance tables, no sampling
# ---------------------------------------------------------------------------

_CERTIFY_SCALARS = (("sine", "0,1"), ("airy", "-1,0"), ("bessel:s=0.5", "0.5,2"))


def certify_jobs(seed, size):
    s = str(seed)
    if size == "tiny":
        return [_job("bound-sine", "bound", "--kernel", "sine", "--window=0,1", "--seed", s),
                _job("bound-sine4", "bound", "--kernel", "sine4", "--window=0,1",
                     "--nmax", "32", "--seed", s),
                _job("compare-sine", "compare", "--kernel", "sine", "--window=0,1",
                     "--order", "24", "--seed", s)]
    jobs = [_job(f"bound-{k}", "bound", "--kernel", k, f"--window={w}", "--seed", s)
            for k, w in _CERTIFY_SCALARS]
    jobs += [_job("bound-sine4", "bound", "--kernel", "sine4", "--window=0,1",
                  "--nmax", "256", "--seed", s),
             _job("bound-airy4", "bound", "--kernel", "airy4", "--window=-1,0",
                  "--nmax", "2048", "--seed", s)]
    jobs += [_job(f"compare-{k}", "compare", "--kernel", k, f"--window={w}", "--seed", s)
             for k, w in _CERTIFY_SCALARS]
    return jobs


def _finite_numbers(obj):
    if isinstance(obj, bool):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return True


def _check_bound_json(path):
    with open(path) as fh:
        data = json.load(fh)
    report = data.get("report", {})
    table = report.get("table", [])
    problems = []
    if set(data) != {"header", "report"}:
        problems.append(f"top-level keys {sorted(data)}")
    if set(data.get("header", {})) != BOUND_HEADER_KEYS:
        problems.append(f"header keys {sorted(data.get('header', {}))}")
    if set(report) != BOUND_REPORT_KEYS:
        problems.append(f"report keys {sorted(report)}")
    if not table or any(set(row) != {"n", "log_bound"} for row in table):
        problems.append("table rows must be exactly {n, log_bound}")
    if [row.get("n") for row in table] != list(range(1, len(table) + 1)):
        problems.append("table n must run 1..n_max")
    if not _finite_numbers(data):
        problems.append("non-finite value")
    return problems, data


def _read_compare(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def _dominance_slack(row):
    """Log-space margin of a compare row's certified bound over the exact value.

    Tail rows use the chained bound; the theorem form equals the chain at the
    n where B is attained, so its margin over the chain is no health signal.
    """
    return float(row["chained_or_bound"]) - float(row["exact_upper_log"])


@functools.lru_cache(maxsize=None)
def _reference_matrix(kernel, window, order):
    from dpptails import exact, kernels    # importable once run.py has checked src/
    a, b = (float(v) for v in window.split(","))
    return exact.discretize(kernels.make_kernel(kernel), kernels.Interval(a, b), order).matrix


@functools.lru_cache(maxsize=None)
def _reference_eigenvalues(kernel, window, order):
    """np.linalg.eigvalsh of the same Nystrom matrix, clipped, descending."""
    ev = np.linalg.eigvalsh(_reference_matrix(kernel, window, order))
    return np.clip(ev, 0.0, 1.0)[::-1]


def _bernoulli_pmf(probs):
    pmf = np.array([1.0])
    for p in probs:
        pmf = np.concatenate([pmf * (1.0 - p), [0.0]]) + np.concatenate([[0.0], pmf * p])
    return pmf


def check_certify(rep_dir, jobs, reference_dir):
    checks = []
    slack = math.inf
    tables = {}
    for job_id, argv in jobs:
        base = os.path.join(rep_dir, "out", job_id)
        if argv[0] == "bound":
            try:
                problems, data = _check_bound_json(base + ".json")
                tables[job_id] = data["report"]["table"]
            except (OSError, ValueError) as exc:
                problems = [repr(exc)]
            checks.append((f"{job_id} JSON has the documented keys, finite values",
                           not problems, "; ".join(problems)))
        else:
            try:
                rows = _read_compare(base + ".csv")
                bad = [r["kind"] + "," + r["x"] for r in rows if r["dominates"] != "1"]
                slack = min([slack] + [_dominance_slack(r) for r in rows])
                ok, detail = bool(rows) and not bad, f"rows not dominating: {bad}"
            except (OSError, KeyError, ValueError, IndexError) as exc:
                ok, detail = False, repr(exc)
            checks.append((f"{job_id} every row dominates", ok, detail))
    # an independent pmf (eigvalsh, not the CLI's Jacobi) under the sine table
    order = _compare_order(jobs)
    pmf = _bernoulli_pmf(_reference_eigenvalues("sine", "0,1", order))
    table = tables.get("bound-sine", [])
    bad = []
    for n in range(1, 9):
        tail_p = float(np.sum(pmf[n:]))
        if n > len(table) or (tail_p > 0.0 and math.log(tail_p) > table[n - 1]["log_bound"]):
            bad.append(n)
    checks.append(("sine [0,1] eigvalsh pmf tail below exp(log_bound) for n <= 8",
                   not bad, f"violated at n = {bad}"))
    return checks, {"bounds.min_dominance_slack": slack if math.isfinite(slack) else 0.0}


def _compare_order(jobs):
    # the full-size compare jobs run at the CLI's default order, 200
    return next(int(_option(argv, "--order", 200)) for _, argv in jobs if argv[0] == "compare")


# ---------------------------------------------------------------------------
# spectra: values-only eigensolves at order n and 2n, no bounds, no sampling
# ---------------------------------------------------------------------------

_SPECTRA = (("sine", "-3,3"), ("airy", "-2,0"), ("bessel:s=0.5", "0.5,4"))


def spectra_jobs(seed, size):
    order = "24" if size == "tiny" else "192"
    return [_job(f"exact-{k}", "exact", "--kernel", k, f"--window={w}",
                 "--order", order, "--seed", str(seed))
            for k, w in _SPECTRA]


def check_spectra(rep_dir, jobs, reference_dir):
    checks = []
    drift = 0.0
    for job_id, argv in jobs:
        kernel, window = _option(argv, "--kernel"), _option(argv, "--window")
        order = int(_option(argv, "--order"))
        try:
            with open(os.path.join(rep_dir, "out", job_id + ".json")) as fh:
                data = json.load(fh)
            ev = np.array(data["spectrum"]["eigenvalues"])
            pmf = np.array(data["count_distribution"]["pmf"])
            trunc = float(data["count_distribution"]["truncation_error_bound"])
            drift = max(drift, float(data["header"]["refinement_drift"]))
        except (OSError, KeyError, ValueError) as exc:
            checks.append((f"{job_id} output readable", False, repr(exc)))
            continue
        ref = _reference_eigenvalues(kernel, window, order)
        err = float(np.max(np.abs(ev - ref))) if ev.shape == ref.shape else math.inf
        checks.append((f"{job_id} eigenvalues match eigvalsh to {EIG_ABS_TOL:g}",
                       err <= EIG_ABS_TOL, f"max abs difference {err:.3e}"))
        # the pmf keeps the leading pmf.size-1 eigenvalues; the rest must be
        # covered by the truncation bound, up to eps of eigensolver noise on
        # each dropped value (the matrix norm is <= 1)
        dropped = ref[pmf.size - 1:]
        allowance = dropped.size * np.finfo(float).eps
        mass = float(np.sum(dropped))
        checks.append((f"{job_id} unreported eigenvalues within truncation_error_bound",
                       mass <= trunc + allowance,
                       f"unreported {mass:.3e} vs bound {trunc:.3e} + {allowance:.1e}"))
        total = float(np.sum(pmf))
        checks.append((f"{job_id} pmf sums to 1 within {PMF_SUM_TOL:g}",
                       abs(total - 1.0) <= PMF_SUM_TOL, f"sum - 1 = {total - 1.0:.3e}"))
        trace = float(np.trace(_reference_matrix(kernel, window, order)))
        gap = abs(float(np.sum(ev)) - trace)
        checks.append((f"{job_id} eigenvalue sum matches the trace to {EIG_ABS_TOL:g}",
                       gap <= EIG_ABS_TOL, f"|sum - trace| = {gap:.3e}"))
    return checks, {"exact.refinement_drift": drift}


# ---------------------------------------------------------------------------
# montecarlo: one sampling run with its NA probe and bulk JSONL output
# ---------------------------------------------------------------------------

def _sample_job(job_id, seed, size, samples):
    order = "24" if size == "tiny" else "128"
    return _job(job_id, "sample", "--kernel", "sine", "--window=-3,3", "--order", order,
                "--samples", str(samples), "--lambda", "0.5:0.5:1", "--seed", str(seed),
                "--q-spec", "q.json")


def montecarlo_jobs(seed, size):
    return [_sample_job("sample", seed, size, 400 if size == "tiny" else 10000)]


def montecarlo_reference(seed, size):
    return [_sample_job("sample", seed, size, SHORT_RERUN_SAMPLES[size])]


def check_montecarlo(rep_dir, jobs, reference_dir):
    (job_id, argv), = jobs
    base = os.path.join(rep_dir, "out", job_id)
    checks = []
    try:
        with open(base + ".jsonl", "rb") as fh:
            body = fh.read()
        with open(os.path.join(reference_dir, "out", job_id + ".jsonl"), "rb") as fh:
            prefix = fh.read()
        ok = body.startswith(prefix)
        checks.append(("short rerun with the same seed reproduces the JSONL prefix",
                       ok, f"{len(prefix)} reference bytes"))
        counts = np.array([len(json.loads(ln)) for ln in body.splitlines()[1:]])
        mean_target = float(np.trace(_reference_matrix(
            _option(argv, "--kernel"), _option(argv, "--window"), int(_option(argv, "--order")))))
        stderr = float(np.std(counts, ddof=1) / math.sqrt(counts.size))
        gap = abs(float(np.mean(counts)) - mean_target)
        checks.append((f"mean count within {MEAN_COUNT_STDERRS:g} stderr of the eigenvalue sum",
                       gap <= MEAN_COUNT_STDERRS * stderr,
                       f"|mean - sum| = {gap:.4f}, stderr {stderr:.4f}"))
        with open(base + "_na.json") as fh:
            na = json.load(fh)
        checks.append(("negative-association flag holds", na["negatively_associated"] is True,
                       f"lhs {na['lhs']:.5f} rhs {na['rhs']:.5f} stderr {na['stderr']:.5f}"))
    except (OSError, KeyError, ValueError) as exc:
        checks.append((f"{job_id} outputs readable", False, repr(exc)))
    return checks, {}


WORKLOADS = {
    "certify": Workload(certify_jobs, check_certify, {}),
    "spectra": Workload(spectra_jobs, check_spectra, {}),
    "montecarlo": Workload(montecarlo_jobs, check_montecarlo, {"q.json": Q_SPEC},
                           montecarlo_reference),
}
