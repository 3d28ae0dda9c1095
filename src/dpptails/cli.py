"""Command-line surface: bound | exact | sample | compare.

Exit codes: 0 success, 2 configuration error, 3 numerical or dominance
failure.  Every output file starts with a provenance header (kernel id,
window, order, seed, toolkit version); floats are serialized with 17
significant digits and files are written atomically (temp file + rename).
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, bounds, exact, kernels, sampler
from .bounds import CertificateError
from .exact import SpectrumRangeError, TruncationError
from .specfun import ConvergenceError, DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dpptails-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_dict(cfg, extra=None):
    head = {
        "kernel": cfg.kernel_id,
        "window": [cfg.window.a, cfg.window.b],
        "order": cfg.order,
        "seed": cfg.seed,
        "version": __version__,
    }
    if extra:
        head.update(extra)
    return head


def _csv_header_lines(cfg):
    return [
        f"# kernel: {cfg.kernel_id}",
        f"# window: {_fmt(cfg.window.a)},{_fmt(cfg.window.b)}",
        f"# order: {cfg.order}",
        f"# seed: {cfg.seed}",
        f"# version: {__version__}",
    ]


class RunConfig:
    def __init__(self, args):
        self.kernel_id = args.kernel
        self.command = args.command
        try:
            self.spec = kernels.make_kernel(args.kernel)
        except (DomainError, ValueError) as exc:
            raise ConfigError(str(exc))
        if self.spec.kind == "ginibre":
            raise ConfigError(
                "the ginibre kernel lives on the plane; its disk spectrum is exposed "
                "through exact.ginibre_disk_eigenvalues and its envelope through "
                "kernels.growth_envelope, not through the interval-based subcommands")
        if self.spec.block_size == 2 and args.command != "bound":
            raise ConfigError(
                f"{args.command} needs a scalar kernel: Pfaffian processes have no "
                "Bernoulli counting representation (bounds are available via 'bound')")
        try:
            a_str, b_str = args.window.split(",")
            a, b = float(a_str), float(b_str)
        except ValueError:
            raise ConfigError(f"cannot parse --window {args.window!r}; expected a,b")
        if not a < b:
            raise ConfigError(f"window needs a < b, got {a},{b}")
        self.window = kernels.Interval(a, b)
        self.order = int(args.order)
        if self.order < 8:
            raise ConfigError("need --order >= 8")
        lam = args.lam.split(":")
        if len(lam) != 3:
            raise ConfigError(f"cannot parse --lambda {args.lam!r}; expected start:stop:points")
        try:
            start, stop, pts = float(lam[0]), float(lam[1]), int(lam[2])
        except ValueError:
            raise ConfigError(f"cannot parse --lambda {args.lam!r}")
        if pts < 1 or start <= 0 or stop < start:
            raise ConfigError("lambda grid must be positive and nonempty")
        self.lambda_grid = list(np.linspace(start, stop, pts))
        self.n_max = int(args.nmax)
        if self.n_max < 8:
            raise ConfigError("need --nmax >= 8")
        self.seed = int(args.seed)
        self.samples = int(args.samples)
        if self.samples < 1:
            raise ConfigError("need --samples >= 1")
        self.fmt = args.format
        self.out = args.out
        self.q_spec_path = args.q_spec
        # early kernel/window compatibility validation
        if self.spec.kind == "bessel" and self.spec.bessel_s != 0.0 and self.window.a <= 0.0:
            raise ConfigError(
                "bessel windows must stay inside the open half-line (0, inf) for s != 0")
        if self.spec.kind in ("airy", "airy4") and (self.window.a < -10.0 or self.window.b > 15.0):
            raise ConfigError("airy windows must lie inside [-10, 15]")


def _dominance_rows(cfg):
    spec, window = cfg.spec, cfg.window
    report = bounds.build_bound_report(spec, window, cfg.n_max,
                                       max(cfg.lambda_grid[-1], 1.5))
    sigma = report.sigma
    d = exact.discretize(spec, window, cfg.order)
    s = exact.spectrum(d)
    c = exact.count_distribution(s)
    tail_fn = bounds.tail_log_bound_function(spec, window)
    n_rows = []
    for n in range(1, 9):
        ex = exact.tail(c, n)
        chained = tail_fn(n)
        theorem = report.b_tail * n * n - (n * n / (2.0 * sigma)) * math.log(n)
        ok = (math.log(max(ex, 1e-300)) <= chained + 1e-9) and (chained <= theorem + 1e-9)
        n_rows.append((n, ex, chained, theorem, ok))
    lam_rows = []
    for lam in cfg.lambda_grid:
        lo_log, up_log = exact.exp_moment_sq_bracket(c, lam, tail_fn)
        moment_bound = report.c_moment * math.expm1(min(700.0, 4.0 * sigma * lam))
        ok = up_log <= moment_bound + 1e-9
        lam_rows.append((lam, lo_log, up_log, moment_bound, ok))
    return report, n_rows, lam_rows


def cmd_bound(cfg):
    report = bounds.build_bound_report(cfg.spec, cfg.window, cfg.n_max,
                                       max(cfg.lambda_grid[-1], 1.5))
    payload = {
        "header": _header_dict(cfg, {
            "c_single_sigma": report.c_single_sigma,
            "exponent_note": report.exponent_note,
        }),
        "report": report.to_json_dict(),
    }
    base = cfg.out or "bound_report"
    _atomic_write(base + ".json", json.dumps(payload, indent=2, default=float) + "\n")
    lines = _csv_header_lines(cfg)
    lines.append("n,log_tail_bound,theorem_form_bound")
    for n, lb in report.per_n_log_bounds:
        theorem = report.b_tail * n * n - (n * n / (2.0 * report.sigma)) * math.log(n)
        lines.append(f"{n},{_fmt(lb)},{_fmt(theorem)}")
    _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.json and {base}.csv (B={_fmt(report.b_tail)}, "
          f"sigma={_fmt(report.sigma)})")
    return EXIT_OK


def cmd_exact(cfg):
    d = exact.discretize(cfg.spec, cfg.window, cfg.order)
    s = exact.spectrum(d)
    d2 = exact.discretize(cfg.spec, cfg.window, 2 * cfg.order)
    s2 = exact.spectrum(d2)
    m = min(s.eigenvalues.size, s2.eigenvalues.size)
    drift = float(np.max(np.abs(s.eigenvalues[:m] - s2.eigenvalues[:m]))) if m else 0.0
    if drift > 1e-8:
        print(f"warning: refinement drift {drift:.3e} > 1e-8 between orders "
              f"{cfg.order} and {2 * cfg.order}", file=sys.stderr)
    c = exact.count_distribution(s)
    moments = []
    for lam in cfg.lambda_grid:
        try:
            moments.append({"lambda": lam, "value": exact.exp_moment_sq(c, lam)})
        except TruncationError:
            lo, up = exact.exp_moment_sq_bracket(c, lam)
            moments.append({"lambda": lam, "log_lower": lo, "log_upper": up,
                            "note": "guard failed; certified bracket reported"})
    payload = {
        "header": _header_dict(cfg, {"refinement_drift": drift}),
        "spectrum": s.to_json_dict(),
        "count_distribution": c.to_json_dict(),
        "tails": [{"n": n, "value": exact.tail(c, n)} for n in range(0, c.pmf.size + 2)],
        "exp_moment_sq": moments,
    }
    base = cfg.out or "exact_stats"
    _atomic_write(base + ".json", json.dumps(payload, indent=2, default=float) + "\n")
    if cfg.fmt == "csv":
        lines = _csv_header_lines(cfg)
        lines.append("kind,index,value")
        lines += [f"eigenvalue,{k},{_fmt(float(v))}" for k, v in enumerate(s.eigenvalues)]
        lines += [f"pmf,{k},{_fmt(float(v))}" for k, v in enumerate(c.pmf)]
        _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.json (sum of eigenvalues = {_fmt(float(np.sum(s.eigenvalues)))})")
    return EXIT_OK


def cmd_compare(cfg):
    report, n_rows, lam_rows = _dominance_rows(cfg)
    lines = _csv_header_lines(cfg)
    lines.append("kind,x,exact_or_lower,exact_upper_log,chained_or_bound,theorem_bound,dominates")
    all_ok = True
    for n, ex, chained, theorem, ok in n_rows:
        all_ok &= ok
        lines.append(f"tail,{n},{_fmt(ex)},{_fmt(math.log(max(ex, 1e-300)))},"
                     f"{_fmt(chained)},{_fmt(theorem)},{int(ok)}")
    for lam, lo_log, up_log, mb, ok in lam_rows:
        all_ok &= ok
        lines.append(f"moment,{_fmt(lam)},{_fmt(lo_log)},{_fmt(up_log)},{_fmt(mb)},,{int(ok)}")
    base = cfg.out or "comparison"
    _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.csv (all dominance flags pass: {all_ok})")
    if not all_ok:
        print("dominance failure detected", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sample(cfg):
    if cfg.q_spec_path is None:
        raise ConfigError("sample requires --q-spec PATH")
    try:
        with open(cfg.q_spec_path) as fh:
            q_dict = json.load(fh)
        q = sampler.make_pair_functional(q_dict)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"malformed q spec: {exc}")
    lam = cfg.lambda_grid[0]
    batch = sampler.sample(cfg.spec, cfg.window, cfg.order, cfg.samples, cfg.seed)
    est, stderr = sampler.mc_exp_moment(batch, q, lam)
    mid = 0.5 * (cfg.window.a + cfg.window.b)
    c1 = kernels.Interval(cfg.window.a, mid)
    c2 = kernels.Interval(mid, cfg.window.b)
    lhs, rhs, na_err = sampler.negative_association_probe(
        cfg.spec, c1, c2, cap=3, samples=cfg.samples, seed=cfg.seed + 1,
        order=cfg.order)
    base = cfg.out or "sample_run"
    header = json.dumps({"header": _header_dict(cfg, {
        "rng": batch.rng_algorithm, "q_norm_1_inf": q.norm_1_inf})}, default=float)
    _atomic_write(base + ".jsonl", header + "\n" + batch.to_jsonl())
    _atomic_write(base + "_mc.json", json.dumps({
        "header": _header_dict(cfg, {"q_norm_1_inf": q.norm_1_inf}),
        "estimate": est, "stderr": stderr,
        "samples": cfg.samples, "seed": cfg.seed, "lambda": lam,
    }, indent=2, default=float) + "\n")
    _atomic_write(base + "_na.json", json.dumps({
        "header": _header_dict(cfg, {}),
        "lhs": lhs, "rhs": rhs, "stderr": na_err,
        "negatively_associated": bool(lhs <= rhs + 3 * na_err),
    }, indent=2, default=float) + "\n")
    print(f"wrote {base}.jsonl, {base}_mc.json, {base}_na.json "
          f"(estimate={_fmt(est)}, stderr={_fmt(stderr)})")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="dpptails",
        description="tail/moment bounds, exact statistics, sampling and "
                    "comparisons for determinantal and Pfaffian kernels")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("bound", "exact", "sample", "compare"):
        q = sub.add_parser(name)
        q.add_argument("--kernel", required=True,
                       help="kernel id: sine | bessel:s=<real> | airy | ginibre | sine4 | airy4")
        q.add_argument("--window", required=True, help="a,b")
        q.add_argument("--order", type=int, default=200)
        q.add_argument("--lambda", dest="lam", default="0.1:2:20",
                       help="start:stop:points")
        q.add_argument("--nmax", type=int, default=64)
        q.add_argument("--seed", type=int, default=1)
        q.add_argument("--samples", type=int, default=20000)
        q.add_argument("--format", choices=("csv", "json"), default="json")
        q.add_argument("--out", default=None)
        q.add_argument("--q-spec", dest="q_spec", default=None)
    return p


_COMMANDS = {
    "bound": cmd_bound,
    "exact": cmd_exact,
    "sample": cmd_sample,
    "compare": cmd_compare,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = RunConfig(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectrumRangeError, TruncationError, CertificateError,
            ConvergenceError, sampler.OverflowGuardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
