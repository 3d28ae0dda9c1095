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


def _header_dict(args, extra=None):
    head = {
        "kernel": args.kernel,
        "window": [args.window.a, args.window.b],
        "order": args.order,
        "seed": args.seed,
        "version": __version__,
    }
    if extra:
        head.update(extra)
    return head


def _csv_header_lines(args):
    return [
        f"# kernel: {args.kernel}",
        f"# window: {_fmt(args.window.a)},{_fmt(args.window.b)}",
        f"# order: {args.order}",
        f"# seed: {args.seed}",
        f"# version: {__version__}",
    ]


# Option types: each converts and checks one option once; argparse turns an
# ArgumentTypeError into a usage error (exit 2) before any computation.

def _window(text):
    try:
        a_str, b_str = text.split(",")
        a, b = float(a_str), float(b_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected a,b")
    if not a < b:
        raise argparse.ArgumentTypeError(f"window needs a < b, got {a},{b}")
    return kernels.Interval(a, b)


def _lambda_grid(text):
    try:
        start, stop, pts = text.split(":")
        start, stop, pts = float(start), float(stop), int(pts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected start:stop:points")
    if pts < 1 or start <= 0 or stop < start:
        raise argparse.ArgumentTypeError("lambda grid must be positive and nonempty")
    return list(np.linspace(start, stop, pts))


def _at_least(low):
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"need >= {low}, got {value}")
        return value
    return integer


def _out_base(text):
    if not text or not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise argparse.ArgumentTypeError(f"{text!r} names no file in an existing directory")
    return text


def _q_spec(path):
    """The PairFunctional declared by the q-spec JSON file at `path`."""
    try:
        with open(path) as fh:
            return sampler.make_pair_functional(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"malformed q spec {path!r}: {exc}")


def _kernel_spec(args):
    """The KernelSpec of --kernel, checked against the subcommand and --window."""
    spec = kernels.make_kernel(args.kernel)
    if spec.kind == "ginibre":
        raise DomainError(
            "the ginibre kernel lives on the plane; its disk spectrum is exposed "
            "through exact.ginibre_disk_eigenvalues and its envelope through "
            "kernels.growth_envelope, not through the interval-based subcommands")
    if spec.block_size == 2 and args.command != "bound":
        raise DomainError(
            f"{args.command} needs a scalar kernel: Pfaffian processes have no "
            "Bernoulli counting representation (bounds are available via 'bound')")
    window = args.window
    if spec.kind == "bessel" and spec.bessel_s != 0.0 and window.a <= 0.0:
        raise DomainError(
            "bessel windows must stay inside the open half-line (0, inf) for s != 0")
    if spec.kind in ("airy", "airy4") and (window.a < -10.0 or window.b > 15.0):
        raise DomainError("airy windows must lie inside [-10, 15]")
    return spec


def cmd_bound(args, spec):
    report = bounds.build_bound_report(spec, args.window, args.nmax, max(args.lam[-1], 1.5))
    payload = {
        "header": _header_dict(args, {
            "c_single_sigma": report.c_single_sigma,
            "exponent_note": report.exponent_note,
        }),
        "report": report.to_json_dict(),
    }
    base = args.out
    _atomic_write(base + ".json", json.dumps(payload, indent=2, default=float) + "\n")
    lines = _csv_header_lines(args)
    lines.append("n,log_tail_bound,theorem_form_bound")
    lines += [f"{n},{_fmt(lb)},{_fmt(report.theorem_log_bound(n))}"
              for n, lb in report.per_n_log_bounds]
    _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.json and {base}.csv (B={_fmt(report.b_tail)}, "
          f"sigma={_fmt(report.sigma)})")
    return EXIT_OK


def cmd_exact(args, spec):
    s = exact.spectrum(exact.discretize(spec, args.window, args.order))
    s2 = exact.spectrum(exact.discretize(spec, args.window, 2 * args.order))
    m = min(s.eigenvalues.size, s2.eigenvalues.size)
    drift = float(np.max(np.abs(s.eigenvalues[:m] - s2.eigenvalues[:m]))) if m else 0.0
    if drift > 1e-8:
        print(f"warning: refinement drift {drift:.3e} > 1e-8 between orders "
              f"{args.order} and {2 * args.order}", file=sys.stderr)
    c = exact.count_distribution(s)
    moments = []
    for lam in args.lam:
        try:
            moments.append({"lambda": lam, "value": exact.exp_moment_sq(c, lam)})
        except TruncationError:
            lo, up = exact.exp_moment_sq_bracket(c, lam)
            moments.append({"lambda": lam, "log_lower": lo, "log_upper": up,
                            "note": "guard failed; certified bracket reported"})
    payload = {
        "header": _header_dict(args, {"refinement_drift": drift}),
        "spectrum": s.to_json_dict(),
        "count_distribution": c.to_json_dict(),
        "tails": [{"n": n, "value": exact.tail(c, n)} for n in range(0, c.pmf.size + 2)],
        "exp_moment_sq": moments,
    }
    base = args.out
    _atomic_write(base + ".json", json.dumps(payload, indent=2, default=float) + "\n")
    if args.format == "csv":
        lines = _csv_header_lines(args)
        lines.append("kind,index,value")
        lines += [f"eigenvalue,{k},{_fmt(float(v))}" for k, v in enumerate(s.eigenvalues)]
        lines += [f"pmf,{k},{_fmt(float(v))}" for k, v in enumerate(c.pmf)]
        _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.json (sum of eigenvalues = {_fmt(float(np.sum(s.eigenvalues)))})")
    return EXIT_OK


def cmd_compare(args, spec):
    report = bounds.build_bound_report(spec, args.window, args.nmax, max(args.lam[-1], 1.5))
    c = exact.count_distribution(exact.spectrum(exact.discretize(spec, args.window, args.order)))
    tail_fn = bounds.tail_log_bound_function(spec, args.window)
    lines = _csv_header_lines(args)
    lines.append("kind,x,exact_or_lower,exact_upper_log,chained_or_bound,theorem_bound,dominates")
    all_ok = True
    for n in range(1, 9):
        ex = exact.tail(c, n)
        log_ex = math.log(max(ex, 1e-300))
        chained, theorem = tail_fn(n), report.theorem_log_bound(n)
        ok = log_ex <= chained + 1e-9 and chained <= theorem + 1e-9
        all_ok &= ok
        lines.append(f"tail,{n},{_fmt(ex)},{_fmt(log_ex)},"
                     f"{_fmt(chained)},{_fmt(theorem)},{int(ok)}")
    for lam in args.lam:
        lo_log, up_log = exact.exp_moment_sq_bracket(c, lam, tail_fn)
        moment_bound = report.moment_log_bound(lam)
        ok = up_log <= moment_bound + 1e-9
        all_ok &= ok
        lines.append(f"moment,{_fmt(lam)},{_fmt(lo_log)},{_fmt(up_log)},"
                     f"{_fmt(moment_bound)},,{int(ok)}")
    base = args.out
    _atomic_write(base + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {base}.csv (all dominance flags pass: {all_ok})")
    if not all_ok:
        print("dominance failure detected", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sample(args, spec):
    q, lam, window = args.q, args.lam[0], args.window
    batch = sampler.sample(spec, window, args.order, args.samples, args.seed)
    est, stderr = sampler.mc_exp_moment(batch, q, lam)
    mid = 0.5 * (window.a + window.b)
    c1 = kernels.Interval(window.a, mid)
    c2 = kernels.Interval(mid, window.b)
    lhs, rhs, na_err = sampler.negative_association_probe(
        spec, c1, c2, cap=3, samples=args.samples, seed=args.seed + 1,
        order=args.order)
    base = args.out
    header = json.dumps({"header": _header_dict(args, {
        "rng": batch.rng_algorithm, "q_norm_1_inf": q.norm_1_inf})}, default=float)
    _atomic_write(base + ".jsonl", header + "\n" + batch.to_jsonl())
    _atomic_write(base + "_mc.json", json.dumps({
        "header": _header_dict(args, {"q_norm_1_inf": q.norm_1_inf}),
        "estimate": est, "stderr": stderr,
        "samples": args.samples, "seed": args.seed, "lambda": lam,
    }, indent=2, default=float) + "\n")
    _atomic_write(base + "_na.json", json.dumps({
        "header": _header_dict(args, {}),
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
    commands = {}
    for name, command, out in (("bound", cmd_bound, "bound_report"),
                               ("exact", cmd_exact, "exact_stats"),
                               ("sample", cmd_sample, "sample_run"),
                               ("compare", cmd_compare, "comparison")):
        sp = commands[name] = sub.add_parser(name)
        sp.set_defaults(run=command)
        sp.add_argument("--kernel", required=True,
                        help="kernel id: sine | bessel:s=<real> | airy | ginibre | sine4 | airy4")
        sp.add_argument("--window", required=True, type=_window, help="a,b")
        sp.add_argument("--order", type=_at_least(8), default=200)
        sp.add_argument("--lambda", dest="lam", type=_lambda_grid, default="0.1:2:20",
                        help="start:stop:points")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--out", type=_out_base, default=out)
    for name in ("bound", "compare"):
        commands[name].add_argument("--nmax", type=_at_least(8), default=64)
    commands["exact"].add_argument("--format", choices=("csv", "json"), default="json")
    commands["sample"].add_argument("--samples", type=_at_least(2), default=20000)
    commands["sample"].add_argument("--q-spec", dest="q", type=_q_spec, required=True,
                                    metavar="PATH")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.run(args, _kernel_spec(args))
    except (ValueError, OSError) as exc:    # DomainError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectrumRangeError, TruncationError, CertificateError,
            ConvergenceError, sampler.OverflowGuardError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
