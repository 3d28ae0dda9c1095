import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dpptails import bounds, cli, kernels


def run(argv):
    return cli.main(argv)


def test_bound_sine_unit_window(tmp_path):
    out = str(tmp_path / "rep")
    assert run(["bound", "--kernel", "sine", "--window", "0,1", "--out", out]) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert payload["report"]["sigma"] == 1.0
    assert payload["header"]["kernel"] == "sine"
    assert math.isfinite(payload["report"]["B"])
    csv = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv[0].startswith("# kernel: sine")
    assert csv[5] == "n,log_tail_bound,theorem_form_bound"


def test_bound_bessel_negative_s_touching_zero(tmp_path):
    code = run(["bound", "--kernel", "bessel:s=-0.5", "--window", "0,1",
                "--out", str(tmp_path / "x")])
    assert code == 2


def test_bound_airy_sigma(tmp_path):
    out = str(tmp_path / "airy")
    assert run(["bound", "--kernel", "airy", "--window=-1,0", "--out", out]) == 0
    payload = json.loads((tmp_path / "airy.json").read_text())
    assert payload["report"]["sigma"] == 1.5


def test_exact_sine(tmp_path):
    out = str(tmp_path / "ex")
    assert run(["exact", "--kernel", "sine", "--window", "0,1", "--order", "100",
                "--out", out]) == 0
    payload = json.loads((tmp_path / "ex.json").read_text())
    pmf = payload["count_distribution"]["pmf"]
    assert abs(sum(pmf) - 1.0) < 1e-10
    assert abs(sum(payload["spectrum"]["eigenvalues"]) - 1.0) < 1e-10
    assert payload["header"]["order"] == 100


def test_compare_sine_dominance(tmp_path):
    out = str(tmp_path / "cmp")
    assert run(["compare", "--kernel", "sine", "--window", "0,1", "--order", "100",
                "--lambda", "0.1:1:4", "--out", out]) == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("kind")]
    assert all(r.rsplit(",", 1)[1] == "1" for r in rows)


def test_invalid_lambda_grid_exit_2(tmp_path):
    assert run(["compare", "--kernel", "sine", "--window", "0,1",
                "--lambda", "2:1:3", "--out", str(tmp_path / "x")]) == 2
    assert run(["compare", "--kernel", "sine", "--window", "0,1",
                "--lambda", "0:1:0", "--out", str(tmp_path / "x")]) == 2
    # NaN fails every comparison, so "nan:1:2" used to pass the range test
    # and the JSON said "lambda": NaN
    for grid in ("nan:1:2", "0.1:nan:2", "0.1:inf:2"):
        assert run(["exact", "--kernel", "sine", "--window", "0,1", "--order", "32",
                    "--lambda", grid, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_exact_bracket_past_e700_stays_within_count_support(tmp_path):
    # lam (2N + 1) = 1020 at N = 8, where the upper value used to be 1.985e289;
    # no count exceeds the order, 32
    out = str(tmp_path / "ex")
    assert run(["exact", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--lambda", "60:60:1", "--out", out]) == 0
    payload = json.loads((tmp_path / "ex.json").read_text())
    (row,) = payload["exp_moment_sq"]
    assert row["log_lower"] <= row["log_upper"] <= 60.0 * 32 ** 2


@pytest.mark.parametrize("s", ["150", "200"])
def test_bessel_envelope_past_double_range_exit_2(tmp_path, capsys, s):
    # the amplitude underflowed to 0.0 (s = 150) or math.gamma raised an
    # uncaught OverflowError (s = 200, exit 1 with a traceback)
    assert run(["bound", "--kernel", f"bessel:s={s}", "--window", "0.5,2",
                "--out", str(tmp_path / "x")]) == 2
    assert "envelope amplitude on (0, 2.0] leaves the double range" in capsys.readouterr().err


def test_unknown_kernel_exit_2(tmp_path):
    assert run(["bound", "--kernel", "warp", "--window", "0,1",
                "--out", str(tmp_path / "x")]) == 2


def test_bad_window_exit_2(tmp_path):
    assert run(["bound", "--kernel", "sine", "--window", "1,1",
                "--out", str(tmp_path / "x")]) == 2
    assert run(["bound", "--kernel", "sine", "--window", "zebra",
                "--out", str(tmp_path / "x")]) == 2


def _python(args, env_extra=(), timeout=300):
    # a fresh interpreter on this source tree, where OPENBLAS_NUM_THREADS is
    # only what env_extra sets, not a value this process inherited
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def _cli_subprocess(argv, env_extra=(), timeout=300):
    # the CLI in a fresh interpreter: environment settings take effect, and
    # a run that never ends fails the test
    return _python(["-m", "dpptails.cli", *argv], env_extra, timeout)


def _compare_csv(tmp_path, name, env_extra):
    # the BLAS thread count takes effect in a fresh interpreter only
    proc = _cli_subprocess(["compare", "--kernel", "airy", "--window=-1,0",
                            "--out", str(tmp_path / name)], env_extra)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return (tmp_path / (name + ".csv")).read_bytes()


def test_compare_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the CLI's own default is one thread, so the second run asks for two
    one = _compare_csv(tmp_path, "one", {"OPENBLAS_NUM_THREADS": "1"})
    assert one == _compare_csv(tmp_path, "two", {"OPENBLAS_NUM_THREADS": "2"})


# the package's public names: 39 functions and classes by the submodule that
# defines them, and the five submodules themselves
PUBLIC_NAMES = {
    "kernels": ["Factorization", "GrowthEnvelope", "Interval", "KernelSpec", "eval_complex",
                "eval_matrix", "eval_scalar", "factorization", "growth_envelope",
                "intensity", "make_kernel"],
    "bounds": ["BoundReport", "b_constant", "build_bound_report", "c_constant",
               "det_via_divided_differences", "divided_differences",
               "exp_moment_log_bound", "tail_log_bound"],
    "exact": ["CountDistribution", "DiscretizedKernel", "Spectrum", "correlation_function",
              "count_distribution", "discretize", "exp_moment_sq",
              "ginibre_disk_eigenvalues", "pfaffian", "spectrum", "tail", "tail_bracket"],
    "sampler": ["PairFunctional", "SampleBatch", "additive_functional", "gaussian_bump_q",
                "mc_exp_moment", "negative_association_probe", "norm_1_inf", "sample"],
    "specfun": [],
}

# case -> (environment, program run with PUBLIC_NAMES as JSON in sys.argv[1])
IMPORT_CONTRACT = {
    "package_loads_no_numpy_and_sets_nothing": ({}, """
import os, sys
import dpptails
assert "numpy" not in sys.modules
assert "OPENBLAS_NUM_THREADS" not in os.environ
"""),
    "cli_sets_one_blas_thread": ({}, """
import os
import dpptails.cli
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
"""),
    "cli_keeps_the_users_thread_count": ({"OPENBLAS_NUM_THREADS": "2"}, """
import os
import dpptails.cli
assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
"""),
    "cli_after_numpy_sets_nothing": ({}, """
import os
import numpy
import dpptails.cli
assert "OPENBLAS_NUM_THREADS" not in os.environ
"""),
    "public_names_resolve_to_the_submodule_objects": ({}, """
import importlib, json, sys
import dpptails
table = json.loads(sys.argv[1])
names = [*table, *(name for names in table.values() for name in names)]
got = {name: getattr(dpptails, name) for name in names}
assert len(got) == 44 and sorted(dpptails.__all__) == sorted(names)
for module, exported in table.items():
    sub = importlib.import_module("dpptails." + module)
    assert got[module] is sub, module
    assert all(got[name] is getattr(sub, name) for name in exported), module
"""),
    "unknown_name_raises_attribute_error": ({}, """
import dpptails
try:
    dpptails.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
"""),
}


@pytest.mark.parametrize("case", sorted(IMPORT_CONTRACT))
def test_import_contract(case):
    env_extra, program = IMPORT_CONTRACT[case]
    proc = _python(["-c", program, json.dumps(PUBLIC_NAMES)], env_extra, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_records_hold_only_the_fields_their_readers_use():
    # only state a caller sets and a reader reads is a field; the RNG name
    # and the exponent note are class constants
    from dpptails import bounds, exact, sampler
    records = {
        sampler.SampleBatch: ["seed", "node_rule", "indices", "offsets"],
        exact.DiscretizedKernel: ["rule", "matrix"],
        bounds.BoundReport: ["kernel", "window", "sigma", "b_tail", "b_tilde", "delta", "c1",
                             "c2", "c_moment", "d_combine", "per_n_log_bounds",
                             "c_single_sigma"],
    }
    for record, fields in records.items():
        assert [f.name for f in dataclasses.fields(record)] == fields, record.__name__
    assert sampler.SampleBatch.rng_algorithm.startswith("philox4x64-10")
    assert bounds.BoundReport.exponent_note.startswith("the certified rewrite")


def _q_spec_file(tmp_path, body):
    p = tmp_path / "q.json"
    p.write_text(json.dumps(body))
    return str(p)


def test_sample_zero_q_estimate_one(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "box", "amplitude": 0.0,
                                 "support": [0, 1, 0, 1]})
    out = str(tmp_path / "s")
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "300", "--seed", "5", "--lambda", "0.5:0.5:1",
                "--q-spec", qp, "--out", out]) == 0
    mc = json.loads((tmp_path / "s_mc.json").read_text())
    assert mc["estimate"] == 1.0 and mc["stderr"] == 0.0


def test_sample_same_seed_byte_identical(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "gaussian_bump", "support": [0, 1, 0, 1]})
    args = ["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
            "--samples", "200", "--seed", "9", "--lambda", "0.5:0.5:1",
            "--q-spec", qp]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_sample_outputs_pinned(tmp_path):
    # sha256 of the three outputs of one small run, pinned so that a change to
    # the batch layout or the statistics cannot move a byte unnoticed; the
    # header carries the toolkit version, so a version bump moves them too
    qp = _q_spec_file(tmp_path, {"family": "gaussian_bump", "support": [0, 1, 0, 1]})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "200", "--seed", "9", "--lambda", "0.5:0.5:1",
                "--q-spec", qp, "--out", str(tmp_path / "s")]) == 0
    pins = {
        ".jsonl": "aa8804abdd24c2cf06dd998933063f6ffd8e7a165e7486feb3c523329d6b6984",
        "_mc.json": "ec6c18716f97a5388170d1b8bf8b404ba22792c6a3a2fe1a630cd30d33774984",
        "_na.json": "9d905bcec847d02020a8a2510b284a7872c0d814c4696354a254d5632b66b536",
    }
    for suffix, digest in pins.items():
        data = (tmp_path / ("s" + suffix)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


def test_benchmark_shaped_sample_outputs_pinned(tmp_path):
    # the montecarlo benchmark's job at 2000 samples: six chunks of draws,
    # so the pin crosses chunk boundaries that the 200-sample pin above never
    # reaches; the digests come from the draw that ran separate Philox passes
    # for the coins and the picks
    qp = _q_spec_file(tmp_path, {"family": "gaussian_bump", "amplitude": 1.0,
                                 "center": [0.0, 0.0], "width": 1.0,
                                 "support": [-3.0, 3.0, -3.0, 3.0]})
    assert run(["sample", "--kernel", "sine", "--window=-3,3", "--order", "128",
                "--samples", "2000", "--seed", "1", "--lambda", "0.5:0.5:1",
                "--q-spec", qp, "--out", str(tmp_path / "s")]) == 0
    pins = {
        ".jsonl": "17dbd5c52c8a0959b9b57d420c5165d8c457e995a6a0ce63590f330aeca7ccc2",
        "_mc.json": "5d991c23fdf4a9a6cf8b5348b6d44fce11effa8b36c103836e7d563be851f68c",
        "_na.json": "f77d634a223a26b9aa0118ac3cb6be4617ceb79182a97e7147bafb1a2c91c5af",
    }
    for suffix, digest in pins.items():
        data = (tmp_path / ("s" + suffix)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


def test_sample_solves_once(tmp_path, monkeypatch):
    # the NA statistic reads the Monte Carlo batch, so nothing solves again
    from dpptails import exact
    calls = []
    solve = exact.eigensystem
    monkeypatch.setattr(exact, "eigensystem", lambda d: calls.append(d) or solve(d))
    qp = _q_spec_file(tmp_path, {"family": "box", "support": [0, 1, 0, 1]})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--samples", "50", "--q-spec", qp, "--out", str(tmp_path / "s")]) == 0
    assert len(calls) == 1


def test_sample_draws_once(tmp_path, monkeypatch):
    # the NA statistic reads the Monte Carlo batch instead of drawing its own
    from dpptails import sampler
    calls = []
    draw = sampler._draw_range
    monkeypatch.setattr(sampler, "_draw_range",
                        lambda *args: calls.append(args[2:]) or draw(*args))
    qp = _q_spec_file(tmp_path, {"family": "box", "support": [0, 1, 0, 1]})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--samples", "50", "--seed", "4", "--q-spec", qp,
                "--out", str(tmp_path / "s")]) == 0
    assert calls == [(4, 0, 50)]


def test_sample_na_is_the_probe_on_the_seed_stream(tmp_path):
    # the probe on the window's two halves draws the batch of --seed again, so
    # the written statistic is its value bit for bit
    from dpptails import sampler
    qp = _q_spec_file(tmp_path, {"family": "gaussian_bump", "support": [0, 1, 0, 1]})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "200", "--seed", "9", "--lambda", "0.5:0.5:1",
                "--q-spec", qp, "--out", str(tmp_path / "s")]) == 0
    na = json.loads((tmp_path / "s_na.json").read_text())
    probe = sampler.negative_association_probe(
        kernels.make_kernel("sine"), kernels.Interval(0.0, 0.5), kernels.Interval(0.5, 1.0),
        3, 200, 9, 48)
    assert [float.hex(na[k]) for k in ("lhs", "rhs", "stderr")] == list(map(float.hex, probe))


def test_sample_malformed_q_spec_exit_2(tmp_path):
    p = tmp_path / "q.json"
    p.write_text("{not json")
    assert run(["sample", "--kernel", "sine", "--window", "0,1",
                "--q-spec", str(p), "--out", str(tmp_path / "s")]) == 2
    qp = _q_spec_file(tmp_path, {"family": "nonexistent"})
    assert run(["sample", "--kernel", "sine", "--window", "0,1",
                "--q-spec", qp, "--out", str(tmp_path / "s")]) == 2
    # missing --q-spec entirely
    assert run(["sample", "--kernel", "sine", "--window", "0,1",
                "--out", str(tmp_path / "s")]) == 2


def test_float_serialization_17_digits(tmp_path):
    out = str(tmp_path / "rep")
    assert run(["bound", "--kernel", "sine", "--window", "0,1", "--out", out]) == 0
    csv = (tmp_path / "rep.csv").read_text().splitlines()
    first_data = csv[6].split(",")
    # round-trips exactly
    val = float(first_data[1])
    assert format(val, ".17g") == first_data[1]


def test_headers_in_all_outputs(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "box", "amplitude": 0.5,
                                 "support": [0, 1, 0, 1]})
    out = str(tmp_path / "s")
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "100", "--seed", "2", "--lambda", "0.5:0.5:1",
                "--q-spec", qp, "--out", out]) == 0
    first = json.loads((tmp_path / "s.jsonl").read_text().splitlines()[0])
    assert first["header"]["version"]
    for suffix in ("_mc.json", "_na.json"):
        payload = json.loads((tmp_path / ("s" + suffix)).read_text())
        head = payload["header"]
        assert {"kernel", "window", "order", "seed", "version"} <= set(head)


def test_airy_window_out_of_range_exit_2(tmp_path, capsys):
    # both ends of the window rule, which reads its bounds from the registry
    for kernel in ("airy", "airy4"):
        for window in ("-12,0", "0,16"):
            assert run(["bound", "--kernel", kernel, f"--window={window}",
                        "--out", str(tmp_path / "x")]) == 2, (kernel, window)
            assert "airy windows must lie inside [-10, 15]" in capsys.readouterr().err


def test_block_kernel_bound_works(tmp_path):
    out = str(tmp_path / "s4")
    assert run(["bound", "--kernel", "sine4", "--window", "0,1", "--out", out]) == 0
    payload = json.loads((tmp_path / "s4.json").read_text())
    assert payload["report"]["sigma"] == 1.0


def test_block_kernel_exact_rejected(tmp_path, capsys):
    qp = _q_spec_file(tmp_path, {"family": "box", "support": [0, 1, 0, 1]})
    for command, kernel, extra in (("exact", "sine4", []), ("compare", "airy4", []),
                                   ("sample", "airy4", ["--q-spec", qp])):
        assert run([command, "--kernel", kernel, "--window", "0,1", *extra,
                    "--out", str(tmp_path / "x")]) == 2
        # the refusal says what is missing, not that the count has no Bernoulli form
        err = capsys.readouterr().err
        assert f"{command} is not implemented for the block kernels" in err, err
        assert "'bound'" in err and "Bernoulli" not in err


def test_ginibre_rejected_by_interval_commands(tmp_path):
    assert run(["bound", "--kernel", "ginibre", "--window", "0,1",
                "--out", str(tmp_path / "x")]) == 2


def test_bound_certificate_failure_exit_3(tmp_path):
    # at nmax = 8 the sine maximization has not passed its turning point yet
    assert run(["bound", "--kernel", "sine", "--window", "0,1", "--nmax", "8",
                "--out", str(tmp_path / "x")]) == 3


def test_exact_spectrum_out_of_range_exit_3(tmp_path):
    # order 8 cannot resolve ~20 near-unit eigenvalues on a length-20 window
    assert run(["exact", "--kernel", "sine", "--window", "0,20", "--order", "8",
                "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("argv", [
    # exp-moment bounds past the double range sent the c walk across every
    # double (175, 177, airy 118), or raised an uncaught OverflowError (180)
    ["bound", "--kernel", "sine", "--window", "0,1", "--lambda", "1:175:2"],
    ["bound", "--kernel", "sine", "--window", "0,1", "--lambda", "1:177:2"],
    ["bound", "--kernel", "sine", "--window", "0,1", "--lambda", "1:180:2"],
    ["bound", "--kernel", "airy", "--window=-1,0", "--lambda", "1:118:2"],
    ["compare", "--kernel", "sine", "--window", "0,1", "--order", "24", "--lambda", "1:175:2"],
])
def test_moment_grid_past_double_range_exit_3(tmp_path, argv):
    proc = _cli_subprocess(argv + ["--out", str(tmp_path / "x")], timeout=120)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "numerical failure: t0 = exp(" in proc.stderr


@pytest.mark.parametrize("command", ["bound", "exact"])
@pytest.mark.parametrize("s", ["nan", "inf"])
def test_non_finite_bessel_parameter_exit_2(tmp_path, command, s):
    proc = _cli_subprocess([command, "--kernel", f"bessel:s={s}", "--window", "0.5,2",
                            "--out", str(tmp_path / "x")], timeout=120)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "requires finite s > -1" in proc.stderr


def test_bessel_window_touching_zero_exit_2(tmp_path):
    # every Gauss-Legendre node lies inside (0, 1), so only the window rule
    # refuses these
    qp = _q_spec_file(tmp_path, {"family": "box"})
    for command, extra in (("exact", []), ("sample", ["--q-spec", qp])):
        assert run([command, "--kernel", "bessel:s=0.5", "--window=0,1", "--order", "32",
                    *extra, "--out", str(tmp_path / "x")]) == 2


def test_exact_writes_no_infinity(tmp_path):
    # exp(lam N^2) overflowed at lambda 1.75 and 3 and the JSON said Infinity
    out = str(tmp_path / "ex")
    assert run(["exact", "--kernel", "sine", "--window", "0,20", "--order", "128",
                "--lambda", "0.5:3:3", "--out", out]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads((tmp_path / "ex.json").read_text(), parse_constant=refuse)
    rows = payload["exp_moment_sq"]
    assert [row["lambda"] for row in rows] == [0.5, 1.75, 3.0]
    assert all("log_upper" in row and "value" not in row for row in rows)


def test_kernel_help_lists_the_registry(capsys):
    assert run(["bound", "--help"]) == 0
    assert " | ".join(kernels.KERNEL_IDS) in " ".join(capsys.readouterr().out.split())


def test_exact_csv_format(tmp_path):
    out = str(tmp_path / "ex")
    assert run(["exact", "--kernel", "sine", "--window", "0,1", "--order", "64",
                "--format", "csv", "--out", out]) == 0
    lines = (tmp_path / "ex.csv").read_text().splitlines()
    assert lines[5] == "kind,index,value"
    assert any(l.startswith("eigenvalue,0,") for l in lines)
    assert any(l.startswith("pmf,0,") for l in lines)


# ---------------------------------------------------------------------------
# each subcommand parses only the options it reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bound", "--samples", "100"],
    ["exact", "--nmax", "64"],
    ["compare", "--format", "csv"],
    ["sample", "--nmax", "64"],
])
def test_unread_option_exit_2(tmp_path, argv):
    qp = _q_spec_file(tmp_path, {"family": "box"})
    extra = ["--q-spec", qp] if argv[0] == "sample" else []
    assert run(argv + ["--kernel", "sine", "--window", "0,1", "--order", "48",
                       "--out", str(tmp_path / "x")] + extra) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json"]


def test_q_spec_misspelt_key_exit_2(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "gaussian_bump", "widht": 2.0})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "50", "--q-spec", qp, "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s.jsonl").exists()


def test_custom_grid_q_spec_must_increase_exit_2(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "custom_grid", "x": [0, 2, 1], "y": [0, 1],
                                 "values": [[0, 1], [1, 0], [1, 1]]})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "48",
                "--samples", "50", "--q-spec", qp, "--out", str(tmp_path / "s")]) == 2


def test_sample_needs_two_samples_exit_2(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "box"})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--samples", "1", "--q-spec", qp, "--out", str(tmp_path / "s")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_philox_keys_exit_2(tmp_path, seed):
    # a Philox key is 64 bits: -1 and 2^64 would draw the streams of
    # 2^64 - 1 and 0 under other headers
    qp = _q_spec_file(tmp_path, {"family": "box"})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--samples", "20", "--seed=" + seed, "--q-spec", qp,
                "--out", str(tmp_path / "s")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json"]


def test_largest_seed_runs(tmp_path):
    qp = _q_spec_file(tmp_path, {"family": "box"})
    for seed in (2 ** 64 - 2, 2 ** 64 - 1):
        assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                    "--samples", "20", "--seed", str(seed), "--q-spec", qp,
                    "--out", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s_mc.json").read_text())["seed"] == seed


@pytest.mark.parametrize("out", ["missing/s", ""])
def test_out_into_missing_directory_exit_2(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    qp = _q_spec_file(tmp_path, {"family": "box"})
    assert run(["sample", "--kernel", "sine", "--window", "0,1", "--order", "32",
                "--samples", "20", "--q-spec", qp, "--out", out]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json"]


def test_write_failure_exit_2(tmp_path, monkeypatch):
    def refuse(path, text):
        raise PermissionError(f"cannot write {path}")
    monkeypatch.setattr(cli, "_atomic_write", refuse)
    assert run(["bound", "--kernel", "sine", "--window", "0,1",
                "--out", str(tmp_path / "rep")]) == 2


def _bound_pieces_and_encoder(values):
    """(the piece writer's text, json.dumps(indent=2) + newline) of a bound
    payload whose table holds `values` at n = 1, 2, ..."""
    header = {"kernel": "sine", "window": [0.0, 1.0], "order": 200, "seed": 1,
              "version": "0.1.0", "c_single_sigma": math.inf, "exponent_note": "x"}
    report = {"kernel": "sine", "window": [0.0, 1.0], "sigma": 1.0, "B": math.nan}
    rows = list(enumerate(values, 1))
    text = "".join(cli._bound_json_pieces({"header": header, "report": report}, rows))
    payload = {"header": header, "report": {
        **report, "table": [{"n": n, "log_bound": v} for n, v in rows]}}
    return text, json.dumps(payload, indent=2, default=float) + "\n"


def test_bound_json_bytes_equal_the_indented_encoder():
    # the table rows come from C-encoder passes; every float spelling
    # (signed zero, subnormal, huge, +-inf, NaN) must match indent=2 output
    values = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, -1.5, 0.1,
              np.float64(2.0 / 3.0), -123456.789e-300]
    text, expected = _bound_pieces_and_encoder(values)
    assert text == expected
    text, expected = _bound_pieces_and_encoder([])
    assert text == expected


def test_bound_json_pieces_over_many_pieces_equal_the_indented_encoder():
    # more than three pieces, with the awkward spellings on both sides of
    # every piece edge and the table ending inside a piece
    size = cli._PIECE_ROWS
    values = [-0.5 * n for n in range(3 * size + 7)]
    odd = [-0.0, 5e-324, math.inf, -math.inf, math.nan]
    for k, edge in enumerate(range(0, len(values), size)):
        values[edge] = odd[k % len(odd)]
        values[edge - 1] = odd[(k + 2) % len(odd)]
    pieces = list(cli._bound_json_pieces({"header": {}, "report": {}},
                                         list(enumerate(values, 1))))
    assert len(pieces) == 2 + 4
    text, expected = _bound_pieces_and_encoder(values)
    assert text == expected


def test_bound_write_of_the_airy4_table_stays_small(tmp_path, monkeypatch):
    # the certify workload's largest table: 2048 rows, written in pieces
    report = bounds.build_bound_report(kernels.make_kernel("airy4"),
                                       kernels.Interval(-1.0, 0.0), 2048, 2.0)
    monkeypatch.setattr(bounds, "build_bound_report", lambda *args: report)
    base = str(tmp_path / "b")
    run(["bound", "--kernel", "airy4", "--window=-1,0", "--nmax", "2048", "--out", base])
    tracemalloc.start()
    try:
        assert run(["bound", "--kernel", "airy4", "--window=-1,0", "--nmax", "2048",
                    "--out", base]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6, peak
    assert len(json.loads((tmp_path / "b.json").read_text())["report"]["table"]) == 2048


def test_bound_json_file_bytes_equal_the_indented_encoder(tmp_path):
    base = tmp_path / "b"
    assert run(["bound", "--kernel", "sine", "--window=0,1", "--out", str(base)]) == 0
    text = (tmp_path / "b.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for name in ("a", "b"):
            assert run(["bound", "--kernel", "sine", "--window=0,1",
                        "--out", str(tmp_path / name)]) == 0
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()
