import hashlib
import json
import math

import numpy as np
import pytest

from dpptails import cli


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


def test_unknown_kernel_exit_2(tmp_path):
    assert run(["bound", "--kernel", "warp", "--window", "0,1",
                "--out", str(tmp_path / "x")]) == 2


def test_bad_window_exit_2(tmp_path):
    assert run(["bound", "--kernel", "sine", "--window", "1,1",
                "--out", str(tmp_path / "x")]) == 2
    assert run(["bound", "--kernel", "sine", "--window", "zebra",
                "--out", str(tmp_path / "x")]) == 2


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
        "_na.json": "4fed76aed6ffce6ce58948c94916860e49a659aae8405c80942f5cc91b15b910",
    }
    for suffix, digest in pins.items():
        data = (tmp_path / ("s" + suffix)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


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


def test_airy_window_out_of_range_exit_2(tmp_path):
    assert run(["bound", "--kernel", "airy", "--window=-12,0",
                "--out", str(tmp_path / "x")]) == 2


def test_block_kernel_bound_works(tmp_path):
    out = str(tmp_path / "s4")
    assert run(["bound", "--kernel", "sine4", "--window", "0,1", "--out", out]) == 0
    payload = json.loads((tmp_path / "s4.json").read_text())
    assert payload["report"]["sigma"] == 1.0


def test_block_kernel_exact_rejected(tmp_path):
    assert run(["exact", "--kernel", "sine4", "--window", "0,1",
                "--out", str(tmp_path / "x")]) == 2
    assert run(["sample", "--kernel", "airy4", "--window", "0,1",
                "--out", str(tmp_path / "x")]) == 2


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
