import json

import numpy as np
import pytest

from wtsemigroup.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine_payload(stdout: str) -> str:
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("{"))
    return "\n".join(lines[start:])


def test_kernel_szego_point(capsys):
    code, out, _ = run(
        capsys, "kernel", "--phi", "const:1", "--t", "1", "--z", "0.5", "--lambda", "0.5", "--x", "0.2"
    )
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["rows"][0]["k"][0] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert payload["closed_form"] == "szego"


def test_kernel_at_origin(capsys):
    code, out, _ = run(capsys, "kernel", "--phi", "affine", "--z", "0", "--lambda", "0.7")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["rows"][0]["k"] == [1.0, 0.0]


def test_kernel_scaled_szego_known_point(capsys):
    code, out, _ = run(
        capsys, "kernel", "--phi", "exp:a=7.389056", "--t", "1", "--z", "1", "--lambda", "1", "--x", "0"
    )
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["rows"][0]["k"][0] == pytest.approx(1.1565176, abs=1e-6)


def test_kernel_unit_grid_csv(capsys):
    code, out, _ = run(
        capsys,
        "kernel", "--phi", "const:1", "--t", "1", "--z-grid", "unit:64",
        "--lambda", "0.5", "--x", "0.2", "--format", "csv",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "re_z,im_z,re_k,im_k"
    assert len(rows) == 65
    # spot check each row against 1/(1 - 0.5 z)
    for line in rows[1:8]:
        re_z, im_z, re_k, im_k = map(float, line.split(","))
        z = complex(re_z, im_z)
        expect = 1.0 / (1.0 - 0.5 * z)
        assert complex(re_k, im_k) == pytest.approx(expect, abs=1e-9)


def test_kernel_outside_domain_numeric_exit(capsys):
    code, _, err = run(capsys, "kernel", "--phi", "const:1", "--z", "1.2", "--lambda", "1.0")
    assert code == 3
    assert "numeric error" in err


def test_classify_affine(capsys):
    code, out, _ = run(capsys, "classify", "--phi", "expr:x+1", "--t", "1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert "2-isometry" in payload["labels"]


def test_classify_constant(capsys):
    code, out, _ = run(capsys, "classify", "--phi", "const:1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert "isometry" in payload["labels"]


def test_classify_exponential_half_step(capsys):
    code, out, _ = run(capsys, "classify", "--phi", "exp:a=2", "--t", "0.5")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert "alternatingly-hyperexpansive(16)" in payload["labels"]


def test_spectrum_constant(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "const:1", "--t", "1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["r"] == pytest.approx(1.0, abs=1e-9)
    assert payload["r1"] == pytest.approx(1.0, abs=1e-9)


def test_spectrum_exp2x_alias(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "exp2x", "--t", "1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["r"] == pytest.approx(np.e, abs=1e-6)
    assert payload["r1"] == pytest.approx(np.e, abs=1e-6)
    assert payload["radius_note"]


def test_spectrum_affine_window_limited(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "expr:x+1", "--t", "1", "--nmax", "64")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert abs(payload["r"] - 1.0) < 0.02
    assert payload["window_limited"]


def test_spectrum_csv_annulus(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "const:1", "--format", "csv")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "label,re,im"
    assert len(rows) == 1 + 128


def test_verify_constant_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--phi", "const:1", "--t", "1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    assert payload["all_passed"]
    exact = {c["name"]: c["residual"] for c in payload["checks"]}
    for name in ("semigroup_law", "adjoint_pairing", "left_inverse", "parseval_pullback"):
        assert exact[name] <= 1e-12


def test_verify_affine_tolh(capsys):
    code, out, _ = run(capsys, "verify", "--phi", "expr:x+1", "--t", "1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_reciprocal_kernel_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--phi", "reciprocal", "--t", "2")
    assert code == 0
    payload = json.loads(machine_payload(out))
    names = [c["name"] for c in payload["checks"]]
    assert "kernel_agreement" in names


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--phi", "expr:x+1", "--t", "1", "--tol", "parseval_quadrature=1e-12"
    )
    assert code == 1
    assert "FAIL" in out


def test_bad_phi_usage_exit(capsys):
    code, _, err = run(capsys, "spectrum", "--phi", "nope:1")
    assert code == 2
    assert "usage error" in err


def test_bad_tolerance_name(capsys):
    code, _, err = run(capsys, "verify", "--phi", "const:1", "--tol", "bogus=1")
    assert code == 2


def test_nonpositive_symbol_numeric_exit(capsys):
    code, _, err = run(capsys, "spectrum", "--phi", "expr:x-2")
    assert code == 3
    assert "numeric error" in err


def test_missing_subcommand_usage(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--z-grid", "unit:8", "--lambda=0.3,0.2", "--x", "0.1"),
        ("classify",),
        ("spectrum",),
        ("verify",),
    ],
    ids=lambda argv: argv[0],
)
def test_deterministic_json(capsys, argv):
    _, out1, _ = run(capsys, *argv, "--phi", "exp:a=2", "--t", "0.5", "--seed", "0")
    _, out2, _ = run(capsys, *argv, "--phi", "exp:a=2", "--t", "0.5", "--seed", "0")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--phi", "const:abc"),
        ("classify", "--phi", "exp:a=abc"),
        ("classify", "--phi", "const:1", "--t", "-1"),
        ("classify", "--phi", "const:1", "--t", "0"),
        ("classify", "--phi", "const:1", "--t", "nan"),
        ("spectrum", "--phi", "const:1", "--nmax", "1"),
        ("classify", "--phi", "const:1", "--nmax", "0"),
        ("classify", "--phi", "const:1", "--nmax", "-3"),
        ("kernel", "--phi", "expr:x+1", "--nmax", "1", "--z", "0.1", "--lambda", "0.2"),
        ("verify", "--phi", "const:1", "--h", "0"),
        ("verify", "--phi", "const:1", "--xmax", "-3"),
        ("verify", "--phi", "const:1", "--seed", "-1"),
        ("kernel", "--phi", "const:1", "--z-grid", "unit:0", "--lambda", "0.5"),
        ("kernel", "--phi", "const:1", "--z-grid", "unit:abc", "--lambda", "0.5"),
        ("verify", "--phi", "const:1", "--tol", "reproducing=abc"),
        ("kernel", "--phi", "const:1", "--x", "-1", "--z", "0.1", "--lambda", "0.3"),
        ("kernel", "--phi", "const:1", "--t", "1", "--x", "5", "--z", "0.1", "--lambda", "0.3"),
    ],
    ids=" ".join,
)
def test_bad_arguments_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")
    assert err.count("\n") == 1


def test_kernel_negative_lambda_equals_form(capsys):
    code, out, _ = run(capsys, "kernel", "--phi", "const:1", "--z", "0.1", "--lambda=-0.3,0.1")
    assert code == 0
    payload = json.loads(machine_payload(out))
    q = 0.1 * complex(-0.3, -0.1)
    assert complex(*payload["rows"][0]["k"]) == pytest.approx(1.0 / (1.0 - q), abs=1e-9)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "kernel.json"
    code, out, _ = run(
        capsys, "kernel", "--phi", "const:1", "--z", "0.3", "--lambda", "0.4", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["rows"][0]["k"][0] == pytest.approx(1.0 / (1.0 - 0.12), abs=1e-9)
    assert "wrote" in out
