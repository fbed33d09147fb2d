import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wtsemigroup
from wtsemigroup import RunConfig, classify, parse_phi_spec, run_verify, spectral_summary
from wtsemigroup.cli import main
from wtsemigroup.errors import (
    LatticeError,
    NonPositiveSymbolError,
    NotLeftInvertibleError,
    NumericError,
    OutsideConvergenceDomainError,
    TailBoundNotAchievedError,
)
from wtsemigroup.spectral import MAX_FIT_ORDER


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
        ("verify", "--seed", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_deterministic_json(capsys, argv):
    code1, out1, _ = run(capsys, *argv, "--phi", "exp:a=2", "--t", "0.5")
    code2, out2, _ = run(capsys, *argv, "--phi", "exp:a=2", "--t", "0.5")
    assert code1 == code2 == 0
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
        ("classify", "--phi", "const:1", "--nmax", "100"),
        ("verify", "--phi", "const:1", "--h", "1e-7"),
        ("verify", "--phi", "const:1", "--h", "1e-320"),
        ("kernel", "--phi", "const:1", "--z", "0.1", "--lambda", "0.2", "--series-tol", "-1"),
        ("kernel", "--phi", "const:1", "--z", "0.1", "--lambda", "0.2", "--series-tol", "0"),
        ("kernel", "--phi", "const:1", "--z", "0.1", "--lambda", "0.2", "--series-tol", "nan"),
        ("kernel", "--phi", "const:1", "--z-grid", "unit:\u00b2", "--lambda", "0.5"),
        ("kernel", "--phi", "const:1", "--z-grid", "unit:" + "9" * 5000, "--lambda", "0.5"),
        ("kernel", "--phi", "const:1", "--z-grid", "unit:65537", "--lambda", "0.5"),
        ("kernel", "--phi", "const:1", "--z", "nan", "--lambda", "0.5"),
        ("kernel", "--phi", "const:1", "--z", "inf", "--lambda", "0"),
        ("kernel", "--phi", "const:1", "--z", "0.1", "--lambda=nan,0"),
        ("spectrum", "--phi", "expr:" + "(" * 3000 + "x" + ")" * 3000),
        ("spectrum", "--phi", "expr:" + "x+" * 3000 + "1"),
        ("classify", "--phi", "expr:x$1"),
        ("verify", "--phi", "const:1", "--tol", "reproducing"),
        ("verify", "--phi", "const:1", "--tol", "reproducing=-1"),
        ("verify", "--phi", "const:1", "--tol", "reproducing=inf"),
        ("verify", "--phi", "const:1", "--tol", "reproducing=1e999"),
        ("kernel", "--phi", "const:1", "--z", "0.1", "--z-grid", "unit:4", "--lambda", "0.5"),
    ],
    ids=lambda argv: " ".join(a if len(a) <= 40 else f"{a[:12]}...({len(a)} chars)" for a in argv),
)
def test_bad_arguments_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:")
    assert err.count("\n") == 1


COMMON_FLAGS = {"--help", "--phi", "--t", "--xmax", "--nmax", "--out"}
COMMAND_FLAGS = {
    "kernel": {"--format", "--z", "--z-grid", "--lambda", "--x", "--series-tol"},
    "classify": set(),
    "spectrum": {"--format"},
    "verify": {"--h", "--tol", "--seed"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_a_command_reads(capsys, command):
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == COMMON_FLAGS | COMMAND_FLAGS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--z", "0.1", "--lambda", "0.5", "--h", "0.01"),
        ("kernel", "--z", "0.1", "--lambda", "0.5", "--tol", "reproducing=1e-3"),
        ("kernel", "--z", "0.1", "--lambda", "0.5", "--seed", "0"),
        ("classify", "--h", "0.01"),
        ("classify", "--tol", "reproducing=1e-3"),
        ("classify", "--seed", "0"),
        ("classify", "--format", "csv"),
        ("spectrum", "--h", "0.01"),
        ("spectrum", "--tol", "reproducing=1e-3"),
        ("spectrum", "--seed", "0"),
        ("verify", "--format", "csv"),
        # no prefix of a flag stands for it: not --lambda, and not --help
        ("kernel", "--z", "0.1", "--lam", "0.5"),
        ("spectrum", "--h", "0.1"),
    ],
    ids=" ".join,
)
def test_flag_a_command_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, argv[0], "--phi", "const:1", *argv[1:])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    # the command's own usage, which lists the flags it does take
    assert err.startswith(f"usage: wtsemigroup {argv[0]} [-h] --phi PHI")


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--phi", "exp:a=2", "--t", "3000", "--xmax", "1", "--z", "0.1", "--lambda", "0.1"),
        ("verify", "--phi", "exp:a=2", "--t", "3000"),
    ],
    ids=lambda argv: argv[0],
)
def test_exp_disc_radius_overflow_is_a_numeric_error(capsys, argv):
    # the radius a^(t/2) = phi(t/2) overflows a float at a = 2, t = 3000
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "numeric error: symbol value inf at x=1500.0 violates positivity\n"


@pytest.mark.parametrize(
    "error,builtin",
    [
        (NonPositiveSymbolError, ArithmeticError),
        (NotLeftInvertibleError, RuntimeError),
        (OutsideConvergenceDomainError, ValueError),
        (TailBoundNotAchievedError, RuntimeError),
        (LatticeError, ValueError),
    ],
    ids=lambda v: v.__name__,
)
def test_numeric_errors_keep_their_builtin_base(error, builtin):
    # main maps NumericError to exit 3; library callers may still catch the builtin
    assert issubclass(error, NumericError) and issubclass(error, builtin)


@pytest.mark.parametrize(
    "argv,purpose",
    [
        (("spectrum", "--phi", "const:1"), "for the spectral tail fit"),
        (("kernel", "--phi", "expr:x+1", "--z", "0.1", "--lambda", "0.2"), "to fit the disc radius"),
        (("verify", "--phi", "expr:x^2+1"), "to fit the disc radius"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,
)
def test_spectral_fit_nmax_cap_refused_before_work(capsys, monkeypatch, argv, purpose):
    # 10**9 shifts would ask for an 8 GB array of shifts and hours of phi
    # tables; the cap is checked before any fit starts
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr("wtsemigroup.operators.sample_then_refine", no_fit)
    code, out, err = run(capsys, *argv, "--nmax", "1000000000")
    assert code == 2 and out == ""
    assert err == f"usage error: --nmax must be at most {MAX_FIT_ORDER} {purpose}, got 1000000000\n"


def test_spectral_fit_nmax_cap_is_inclusive(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "const:1", "--xmax", "0.5", "--nmax", str(MAX_FIT_ORDER))
    assert code == 0
    assert len(json.loads(machine_payload(out))["diagnostics"]["norms"]) == MAX_FIT_ORDER


@pytest.mark.parametrize("argv", [("kernel", "--z", "0.1", "--lambda", "0.2"), ("verify",)], ids=" ".join)
def test_nmax_cap_leaves_exact_disc_radius_alone(capsys, argv):
    # built-in symbols have an exact disc radius: no fit runs, so no cap
    code, _, err = run(capsys, *argv, "--phi", "const:1", "--nmax", "1000000000")
    assert code == 0 and err == ""


def test_unwritable_out_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "spectrum", "--phi", "const:1", "--out", str(target))
    assert code == 2
    assert err.startswith("usage error: cannot write --out ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "verify", "classify", "kernel"])
@pytest.mark.parametrize("where", ["missing dir", "directory"])
def test_unwritable_out_refused_before_work(tmp_path, capsys, command, where):
    # the path is checked before any computation: nothing reaches stdout
    target = tmp_path / "missing" / "x.json" if where == "missing dir" else tmp_path
    extra = ["--z", "0.1", "--lambda", "0.2"] if command == "kernel" else []
    code, out, err = run(capsys, command, "--phi", "const:1", *extra, "--out", str(target))
    assert code == 2 and out == ""
    reason = "No such file or directory" if where == "missing dir" else "Is a directory"
    assert err == f"usage error: cannot write --out {target}: {reason}\n"


WINDOW_REFUSAL = "--t 1e+308 makes the sampling window 64 t infinite; give --xmax"
VERIFY_REFUSAL = "; verify needs it positive and finite"
REFUSED_STEPS = [
    # 64 t overflows above t ~ 2.8e306, and a grid on [0, inf] starts at NaN
    (("spectrum", "--phi", "affine", "--t", "1e308"), WINDOW_REFUSAL),
    (("classify", "--phi", "const:1", "--t", "1e308"), WINDOW_REFUSAL),
    (("kernel", "--phi", "const:1", "--t", "1e308", "--z", "0.1", "--lambda", "0.1"), WINDOW_REFUSAL),
    (("verify", "--phi", "const:1", "--t", "1e308"), WINDOW_REFUSAL),
    # verify's suites build S_{t/2}, cells of width t/256 and test data on [0, 8 t)
    (("verify", "--phi", "affine", "--t", "5e-324"), "--t 5e-324 gives t/2 = 0.0" + VERIFY_REFUSAL),
    (("verify", "--phi", "exp:a=2", "--t", "5e-324", "--h", "1e300"), "--t 5e-324 gives t/2 = 0.0" + VERIFY_REFUSAL),
    (("verify", "--phi", "affine", "--t", "1e-322"), "--t 1e-322 gives h = 0.0" + VERIFY_REFUSAL),
    (("verify", "--phi", "const:1", "--t", "1e308", "--xmax", "1"), "--t 1e+308 gives 8 t = inf" + VERIFY_REFUSAL),
]


@pytest.mark.parametrize("argv,message", REFUSED_STEPS, ids=[" ".join(argv) for argv, _ in REFUSED_STEPS])
def test_a_step_the_work_cannot_form_is_refused_before_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the symbol was parsed")

    monkeypatch.setattr("wtsemigroup.cli.parse_phi_spec", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_a_finite_xmax_lets_a_huge_step_through(capsys):
    code, out, err = run(capsys, "spectrum", "--phi", "const:1", "--t", "1e308", "--xmax", "1")
    assert code == 0 and err == ""
    assert "extrema attained at x=0 (sup) and x=0 (inf)" in out


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away; like StringIO it has no descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_141(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    argv = ["kernel", "--phi", "const:1", "--z-grid", "unit:256", "--lambda=0.5,0", "--x", "0.2"]
    assert main(argv) == 141


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


def test_verify_accepts_mesh_at_cell_budget(monkeypatch, capsys):
    # a smaller budget keeps the run short; h = t/64 snaps to 8 * 64 cells
    monkeypatch.setattr("wtsemigroup.cli.MAX_CELLS", 8 * 64)
    assert run(capsys, "verify", "--phi", "const:1", "--h", "0.015625")[0] == 0
    code, _, err = run(capsys, "verify", "--phi", "const:1", "--h", "0.0153")
    assert code == 2 and "t/64" in err


# The hand-written payload builders that the dataclass-derived ones replaced,
# kept as the reference for the JSON the CLI prints.


def _spectral_summary_dict(s) -> dict:
    return {
        "r": s.r,
        "r1": s.r1,
        "r_L": s.r_L,
        "annulus": list(s.annulus),
        "model_disc_radius": s.model_disc_radius,
        "window_limited": s.window_limited,
        "point_spectrum": s.point_spectrum,
        "adjoint_point_spectrum": s.adjoint_point_spectrum,
        "radius_note": s.radius_note,
        "diagnostics": s.diagnostics,
    }


def _classification_report_dict(r) -> dict:
    return {
        "phi": r.phi,
        "t": r.t,
        "max_order": r.max_order,
        "tol_class": r.tol_class,
        "labels": list(r.labels),
        "witnesses": {
            name: {"n": w.n, "x": w.x, "value": w.value} for name, w in r.witnesses.items()
        },
        "m_isometry": r.m_isometry,
        "max_hyperexpansive_order": r.max_hyperexpansive_order,
        "grid_points": r.grid_points,
    }


def _check_row(r) -> dict:
    return {"name": r.name, "residual": r.residual, "tol": r.tol, "passed": r.passed, "note": r.note}


def _emitted(payload) -> str:
    # what cli._json writes; tuples and lists print alike
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("phi,t", [("const:1", 1.0), ("affine", 1.0), ("cap", 0.25), ("expr:x^2+1", 1.0)])
def test_payloads_match_hand_written_reference(phi, t):
    sym = parse_phi_spec(phi)
    summary = spectral_summary(sym, t)
    assert _emitted(summary.to_json_dict()) == _emitted(_spectral_summary_dict(summary))
    report = classify(sym, t, max_order=16)
    assert report.witnesses or phi == "const:1"  # witness rows take part where they exist
    assert _emitted(report.to_json_dict()) == _emitted(_classification_report_dict(report))
    for r in run_verify(sym, RunConfig(phi=phi, t=t)):
        assert asdict(r) == _check_row(r)


def fresh_process(*argv):
    """Exit code, stdout and stderr of the CLI in a new interpreter."""
    src = os.path.dirname(os.path.dirname(wtsemigroup.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wtsemigroup.cli", *argv], capture_output=True, text=True, env=env, check=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_print_what_a_fresh_process_prints(capsys):
    # main keeps one parser per process: no default or --tol list may leak
    # from one call into the next
    runs = [
        ("classify", "--phi", "affine", "--t", "1"),
        ("verify", "--phi", "const:1", "--tol", "reproducing=1e-3", "--tol", "kernel_agreement=1e-4"),
        ("verify", "--phi", "const:1", "--tol", "semigroup_law=0.01"),
        ("verify", "--phi", "const:1"),
        ("spectrum", "--phi", "const:1", "--nmax", "8"),
        ("classify", "--phi", "affine", "--t", "1"),
        ("kernel", "--phi", "const:1", "--lambda", "0.5"),
    ]
    for argv in runs:
        assert run(capsys, *argv) == fresh_process(*argv), argv


def test_overflow_reports_one_numeric_error_line():
    # e^(2x) overflows at x = 355 before the tail bound holds: numpy's
    # RuntimeWarning, which names the installed file, stays off stderr
    code, _, err = fresh_process("kernel", "--phi", "exp2x", "--t", "1", "--z", "2.5552", "--lambda", "2.718281828")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("numeric error: ")


COMMAND_ARGV = {
    "classify": ("classify",),
    "spectrum": ("spectrum",),
    "verify": ("verify",),
    "kernel": ("kernel", "--z", "0.1", "--lambda", "0.1"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
@pytest.mark.parametrize(
    "expr,value",
    [
        ("x+1/0", "inf"),
        ("-(1/0)+x", "-inf"),
        ("exp(1/0)", "inf"),
        ("x^(1/0)", "0.0"),
        ("x+(2-2)/(3-3)", "nan"),
    ],
)
def test_constant_division_by_zero_is_a_numeric_error(capsys, command, expr, value):
    # the constant 1/0 is numpy's inf, as x/0 is, and fails the positivity check
    code, out, err = run(capsys, *COMMAND_ARGV[command], "--phi", f"expr:{expr}")
    assert code == 3 and out == ""
    assert err == f"numeric error: symbol value {value} at x=0.0 violates positivity\n"


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
@pytest.mark.parametrize("expr", ["-x", "x*(-1)", "-x*2"])
def test_a_negative_zero_is_refused_as_zero(capsys, command, expr):
    # phi(0) is -0.0, which the refusal reports as 0.0
    code, out, err = run(capsys, *COMMAND_ARGV[command], "--phi", f"expr:{expr}")
    assert code == 3 and out == ""
    assert err == "numeric error: symbol value 0.0 at x=0.0 violates positivity\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--phi", "cap", "--t", "1e-7", "--z", "0.3", "--lambda", "0.2"),
        ("kernel", "--phi", "cap", "--t", "1e-9", "--z", "0.3", "--lambda", "0.2"),
        ("kernel", "--phi", "cap", "--t", "1e-300", "--z", "0.3", "--lambda", "0.2"),
        ("verify", "--phi", "cap", "--t", "1e-9"),
    ],
    ids=" ".join,
)
def test_cap_closed_form_head_past_the_series_cap_is_refused(capsys, argv):
    # one head term per n with x + n t <= 1: 1/t of them at x = 0
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    t = float(argv[argv.index("--t") + 1])
    head = f"about {1 / t:.6g} head terms at t={t:g}, more than 10000"
    assert err == f"numeric error: the cap closed form needs {head}\n"


def test_cap_closed_form_head_at_the_series_cap_runs(capsys):
    code, out, _ = run(capsys, "kernel", "--phi", "cap", "--t", "1e-4", "--z", "0.3", "--lambda", "0.2")
    assert code == 0
    row = json.loads(machine_payload(out))["rows"][0]
    assert row["closed_form_delta"] < 1e-9


def _expressions(levels: int):
    """Expression texts of at most levels levels over x, constants, + - * / ^, exp and log."""
    leaf = st.sampled_from(["x", "0", "1", "2", "0.5", "1e308"])
    if levels == 1:
        return leaf
    sub = _expressions(levels - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
        st.tuples(st.sampled_from(["exp", "log"]), sub).map(lambda p: f"{p[0]}({p[1]})"),
    )


@settings(max_examples=100, deadline=None)
@given(_expressions(4))
@example("x+1/0")
@example("(1e308)*(1e308)+x")
@example("log(0)")
def test_fuzzed_expressions_exit_with_a_documented_code(text):
    # whatever the expression, main returns 0, 2 or 3 and raises nothing
    for argv in (
        ("classify", "--nmax", "2", "--xmax", "1"),
        ("kernel", "--z", "0.1", "--lambda", "0.1", "--xmax", "1"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--phi", f"expr:{text}"])
        assert code in (0, 2, 3), err.getvalue()


EDGE_VALUES = ("5e-324", "1e-321", "1e-300", "0.3", "1", "3", "1e300", "1e308", "-1", "0", "inf", "nan")
NUMERIC_FLAGS = {
    "kernel": ("--t", "--xmax", "--nmax", "--x", "--series-tol", "--z", "--lambda"),
    "classify": ("--t", "--xmax", "--nmax"),
    "spectrum": ("--t", "--xmax", "--nmax"),
    "verify": ("--t", "--xmax", "--nmax", "--h", "--seed"),
}


@st.composite
def _numeric_argv(draw):
    """A command on one of a few symbols, with some of its numeric flags at edge values."""
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    phi = draw(st.sampled_from(["const:1", "affine", "exp:a=2", "expr:x+1"]))
    values = draw(st.dictionaries(st.sampled_from(NUMERIC_FLAGS[command]), st.sampled_from(EDGE_VALUES)))
    if command == "kernel":
        values = {"--z": "0.1", "--lambda": "0.1", **values}
    # --flag=value, so that a value such as -1 is not read as a flag
    return [command, "--phi", phi, *(f"{flag}={value}" for flag, value in values.items())]


@settings(max_examples=800, deadline=None)
@given(_numeric_argv())
@example(["verify", "--phi", "affine", "--t=5e-324"])
@example(["verify", "--phi", "exp:a=2", "--t=5e-324", "--h=1e300"])
@example(["verify", "--phi", "const:1", "--t=1e308"])
@example(["verify", "--phi", "affine", "--t=1e-321"])
@example(["spectrum", "--phi", "expr:exp(20*x-690)", "--t=1", "--xmax=2", "--nmax=40"])
def test_fuzzed_numeric_flags_exit_with_a_documented_code(argv):
    # whatever the numbers, main returns 0, 1, 2 or 3 and raises nothing, and
    # a run that prints its payload prints JSON, without NaN or Infinity
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (0, 1):
        strict_json(machine_payload(out.getvalue()))


def strict_json(text: str):
    """The first JSON value of text, refusing the NaN and Infinity that RFC 8259 has not."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.JSONDecoder(parse_constant=refuse).raw_decode(text)[0]


NAN_RESIDUAL_SPECS = ("affine", "const:1", "reciprocal", "exp:a=2", "expr:x^2+1")


@pytest.mark.parametrize("xmax", [(), ("--xmax", "2")], ids=["default-window", "xmax"])
@pytest.mark.parametrize("spec", NAN_RESIDUAL_SPECS)
def test_a_nan_residual_is_a_numeric_error(capsys, spec, xmax):
    # unit-norm test data of about 1e160 on cells 5e-324 wide overflow inner:
    # five residuals are NaN, which measured nothing and is not JSON
    code, out, err = run(capsys, "verify", "--phi", spec, "--t", "1e-321", *xmax)
    assert code == 3 and out == ""
    assert err == "numeric error: the adjoint_pairing residual is NaN at --t 1e-321: the check measured nothing\n"


@pytest.mark.parametrize(
    "command,name",
    [
        (("spectrum",), "||S_t^n||"),
        (("kernel", "--z", "0.1", "--lambda", "0.1"), "m(S_t^n)"),
        (("verify",), "m(S_t^n)"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else None,
)
def test_a_fit_whose_weights_leave_the_floats_is_a_numeric_error(capsys, command, name):
    # phi(x + n)/phi(x) = e^(20 n) overflows from n = 36 on: the norms and
    # the moduli read inf there, and a fit to them would print NaN
    code, out, err = run(capsys, *command, "--phi", "expr:exp(20*x-690)", "--t", "1", "--xmax", "2", "--nmax", "40")
    assert code == 3 and out == ""
    assert err == (
        f"numeric error: {name} = inf at n=36: the n-step weight left the floats, so the radius fit measured nothing\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--phi", "affine", "--t", "1e-318"),
        ("verify", "--phi", "reciprocal", "--t", "1e-318"),
        ("verify", "--phi", "affine", "--t", "3e-319", "--h", "1e-323"),
    ],
    ids=" ".join,
)
def test_test_data_off_the_model_lattice_are_a_numeric_error(capsys, argv):
    # at these subnormal steps a cell of t/m rounds to a whole number of the
    # smallest subnormal (791 of them at t = 1e-318, where t/256 is 790.6),
    # and linspace's last cell takes up the rest of 8 t (39 of them), so
    # verify's test data lie on no lattice k t/m: one numeric error line and
    # exit 3, as the NaN residuals gave before the model moved onto the lattice
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1
