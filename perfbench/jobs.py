"""Seeded job lists for the benchmark workloads, with a correctness check per job.

Each job is one call a desk user would make: into the public API, or into
cli.main(argv). Library functions are looked up on their module when a job
runs, so the span wrappers that tracing.py installs see the outermost call.
Every input is drawn here from the workload seed; the library receives only
the generated inputs. A round is a list of batches, one per symbol, and each
batch holds every job kind in the same shares, so a run that stops between
batches keeps the mix. The mix is the same for every seed; the seed
changes the data and the order. The shares are chosen so that the median and
the 90th percentile of job latency each fall inside one kind's cluster of
latencies, not on the edge between two, where an order statistic would jump
from run to run.

Checks compare against tolerances, never bit patterns, so that a faster
implementation that reorders floating-point sums still passes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

symbols = importlib.import_module("wtsemigroup.symbols")
stepfun = importlib.import_module("wtsemigroup.stepfun")
operators = importlib.import_module("wtsemigroup.operators")
model = importlib.import_module("wtsemigroup.model")
spectral = importlib.import_module("wtsemigroup.spectral")
cli = importlib.import_module("wtsemigroup.cli")
TOL = importlib.import_module("wtsemigroup.config").DEFAULT_TOLERANCES

KERNEL_TOL = TOL["kernel_agreement"]  # 1e-8: series against closed form
RADIUS_TOL = 1e-6  # tests/test_acceptance.py::test_c02


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    # None when the result is correct, otherwise the reason it is not
    check: Callable[[object], Optional[str]]
    # cli.main jobs: run returns (exit code, stdout) and check gets stdout
    expect_exit: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    batches: list[list[Job]]  # one round, in seeded order
    warmup: Job  # the first job built, so its kind is the same for every seed

    @property
    def jobs(self) -> list[Job]:
        return [job for batch in self.batches for job in batch]


def _shuffled(rng: np.random.Generator, batches: list[list[Job]]) -> Workload:
    """Seeded order of the batches and of the jobs inside each batch."""
    order = [[batch[i] for i in rng.permutation(len(batch))] for batch in batches]
    return Workload([order[i] for i in rng.permutation(len(order))], batches[0][0])


def _unit_step(rng: np.random.Generator, t: float, blocks: int, cells_per_block: int):
    """Unit-norm complex step data on blocks * t, cell edges on every block edge."""
    cells = blocks * cells_per_block
    bp = np.linspace(0.0, blocks * t, cells + 1)
    vals = rng.standard_normal(cells) + 1j * rng.standard_normal(cells)
    vals /= math.sqrt(float(np.sum(np.abs(vals) ** 2)) * blocks * t / cells)
    return stepfun.StepFunction(bp, vals)


def _within(name: str, value: float, tol: float) -> Optional[str]:
    return None if value <= tol else f"{name} {value:.3e} > {tol:.1e}"


# ---------------------------------------------------------------------------
# model-roundtrip: U and U^-1 on large step data, and the kernel preimage
# ---------------------------------------------------------------------------

# the five built-ins at the steps of tests/test_acceptance.py::GOLDEN_SYMBOLS;
# each has an exact model disc radius
MODEL_SYMBOLS = (("const:1", 1.0), ("affine", 1.0), ("reciprocal", 2.0), ("cap", 0.25), ("exp:a=2", 0.5))
CELLS_PER_BLOCK = 256
ROUNDTRIP_MIX = ((16, 3), (64, 1), (256, 1))  # (blocks, jobs per symbol and round)
# (|lambda| / disc radius, jobs per symbol and round); |lambda| >= 0.97 radius
# takes about 15 s a call today and is left to a later benchmark
REPRODUCING_MIX = ((0.5, 4), (0.9, 1))  # p50 inside 0.5, p90 among the heavy jobs
REPRODUCING_BLOCKS = 16


def _roundtrip_job(sym, t: float, f, blocks: int) -> Job:
    def run():
        return model.model_inverse(sym, t, model.model_map(sym, t, f))

    def check(g):
        return _within("round-trip residual", stepfun.norm(g - f), TOL["parseval_pullback"])

    return Job(f"roundtrip-{blocks}", f"roundtrip {sym.describe()} t={t:g} blocks={blocks}", run, check)


def _reproducing_job(sym, t: float, f, lam: complex, e, frac: float) -> Job:
    def run():
        return model.reproducing_check(sym, t, f, lam, e)

    def check(chk):
        return _within("reproducing residual", chk.diff, TOL["reproducing"])

    return Job(
        f"reproducing-{frac:g}",
        f"reproducing {sym.describe()} t={t:g} lambda={lam:.6g}",
        run,
        check,
    )


def model_roundtrip(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    batches = []
    for spec, t in MODEL_SYMBOLS:
        jobs = []
        batches.append(jobs)
        sym = symbols.parse_phi_spec(spec)
        radius = sym.model_disc_radius(t)
        e = stepfun.indicator(0.0, t).scale(1.0 / math.sqrt(t)).subdivide(CELLS_PER_BLOCK)
        for blocks, count in ROUNDTRIP_MIX:
            for _ in range(count):
                jobs.append(_roundtrip_job(sym, t, _unit_step(rng, t, blocks, CELLS_PER_BLOCK), blocks))
        for frac, count in REPRODUCING_MIX:
            for _ in range(count):
                lam = frac * radius * np.exp(2j * np.pi * rng.uniform())
                f = _unit_step(rng, t, REPRODUCING_BLOCKS, CELLS_PER_BLOCK)
                jobs.append(_reproducing_job(sym, t, f, lam, e, frac))
    return _shuffled(rng, batches)


# ---------------------------------------------------------------------------
# spectral-kernel: scalar phi evaluations in spectral fits and kernel series
# ---------------------------------------------------------------------------

SPECTRAL_SYMBOLS = (
    ("const:1", 1.0),
    ("affine", 1.0),
    ("reciprocal", 2.0),
    ("cap", 0.25),
    ("exp2x", 1.0),
    ("expr:x+1", 1.0),
    ("expr:x^2+1", 1.0),
)
KERNEL_GRID = 16  # points on the unit circle per kernel job
# (|lambda| / disc radius, jobs per symbol and round)
KERNEL_MIX = ((0.3, 3), (0.6, 4), (0.9, 1))
SPECTRAL_PER_SYMBOL = 2  # p90 falls among the spectral_summary jobs

# (spec, t) -> (r, r1) of spectral_summary at n_max 32 and 10,001 samples.
# Exact radii where the fit is not window-limited: const and exp(2x) are the
# golden values of tests/test_acceptance.py::test_c02, cap and exp:a=2 follow
# from the same norm formula. The window-limited fits carry a bias that
# ROADMAP records; for them the value fitted at the seed commit is the
# reference, so a faster fit must reproduce it to RADIUS_TOL.
RADII = {
    ("const:1", 1.0): (1.0, 1.0),
    ("cap", 0.25): (1.0, 1.0),
    ("exp2x", 1.0): (math.e, math.e),
    ("exp:a=2", 1.0): (math.sqrt(2.0), math.sqrt(2.0)),
    ("affine", 1.0): (1.020693837778385, 1.0056440508696092),
    ("expr:x+1", 1.0): (1.020693837778385, 1.0056440508696092),
    ("reciprocal", 2.0): (0.9943558908844546, 0.9792952747267375),
    ("reciprocal", 1.0): (0.9943876256566837, 0.9797257149867519),
    ("expr:x^2+1", 1.0): (1.0435143345401388, 1.0114483049963212),
}

# phi of the expression symbols, written out independently of the parser
EXPRESSION_PHI = {"expr:x+1": lambda x: x + 1.0, "expr:x^2+1": lambda x: x * x + 1.0}


def _check_radii(spec: str, t: float, r: float, r1: float) -> Optional[str]:
    want_r, want_r1 = RADII[(spec, t)]
    gap = max(abs(r - want_r), abs(r1 - want_r1))
    if gap <= RADIUS_TOL:
        return None
    return f"r={r!r} r1={r1!r}, expected {want_r!r} {want_r1!r} within {RADIUS_TOL:g}"


def _reference_kernel(spec: str, sym, t: float, z: complex, lam: complex, x: float) -> complex:
    """Closed form for the built-ins; a direct numpy sum for the expressions.

    The expression symbols increase, so every coefficient phi(x)/phi(x+nt)
    is at most 1 and stopping once |q|^n < 1e-18 leaves a tail below 1e-16.
    """
    q = complex(z) * np.conj(complex(lam))
    phi = EXPRESSION_PHI.get(spec)
    if phi is None:
        return model.kernel_closed_form(model.make_kernel(sym, t), z, lam, x)
    terms = 64 if abs(q) == 0 else max(64, math.ceil(math.log(1e-18) / math.log(abs(q))))
    n = np.arange(terms)
    return complex(np.sum(phi(x) / phi(x + n * t) * q**n))


def _check_kernel(spec, sym, t, lam, x, points, values) -> Optional[str]:
    worst = max(abs(v - _reference_kernel(spec, sym, t, z, lam, x)) for z, v in zip(points, values))
    return _within("kernel gap to reference", worst, KERNEL_TOL)


def _unit_grid(n: int) -> list[complex]:
    return [complex(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]


def _spectral_job(spec: str, sym, t: float) -> Job:
    def run():
        return spectral.spectral_summary(sym, t)

    def check(s):
        return _check_radii(spec, t, s.r, s.r1)

    return Job("spectral", f"spectral_summary {spec} t={t:g}", run, check)


def _disc_radius(sym, t: float) -> float:
    """Exact radius of a built-in; 1 / fitted r(L_t) for an expression, as the CLI does."""
    radius = sym.model_disc_radius(t)
    if radius is None:
        op_l = operators.make_operator(sym, t, "L", x_max=64.0 * t)
        radius = 1.0 / spectral.spectral_radius(op_l, 32, 64.0 * t).estimate
    return radius


def _kernel_job(spec: str, sym, t: float, radius: float, lam: complex, x: float, frac: float) -> Job:
    points = _unit_grid(KERNEL_GRID)

    def run():
        k = model.make_kernel(sym, t, radius=radius)
        return [model.kernel_series(k, z, lam, x)[0] for z in points]

    def check(values):
        return _check_kernel(spec, sym, t, lam, x, points, values)

    return Job(
        f"kernel-{frac:g}",
        f"kernel_series {spec} t={t:g} unit:{KERNEL_GRID} lambda={lam:.6g} x={x:.6g}",
        run,
        check,
    )


def spectral_kernel(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    batches = []
    for spec, t in SPECTRAL_SYMBOLS:
        jobs = []
        batches.append(jobs)
        sym = symbols.parse_phi_spec(spec)
        radius = _disc_radius(sym, t)
        for frac, count in KERNEL_MIX:
            for _ in range(count):
                lam = frac * radius * np.exp(2j * np.pi * rng.uniform())
                jobs.append(_kernel_job(spec, sym, t, radius, lam, float(rng.uniform(0.0, t)), frac))
        jobs.extend(_spectral_job(spec, sym, t) for _ in range(SPECTRAL_PER_SYMBOL))
    return _shuffled(rng, batches)


# ---------------------------------------------------------------------------
# cli-session: cli.main(argv) in process, stdout captured
# ---------------------------------------------------------------------------

# classify golden set of tests/test_acceptance.py::test_c03 at its steps, plus
# the expression symbols: a polynomial phi of degree d gives a (d+1)-isometry
CLI_SYMBOLS = (
    ("const:1", 1.0),
    ("affine", 1.0),
    ("reciprocal", 1.0),
    ("cap", 0.25),
    ("exp:a=2", 1.0),
    ("expr:x+1", 1.0),
    ("expr:x^2+1", 1.0),
)
# spec -> (labels that must be present, labels that must be absent) at order 16
CLASSIFY_LABELS = {
    "const:1": (("isometry",), ()),
    "affine": (("2-isometry",), ("isometry",)),
    "reciprocal": (("contraction", "completely-monotone-moment-candidate(16)"), ()),
    "cap": (("2-hyperexpansive",), ("completely-hyperexpansive(16)",)),
    "exp:a=2": (("alternatingly-hyperexpansive(16)", "expansion"), ()),
    "expr:x+1": (("2-isometry",), ("isometry",)),
    "expr:x^2+1": (("3-isometry",), ()),
}
CLI_KERNEL_GRID = 8
CLI_KERNEL_FRACS = (0.3, 0.6, 0.9)  # |lambda| / disc radius, one job each
CLASSIFY_REPEATS = 2  # jobs per symbol, order and round
SPECTRUM_REPEATS = 2  # p90 falls among the spectrum jobs

# README contract: 2 usage error, 3 numeric error. The first seven raise a
# Python exception today (ROADMAP open item 5) and stay in the mix, so the
# defect shows as failed jobs until it is fixed. `verify --h 1e-7` is left
# out: it allocates until the OOM killer ends the process.
MALFORMED = (
    (("classify", "--phi", "const:abc"), 2),
    (("classify", "--phi", "const:1", "--t", "-1"), 2),
    (("classify", "--phi", "const:1", "--t", "0"), 2),
    (("spectrum", "--phi", "const:1", "--nmax", "1"), 2),
    (("verify", "--phi", "const:1", "--h", "0"), 2),
    (("kernel", "--phi", "const:1", "--z-grid", "unit:0", "--lambda", "0.5"), 2),
    (("verify", "--phi", "const:1", "--xmax", "-3"), 2),
    (("classify", "--phi", "bogus"), 2),
    (("classify",), 2),
    (("kernel", "--phi", "const:1", "--lambda", "0.5"), 2),
    (("verify", "--phi", "const:1", "--tol", "bogus=1"), 2),
    (("classify", "--phi", "expr:x+"), 2),
    (("kernel", "--phi", "const:1", "--z", "1.2", "--lambda", "1.0"), 3),
    (("classify", "--phi", "expr:x-5"), 3),
)


def _payload(stdout: str) -> dict:
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    return json.loads("\n".join(lines[start:]))


def _cli_job(kind: str, argv: tuple[str, ...], check, expect_exit: int = 0) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return Job(kind, "wtsemigroup " + " ".join(argv), run, check, expect_exit)


def _check_verify(stdout: str) -> Optional[str]:
    failed = [c["name"] for c in _payload(stdout)["checks"] if not c["passed"]]
    return f"verify checks failed: {failed}" if failed else None


def _check_classify(spec: str, order: int):
    present, absent = CLASSIFY_LABELS[spec]
    if order != 16:
        # the golden labels are given at order 16; at other orders only the
        # order-free ones apply (order-64 signs are ROADMAP open item 4)
        present = tuple(label for label in present if "(" not in label)
        absent = tuple(label for label in absent if "(" not in label)

    def check(stdout: str) -> Optional[str]:
        labels = set(_payload(stdout)["labels"])
        missing = [label for label in present if label not in labels]
        extra = [label for label in absent if label in labels]
        if missing or extra:
            return f"labels {sorted(labels)}: missing {missing}, unexpected {extra}"
        return None

    return check


def cli_session(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    batches = []
    for spec, t in CLI_SYMBOLS:
        jobs = []
        batches.append(jobs)
        sym = symbols.parse_phi_spec(spec)
        common = ("--phi", spec, "--t", repr(t))
        for order in (16, 64):
            for _ in range(CLASSIFY_REPEATS):
                argv = ("classify", *common, "--nmax", str(order))
                jobs.append(_cli_job(f"cli-classify-{order}", argv, _check_classify(spec, order)))
        radius = sym.model_disc_radius(t) or 1.0  # expressions: just below their fitted radii
        for frac in CLI_KERNEL_FRACS:
            lam = complex(frac * radius * np.exp(2j * np.pi * rng.uniform()))
            x = float(rng.uniform(0.0, t))
            # `--lambda=re,im`: argparse reads a separate "-0.3,0.1" as an option
            argv = ("kernel", *common, "--z-grid", f"unit:{CLI_KERNEL_GRID}",
                    f"--lambda={lam.real!r},{lam.imag!r}", "--x", repr(x))

            def check_kernel(stdout, sym=sym, t=t, lam=lam, x=x, spec=spec):
                rows = _payload(stdout)["rows"]
                points = [complex(*row["z"]) for row in rows]
                values = [complex(*row["k"]) for row in rows]
                return _check_kernel(spec, sym, t, lam, x, points, values)

            jobs.append(_cli_job("cli-kernel", argv, check_kernel))

        def check_spectrum(stdout, spec=spec, t=t):
            payload = _payload(stdout)
            return _check_radii(spec, t, payload["r"], payload["r1"])

        jobs.extend(_cli_job("cli-spectrum", ("spectrum", *common), check_spectrum) for _ in range(SPECTRUM_REPEATS))
        verify_seed = str(int(rng.integers(0, 2**31)))
        jobs.append(_cli_job("cli-verify", ("verify", *common, "--seed", verify_seed), _check_verify))
    # one raising and one exit-2/3 argv per batch
    for i, (argv, code) in enumerate(MALFORMED):
        batches[i % len(batches)].append(_cli_job("cli-malformed", argv, lambda stdout: None, code))
    return _shuffled(rng, batches)


WORKLOADS = {
    "model-roundtrip": model_roundtrip,
    "spectral-kernel": spectral_kernel,
    "cli-session": cli_session,
}
