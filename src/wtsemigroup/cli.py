"""Command line front end: kernel, classify, spectrum, verify.

Every command prints a short human summary to stdout and writes the
machine-readable payload (JSON or CSV) either below it or to --out.
Outputs are deterministic given the flags and seed. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 numeric or convergence error,
141 stdout closed early by its reader.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .classify import MAX_ORDER, classify
from .config import RunConfig
from .errors import NumericError, SymbolSyntaxError
from .model import kernel_closed_form, kernel_series, make_kernel
from .spectral import MAX_FIT_ORDER, model_disc_radius, spectral_summary
from .symbols import parse_phi_spec, validate_positivity
from .util import fmt17, window
from .verify import MAX_CELLS, all_passed, run_verify

USAGE_ERROR = 2
NUMERIC_ERROR = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer whose reader left
MAX_Z_POINTS = 2**16  # largest N of --z-grid unit:N


_FLAGS = {
    "--phi": dict(required=True, help="symbol spec, e.g. const:1, expr:x+1, exp:a=2"),
    "--t": dict(type=float, default=RunConfig.t, help="translation step (default 1)"),
    "--xmax": dict(type=float, default=None, help="sampling window end (default 64 t)"),
    "--nmax": dict(type=int, default=RunConfig.n_max, help="order cap for norm sequences / classification"),
    "--out": dict(default=None, help="write machine output to this path"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default=RunConfig.fmt),
    "--h": dict(type=float, default=None, help="cell width for generated test data (default t/256)"),
    "--tol": dict(action="append", default=[], metavar="NAME=VAL", help="override a named tolerance"),
    "--seed": dict(type=int, default=RunConfig.seed, help="seed for generated test data"),
}


def _add_command(sub, name: str, help: str, *extra: str) -> argparse.ArgumentParser:
    """A subcommand taking the common flags and the extra ones it reads, each
    under its full name only."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in ("--phi", "--t", "--xmax", "--nmax", "--out", *extra):
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(command_parser=p)  # main reports the arguments it refuses
    return p


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}; use re or re,im")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wtsemigroup",
        description="Weighted translation semigroups: kernels, spectra, classification, verification",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # what RunConfig gets from a flag its command does not take
    ap.set_defaults(h=None, tol=[], seed=RunConfig.seed, fmt=RunConfig.fmt)

    pk = _add_command(sub, "kernel", "evaluate the diagonal reproducing kernel", "--format")
    pk.add_argument(
        "--z", type=_parse_complex, default=None,
        help="single z value: re or re,im; write --z=re,im when re is negative",
    )
    pk.add_argument("--z-grid", default=None, metavar="unit:N", help="z grid: N points on the unit circle")
    pk.add_argument(
        "--lambda", dest="lam", type=_parse_complex, required=True,
        help="lambda: re or re,im; write --lambda=re,im when re is negative",
    )
    pk.add_argument("--x", type=float, default=0.0, help="point in [0, t) where the diagonal acts")
    pk.add_argument("--series-tol", type=float, default=1e-10)

    _add_command(sub, "classify", "classify the semigroup from the bracket signs").set_defaults(nmax=16)
    _add_command(sub, "spectrum", "spectral radius, annulus and model disc", "--format")
    _add_command(sub, "verify", "run every invariant suite", "--h", "--tol", "--seed")

    return ap


def _config_from_args(args) -> RunConfig:
    for flag, value in (("--t", args.t), ("--xmax", args.xmax), ("--h", args.h)):
        if value is not None and not (value > 0 and math.isfinite(value)):
            raise SymbolSyntaxError(f"{flag} must be a positive finite number, got {value!r}")
    if args.seed < 0:
        raise SymbolSyntaxError(f"--seed must be nonnegative, got {args.seed}")
    if not math.isfinite(window(args.t, args.xmax)):  # 64 t overflows above t ~ 2.8e306
        raise SymbolSyntaxError(f"--t {args.t!r} makes the sampling window 64 t infinite; give --xmax")
    tol = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise SymbolSyntaxError(f"bad tolerance override {item!r}; use NAME=VAL")
        try:
            tol[name] = float(value)
        except ValueError:  # handed on as text: RunConfig refuses an unknown name first, then the text
            tol[name] = value
    try:
        cfg = RunConfig(
            phi=args.phi,
            t=args.t,
            x_max=args.xmax,
            h=args.h,
            n_max=args.nmax,
            seed=args.seed,
            out=args.out,
            fmt=args.fmt,
            tol=tol,
        )
    except ValueError as exc:  # the flags above are checked: a refused tolerance
        raise SymbolSyntaxError(str(exc)) from None
    _check_out(cfg.out)
    return cfg


def _check_out(path: str | None):
    """Refuse an --out path that cannot be written before any work starts:
    not a directory, in an existing writable directory. _emit still reports
    a write that fails later."""
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(folder):
        reason = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise SymbolSyntaxError(f"cannot write --out {path}: {os.strerror(reason)}")


def _require_nmax(cfg: RunConfig, least: int, most: int, purpose: str):
    if cfg.n_max < least:
        raise SymbolSyntaxError(f"--nmax must be at least {least} {purpose}, got {cfg.n_max}")
    if cfg.n_max > most:
        raise SymbolSyntaxError(f"--nmax must be at most {most} {purpose}, got {cfg.n_max}")


def _emit(cfg: RunConfig, payload: str):
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise SymbolSyntaxError(f"cannot write --out {cfg.out}: {exc.strerror}") from None
        print(f"wrote {cfg.out}")
    else:
        print(payload)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _z_points(args) -> list[complex]:
    if args.z is not None and args.z_grid is not None:
        raise SymbolSyntaxError("give either --z or --z-grid, not both")
    if args.z is not None:
        return [args.z]
    if args.z_grid is None:
        raise SymbolSyntaxError("kernel needs --z or --z-grid")
    # [0-9] is ASCII only (str.isdigit takes '²'), and int() reads at most 6 of them
    m = re.fullmatch(r"unit:0*([0-9]{1,6})", args.z_grid)
    n = int(m[1]) if m else 0
    if not 1 <= n <= MAX_Z_POINTS:
        raise SymbolSyntaxError(f"unsupported z grid {args.z_grid!r}; use unit:N with 1 <= N <= {MAX_Z_POINTS}")
    return [complex(np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)) for k in range(n)]


def cmd_kernel(args) -> int:
    cfg = _config_from_args(args)
    if not 0.0 <= args.x < cfg.t:
        raise SymbolSyntaxError(f"--x must lie in E = [0, t) = [0, {cfg.t:g}), got {args.x!r}")
    if not (args.series_tol > 0 and math.isfinite(args.series_tol)):
        raise SymbolSyntaxError(f"--series-tol must be a positive finite number, got {args.series_tol!r}")
    for flag, value in (("--z", args.z), ("--lambda", args.lam)):
        if value is not None and not np.isfinite(value):
            raise SymbolSyntaxError(f"{flag} must be a finite number, got {value}")
    points = _z_points(args)
    symbol = parse_phi_spec(cfg.phi)
    validate_positivity(symbol, cfg.resolved_x_max)
    if symbol.model_disc_radius(cfg.t) is None:
        _require_nmax(cfg, 2, MAX_FIT_ORDER, "to fit the disc radius")
    radius = model_disc_radius(symbol, cfg.t, cfg.n_max, cfg.resolved_x_max)
    kern = make_kernel(symbol, cfg.t, radius=radius)
    rows = []
    for z in points:
        value, n_terms, tail = kernel_series(kern, z, args.lam, args.x, tol=args.series_tol)
        row = {
            "z": [z.real, z.imag],
            "k": [value.real, value.imag],
            "n_terms": n_terms,
            "tail_estimate": tail,
        }
        if symbol.closed_form is not None:
            cf = kernel_closed_form(kern, z, args.lam, args.x)
            row["closed_form"] = [cf.real, cf.imag]
            row["closed_form_delta"] = abs(value - cf)
        rows.append(row)
    print(
        f"# kernel phi={cfg.phi} t={cfg.t:g} x={args.x:g} lambda={args.lam} "
        f"radius={radius:.9g} closed_form={symbol.closed_form} points={len(rows)}"
    )
    first = rows[0]["k"]
    print(f"# first value {first[0]:.9g}{first[1]:+.9g}i")
    if cfg.fmt == "csv":
        lines = ["re_z,im_z,re_k,im_k"]
        for row in rows:
            lines.append(
                ",".join(fmt17(v) for v in (row["z"][0], row["z"][1], row["k"][0], row["k"][1]))
            )
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(
            cfg,
            _json(
                {
                    "phi": cfg.phi,
                    "t": cfg.t,
                    "x": args.x,
                    "lambda": [args.lam.real, args.lam.imag],
                    "radius": radius,
                    "closed_form": symbol.closed_form,
                    "rows": rows,
                }
            ),
        )
    return 0


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    _require_nmax(cfg, 1, MAX_ORDER, "for classification")
    symbol = parse_phi_spec(cfg.phi)
    validate_positivity(symbol, cfg.resolved_x_max)
    report = classify(symbol, cfg.t, max_order=cfg.n_max, x_max=cfg.resolved_x_max)
    print(f"# classify phi={cfg.phi} t={cfg.t:g} order<={report.max_order}")
    for label in report.labels:
        print(f"  label  {label}")
    for name, w in sorted(report.witnesses.items()):
        print(f"  not {name}: delta_{w.n}({w.x:.6g}) = {w.value:.6g}")
    _emit(cfg, _json(report.to_json_dict()))
    return 0


def cmd_spectrum(args) -> int:
    cfg = _config_from_args(args)
    _require_nmax(cfg, 2, MAX_FIT_ORDER, "for the spectral tail fit")
    symbol = parse_phi_spec(cfg.phi)
    validate_positivity(symbol, cfg.resolved_x_max)
    summary = spectral_summary(symbol, cfg.t, n_max=cfg.n_max, x_max=cfg.resolved_x_max)
    print(
        f"# spectrum phi={cfg.phi} t={cfg.t:g} r={summary.r:.9g} r1={summary.r1:.9g} "
        f"model_disc={summary.model_disc_radius:.9g} window_limited={summary.window_limited}"
    )
    print(
        f"# n-step weight extrema attained at x={summary.diagnostics['arg_sup'][-1]:.6g} (sup) "
        f"and x={summary.diagnostics['arg_inf'][-1]:.6g} (inf) for n={summary.diagnostics['n_max']}"
    )
    print(f"# sigma(S_t): closed disc radius {summary.r:.9g}; point spectrum empty;")
    print(
        f"# sigma_ap in annulus [{summary.annulus[0]:.9g}, {summary.annulus[1]:.9g}]; "
        f"sigma_p(S_t*) contains |w| < {summary.model_disc_radius:.9g}"
    )
    if summary.radius_note:
        print(f"# note: {summary.radius_note}")
    if cfg.fmt == "csv":
        lines = ["label,re,im"]
        for label, rad in (("inner", summary.annulus[0]), ("outer", summary.annulus[1])):
            for k in range(64):
                ang = 2 * np.pi * k / 64
                lines.append(f"{label},{fmt17(rad * np.cos(ang))},{fmt17(rad * np.sin(ang))}")
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, _json(summary.to_json_dict()))
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    # the suites build S_{t/2}, cells of width h and test data on [0, 8 t)
    for name, value in (("t/2", cfg.t / 2), ("h", cfg.resolved_h), ("8 t", 8 * cfg.t)):
        if not (value > 0 and math.isfinite(value)):
            raise SymbolSyntaxError(f"--t {cfg.t!r} gives {name} = {value!r}; verify needs it positive and finite")
    # t / h first: per_block cannot round an infinite ratio
    if not cfg.t / cfg.resolved_h <= MAX_CELLS or 8 * cfg.per_block > MAX_CELLS:
        raise SymbolSyntaxError(
            f"--h {cfg.resolved_h:g} asks for more than {MAX_CELLS} cells of test data; "
            f"use --h >= t/{MAX_CELLS // 8}"
        )
    symbol = parse_phi_spec(cfg.phi)
    if symbol.model_disc_radius(cfg.t) is None:
        _require_nmax(cfg, 2, MAX_FIT_ORDER, "to fit the disc radius")
    validate_positivity(symbol, cfg.resolved_x_max)
    results = run_verify(symbol, cfg)
    unmeasured = next((r for r in results if math.isnan(r.residual)), None)
    if unmeasured is not None:  # a NaN residual measured nothing, and JSON has no NaN
        raise NumericError(f"the {unmeasured.name} residual is NaN at --t {cfg.t!r}: the check measured nothing")
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.note})" if r.note else ""
        print(f"{status}  {r.name:<{width}}  residual {r.residual:.3e}  tol {r.tol:.1e}{extra}")
    payload = {
        "phi": cfg.phi,
        "t": cfg.t,
        "h": cfg.resolved_h,
        "seed": cfg.seed,
        "checks": [asdict(r) for r in results],
        "all_passed": all_passed(results),
    }
    _emit(cfg, _json(payload))
    if not all_passed(results):
        first = next(r for r in results if not r.passed)
        print(f"FAILED: {first.name} residual {first.residual:.3e} > tol {first.tol:.1e}")
        return 1
    return 0


_COMMANDS = {
    "kernel": cmd_kernel,
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:  # with the command's own usage, not the top-level one
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        with warnings.catch_warnings():
            # numpy's overflow notes name the installed file; the error that
            # follows from them is reported below as one line
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # the reader left early; as the CPython notes on SIGPIPE advise, point
        # stdout's descriptor at devnull so the flush at exit cannot raise again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # io.UnsupportedOperation: no descriptor
            return BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return BROKEN_PIPE
    except SymbolSyntaxError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
