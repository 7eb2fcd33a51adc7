"""Command-line front end.

Subcommands: eigs, table1, bounds, project, count, symmetry,
projector-distance, turan. Each ``cmd_*`` computes an ``Output`` from the
parsed arguments at ``config.TOLERANCES``. ``main`` writes the output to
``--out`` or stdout and maps the outcome to an exit code: 0 success, 1 usage
or validation error or a scipy without LAPACK ``dstevd``, 2 numerical failure
or an allocation numpy refuses (one the OS grants but cannot back ends the
process from outside), 3 verification failure under --strict, reported as
``<command>: <failure>`` on stderr after the output is written.
Floats are written in scientific notation to 17 significant digits and JSON
keys are sorted: output files are byte-deterministic for fixed inputs, version
and BLAS thread count, and another thread count can change the last digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bnd, config
from .approximation import (BASES, TestFunction, project_dilated,
                            project_native, projection_sweep)
from .continuous import eigenspace_bound, legendre_spectrum, projector_distance
from .discrete import DiscreteParams, METHODS, spectrum, symmetry_defect
from .numkit import NumericalFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

TABLE1_N = 60
TABLE1_W = (0.1, 0.2, 0.3, 0.4)
TABLE1_REFERENCE = {0.1: 4.15e-3, 0.2: 1.65e-2, 0.3: 3.98e-2, 0.4: 8.51e-2}

# each paper example names its target; N, W, K and the basis keep their defaults
PRESETS = {"example2": "sinc", "example3": "weierstrass"}
# (alpha, N, W, K, basis) of example 2, the run example2_sup holds
EXAMPLE2 = (56.0, 60, 0.3, 60, "dilated")


def fmt(x: float) -> str:
    return f"{x:.16e}"


class Output(NamedTuple):
    lines: list[str]                # for --out or stdout
    failure: str | None = None      # the verdict --strict turns into exit 3
    sweep: list[str] | None = None  # project --out: the CSV next to the JSON


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one line, without argparse's usage lines
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _list_of(kind, name: str):
    def parse(raw: str) -> tuple:
        try:
            return tuple(kind(v) for v in raw.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected comma-separated {name}: {raw}") from exc
    return parse


def cmd_eigs(args) -> Output:
    params = DiscreteParams(args.N, args.W)
    disc = spectrum(params, method=args.method)
    lines = ["k,lambda_discrete,method,N,W"]
    if args.with_classical:
        cont = legendre_spectrum(params.bandwidth, params.N)
        lines[0] += ",lambda_classical"
    for k in range(params.N):
        classical = f",{fmt(cont[k])}" if args.with_classical else ""
        lines.append(f"{k},{fmt(disc.values[k])},{args.method},{args.N},"
                     f"{fmt(args.W)}{classical}")
    return Output(lines)


def cmd_table1(args) -> Output:
    lines = ["W,c,l2_diff"]
    worst_rel = 0.0
    for W in TABLE1_W:
        params = DiscreteParams(TABLE1_N, W)
        l2_diff, _ = bnd.compare_spectra(
            TABLE1_N, W, spectrum(params).values,
            legendre_spectrum(params.bandwidth, TABLE1_N + bnd.COMPARISON_TAIL))
        lines.append(f"{fmt(W)},{fmt(params.bandwidth)},{fmt(l2_diff)}")
        worst_rel = max(worst_rel,
                        abs(l2_diff - TABLE1_REFERENCE[W]) / TABLE1_REFERENCE[W])
    rel = config.TOLERANCES.table1_rel
    failure = f"worst relative deviation {worst_rel:.3e} exceeds {rel}"
    return Output(lines, failure if worst_rel > rel else None)


def cmd_bounds(args) -> Output:
    report = bnd.verify_all(args.N, args.W, args.eps)
    failed = sorted({c.name for c in report.checks
                     if not (c.satisfied or c.informational or c.skipped)})
    return Output([report.to_json()],
                  None if report.passed else f"failing checks: {failed}")


def _build_target(args) -> TestFunction:
    if args.target == "sinc":
        return TestFunction.sinc_bandlimited(args.alpha)
    if args.target == "weierstrass":
        return TestFunction.weierstrass(args.s)
    if not args.samples_file:
        raise ValueError("--samples-file is required for --target samples")
    rows, path = [], args.samples_file
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("x,"):
            continue
        try:
            x, y = line.split(",")
            rows.append((float(x), float(y)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'x,f' with two numbers, "
                             f"got {line!r}") from None
    if not rows:
        raise ValueError(f"no sample rows in {path}")
    return TestFunction.from_samples(*np.array(rows).T)


def cmd_project(args) -> Output:
    if (args.preset is None) == (args.target is None):
        raise ValueError("give exactly one of --target and --preset")
    args.target = args.target or PRESETS[args.preset]
    K = args.N if args.K is None else args.K
    f = _build_target(args)
    disc = spectrum(DiscreteParams(args.N, args.W))
    sweep = None
    if args.out:   # the JSON result is the sweep's last row
        rows = projection_sweep(f, disc, K, args.basis)
        result = rows[-1]
        sweep = ["K,residual_l2,residual_sup"] + [
            f"{rk.K},{fmt(rk.residual_l2)},{fmt(rk.residual_sup)}" for rk in rows]
    elif args.basis == "dilated":
        result = project_dilated(f, disc, K)
    else:
        result = project_native(f, disc, K)
    payload = dataclasses.asdict(result)
    payload.update(coefficients=[[float(z.real), float(z.imag)]
                                 for z in np.asarray(result.coefficients)],
                   target=args.target, N=args.N, W=args.W)
    failure, sup = None, config.TOLERANCES.example2_sup
    example2 = (args.alpha, args.N, args.W, K, args.basis)
    if args.preset == "example2" and example2 == EXAMPLE2 and result.residual_sup > sup:
        failure = f"sup residual {result.residual_sup:.3e} exceeds {sup}"
    return Output([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)],
                  failure, sweep)


def cmd_count(args) -> Output:
    params = DiscreteParams(args.N, args.W)
    bound = bnd.plunge_count_bound(args.N, args.W, args.eps)
    coarse = bnd.plunge_count_bound_coarse(args.N, args.eps)
    estimate = bnd.plunge_count_estimate(args.N, args.eps)
    disc = spectrum(params)
    return Output([f"measured_count={bnd.plunge_count(disc.values, args.eps)}",
                   f"count_bound={fmt(bound)}",
                   f"coarse_bound={fmt(coarse)}",
                   f"asymptotic_estimate={fmt(estimate)}"])


def cmd_symmetry(args) -> Output:
    spec = spectrum(DiscreteParams(args.N, args.W))   # the mirror is values only
    return Output([f"symmetry_defect={fmt(symmetry_defect(spec))}"])


def cmd_projector_distance(args) -> Output:
    disc = spectrum(DiscreteParams(args.N, args.W))
    distance = projector_distance(disc, args.K)
    lines = [f"distance={fmt(distance)}"]
    if args.b is not None:
        bound, condition_ok = eigenspace_bound(args.N, args.W, args.b)
        lines += [f"bound={fmt(bound)}", f"condition_ok={str(condition_ok).lower()}"]
    return Output(lines)


def cmd_turan(args) -> Output:
    result = bnd.concentration_inequality_constant(args.W, args.N_list)
    lines = [f"formula_value={fmt(result['formula_value'])}",
             f"empirical={fmt(result['empirical'])}",
             f"empirical_sq_convention={fmt(result['empirical_sq'])}"]
    lines += [f"empirical_N{N}={fmt(v)}" for N, v in sorted(result["per_n"].items())]
    return Output(lines)


@functools.cache   # 51 actions over 8 subcommands, ~1.5 ms: built once per process
def build_parser() -> _Parser:
    parser = _Parser(prog="slepian",
                     description="Discrete prolate spheroidal spectra, "
                                 "bound verification, and projections")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p, n_default=None, w_default=None):
        p.add_argument("--N", type=int, default=n_default)
        p.add_argument("--W", type=float, default=w_default)

    p = add("eigs", cmd_eigs, "discrete spectrum as CSV")
    common(p, 60, 0.3)
    p.add_argument("--method", choices=METHODS, default="tridiag")
    p.add_argument("--with-classical", action="store_true",
                   help="add the sinc-kernel eigenvalues at c = pi N W (Legendre route)")

    add("table1", cmd_table1, "l2 spectrum-comparison table for N=60")

    p = add("bounds", cmd_bounds, "run all bound checks, emit JSON report")
    p.add_argument("--N", type=_list_of(int, "integers"), default=bnd.DEFAULT_N_GRID,
                   help="comma-separated sequence lengths")
    p.add_argument("--W", type=_list_of(float, "floats"), default=bnd.DEFAULT_W_GRID,
                   help="comma-separated bandwidths")
    p.add_argument("--eps", type=_list_of(float, "floats"),
                   default=bnd.DEFAULT_EPS_GRID, help="comma-separated epsilon levels")

    p = add("project", cmd_project, "project a test function onto the basis")
    common(p, 60, 0.3)
    p.add_argument("--target", choices=("sinc", "weierstrass", "samples"),
                   default=None)
    p.add_argument("--preset", choices=tuple(PRESETS), default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--alpha", type=float, default=56.0)
    p.add_argument("--s", type=float, default=1.0,
                   help="smoothness of the weierstrass target; the native basis "
                        "checks the Sobolev inequality at s = 1 only")
    p.add_argument("--basis", choices=BASES, default="dilated")
    p.add_argument("--samples-file", default=None)

    p = add("count", cmd_count, "plunge count vs bounds")
    common(p, 60, 0.3)
    p.add_argument("--eps", type=float, required=True)

    p = add("symmetry", cmd_symmetry, "reflection-identity defect")
    common(p, 60, 0.3)

    p = add("projector-distance", cmd_projector_distance,
            "distance between rank-K spectral projectors")
    common(p, 60, 0.1)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--b", type=float, default=None)

    p = add("turan", cmd_turan, "concentration-inequality constant")
    p.add_argument("--W", type=float, default=bnd.TURAN_W)
    p.add_argument("--N-list", type=_list_of(int, "integers"),
                   default=bnd.TURAN_N_LIST)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
        p.add_argument("--strict", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, failure, sweep = args.func(args)
        if args.out is None:
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8",
                                      newline="")
        if sweep is not None:
            Path(args.out).with_suffix(".csv").write_text(
                "\n".join(sweep) + "\n", encoding="utf-8", newline="")
        if failure is not None and args.strict:
            sys.stderr.write(f"{args.command}: {failure}\n")
            return EXIT_VERIFICATION
        return EXIT_OK
    except (ValueError, OSError, ImportError) as exc:
        sys.stderr.write(f"slepian: {exc}\n")
        return EXIT_USAGE
    except (NumericalFailure, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        sys.stderr.write(f"slepian: {kind}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
