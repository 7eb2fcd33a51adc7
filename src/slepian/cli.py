"""Command-line front end.

Subcommands: eigs, table1, bounds, project, count, symmetry,
projector-distance, turan. Exit codes: 0 success, 1 usage or validation
error, 2 numerical failure, 3 verification failure under --strict. Floats
are written in scientific notation with 17 significant digits and JSON keys
are sorted, so output files are byte-deterministic for fixed inputs, version
and BLAS thread count; the last digits can change with the thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .approximation import (TestFunction, project_dilated, project_native,
                            projection_sweep)
from .config import install_tolerances, load_config
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

PRESETS = {
    "example2": {"target": "sinc", "alpha": 56.0, "N": 60, "W": 0.3, "K": 60,
                 "basis": "dilated"},
    "example3": {"target": "weierstrass", "s": 1.0, "N": 60, "W": 0.3, "K": 60,
                 "basis": "dilated"},
}


def fmt(x: float) -> str:
    return f"{x:.16e}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {raw}") from exc


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {raw}") from exc


def cmd_eigs(args, cfg) -> int:
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
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_table1(args, cfg) -> int:
    lines = ["W,c,l2_diff"]
    worst_rel = 0.0
    for W in TABLE1_W:
        params = DiscreteParams(TABLE1_N, W)
        cmp_ = bnd.compare_spectra(
            TABLE1_N, W, spectrum(params).values,
            legendre_spectrum(params.bandwidth, TABLE1_N + bnd.COMPARISON_TAIL))
        lines.append(f"{fmt(W)},{fmt(cmp_.c)},{fmt(cmp_.l2_diff)}")
        worst_rel = max(worst_rel,
                        abs(cmp_.l2_diff - TABLE1_REFERENCE[W]) / TABLE1_REFERENCE[W])
    _write_text(args.out, "\n".join(lines) + "\n")
    if (args.strict or cfg.strict) and worst_rel > cfg.tolerances.table1_rel:
        sys.stderr.write(f"table1: worst relative deviation {worst_rel:.3e} "
                         f"exceeds {cfg.tolerances.table1_rel}\n")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_bounds(args, cfg) -> int:
    report = bnd.verify_all(args.N or cfg.n_grid, args.W or cfg.w_grid,
                            args.eps or cfg.eps_grid, method=args.method)
    _write_text(args.out, report.to_json() + "\n")
    if (args.strict or cfg.strict) and not report.passed:
        failed = [c.name for c in report.checks
                  if not c.satisfied and not c.informational and not c.skipped]
        sys.stderr.write(f"bounds: failing checks: {sorted(set(failed))}\n")
        return EXIT_VERIFICATION
    return EXIT_OK


def _build_target(args) -> TestFunction:
    if args.target == "sinc":
        return TestFunction.sinc_bandlimited(args.alpha)
    if args.target == "weierstrass":
        return TestFunction.weierstrass(args.s)
    if args.target == "samples":
        if not args.samples_file:
            raise ValueError("--samples-file is required for --target samples")
        rows = []
        text = Path(args.samples_file).read_text(encoding="utf-8").strip().splitlines()
        for line in text:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("x,"):
                continue
            cells = line.split(",")
            rows.append((float(cells[0]), float(cells[1])))
        if not rows:
            raise ValueError(f"no sample rows in {args.samples_file}")
        arr = np.array(rows)
        return TestFunction.from_samples(arr[:, 0], arr[:, 1])
    raise ValueError(f"unknown target {args.target!r}")


def _projection_payload(result) -> dict:
    return {
        "K": result.K,
        "interval": result.interval,
        "residual_l2": result.residual_l2,
        "residual_sup": result.residual_sup,
        "coefficients": [[float(z.real), float(z.imag)]
                         for z in np.asarray(result.coefficients)],
        "coefficient_indices": list(result.coefficient_indices),
        "excluded": list(result.excluded),
        "untrusted": list(result.untrusted),
        "rank": result.rank,
        "lambda_floor": result.lambda_floor,
        "sobolev_rhs": result.sobolev_rhs,
        "sobolev_ok": result.sobolev_ok,
        "note": result.note,
    }


def cmd_project(args, cfg) -> int:
    if args.preset:
        preset = PRESETS[args.preset]
        for key, value in preset.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    if args.target is None:
        raise ValueError("--target (or --preset) is required")
    for key, default in (("N", 60), ("W", 0.3), ("K", None), ("alpha", 56.0),
                         ("s", 1.0), ("basis", "dilated")):
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    if args.K is None:
        args.K = args.N
    if args.basis == "native" and args.lambda_floor is not None:
        raise ValueError("--lambda-floor applies to the dilated basis only")
    f = _build_target(args)
    disc = spectrum(DiscreteParams(args.N, args.W), method=args.method)
    if args.out:
        # the JSON result is the sweep's last row
        sweep = projection_sweep(f, disc, args.K, args.basis, args.lambda_floor)
        result = sweep[-1]
    elif args.basis == "dilated":
        result = project_dilated(f, disc, args.K, lambda_floor=args.lambda_floor)
    else:
        result = project_native(f, disc, args.K)
    payload = _projection_payload(result)
    payload["target"] = args.target
    payload["N"], payload["W"] = args.N, args.W
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.out:
        lines = ["K,residual_l2,residual_sup"]
        lines += [f"{rk.K},{fmt(rk.residual_l2)},{fmt(rk.residual_sup)}"
                  for rk in sweep]
        Path(args.out).with_suffix(".csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8", newline="")
    if (args.strict or cfg.strict) and args.preset == "example2" \
            and result.residual_sup > cfg.tolerances.example2_sup:
        sys.stderr.write(f"project: sup residual {result.residual_sup:.3e} "
                         f"exceeds {cfg.tolerances.example2_sup}\n")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_count(args, cfg) -> int:
    params = DiscreteParams(args.N, args.W)
    bound = bnd.plunge_count_bound(args.N, args.W, args.eps)
    coarse = bnd.plunge_count_bound_coarse(args.N, args.eps)
    estimate = bnd.plunge_count_estimate(args.N, args.eps)
    disc = spectrum(params, method=args.method)
    out = [f"measured_count={bnd.plunge_count(disc.values, args.eps)}",
           f"count_bound={fmt(bound)}",
           f"coarse_bound={fmt(coarse)}",
           f"asymptotic_estimate={fmt(estimate)}"]
    _write_text(args.out, "\n".join(out) + "\n")
    return EXIT_OK


def cmd_symmetry(args, cfg) -> int:
    defect = symmetry_defect(
        spectrum(DiscreteParams(args.N, args.W), method=args.method))
    _write_text(args.out, f"symmetry_defect={fmt(defect)}\n")
    return EXIT_OK


def cmd_projector_distance(args, cfg) -> int:
    disc = spectrum(DiscreteParams(args.N, args.W), method=args.method)
    distance = projector_distance(disc, args.K)
    lines = [f"distance={fmt(distance)}"]
    if args.b is not None:
        bound, condition_ok = eigenspace_bound(args.N, args.W, args.b)
        lines.append(f"bound={fmt(bound)}")
        lines.append(f"condition_ok={str(condition_ok).lower()}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_turan(args, cfg) -> int:
    result = bnd.concentration_inequality_constant(args.W, args.N_list)
    lines = [f"formula_value={fmt(result['formula_value'])}",
             f"empirical={fmt(result['empirical'])}",
             f"empirical_sq_convention={fmt(result['empirical_sq'])}"]
    for N, value in sorted(result["per_n"].items()):
        lines.append(f"empirical_N{N}={fmt(value)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="slepian",
                     description="Discrete prolate spheroidal spectra, "
                                 "bound verification, and projections")
    parser.add_argument("--config", default=None,
                        help="path to a flat key=value config file "
                             "(default: $SLEPIAN_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_default=None, w_default=None):
        p.add_argument("--N", type=int, default=n_default)
        p.add_argument("--W", type=float, default=w_default)
        p.add_argument("--method", choices=METHODS, default="tridiag")
        p.add_argument("--out", default=None)
        p.add_argument("--strict", action="store_true")

    p = sub.add_parser("eigs", help="discrete spectrum as CSV")
    common(p, 60, 0.3)
    p.add_argument("--with-classical", action="store_true",
                   help="add the sinc-kernel eigenvalues at c = pi N W (Legendre route)")
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("table1", help="l2 spectrum-comparison table for N=60")
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("bounds", help="run all bound checks, emit JSON report")
    p.add_argument("--N", type=_int_list, default=None,
                   help="comma-separated sequence lengths")
    p.add_argument("--W", type=_float_list, default=None,
                   help="comma-separated bandwidths")
    p.add_argument("--eps", type=_float_list, default=None,
                   help="comma-separated epsilon levels")
    p.add_argument("--method", choices=METHODS, default="tridiag")
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("project", help="project a test function onto the basis")
    common(p)
    p.add_argument("--target", choices=("sinc", "weierstrass", "samples"),
                   default=None)
    p.add_argument("--preset", choices=tuple(PRESETS), default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--basis", choices=("native", "dilated"), default=None)
    p.add_argument("--lambda-floor", type=float, default=None,
                   help="exclude modes with eigenvalue below this floor "
                        "(dilated basis only; default: keep all K modes)")
    p.add_argument("--samples-file", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("count", help="plunge count vs bounds")
    common(p, 60, 0.3)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("symmetry", help="reflection-identity defect")
    common(p, 60, 0.3)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("projector-distance",
                       help="distance between rank-K spectral projectors")
    common(p, 60, 0.1)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.set_defaults(func=cmd_projector_distance)

    p = sub.add_parser("turan", help="concentration-inequality constant")
    p.add_argument("--W", type=float, default=1.0 / 6.0)
    p.add_argument("--N-list", type=_int_list, default=(7, 9, 11))
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_turan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        install_tolerances(cfg.tolerances)
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"slepian: {exc}\n")
        return EXIT_USAGE
    except NumericalFailure as exc:
        sys.stderr.write(f"slepian: numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
