"""Run configuration: numerical tolerances, default grids, file/env overrides.

Every tolerance used by the library lives in the ``Tolerances`` record so a
single object documents the numerical contract. ``RunConfig`` adds the default
experiment grids and CLI-level knobs, and can be loaded from a flat
``key = value`` text file (path given by ``--config`` or the
``SLEPIAN_CONFIG`` environment variable).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field


@dataclass
class Tolerances:
    # eigensolver output contracts
    orthonormality: float = 1e-12
    eigen_residual: float = 1e-11
    # quadrature rule contracts
    node_symmetry: float = 1e-14
    weight_sum: float = 1e-13
    # discrete spectrum identities
    trace_rel: float = 1e-11
    component_symmetry: float = 1e-10
    cross_route: float = 1e-10
    double_orthogonality: float = 1e-10
    symmetry_identity: float = 1e-10
    commutation: float = 1e-12
    periodicity: float = 1e-12
    # eigenvalue floors
    floor_untrusted: float = 1e-13
    floor_checks: float = 1e-12
    tail_floor: float = 1e-8
    # continuous spectrum
    trace_continuous_rel: float = 1e-9
    mesh_stability: float = 1e-10
    hs_cross_rel: float = 1e-8
    # bound bookkeeping
    check_floor: float = 1e-12
    # approximation experiments
    table1_rel: float = 0.02
    example2_sup: float = 1e-8
    example3_rel: float = 0.10
    sobolev_rel: float = 1e-8
    parseval_slack: float = 1e-10
    gram_identity: float = 1e-9
    monotonicity_slack: float = 1e-12


DEFAULT_N_GRID = (30, 60)
DEFAULT_W_GRID = (0.1, 0.2, 0.3, 0.4)
DEFAULT_EPS_GRID = (0.01, 0.05, 0.2)

CONFIG_ENV_VAR = "SLEPIAN_CONFIG"


@dataclass
class RunConfig:
    tolerances: Tolerances = field(default_factory=Tolerances)
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    w_grid: tuple[float, ...] = DEFAULT_W_GRID
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    strict: bool = False

    def __post_init__(self):
        for name, value in dataclasses.asdict(self.tolerances).items():
            if not value > 0:
                raise ValueError(f"tolerance {name} must be positive, got {value}")
        for n in self.n_grid:
            if int(n) != n or n < 1:
                raise ValueError(f"N grid values must be integers >= 1, got {n}")
        for w in self.w_grid:
            if not 0.0 < w < 0.5:
                raise ValueError(f"W grid values must lie in (0, 0.5), got {w}")
        for e in self.eps_grid:
            if not 0.0 < e < 0.5:
                raise ValueError(f"epsilon grid values must lie in (0, 0.5), got {e}")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("n_grid",):
        return tuple(int(v) for v in raw.split(","))
    if key in ("w_grid", "eps_grid"):
        return tuple(float(v) for v in raw.split(","))
    if key == "strict":
        return raw.lower() in ("1", "true", "yes", "on")
    if key.startswith("tol_"):
        return float(raw)
    raise ValueError(f"unknown config key: {key}")


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from defaults, a config file, and the environment.

    The file format is flat ``key = value`` lines; ``#`` starts a comment.
    Tolerance overrides use keys ``tol_<field>``.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    cfg_kwargs: dict = {}
    tol_kwargs: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                key = key.strip()
                value = _parse_value(key, raw)
                if key.startswith("tol_"):
                    tol_kwargs[key[4:]] = value
                else:
                    cfg_kwargs[key] = value
    if tol_kwargs:
        unknown = set(tol_kwargs) - {f.name for f in dataclasses.fields(Tolerances)}
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        cfg_kwargs["tolerances"] = Tolerances(**tol_kwargs)
    return RunConfig(**cfg_kwargs)


TOL = Tolerances()


def install_tolerances(tolerances: Tolerances) -> None:
    """Install tolerance values into the shared record.

    Every module reads the shared ``TOL`` object, so overrides must be copied
    onto it in place. The CLI calls this once at startup before dispatching;
    it is not meant to be flipped mid-computation.
    """
    for f in dataclasses.fields(Tolerances):
        setattr(TOL, f.name, getattr(tolerances, f.name))
