"""Closed-form bounds and identities for the concentration spectrum, with
machine verification against computed spectra.

Each evaluator returns the bound value; ``verify_all`` runs every applicable
check over a parameter grid and assembles a serialisable ``BoundReport``.
Checks on asymptotic statements are informational: they are reported but
never fail the suite. Eigenvalues below 1e-12 are outside double-precision
resolution and are excluded from all inequalities.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, DEFAULT_EPS_GRID, DEFAULT_N_GRID, DEFAULT_W_GRID
from .continuous import (default_order, hs_lower_bound, hs_norm_sq,
                         kernel_hs_distance, kernel_hs_distance_bound,
                         nystrom_spectrum)
from .discrete import (DiscreteParams, commutation_defect, prolate_matrix,
                       spectrum, symmetry_defect)

VERSION = "0.1.0"

E = math.e
PI = math.pi


class OutOfRangeError(ValueError):
    """Parameters outside the stated validity range of a bound."""


class IllConditionedFloor(OutOfRangeError):
    """All candidate eigenvalues fell below the double-precision floor."""


@dataclass
class BoundCheck:
    name: str
    paper_ref: str
    params: dict
    bound: float | None
    measured: float | None
    satisfied: bool
    margin: float | None
    informational: bool = False
    skipped: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        def scalar(v):
            if v is None or isinstance(v, (str, bool, int)):
                return v
            if isinstance(v, dict):
                return {str(k): scalar(x) for k, x in v.items()}
            if isinstance(v, np.integer):
                return int(v)
            return float(v)

        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "params": scalar(self.params),
            "bound": scalar(self.bound),
            "measured": scalar(self.measured),
            "satisfied": bool(self.satisfied),
            "margin": scalar(self.margin),
            "informational": bool(self.informational),
            "skipped": bool(self.skipped),
            "note": self.note,
        }


@dataclass
class BoundReport:
    checks: list[BoundCheck]
    version: str = VERSION
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.checks
                   if not c.informational and not c.skipped)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "version": self.version,
            "tolerances": self.tolerances,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BoundReport":
        payload = json.loads(text)
        checks = [BoundCheck(**{k: v for k, v in item.items()})
                  for item in payload["checks"]]
        return cls(checks=checks, version=payload["version"],
                   tolerances=payload["tolerances"])


@dataclass(frozen=True)
class SpectrumComparison:
    """l2 distance between the discrete spectrum and the sinc-kernel spectrum."""

    N: int
    W: float
    c: float
    l2_diff: float
    bound: float
    tail_index: int

    @property
    def satisfied(self) -> bool:
        return self.l2_diff <= self.bound + TOL.check_floor


# ----------------------------------------------------------------- formulas

def eigenvalue_tail_bound(n: int, N: int, W: float) -> float:
    """Min-max tail bound on the n-th eigenvalue for small W.

    Requires 0 < W < 2/(e pi), N >= 2 and e pi W (N-1)/2 < n <= N-1.
    """
    if not 0.0 < W < 2.0 / (E * PI):
        raise OutOfRangeError(f"W={W} outside (0, 2/(e pi))")
    if N < 2:
        raise OutOfRangeError(f"N={N} must be >= 2")
    q = E * PI * W * (N - 1) / 2.0
    if not q < n <= N - 1:
        raise OutOfRangeError(f"n={n} outside ({q:.3f}, {N - 1}]")
    cw = math.sqrt(2.0 * W) * (2.0 + 2.0 / (E * PI * W))
    log_ratio = math.log(n / q)
    return cw / (math.sqrt(N - 1.0) * log_ratio) * math.exp(-(n - 0.5) * log_ratio)


def plunge_count_bound(N: int, W: float, eps: float) -> float:
    """Bound on #{k: eps <= lambda_k <= 1-eps} from the trace/HS-norm gap."""
    if not 0.0 < eps < 0.5:
        raise OutOfRangeError(f"eps={eps} outside (0, 1/2)")
    if not 0.0 < W < 0.5 or N < 1:
        raise OutOfRangeError(f"invalid (N, W)=({N}, {W})")
    return _plunge_mass_bound(N, W) / (eps * (1.0 - eps))


def _plunge_mass_bound(N: int, W: float) -> float:
    """log(2NW)/pi^2 + 0.45 - (2/3) W^2 + (W^2/(6 c^2)) sin^2(2c), c = pi N W."""
    c = PI * N * W
    return (math.log(2.0 * N * W) / PI ** 2 + 0.45 - (2.0 / 3.0) * W ** 2
            + (W ** 2 / (6.0 * c ** 2)) * math.sin(2.0 * c) ** 2)


def plunge_count_bound_coarse(N: int, eps: float) -> float:
    """Single-band case of the matrix-analysis count bound in log(N-1)."""
    if N < 2:
        raise OutOfRangeError(f"N={N} must be >= 2")
    if not 0.0 < eps < 0.5:
        raise OutOfRangeError(f"eps={eps} outside (0, 1/2)")
    return ((2.0 / PI ** 2) * math.log(N - 1.0)
            + (2.0 / PI ** 2) * (2.0 * N - 1.0) / (N - 1.0)) / (eps * (1.0 - eps))


def plunge_count_estimate(N: int, eps: float) -> float:
    """Asymptotic count estimate (8/pi^2) log(8N+12) log(15/eps).

    Informational only; meaningful for small eps. Any eps > 0 is accepted
    (the estimate degenerates to 0 at eps = 15).
    """
    if N < 1:
        raise OutOfRangeError(f"N={N} must be >= 1")
    if not eps > 0:
        raise OutOfRangeError(f"eps={eps} must be positive")
    return (8.0 / PI ** 2) * math.log(8.0 * N + 12.0) * math.log(15.0 / eps)


def comparison_constant(W: float) -> float:
    """Constant A(W) = 2 pi^2 (1/4 - W^2)^2 / cos^2(pi W), in [pi^2/8, 2].

    Multiplying the sinc-kernel eigenvalue at c = pi N W by A(W) dominates
    the corresponding discrete eigenvalue.
    """
    if not 0.0 < W < 0.5:
        raise OutOfRangeError(f"W={W} outside (0, 0.5)")
    return 2.0 * PI ** 2 / math.cos(PI * W) ** 2 * (0.25 - W ** 2) ** 2


def superexponential_decay_bound(k: int, N: int, W: float) -> float:
    """Tail bound 2 exp(-(2k+1) log(2(k+1)/(e pi N W))) past the plunge.

    Requires N >= 3, W < (2/(e pi)) (N-1)/N and 2 <= (e pi / 2) N W <= k <= N-1.
    """
    if N < 3:
        raise OutOfRangeError(f"N={N} must be >= 3")
    if not 0.0 < W < 2.0 / (E * PI) * (N - 1.0) / N:
        raise OutOfRangeError(f"W={W} outside the admissible range for N={N}")
    lo = E * PI / 2.0 * N * W
    if not (k >= 2 and lo <= k <= N - 1):
        raise OutOfRangeError(f"k={k} outside [max(2, {lo:.3f}), {N - 1}]")
    return decay_formula(k, N, W)


def decay_formula(k: float, N: int, W: float) -> float:
    """superexponential_decay_bound without range gating (for comparisons)."""
    return 2.0 * math.exp(-(2.0 * k + 1.0)
                          * math.log(2.0 * (k + 1.0) / (E * PI * N * W)))


def asymptotic_decay_constants(W: float, eps: float) -> tuple[float, float]:
    """(upper bound on C1, lower bound on C2) for the classical asymptotic
    tail estimate lambda_k <= C1 exp(-C2 N) for k >= ceil(2 N W (1 + eps)).

    Requires eps > (e pi - 6)/4 (which makes the C2 bound positive) and W in
    (0, 2/(e pi)).
    """
    threshold = (E * PI - 6.0) / 4.0
    if not eps > threshold:
        raise OutOfRangeError(f"eps={eps} must exceed (e pi - 6)/4 = {threshold:.5f}")
    if not 0.0 < W < 2.0 / (E * PI):
        raise OutOfRangeError(f"W={W} outside (0, 2/(e pi))")
    c2 = 4.0 * W * (1.0 + eps) * math.log((4.0 * (1.0 + eps) + 2.0) / (E * PI))
    return 2.0, c2


def concentration_inequality_constant(W: float, n_list=(7, 9, 11),
                                      spectra=None) -> dict:
    """Lower estimate of the constant in the Turan-Nazarov concentration
    inequality for trigonometric polynomials, plus empirical values.

    ``formula_value`` is (2/(1-2W)) log(2/(e pi W)); at W = 1/6 this is
    3 log(12/(e pi)) ~ 1.0206. ``empirical`` takes the eigenvalue itself as
    the concentration ratio, matching the inequality as applied to the wave
    functions; ``empirical_sq`` treats it as the squared ratio (half the
    exponent). Only N with lambda_{N-1} above the 1e-12 floor contribute.
    """
    if not 1.0 / 6.0 <= W < 0.5:
        raise OutOfRangeError(f"W={W} outside [1/6, 1/2)")
    per_n = {}
    for N in n_list:
        if N < 2:
            raise OutOfRangeError(f"N={N} must be >= 2")
        lam = (spectra[N] if spectra is not None
               else spectrum(DiscreteParams(N, W)).values)
        last = lam[N - 1]
        if last >= TOL.floor_checks:
            per_n[N] = -math.log(last) / ((1.0 - 2.0 * W) * (N - 1.0))
    if not per_n:
        raise IllConditionedFloor(
            f"all lambda_(N-1) below {TOL.floor_checks:.0e} for N in {tuple(n_list)}; "
            "choose smaller N")
    empirical = max(per_n.values())
    return {
        "formula_value": (2.0 / (1.0 - 2.0 * W)) * math.log(2.0 / (E * PI * W)),
        "empirical": empirical,
        "empirical_sq": empirical / 2.0,
        "per_n": per_n,
    }


def plunge_mass(N: int, W: float, values: np.ndarray | None = None
                ) -> tuple[float, float]:
    """(measured, bound) for sum_k lambda_k (1 - lambda_k).

    The bound is log(2NW)/pi^2 + 0.45 - (2/3) W^2 + (W^2/(6 c^2)) sin^2(2c).
    """
    if values is None:
        values = spectrum(DiscreteParams(N, W)).values
    return float(np.sum(values * (1.0 - values))), _plunge_mass_bound(N, W)


def plunge_decay_rate(N: int, W: float, values: np.ndarray | None = None) -> float:
    """Largest eta with lambda_n <= 2 exp(-eta (n - 2NW)/(log(pi N W) + 5))
    over the plunge-adjacent range 2NW + log(pi N W) + 6 <= n <= pi N W.

    Raises OutOfRangeError when the range is empty or contains no eigenvalue
    above the 1e-12 floor (informational skip).
    """
    c = PI * N * W
    lo = 2.0 * N * W + math.log(c) + 6.0
    hi = min(c, N - 1)
    if lo > hi:
        raise OutOfRangeError(f"empty plunge-decay range for (N, W)=({N}, {W})")
    if values is None:
        values = spectrum(DiscreteParams(N, W)).values
    candidates = [n for n in range(math.ceil(lo), math.floor(hi) + 1)
                  if values[n] >= TOL.floor_checks]
    if not candidates:
        raise OutOfRangeError(
            f"no eigenvalue above {TOL.floor_checks:.0e} in the plunge-decay "
            f"range for (N, W)=({N}, {W})")
    scale = math.log(c) + 5.0
    etas = [-math.log(values[n] / 2.0) * scale / (n - 2.0 * N * W)
            for n in candidates]
    return float(min(etas))


def compare_spectra(N: int, W: float, values: np.ndarray | None = None,
                    tail: int = 30, cont_values: np.ndarray | None = None
                    ) -> SpectrumComparison:
    """l2 distance between discrete eigenvalues (zero-padded past N) and the
    first N + tail sinc-kernel eigenvalues at c = pi N W, with its bound.

    ``cont_values`` are precomputed sinc-kernel eigenvalues at that c; at
    least N + tail of them are needed."""
    params = DiscreteParams(N, W)
    if values is None:
        values = spectrum(params).values
    c = params.bandwidth
    if cont_values is None:
        cont_values = nystrom_spectrum(c, max(default_order(c), N + tail + 40),
                                       check_convergence=False).values
    if len(cont_values) < N + tail:
        raise ValueError(f"need {N + tail} sinc-kernel eigenvalues, "
                         f"got {len(cont_values)}")
    padded = np.zeros(N + tail)
    padded[:N] = values
    diff = float(np.linalg.norm(padded - cont_values[:N + tail]))
    return SpectrumComparison(N=N, W=W, c=c, l2_diff=diff,
                              bound=kernel_hs_distance_bound(W),
                              tail_index=N + tail)


def verify_comparison(N: int, W: float, disc_values: np.ndarray | None = None,
                      cont_values: np.ndarray | None = None) -> list[BoundCheck]:
    """Per-eigenvalue checks lambda_k <= A(W) lambda_k(c) + 1e-12."""
    params = DiscreteParams(N, W)
    if disc_values is None:
        disc_values = spectrum(params).values
    c = params.bandwidth
    if cont_values is None:
        cont_values = nystrom_spectrum(c, max(default_order(c), N + 10),
                                       check_convergence=False).values
    A = comparison_constant(W)
    return [_family("comparison_inequality",
                    "eigenvalue comparison with the sinc-kernel spectrum",
                    {"N": N, "W": W, "A": A}, disc_values, range(N),
                    lambda k: A * cont_values[k])]


# ------------------------------------------------------------- verify_all

def _le(name: str, ref: str, params: dict, measured: float, bound: float,
        slack: float = 0.0) -> BoundCheck:
    """The check measured <= bound + slack, with margin bound - measured."""
    return BoundCheck(name=name, paper_ref=ref, params=params, bound=bound,
                      measured=measured, satisfied=measured <= bound + slack,
                      margin=bound - measured)


def _skipped(name: str, ref: str, params: dict, note: str,
             informational: bool = False) -> BoundCheck:
    return BoundCheck(name=name, paper_ref=ref, params=params, bound=None,
                      measured=None, satisfied=True, margin=None,
                      informational=informational, skipped=True, note=note)


def _family(name: str, ref: str, params: dict, values: np.ndarray, indices,
            bound) -> BoundCheck:
    """values[k] <= bound(k) for every index k with values[k] above the check
    floor: the worst excess against 0, with the number of indices checked."""
    excess = [values[k] - bound(k) for k in indices
              if values[k] >= TOL.floor_checks]
    return _le(name, ref, {**params, "checked": len(excess)},
               max(excess, default=0.0), 0.0, TOL.check_floor)


def verify_all(n_grid=DEFAULT_N_GRID, w_grid=DEFAULT_W_GRID,
               eps_grid=DEFAULT_EPS_GRID, method: str = "tridiag") -> BoundReport:
    """Run every applicable bound/identity check over the grid."""
    w_grid = tuple(w_grid)
    eps_grid = tuple(eps_grid)
    grid = sorted({(p.N, p.W) for p in (DiscreteParams(N, W)
                                        for N in n_grid for W in w_grid)})
    if not grid or not eps_grid:
        raise ValueError("verification grids must be nonempty")
    for eps in eps_grid:
        if not 0.0 < eps < 0.5:
            raise ValueError(f"invalid eps={eps}")

    checks: list[BoundCheck] = []
    # one Nystrom solve per (N, W), at an order covering every consumer; only
    # the values are kept, keyed by the rounded bandwidth for the HS checks
    cont_by_c: dict[float, np.ndarray] = {}
    for N, W in grid:
        disc = spectrum(DiscreteParams(N, W), method=method)
        lam = disc.values
        pw = {"N": N, "W": W}
        c = disc.params.bandwidth
        cont = nystrom_spectrum(c, max(default_order(c), N + 70),
                                check_convergence=False).values
        cont_by_c[round(c, 12)] = cont

        gram = disc.dpss.T @ (prolate_matrix(disc.params) @ disc.dpss)
        other = spectrum(disc.params,
                         method="toeplitz" if method == "tridiag" else "tridiag")
        mask = lam >= TOL.floor_checks
        cmp_ = compare_spectra(N, W, lam, cont_values=cont)
        checks += [
            _le("trace_identity", "trace equals 2NW", pw,
                abs(lam.sum() - 2.0 * N * W) / (2.0 * N * W), TOL.trace_rel),
            _le("symmetry_identity", "reflection identity between W and 1/2 - W",
                pw, symmetry_defect(N, W, method=method), TOL.symmetry_identity),
            _le("commutation", "commuting tridiagonal matrix", pw,
                commutation_defect(disc.params), TOL.commutation),
            _le("double_orthogonality",
                "double orthogonality of the wave functions", pw,
                float(np.max(np.abs(gram - np.diag(np.diag(gram))))),
                TOL.double_orthogonality),
            _le("cross_route_agreement", "Toeplitz route vs tridiagonal route",
                pw, float(np.max(np.abs(lam[mask] - other.values[mask]))),
                TOL.cross_route),
            _le("plunge_mass", "trace minus squared HS norm", pw,
                *plunge_mass(N, W, lam), TOL.check_floor),
            _le("spectra_l2_distance",
                "l2 spectrum comparison via Wielandt-Hoffman",
                {**pw, "c": cmp_.c}, cmp_.l2_diff, cmp_.bound, TOL.check_floor),
            _le("kernel_hs_distance",
                "HS distance between Dirichlet and sinc kernels", pw,
                kernel_hs_distance(N, W), kernel_hs_distance_bound(W),
                TOL.check_floor),
            *verify_comparison(N, W, lam, cont),
        ]

        # tail bound family (gated on small W and N >= 2)
        tail = ("eigenvalue_tail_bound", "min-max tail estimate", pw)
        if not 0.0 < W < 2.0 / (E * PI):
            checks.append(_skipped(*tail, f"W={W} outside (0, 2/(e pi))"))
        elif N < 2:
            checks.append(_skipped(*tail, f"N={N} must be >= 2"))
        else:
            q = E * PI * W * (N - 1) / 2.0
            checks.append(_family(*tail, lam, range(math.floor(q) + 1, N),
                                  lambda n: eigenvalue_tail_bound(n, N, W)))

        # superexponential decay family
        decay = ("superexponential_decay", "tail decay past the plunge", pw)
        if N >= 3 and 0.0 < W < 2.0 / (E * PI) * (N - 1.0) / N:
            lo = E * PI / 2.0 * N * W
            checks.append(_family(*decay, lam, range(max(2, math.ceil(lo)), N),
                                  lambda k: superexponential_decay_bound(k, N, W)))
        else:
            checks.append(_skipped(
                *decay, f"(N, W)=({N}, {W}) outside the validity range"))

        # plunge decay rate (informational: only existence is claimed)
        rate = ("plunge_decay_rate", "plunge-region decay rate", pw)
        try:
            eta = plunge_decay_rate(N, W, lam)
        except OutOfRangeError as exc:
            checks.append(_skipped(*rate, str(exc), informational=True))
        else:
            checks.append(BoundCheck(*rate, bound=None, measured=eta,
                                     satisfied=eta > 0.0, margin=None,
                                     informational=True))

        for eps in eps_grid:
            peps = {**pw, "eps": eps}
            count = float(np.sum((lam >= eps) & (lam <= 1.0 - eps)))
            bound = plunge_count_bound(N, W, eps)
            checks.append(_le("plunge_count", "eigenvalue count bound", peps,
                              count, bound, TOL.check_floor))
            if N >= 2 and PI * N * W >= 1.0:
                coarse = plunge_count_bound_coarse(N, eps)
                checks.append(BoundCheck(
                    name="plunge_count_improvement",
                    paper_ref="count bound improves the log(N-1) bound",
                    params=peps, bound=coarse, measured=bound,
                    satisfied=bound < coarse, margin=coarse - bound))
            checks.append(BoundCheck(
                name="plunge_count_estimate",
                paper_ref="asymptotic count estimate",
                params=peps, bound=plunge_count_estimate(N, eps),
                measured=count, satisfied=True, margin=None,
                informational=True))

    # continuous-side HS lower bound at the grid bandwidths
    for c, cont in sorted(cont_by_c.items()):
        hs = hs_norm_sq(c, values=cont)
        lb = hs_lower_bound(c)
        checks.append(BoundCheck(
            name="hs_norm_lower_bound",
            paper_ref="HS norm lower bound for the sinc kernel",
            params={"c": c}, bound=lb, measured=hs,
            satisfied=hs >= lb - TOL.check_floor, margin=hs - lb))

    # concentration-inequality constant (informational, fixed W = 1/6)
    turan = ("concentration_constant", "Turan-Nazarov concentration constant")
    try:
        tn = concentration_inequality_constant(1.0 / 6.0)
    except OutOfRangeError as exc:
        checks.append(_skipped(*turan, {"W": 1.0 / 6.0}, str(exc),
                               informational=True))
    else:
        checks.append(BoundCheck(
            *turan, params={"W": 1.0 / 6.0, "per_n": tn["per_n"]},
            bound=tn["formula_value"], measured=tn["empirical"],
            satisfied=tn["empirical"] >= tn["formula_value"],
            margin=tn["empirical"] - tn["formula_value"], informational=True))

    checks.sort(key=lambda ch: (ch.name, json.dumps(ch.params, sort_keys=True)))
    return BoundReport(checks=checks, tolerances=dataclasses.asdict(TOL))
