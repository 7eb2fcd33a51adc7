"""Closed-form bounds and identities for the concentration spectrum, with
machine verification against computed spectra.

Each evaluator returns the bound value and raises ``OutOfRangeError`` outside
its validity range. ``verify_all`` runs every check over a parameter grid into
a serialisable ``BoundReport``, each entry by the one rule of ``_check``, under
which an OutOfRangeError makes a skip. Checks on asymptotic statements are
informational: reported under the same rule, they never fail the suite.
Eigenvalues below 1e-12 are outside double-precision resolution and are
excluded from all inequalities.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .continuous import (hs_lower_bound, hs_norm_sq, kernel_hs_distance,
                         kernel_hs_distance_bound, legendre_spectrum)
from .discrete import (DiscreteParams, band_grams, commutation_defect,
                       mirror_params, spectrum, symmetry_defect)
from .numkit import OutOfRangeError

VERSION = "0.1.0"

# sinc-kernel eigenvalues past N that the l2 spectrum comparison includes
COMPARISON_TAIL = 30

# the (N, W, eps) grid of verify_all and `slepian bounds`
DEFAULT_N_GRID = (30, 60)
DEFAULT_W_GRID = (0.1, 0.2, 0.3, 0.4)
DEFAULT_EPS_GRID = (0.01, 0.05, 0.2)

# the W and N list of concentration_inequality_constant and `slepian turan`
TURAN_W = 1.0 / 6.0
TURAN_N_LIST = (7, 9, 11)

E = math.e
PI = math.pi


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


@dataclass
class BoundReport:
    checks: list[BoundCheck]
    version: str = VERSION
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.checks
                   if not c.informational and not c.skipped)

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "tolerances": self.tolerances,
            "pass": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item,
                          allow_nan=False)


# ----------------------------------------------------------------- formulas

def eigenvalue_tail_range(N: int, W: float) -> range:
    """Indices e pi W (N-1)/2 < n <= N-1 of eigenvalue_tail_bound; requires
    0 < W < 2/(e pi) and N >= 2."""
    if not 0.0 < W < 2.0 / (E * PI):
        raise OutOfRangeError(f"W={W} outside (0, 2/(e pi))")
    if N < 2:
        raise OutOfRangeError(f"N={N} must be >= 2")
    return range(math.floor(E * PI * W * (N - 1) / 2.0) + 1, N)


def eigenvalue_tail_bound(n: int, N: int, W: float) -> float:
    """Min-max tail bound on the n-th eigenvalue for small W, for n in
    eigenvalue_tail_range(N, W)."""
    q = E * PI * W * (N - 1) / 2.0
    if n not in eigenvalue_tail_range(N, W):
        raise OutOfRangeError(f"n={n} outside ({q:.3f}, {N - 1}]")
    cw = math.sqrt(2.0 * W) * (2.0 + 2.0 / (E * PI * W))
    log_ratio = math.log(n / q)
    return cw / (math.sqrt(N - 1.0) * log_ratio) * math.exp(-(n - 0.5) * log_ratio)


def plunge_count_bound(N: int, W: float, eps: float) -> float:
    """Bound on #{k: eps <= lambda_k <= 1-eps} from the trace/HS-norm gap."""
    if not 0.0 < W < 0.5 or N < 1:
        raise OutOfRangeError(f"invalid (N, W)=({N}, {W})")
    return _per_eps(_plunge_mass_bound(N, W), eps)


def _per_eps(mass: float, eps: float) -> float:
    """mass / (eps (1 - eps)) for a normal double eps in (0, 1/2), where finite."""
    if not np.finfo(float).tiny <= eps < 0.5:
        raise OutOfRangeError(f"eps={eps} outside (0, 1/2) or not a normal double")
    bound = float(mass) / float(eps * (1.0 - eps))   # inf, not a numpy warning
    if not math.isfinite(bound):
        raise OutOfRangeError(f"eps={eps} makes the count bound overflow")
    return bound


def _plunge_mass_bound(N: int, W: float) -> float:
    """log(2NW)/pi^2 + 0.45 - (2/3) W^2 + (W^2/(6 c^2)) sin^2(2c), c = pi N W >= 1."""
    c = PI * N * W
    if not c >= 1.0:
        raise OutOfRangeError(f"c=pi N W={c:g} below 1")
    return (math.log(2.0 * N * W) / PI ** 2 + 0.45 - (2.0 / 3.0) * W ** 2
            + (W ** 2 / (6.0 * c ** 2)) * math.sin(2.0 * c) ** 2)


def plunge_count_bound_coarse(N: int, eps: float) -> float:
    """Single-band case of the matrix-analysis count bound in log(N-1)."""
    if N < 2:
        raise OutOfRangeError(f"N={N} must be >= 2")
    return _per_eps((2.0 / PI ** 2) * math.log(N - 1.0)
                    + (2.0 / PI ** 2) * (2.0 * N - 1.0) / (N - 1.0), eps)


def plunge_count_estimate(N: int, eps: float) -> float:
    """Asymptotic count estimate (8/pi^2) log(8N+12) log(15/eps), taken as
    log 15 - log eps: finite for every finite eps > 0 (0 at eps = 15).

    Informational only; meaningful for small eps.
    """
    if N < 1:
        raise OutOfRangeError(f"N={N} must be >= 1")
    if not 0.0 < eps < math.inf:
        raise OutOfRangeError(f"eps={eps} must be positive and finite")
    return (8.0 / PI ** 2) * math.log(8.0 * N + 12.0) * (math.log(15) - math.log(eps))


def comparison_constant(W: float) -> float:
    """Constant A(W) = 2 pi^2 (1/4 - W^2)^2 / cos^2(pi W), in [pi^2/8, 2].

    Multiplying the sinc-kernel eigenvalue at c = pi N W by A(W) dominates
    the corresponding discrete eigenvalue.
    """
    if not 0.0 < W < 0.5:
        raise OutOfRangeError(f"W={W} outside (0, 0.5)")
    return 2.0 * PI ** 2 / math.cos(PI * W) ** 2 * (0.25 - W ** 2) ** 2


def superexponential_decay_range(N: int, W: float) -> range:
    """Indices max(2, (e pi / 2) N W) <= k <= N-1 of superexponential_decay_bound;
    requires N >= 3 and W < (2/(e pi)) (N-1)/N."""
    if N < 3:
        raise OutOfRangeError(f"N={N} must be >= 3")
    if not 0.0 < W < 2.0 / (E * PI) * (N - 1.0) / N:
        raise OutOfRangeError(f"W={W} outside the admissible range for N={N}")
    return range(max(2, math.ceil(E * PI / 2.0 * N * W)), N)


def superexponential_decay_bound(k: int, N: int, W: float) -> float:
    """Tail bound 2 exp(-(2k+1) log(2(k+1)/(e pi N W))) past the plunge, for
    k in superexponential_decay_range(N, W)."""
    lo = E * PI / 2.0 * N * W
    if k not in superexponential_decay_range(N, W):
        raise OutOfRangeError(f"k={k} outside [max(2, {lo:.3f}), {N - 1}]")
    return 2.0 * math.exp(-(2.0 * k + 1.0)
                          * math.log(2.0 * (k + 1.0) / (E * PI * N * W)))


def concentration_inequality_constant(W: float, n_list=TURAN_N_LIST) -> dict:
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
    per_n, floor = {}, config.TOLERANCES.floor_checks
    for N in n_list:
        if N < 2:
            raise OutOfRangeError(f"N={N} must be >= 2")
        last = spectrum(DiscreteParams(N, W)).values[N - 1]
        if last >= floor:
            per_n[N] = -math.log(last) / ((1.0 - 2.0 * W) * (N - 1.0))
    if not per_n:
        raise OutOfRangeError(
            f"all lambda_(N-1) below {floor:.0e} for N in {tuple(n_list)}; "
            "choose smaller N")
    empirical = max(per_n.values())
    return {
        "formula_value": (2.0 / (1.0 - 2.0 * W)) * math.log(2.0 / (E * PI * W)),
        "empirical": empirical,
        "empirical_sq": empirical / 2.0,
        "per_n": per_n,
    }


def plunge_mass(N: int, W: float, values: np.ndarray) -> tuple[float, float]:
    """(measured, bound) for sum_k lambda_k (1 - lambda_k) over the spectrum
    ``values`` of (N, W).

    The bound is log(2NW)/pi^2 + 0.45 - (2/3) W^2 + (W^2/(6 c^2)) sin^2(2c).
    """
    return float(np.sum(values * (1.0 - values))), _plunge_mass_bound(N, W)


def plunge_count(values: np.ndarray, eps: float) -> int:
    """#{k: eps <= lambda_k <= 1-eps} over the spectrum ``values``."""
    return int(np.sum((values >= eps) & (values <= 1.0 - eps)))


def plunge_decay_rate(N: int, W: float, values: np.ndarray) -> float:
    """Largest eta with lambda_n <= 2 exp(-eta (n - 2NW)/(log(pi N W) + 5))
    over the plunge-adjacent range 2NW + log(pi N W) + 6 <= n <= pi N W of
    the spectrum ``values`` of (N, W). Informational: its values reach down
    to 1e-12, where an absolute error of 1e-16 is 1e-4 relative, so only its
    first 4 significant digits are trustworthy (a last-bit change in the
    spectrum moved it by 6.8e-7 relative at (60, 0.3)).

    Raises OutOfRangeError below c = pi N W = 1, or when the range is empty or
    contains no eigenvalue above the 1e-12 floor (informational skip).
    """
    c = PI * N * W
    if not c >= 1.0:
        raise OutOfRangeError(f"c=pi N W={c:g} below 1")
    lo = 2.0 * N * W + math.log(c) + 6.0
    hi, floor = min(c, N - 1), config.TOLERANCES.floor_checks
    if lo > hi:
        raise OutOfRangeError(f"empty plunge-decay range for (N, W)=({N}, {W})")
    candidates = [n for n in range(math.ceil(lo), math.floor(hi) + 1)
                  if values[n] >= floor]
    if not candidates:
        raise OutOfRangeError(
            f"no eigenvalue above {floor:.0e} in the plunge-decay "
            f"range for (N, W)=({N}, {W})")
    scale = math.log(c) + 5.0
    etas = [-math.log(values[n] / 2.0) * scale / (n - 2.0 * N * W)
            for n in candidates]
    return float(min(etas))


def _check_lengths(N: int, W: float, values, cont_values, n: int) -> None:
    """Validate (N, W), N discrete eigenvalues and at least n sinc-kernel ones."""
    DiscreteParams(N, W)
    if len(values) != N:
        raise ValueError(f"need {N} discrete eigenvalues, got {len(values)}")
    if len(cont_values) < n:
        raise ValueError(f"need {n} sinc-kernel eigenvalues, got {len(cont_values)}")


def compare_spectra(N: int, W: float, values: np.ndarray,
                    cont_values: np.ndarray) -> tuple[float, float]:
    """(measured, bound) for the l2 distance between the discrete eigenvalues
    ``values`` of (N, W), zero-padded past N, and the first N +
    COMPARISON_TAIL sinc-kernel eigenvalues ``cont_values`` at c = pi N W;
    the bound is kernel_hs_distance_bound(W)."""
    n = N + COMPARISON_TAIL
    _check_lengths(N, W, values, cont_values, n)
    padded = np.zeros(n)
    padded[:N] = values
    return (float(np.linalg.norm(padded - cont_values[:n])),
            kernel_hs_distance_bound(W))


def verify_comparison(N: int, W: float, disc_values: np.ndarray,
                      cont_values: np.ndarray) -> BoundCheck:
    """The check lambda_k <= A(W) lambda_k(c) + 1e-12 of every discrete
    eigenvalue of (N, W) against the sinc-kernel one at c = pi N W."""
    _check_lengths(N, W, disc_values, cont_values, N)
    A = comparison_constant(W)
    params = {"N": N, "W": W, "A": A}
    return _check("comparison_inequality",
                  "eigenvalue comparison with the sinc-kernel spectrum", params,
                  lambda: _family(params, disc_values, range(N),
                                  lambda k: A * cont_values[k]),
                  config.TOLERANCES.floor_checks)


# ------------------------------------------------------------- verify_all

def _check(name: str, ref: str, params: dict, compute, slack: float = 0.0,
           lower: bool = False, informational: bool = False) -> BoundCheck:
    """The report entry for ``compute() -> (measured, bound)``.

    An upper check is measured <= bound + slack with margin bound - measured;
    a ``lower`` one is measured >= bound - slack with margin measured - bound.
    An OutOfRangeError from compute() makes the entry a skip noting it, and a
    non-finite measured value, bound or margin makes it unsatisfied.
    """
    measured = bound = margin = note = None
    satisfied = True
    try:
        measured, bound = compute()
    except OutOfRangeError as exc:
        note = str(exc)
    else:
        if lower:
            satisfied, margin = measured >= bound - slack, measured - bound
        else:
            satisfied, margin = measured <= bound + slack, bound - measured
        satisfied = satisfied and math.isfinite(margin)   # no verdict on inf or NaN
    return BoundCheck(name=name, paper_ref=ref, params=params, bound=bound,
                      measured=measured, satisfied=satisfied, margin=margin,
                      informational=informational, skipped=note is not None,
                      note=note or "")


def _family(params: dict, values: np.ndarray, indices, bound) -> tuple[float, float]:
    """(worst excess, 0.0) of values[k] <= bound(k) over the indices k with values[k]
    above the check floor, counted in ``params``; none is an OutOfRangeError."""
    floor = config.TOLERANCES.floor_checks
    excess = [values[k] - bound(k) for k in indices if values[k] >= floor]
    params["checked"] = len(excess)
    if not excess:
        raise OutOfRangeError(f"no eigenvalue above {floor:.0e} in range")
    return max(excess), 0.0


def verify_all(n_grid=DEFAULT_N_GRID, w_grid=DEFAULT_W_GRID,
               eps_grid=DEFAULT_EPS_GRID) -> BoundReport:
    """Run every bound/identity check over the grid, skipping out-of-range ones,
    on the tridiag route; both route checks measure the reflection identity against
    the Toeplitz route at (N, 1/2 - W), and skip where 1/2 - W rounds to 1/2."""
    tol = config.TOLERANCES
    w_grid = tuple(w_grid)
    eps_grid = tuple(dict.fromkeys(eps_grid))   # a repeated eps is one point
    grid = sorted({(p.N, p.W) for p in (DiscreteParams(N, W)
                                        for N in n_grid for W in w_grid)})
    if not grid or not eps_grid:
        raise ValueError("verification grids must be nonempty")
    for eps in eps_grid:
        if not 0.0 < eps < 0.5:
            raise ValueError(f"invalid eps={eps}")

    checks: list[BoundCheck] = []
    # one sinc-kernel spectrum per (N, W), long enough for compare_spectra;
    # keyed by the exact bandwidth for the HS checks
    cont_by_c: dict[float, np.ndarray] = {}
    for N, W in grid:
        disc = spectrum(DiscreteParams(N, W))
        lam = disc.values
        pw = {"N": N, "W": W}
        c = disc.params.bandwidth
        cont = legendre_spectrum(c, N + COMPARISON_TAIL)
        cont_by_c[c] = cont

        @functools.cache   # the grid point's second spectrum, for both route checks
        def mirror():   # mirror_params raises each check's skip below 2^-55
            return spectrum(mirror_params(disc.params), "toeplitz")
        mask = lam >= tol.floor_checks
        tail, decay = dict(pw), dict(pw)   # _family adds "checked"
        checks += [
            _check("trace_identity", "trace equals 2NW", pw,
                   lambda: (abs(lam.sum() - 2.0 * N * W) / (2.0 * N * W),
                            tol.trace_rel)),
            _check("symmetry_identity", "reflection identity between W and 1/2 - W", pw,
                   lambda: (symmetry_defect(disc, mirror()), tol.cross_route)),
            _check("commutation", "commuting tridiagonal matrix", pw,
                   lambda: (commutation_defect(disc.params), tol.commutation)),
            _check("double_orthogonality",
                   "double orthogonality of the wave functions", pw,
                   lambda: (max(np.max(np.abs(G - np.diag(np.diag(G))), initial=0.0)
                                for G in band_grams(disc)), tol.double_orthogonality)),
            _check("cross_route_agreement", "Toeplitz route vs tridiagonal route", pw,
                   lambda: (float(np.max(np.abs(mirror().values[::-1] - (1.0 - lam))
                                         [mask], initial=0.0)), tol.cross_route)),
            _check("spectra_l2_distance",
                   "l2 spectrum comparison via Wielandt-Hoffman",
                   {**pw, "c": c}, lambda: compare_spectra(N, W, lam, cont),
                   tol.floor_checks),
            _check("kernel_hs_distance",
                   "HS distance between Dirichlet and sinc kernels", pw,
                   lambda: (kernel_hs_distance(N, W), kernel_hs_distance_bound(W)),
                   tol.floor_checks),
            verify_comparison(N, W, lam, cont),
            _check("plunge_mass", "trace minus squared HS norm", pw,
                   lambda: plunge_mass(N, W, lam), tol.floor_checks),
            _check("eigenvalue_tail_bound", "min-max tail estimate", tail,
                   lambda: _family(tail, lam, eigenvalue_tail_range(N, W),
                                   lambda n: eigenvalue_tail_bound(n, N, W)),
                   tol.floor_checks),
            _check("superexponential_decay", "tail decay past the plunge", decay,
                   lambda: _family(decay, lam, superexponential_decay_range(N, W),
                                   lambda k: superexponential_decay_bound(k, N, W)),
                   tol.floor_checks),
            # informational: only the existence of a positive rate is claimed
            _check("plunge_decay_rate", "plunge-region decay rate", pw,
                   lambda: (plunge_decay_rate(N, W, lam), 0.0), lower=True,
                   informational=True),
        ]

        for eps in eps_grid:
            peps = {**pw, "eps": eps}
            count = float(plunge_count(lam, eps))
            checks += [
                _check("plunge_count", "eigenvalue count bound", peps,
                       lambda: (count, plunge_count_bound(N, W, eps)),
                       tol.floor_checks),
                _check("plunge_count_improvement",
                       "count bound improves the log(N-1) bound", peps,
                       lambda: (plunge_count_bound(N, W, eps),
                                plunge_count_bound_coarse(N, eps))),
                _check("plunge_count_estimate", "asymptotic count estimate", peps,
                       lambda: (count, plunge_count_estimate(N, eps)),
                       informational=True),
            ]

    # continuous-side HS lower bound at the grid bandwidths
    for c, cont in sorted(cont_by_c.items()):
        def hs_norm():
            bound = hs_lower_bound(c)   # raises below c = 1 before the norm is taken
            return hs_norm_sq(c, cont), bound

        checks.append(_check("hs_norm_lower_bound",
                             "HS norm lower bound for the sinc kernel", {"c": c},
                             hs_norm, tol.floor_checks, lower=True))

    # concentration-inequality constant (informational, fixed W = TURAN_W)
    turan = {"W": TURAN_W}

    def turan_constant():
        tn = concentration_inequality_constant(TURAN_W)
        turan["per_n"] = {str(N): v for N, v in tn["per_n"].items()}   # JSON key order
        return tn["empirical"], tn["formula_value"]

    checks.append(_check("concentration_constant",
                         "Turan-Nazarov concentration constant", turan,
                         turan_constant, lower=True, informational=True))
    checks.sort(key=lambda ch: (ch.name, json.dumps(ch.params, sort_keys=True)))
    return BoundReport(checks=checks, tolerances=dataclasses.asdict(tol))
