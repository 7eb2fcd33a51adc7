"""Projection of test functions onto the wave-function bases, periodic Sobolev
norms, and the truncated Weierstrass function.

Two bases are supported: the native orthonormal family U_k on [-1/2, 1/2]
(residuals measured on [-W, W]) and the dilated family
sqrt(W) U_k(W x) / sqrt(lambda_k), orthonormal on [-1, 1].

A ``TestFunction`` is an evaluator plus what the projections read of it.
Functions that are finite cosine sums (the truncated Weierstrass function)
carry their terms explicitly: their inner products against the trigonometric
basis have closed forms, which sidesteps quadrature for frequencies far above
any resolvable grid; the native band residual adds sum_k lambda_k beta_k^2, as
the modes are doubly orthogonal. A function with a smoothness ``s`` has the
Sobolev approximation inequality evaluated in native projections, with the norm
that ``sobolev_norm`` computes in closed form for a cosine sum at s in {0, 1}
(any other target or s gets a note instead). Projections onto the dilated
family are computed as a least-squares fit on the span of the first K modes in
the quadrature metric: dividing by sqrt(lambda_k) is meaningless once lambda_k
drops to the double-precision noise floor, but the span itself stays
numerically usable well past that point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .discrete import DiscreteSpectrum, dpswf_matrix, half_sums
from .numkit import (NumericalFailure, OutOfRangeError, checked_index,
                     gauss_legendre, sinc_kernel, snapped_floor)

BASES = ("native", "dilated")
WEIERSTRASS_TOL = 1e-12
SUP_POINTS = 2001   # equispaced points of the sup residual's grid


@dataclass(frozen=True)
class TestFunction:
    """Deterministic evaluator x -> f(x), with optional cosine-sum structure.

    ``cosine_terms`` is (amplitudes, frequencies) when f(x) equals
    sum_j a_j cos(omega_j x) exactly; inner products then use closed forms.
    ``s`` is the Sobolev smoothness at which native projections evaluate the
    approximation inequality (None: not evaluated); the norm it needs exists
    for a cosine sum at s in {0, 1} only, and other values give a note.
    ``span`` is the x range of a sampled f (``from_samples``), which both
    projections require to cover their interval.
    """

    evaluator: object
    cosine_terms: tuple[np.ndarray, np.ndarray] | None = None
    s: float | None = None
    span: tuple[float, float] | None = None

    __test__ = False   # keep pytest from collecting this as a test class

    def __call__(self, x):   # a float array, or a complex one for a complex f
        values = np.asarray(self.evaluator(np.asarray(x, dtype=float)))
        return values.astype(np.result_type(values, 1.0), copy=False)

    @classmethod
    def sinc_bandlimited(cls, alpha: float) -> "TestFunction":
        """f(x) = sin(alpha x) / (alpha x), bandlimited to [-alpha, alpha]."""
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        return cls(evaluator=lambda x: sinc_kernel(alpha * x, alpha * x, 1.0))

    @classmethod
    def weierstrass(cls, s: float) -> "TestFunction":
        """Truncated Weierstrass sum cos(2^k x) / 2^(k s) (``weierstrass_terms``)."""
        amps, freqs = weierstrass_terms(s)
        return cls(evaluator=lambda x: np.cos(np.multiply.outer(x, freqs)) @ amps,
                   cosine_terms=(amps, freqs), s=float(s))

    @classmethod
    def from_samples(cls, x: np.ndarray, y: np.ndarray) -> "TestFunction":
        """Piecewise-linear interpolant of sample pairs, over their x span."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0:
            raise ValueError("sample set is empty")
        if x.size != y.size:
            raise ValueError("x and y sample arrays differ in length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("samples must be finite")
        if not np.max(np.abs(y)) <= 1e150:   # the L2 residual squares f
            raise ValueError("sample values must not exceed 1e150 in magnitude")
        order = np.argsort(x)
        x, y = x[order], y[order]
        return cls(evaluator=lambda t: np.interp(t, x, y),
                   span=(float(x[0]), float(x[-1])))


def weierstrass_terms(s: float):
    """(amplitudes 2^(-k s), frequencies 2^k) for k <= K_s, where K_s is
    minimal with 2^(-K_s s) <= WEIERSTRASS_TOL."""
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    n_terms = 0
    while 2.0 ** (-n_terms * s) > WEIERSTRASS_TOL:
        n_terms += 1
        if n_terms > 1023:
            raise ValueError(f"s={s} needs frequencies beyond 2^1023 to reach "
                             f"tol={WEIERSTRASS_TOL}; they overflow double precision")
    k = np.arange(n_terms + 1)
    return 2.0 ** (-k * s), 2.0 ** k


# ------------------------------------------------------ closed-form integrals

def cos_pair_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """integral_{-T}^{T} cos(a x) cos(b x) dx, elementwise."""
    d, s = a - b, a + b
    return sinc_kernel(d * T, d, T) + sinc_kernel(s * T, s, T)


def sin_pair_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """integral_{-T}^{T} sin(a x) sin(b x) dx, elementwise."""
    d, s = a - b, a + b
    return sinc_kernel(d * T, d, T) - sinc_kernel(s * T, s, T)


def _cosine_l2_sq(amps: np.ndarray, freqs: np.ndarray, T: float) -> float:
    return float(amps @ cos_pair_integral(freqs[:, None], freqs[None, :], T) @ amps)


def _cosine_mode_integrals(amps: np.ndarray, freqs: np.ndarray,
                           spec: DiscreteSpectrum, scale: float, T: float
                           ) -> np.ndarray:
    """<f, U_k(scale .)> over [-T, T] for all modes k, f a cosine sum.

    An even mode U_k(scale x) is a half-length cosine sum (``half_sums``),
    whose cross terms with cos(omega x) integrate in closed form, so
    arbitrarily large omega (Weierstrass terms up to 2^40) cost nothing in
    accuracy. An odd mode is a sine sum: exactly 0.0.
    """
    nu, A = half_sums(spec, np.arange(0, spec.N, 2))
    out = np.zeros(spec.N)
    out[0::2] = amps @ cos_pair_integral(freqs[:, None], nu * scale, T) @ A
    return out


def sobolev_norm(f: TestFunction, s: float) -> float:
    """Periodic Sobolev norm of f on [-1/2, 1/2], the native interval: the
    square root of the lattice sum of (1+n^2)^s |c_n|^2, with coefficients
    c_n in the orthonormal-basis convention, so the s = 0 norm is the L2 norm
    of the interval.

    Computed exactly, for a cosine sum at s in {0, 1} only, from pairwise
    integrals of f and f' (the even periodisation is continuous at the seam,
    so the derivative Parseval identity applies). Any other f or s raises
    NumericalFailure without evaluating f.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if f.cosine_terms is None or float(s) not in (0.0, 1.0):
        raise NumericalFailure(f"the H^{s} norm is computed only for a cosine "
                               f"sum at s in {{0, 1}}")
    T = 0.5
    amps, freqs = f.cosine_terms
    norm_sq = _cosine_l2_sq(amps, freqs, T)
    if s == 1.0:
        Gp = sin_pair_integral(freqs[:, None], freqs[None, :], T)
        deriv_sq = float((amps * freqs) @ Gp @ (amps * freqs))
        norm_sq += deriv_sq / (2.0 * np.pi) ** 2   # lattice step 2 pi
    return math.sqrt(norm_sq)


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a test function onto K wave-function modes."""

    K: int
    interval: str
    residual_l2: float
    residual_sup: float
    coefficients: np.ndarray
    coefficient_indices: tuple[int, ...]
    untrusted: tuple[int, ...] = ()
    rank: int | None = None
    sobolev_rhs: float | None = None
    sobolev_ok: bool | None = None
    note: str = ""


def sobolev_k_range(N: int, W: float) -> tuple[int, int]:
    """Valid truncation range for the Sobolev approximation inequality.

    Raises OutOfRangeError below c = pi N W = 1, where the inequality does
    not apply at any K.
    """
    c = math.pi * N * W
    if not c >= 1.0:
        raise OutOfRangeError(f"c=pi N W={c:g} below 1")
    lo = snapped_floor(2.0 * N * W) + math.log(c) + 6.0
    return math.ceil(lo - 1e-12), N - 1


def _require_span(f: TestFunction, T: float) -> None:
    """Reject samples short of [-T, T]; np.interp would extend them as constants."""
    lo, hi = f.span or (-T, T)
    if lo > -T or hi < T:
        raise ValueError(f"samples span x in [{lo}, {hi}], which does not "
                         f"cover the fitted interval [{-T}, {T}]")


def _native_frame(f: TestFunction, spec: DiscreteSpectrum):
    """Build everything of a native projection that does not depend on K and
    return the per-K fit.

    The frame holds beta_k = <f, U_k> on [-1/2, 1/2] for every mode, the band
    residual data (closed-form cross terms for cosine sums, whose band Gram is
    diag(lambda), otherwise all modes and f on the band quadrature rule), all
    modes and f on the sup grid, and the H^s and L2 norms of f on [-1/2, 1/2]
    (``sobolev_norm``), computed at the first K that needs them.
    """
    _require_span(f, 0.5)
    N, W = spec.N, spec.W
    if f.cosine_terms is not None:
        amps, freqs = f.cosine_terms
        beta = _cosine_mode_integrals(amps, freqs, spec, 1.0, 0.5)
        gamma = _cosine_mode_integrals(amps, freqs, spec, 1.0, W)
        f_band_sq = _cosine_l2_sq(amps, freqs, W)

        def residual_l2(K):   # the band integral of U_j U_k is lambda_k delta_jk
            b = beta[:K]
            res_sq = f_band_sq - 2.0 * (b @ gamma[:K]) + spec.values[:K] @ (b * b)
            return math.sqrt(max(res_sq, 0.0))
    else:
        rule = gauss_legendre(max(4 * N, 256))
        rule_half, rule_band = rule.scaled(0.5), rule.scaled(W)
        U_half = dpswf_matrix(spec, rule_half.nodes)
        f_half = f(rule_half.nodes)
        beta = (U_half.T * rule_half.weights[None, :]) @ f_half
        U_band = dpswf_matrix(spec, rule_band.nodes)
        f_band = f(rule_band.nodes)

        def residual_l2(K):
            r_band = f_band - U_band[:, :K] @ beta[:K]
            return math.sqrt(abs(float(
                np.sum(rule_band.weights * np.abs(r_band) ** 2))))
    xs = np.linspace(-W, W, SUP_POINTS)
    U_sup = dpswf_matrix(spec, xs)
    f_sup = f(xs)

    def out_of_range(K: int) -> str:
        """Why the Sobolev inequality does not apply at K, or ''."""
        try:
            k_lo, k_hi = sobolev_k_range(N, W)
        except OutOfRangeError as exc:
            return str(exc)
        return "" if k_lo <= K <= k_hi else \
            f"K={K} outside the inequality range [{k_lo}, {k_hi}]"

    @functools.cache
    def sobolev():   # the H^s and the L2 norm on [-1/2, 1/2], or why not
        try:
            return sobolev_norm(f, f.s), sobolev_norm(f, 0.0), ""
        except NumericalFailure as exc:
            return None, None, f"Sobolev norm unavailable: {exc}"

    def fit(K: int) -> ProjectionResult:
        res_l2 = residual_l2(K)
        residual_sup = float(np.max(np.abs(f_sup - U_sup[:, :K] @ beta[:K])))
        sobolev_rhs = sobolev_ok = None
        note = ""
        if f.s is not None:
            note = out_of_range(K)
            if not note:
                hs, l2, note = sobolev()
                if hs is not None:
                    sobolev_rhs = (4.0 / (4.0 + N ** 2) ** (f.s / 2.0) * hs
                                   + math.sqrt(max(float(spec.values[K]), 0.0)) * l2)
                    sobolev_ok = res_l2 <= sobolev_rhs
        return ProjectionResult(
            K=K, interval="native", residual_l2=res_l2,
            residual_sup=residual_sup, coefficients=beta[:K].copy(),
            coefficient_indices=tuple(range(K)), sobolev_rhs=sobolev_rhs,
            sobolev_ok=sobolev_ok, note=note)
    return fit


def project_native(f: TestFunction, spec: DiscreteSpectrum, K: int) -> ProjectionResult:
    """Project f onto the first K native modes; residuals on [-W, W].

    Coefficients are beta_k = <f, U_k> on [-1/2, 1/2] (exact for cosine sums,
    Gauss-Legendre of order >= 4N otherwise). For a cosine sum residual_l2 is
    sqrt(|f|^2 - 2 beta^T gamma + sum_k lambda_k beta_k^2) on [-W, W], whose
    absolute error is about eps |f|^2 / residual_l2: 8.6e-10 relative for
    cos 3x at N = 60, W = 0.3, K = 50. When f has a smoothness ``f.s`` and K
    falls in the admissible range, the Sobolev approximation inequality
    residual <= 4 (4+N^2)^(-s/2) |f|_{H^s} + sqrt(lambda_K) |f|_{L2}
    is evaluated alongside. A sampled f must span [-1/2, 1/2].
    """
    K = checked_index(K, 1, spec.N, "K")
    return _native_frame(f, spec)(K)


def _dilated_frame(f: TestFunction, spec: DiscreteSpectrum):
    """Build everything of a dilated projection that does not depend on K and
    return the per-K fit.

    The frame holds every mode U_k(W x) and f on the Gauss-Legendre rule of
    [-1, 1] and on the sup grid, and the normalised-mode inner products of
    every trusted mode. The fit solves the weighted least-squares problem on
    the first K columns. The modes are real, so a real target is fitted in
    real arithmetic; a complex one keeps its imaginary part.
    """
    _require_span(f, 1.0)
    N, W = spec.N, spec.W
    rule = gauss_legendre(max(4 * N, 256))
    x, w = rule.nodes, rule.weights
    sw = np.sqrt(w)
    raw = dpswf_matrix(spec, W * x)                 # U_k(W x), every mode
    A = raw * sw[:, None]
    fx = f(x)
    rhs = fx * sw
    xs = np.linspace(-1.0, 1.0, SUP_POINTS)
    raw_sup = dpswf_matrix(spec, W * xs)
    f_sup = f(xs)
    # normalised-mode coefficients, only where the eigenvalue is trustworthy
    is_trusted = spec.values >= config.TOLERANCES.floor_untrusted
    if f.cosine_terms is not None:
        amps, freqs = f.cosine_terms
        raw_ip = _cosine_mode_integrals(amps, freqs, spec, W, 1.0)
    else:
        raw_ip = (raw.T * w[None, :]) @ fx
    scale = np.sqrt(W) / np.sqrt(np.where(is_trusted, spec.values, 1.0))
    normalised = raw_ip * scale

    def fit(K: int) -> ProjectionResult:
        coef, _, rank, _ = np.linalg.lstsq(A[:, :K], rhs, rcond=None)
        r = fx - raw[:, :K] @ coef
        residual_l2 = math.sqrt(abs(float(np.sum(w * np.abs(r) ** 2))))
        residual_sup = float(np.max(np.abs(f_sup - raw_sup[:, :K] @ coef)))
        trusted = [k for k in range(K) if is_trusted[k]]
        untrusted = tuple(k for k in range(K) if not is_trusted[k])
        return ProjectionResult(
            K=K, interval="dilated", residual_l2=residual_l2,
            residual_sup=residual_sup, coefficients=normalised[trusted],
            coefficient_indices=tuple(trusted), untrusted=untrusted,
            rank=int(rank))
    return fit


def project_dilated(f: TestFunction, spec: DiscreteSpectrum, K: int) -> ProjectionResult:
    """Project f onto the span of the first K dilated modes on [-1, 1].

    The projection is a least-squares fit on the mode span in the quadrature
    metric, which stays stable even for modes whose eigenvalue sits at the
    double-precision noise floor and cannot be normalised individually; all
    K modes span, as in the reference experiments. Reported coefficients
    <f, u_k> use the orthonormal convention u_k = sqrt(W) U_k(W x) /
    sqrt(lambda_k) and are given for modes above the trust floor 1e-13;
    deeper in-span modes are listed as untrusted. A coefficient's relative
    error grows like eps/lambda_k (eps = 2.2e-16). A sampled f must span [-1, 1].
    """
    K = checked_index(K, 1, spec.N, "K")
    return _dilated_frame(f, spec)(K)


def projection_sweep(f: TestFunction, spec: DiscreteSpectrum, K: int,
                     basis: str = "dilated") -> list[ProjectionResult]:
    """Projections onto the first k modes for every k = 1..K.

    Builds the K-independent frame once and fits each k on it; row k - 1
    equals ``project_dilated(f, spec, k)`` or ``project_native(f, spec, k)``.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    K = checked_index(K, 1, spec.N, "K")
    fit = _dilated_frame(f, spec) if basis == "dilated" else _native_frame(f, spec)
    return [fit(k) for k in range(1, K + 1)]
