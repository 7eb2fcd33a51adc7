"""Projection of test functions onto the wave-function bases, periodic Sobolev
norms, and the truncated Weierstrass function.

Two bases are supported: the native orthonormal family U_k on [-1/2, 1/2]
(residuals measured on [-W, W]) and the dilated family
sqrt(W) U_k(W x) / sqrt(lambda_k), orthonormal on [-1, 1].

Functions that are finite cosine sums (the truncated Weierstrass function)
carry their terms explicitly: their inner products against the trigonometric
basis have closed forms, which sidesteps quadrature for frequencies far above
any resolvable grid. Projections onto the dilated family are computed as a
least-squares fit on the span of the selected modes in the quadrature metric:
dividing by sqrt(lambda_k) is meaningless once lambda_k drops to the
double-precision noise floor, but the span itself stays numerically usable
well past that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .discrete import DiscreteSpectrum, dpswf_matrix, prolate_matrix
from .numkit import IllConditionedError, NumericalFailure, gauss_legendre, snapped_floor

INTERVALS = {"native": 0.5, "dilated": 1.0}


@dataclass(frozen=True)
class TestFunction:
    """Deterministic evaluator x -> f(x), with optional cosine-sum structure.

    ``cosine_terms`` is (amplitudes, frequencies) when f(x) equals
    sum_j a_j cos(omega_j x) exactly; inner products then use closed forms.
    """

    kind: str
    params: dict
    evaluator: object
    cosine_terms: tuple[np.ndarray, np.ndarray] | None = None

    __test__ = False   # keep pytest from collecting this as a test class

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    @classmethod
    def sinc_bandlimited(cls, alpha: float) -> "TestFunction":
        """f(x) = sin(alpha x) / (alpha x), bandlimited to [-alpha, alpha]."""
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return cls(kind="sinc_bandlimited", params={"alpha": float(alpha)},
                   evaluator=lambda x: np.sinc(alpha * x / np.pi))

    @classmethod
    def weierstrass(cls, s: float, tol: float = 1e-12) -> "TestFunction":
        """Truncated Weierstrass sum cos(2^k x) / 2^(k s), tail below 2*tol."""
        amps, freqs = weierstrass_terms(s, tol)
        return cls(kind="weierstrass", params={"s": float(s), "tol": float(tol)},
                   evaluator=lambda x: np.cos(np.multiply.outer(x, freqs)) @ amps,
                   cosine_terms=(amps, freqs))

    @classmethod
    def from_samples(cls, x: np.ndarray, y: np.ndarray) -> "TestFunction":
        """Piecewise-linear interpolant of sample pairs."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0:
            raise ValueError("sample set is empty")
        if x.size != y.size:
            raise ValueError("x and y sample arrays differ in length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("samples must be finite")
        order = np.argsort(x)
        x, y = x[order], y[order]
        return cls(kind="user_samples", params={"n_samples": int(x.size)},
                   evaluator=lambda t: np.interp(t, x, y))

    @classmethod
    def from_callable(cls, fn, name: str = "callable", **params) -> "TestFunction":
        return cls(kind=name, params=params, evaluator=fn)


def weierstrass_terms(s: float, tol: float = 1e-12):
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    n_terms = 0
    while 2.0 ** (-n_terms * s) > tol:
        n_terms += 1
        if n_terms > 1023:
            raise ValueError(f"s={s} needs frequencies beyond 2^1023 to reach "
                             f"tol={tol}; they overflow double precision")
    k = np.arange(n_terms + 1)
    return 2.0 ** (-k * s), 2.0 ** k


def weierstrass(s: float, x) -> np.ndarray | float:
    """Truncated Weierstrass function sum_k cos(2^k x)/2^(k s), k <= K_s,
    where K_s is minimal with 2^(-K_s s) <= 1e-12."""
    values = TestFunction.weierstrass(s)(x)
    return float(values) if np.isscalar(x) else values


# ------------------------------------------------------ closed-form integrals

def _sin_over(t: np.ndarray, T: float) -> np.ndarray:
    """sin(t T)/t with the t -> 0 limit T, elementwise."""
    t = np.asarray(t, dtype=float)
    out = np.where(t == 0.0, T, np.sin(t * T) / np.where(t == 0.0, 1.0, t))
    return out


def cos_pair_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """integral_{-T}^{T} cos(a x) cos(b x) dx, elementwise."""
    return _sin_over(np.asarray(a) - np.asarray(b), T) \
        + _sin_over(np.asarray(a) + np.asarray(b), T)


def sin_pair_integral(a: np.ndarray, b: np.ndarray, T: float) -> np.ndarray:
    """integral_{-T}^{T} sin(a x) sin(b x) dx, elementwise."""
    return _sin_over(np.asarray(a) - np.asarray(b), T) \
        - _sin_over(np.asarray(a) + np.asarray(b), T)


def _cosine_l2_sq(amps: np.ndarray, freqs: np.ndarray, T: float) -> float:
    G = cos_pair_integral(freqs[:, None], freqs[None, :], T)
    return float(amps @ G @ amps)


def _cosine_mode_integrals(amps: np.ndarray, freqs: np.ndarray,
                           spec: DiscreteSpectrum, scale: float, T: float
                           ) -> np.ndarray:
    """<f, U_k(scale .)> over [-T, T] for all modes k, f a cosine sum.

    U_k(scale x) has frequencies nu_n = pi (N-1-2n) scale; the cross terms
    with cos(omega x) integrate in closed form, so arbitrarily large omega
    (Weierstrass terms up to 2^40) cost nothing in accuracy.
    """
    N = spec.N
    n = np.arange(N)
    nu = np.pi * (N - 1 - 2 * n) * scale
    eps = np.where(n % 2 == 0, 1.0 + 0.0j, 1.0j)
    # integral cos(omega x) e^{+i nu x} = integral cos(omega x) cos(nu x)
    cross = cos_pair_integral(freqs[:, None], nu[None, :], T)   # (J, N)
    per_mode = (amps @ cross) @ spec.dpss                        # (N,)
    return np.conj(eps) * per_mode


@dataclass(frozen=True)
class SobolevSpec:
    """Periodic Sobolev data: sum over the lattice of (1+n^2)^s |c_n|^2.

    Coefficients are in the orthonormal-basis convention, so the s = 0 norm
    is the L2 norm of the interval. ``coefficients`` is None on the
    closed-form path (cosine sums spread over ~1e11 lattice points).
    """

    s: float
    interval: str
    norm: float
    coefficients: np.ndarray | None = None
    indices: np.ndarray | None = None
    grid_size: int | None = None
    note: str = ""


def sobolev_norm(f: TestFunction, s: float, interval: str = "native") -> SobolevSpec:
    """Periodic Sobolev norm of f on the stated interval.

    Cosine sums with s in {0, 1} use exact pairwise integrals of f and f'
    (the even periodisation is continuous at the seam, so the derivative
    Parseval identity applies). Everything else goes through trapezoidal
    Fourier coefficients on a doubling grid; failure to stabilise to
    1e-8 relative raises NumericalFailure.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if interval not in INTERVALS:
        raise ValueError(f"interval must be one of {tuple(INTERVALS)}")
    T = INTERVALS[interval]
    if f.cosine_terms is not None and float(s) in (0.0, 1.0):
        amps, freqs = f.cosine_terms
        l2_sq = _cosine_l2_sq(amps, freqs, T)
        if s == 0.0:
            norm_sq = l2_sq
        else:
            Gp = sin_pair_integral(freqs[:, None], freqs[None, :], T)
            deriv_sq = float((amps * freqs) @ Gp @ (amps * freqs))
            kappa = 2.0 * np.pi / (2.0 * T)   # lattice frequency step
            norm_sq = l2_sq + deriv_sq / kappa ** 2
        return SobolevSpec(s=float(s), interval=interval,
                           norm=math.sqrt(norm_sq),
                           note="closed-form cosine-sum path")
    prev = None
    for m in range(8, 25):
        G = 2 ** m
        x = -T + 2.0 * T * np.arange(G) / G
        fx = np.asarray(f(x), dtype=complex)
        coeff = np.sqrt(2.0 * T) * np.fft.fft(fx) / G
        n = np.fft.fftfreq(G, d=1.0 / G)
        norm_sq = float(np.sum((1.0 + n ** 2) ** s * np.abs(coeff) ** 2))
        if prev is not None and abs(norm_sq - prev) <= TOL.sobolev_rel * norm_sq:
            order = np.argsort(n)
            return SobolevSpec(s=float(s), interval=interval,
                               norm=math.sqrt(norm_sq),
                               coefficients=coeff[order], indices=n[order],
                               grid_size=G)
        prev = norm_sq
    raise NumericalFailure(
        f"Sobolev norm did not stabilise under grid doubling (s={s}, "
        f"interval={interval}); the function's spectrum is not resolvable")


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting a test function onto K wave-function modes."""

    K: int
    interval: str
    residual_l2: float
    residual_sup: float
    coefficients: np.ndarray
    coefficient_indices: tuple[int, ...]
    excluded: tuple[int, ...] = ()
    untrusted: tuple[int, ...] = ()
    rank: int | None = None
    lambda_floor: float | None = None
    sobolev_rhs: float | None = None
    sobolev_ok: bool | None = None
    note: str = ""


def _sup_grid(T: float, n: int = 2001) -> np.ndarray:
    return np.linspace(-T, T, n)


def sobolev_k_range(N: int, W: float) -> tuple[int, int]:
    """Valid truncation range for the Sobolev approximation inequality."""
    c = math.pi * N * W
    lo = snapped_floor(2.0 * N * W) + math.log(c) + 6.0
    return math.ceil(lo - 1e-12), N - 1


def project_native(f: TestFunction, spec: DiscreteSpectrum, K: int,
                   s: float | None = None) -> ProjectionResult:
    """Project f onto the first K native modes; residuals on [-W, W].

    Coefficients are beta_k = <f, U_k> on [-1/2, 1/2] (exact for cosine sums,
    Gauss-Legendre of order >= 4N otherwise). When s is known and K falls in
    the admissible range, the Sobolev approximation inequality
    residual <= 4 (4+N^2)^(-s/2) |f|_{H^s} + sqrt(lambda_K) |f|_{L2}
    is evaluated alongside.
    """
    N, W = spec.N, spec.W
    if not 1 <= K <= N:
        raise ValueError(f"K={K} outside [1, {N}]")
    M = max(4 * N, 256)
    rule_half = gauss_legendre(M).scaled(0.5)
    rule_band = gauss_legendre(M).scaled(W)
    if f.cosine_terms is not None:
        amps, freqs = f.cosine_terms
        beta = _cosine_mode_integrals(amps, freqs, spec, 1.0, 0.5)
        gamma = _cosine_mode_integrals(amps, freqs, spec, 1.0, W)
        f_band_sq = _cosine_l2_sq(amps, freqs, W)
        f_half_sq = _cosine_l2_sq(amps, freqs, 0.5)
        n_idx = np.arange(N)
        eps = np.where(n_idx % 2 == 0, 1.0 + 0.0j, 1.0j)
        band_gram = (np.outer(eps, np.conj(eps))
                     * (spec.dpss.T @ prolate_matrix(spec.params) @ spec.dpss))
        b = beta[:K]
        res_sq = (f_band_sq - 2.0 * np.real(np.conj(b) @ gamma[:K])
                  + np.real(np.conj(b) @ band_gram[:K, :K] @ b))
        residual_l2 = math.sqrt(max(res_sq, 0.0))
    else:
        U_half = dpswf_matrix(spec, rule_half.nodes)
        f_half = np.asarray(f(rule_half.nodes), dtype=complex)
        beta = (U_half.conj().T * rule_half.weights[None, :]) @ f_half
        f_half_sq = float(np.sum(rule_half.weights * np.abs(f_half) ** 2))
        U_band = dpswf_matrix(spec, rule_band.nodes, np.arange(K))
        f_band = np.asarray(f(rule_band.nodes), dtype=complex)
        r_band = f_band - U_band @ beta[:K]
        residual_l2 = math.sqrt(abs(float(
            np.sum(rule_band.weights * np.abs(r_band) ** 2))))
    xs = _sup_grid(W)
    p_sup = dpswf_matrix(spec, xs, np.arange(K)) @ beta[:K]
    residual_sup = float(np.max(np.abs(np.asarray(f(xs), dtype=complex) - p_sup)))

    if s is None:
        s = f.params.get("s")
    sobolev_rhs = sobolev_ok = None
    note = ""
    if s is not None:
        k_lo, k_hi = sobolev_k_range(N, W)
        if k_lo <= K <= k_hi and spec.params.bandwidth >= 1.0:
            try:
                hs = sobolev_norm(f, s, "native").norm
                sobolev_rhs = (4.0 / (4.0 + N ** 2) ** (s / 2.0) * hs
                               + math.sqrt(max(float(spec.values[K]), 0.0))
                               * math.sqrt(f_half_sq))
                sobolev_ok = residual_l2 <= sobolev_rhs
            except NumericalFailure as exc:
                note = f"Sobolev norm unavailable: {exc}"
        else:
            note = f"K={K} outside the inequality range [{k_lo}, {k_hi}]"
    return ProjectionResult(
        K=K, interval="native", residual_l2=residual_l2,
        residual_sup=residual_sup, coefficients=beta[:K],
        coefficient_indices=tuple(range(K)), sobolev_rhs=sobolev_rhs,
        sobolev_ok=sobolev_ok, note=note)


def project_dilated(f: TestFunction, spec: DiscreteSpectrum, K: int,
                    lambda_floor: float | None = None) -> ProjectionResult:
    """Project f onto the span of the first K dilated modes on [-1, 1].

    The projection is a least-squares fit on the mode span in the quadrature
    metric, which stays stable even for modes whose eigenvalue sits at the
    double-precision noise floor and cannot be normalised individually; by
    default all K modes span (the reference experiments use the full basis).
    Passing ``lambda_floor`` excludes modes with lambda_k below it
    (recorded in the result). Reported coefficients <f, u_k> use the
    orthonormal convention u_k = sqrt(W) U_k(W x)/sqrt(lambda_k) and are
    given for modes above the trust floor 1e-13; deeper in-span modes are
    listed as untrusted.
    """
    N, W = spec.N, spec.W
    if not 1 <= K <= N:
        raise ValueError(f"K={K} outside [1, {N}]")
    if lambda_floor is None:
        included = list(range(K))
    else:
        included = [k for k in range(K) if spec.values[k] >= lambda_floor]
    excluded = tuple(k for k in range(K) if k not in included)
    if not included:
        raise IllConditionedError(
            f"all {K} modes fall below the floor {lambda_floor:.1e}")
    rule = gauss_legendre(max(4 * N, 256))
    x, w = rule.nodes, rule.weights
    sw = np.sqrt(w)
    raw = dpswf_matrix(spec, W * x, np.array(included))     # U_k(W x)
    A = raw * sw[:, None]
    fx = np.asarray(f(x), dtype=complex)
    coef, _, rank, _ = np.linalg.lstsq(A, fx * sw, rcond=None)
    r = fx - raw @ coef
    residual_l2 = math.sqrt(abs(float(np.sum(w * np.abs(r) ** 2))))
    xs = _sup_grid(1.0)
    raw_sup = dpswf_matrix(spec, W * xs, np.array(included))
    residual_sup = float(np.max(np.abs(np.asarray(f(xs), dtype=complex)
                                       - raw_sup @ coef)))
    # normalised-mode coefficients, only where the eigenvalue is trustworthy
    trusted = [k for k in included if spec.values[k] >= TOL.floor_untrusted]
    untrusted = tuple(k for k in included if k not in trusted)
    if f.cosine_terms is not None:
        amps, freqs = f.cosine_terms
        raw_ip = _cosine_mode_integrals(amps, freqs, spec, W, 1.0)
        raw_ip = raw_ip[trusted]
    else:
        raw_t = dpswf_matrix(spec, W * x, np.array(trusted, dtype=int))
        raw_ip = (raw_t.conj().T * w[None, :]) @ fx
    scale = np.sqrt(W) / np.sqrt(spec.values[trusted])
    coefficients = raw_ip * scale
    return ProjectionResult(
        K=K, interval="dilated", residual_l2=residual_l2,
        residual_sup=residual_sup, coefficients=coefficients,
        coefficient_indices=tuple(trusted), excluded=excluded,
        untrusted=untrusted, rank=int(rank), lambda_floor=lambda_floor)


def dilated_gram(spec: DiscreteSpectrum, modes) -> np.ndarray:
    """Quadrature Gram matrix of the normalised dilated modes on [-1, 1]."""
    modes = np.asarray(modes, dtype=int)
    N, W = spec.N, spec.W
    rule = gauss_legendre(max(4 * N, 256))
    U = dpswf_matrix(spec, W * rule.nodes, modes)
    U = U * np.sqrt(W) / np.sqrt(spec.values[modes])[None, :]
    return (U.conj().T * rule.weights[None, :]) @ U
