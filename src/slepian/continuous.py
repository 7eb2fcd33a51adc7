"""Sinc-kernel operator on [-1, 1]: eigenvalues, eigenfunctions, related tools.

The operator maps f to integral of sin(c(x-y))/(pi(x-y)) f(y) dy over
[-1, 1]. ``legendre_spectrum`` diagonalises the commuting prolate
differential operator, whose eigenfunctions ``projector_distance`` reads;
``nystrom_spectrum``, the kernel discretised on a Gauss-Legendre grid, is
the independent oracle the tests hold the Legendre route to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .discrete import DiscreteParams, DiscreteSpectrum, dpswf_matrix
from .numkit import (IllConditionedError, NumericalFailure, OutOfRangeError,
                     QuadratureRule, SymTridiag, checked_index, eig_sym,
                     eig_symtridiag, gauss_legendre, parity_block,
                     parity_spectrum, sinc_kernel, snapped_floor)


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Nystrom eigenvalues of the sinc kernel on [-1, 1]; mode n has parity (-1)^n.

    ``grid_vectors`` columns are l2-orthonormal eigenvectors of the
    sqrt(w)-scaled matrix on ``rule``: samples of sqrt(w_i) * psi_n(x_i).
    """

    values: np.ndarray
    grid_vectors: np.ndarray
    rule: QuadratureRule


def default_order(c: float) -> int:
    """Quadrature size resolving the kernel's oscillation with margin."""
    return max(64, math.ceil(2.0 * c) + 60)


def _sinc_kernel_matrix(c: float, x: np.ndarray, w: np.ndarray,
                       rows: slice = slice(None)) -> np.ndarray:
    d = x[rows, None] - x[None, :]
    K = sinc_kernel(c * d, np.pi * d, c / np.pi)
    # outer(sqrt(w), sqrt(w)) is exactly symmetric, so S inherits exact symmetry from K
    return np.outer(np.sqrt(w[rows]), np.sqrt(w)) * K


def _check_bandwidth(c: float) -> float:
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"bandwidth c must be positive and finite, got {c}")
    return float(c)   # a float32 c would keep the trace 2c/pi in float32


def _check_trace(values: np.ndarray, c: float) -> None:   # the trace is 2c/pi
    defect = abs(values.sum() - 2.0 * c / math.pi)
    if not defect <= config.TOLERANCES.trace_continuous_rel * (2.0 * c / math.pi):
        raise NumericalFailure(f"sinc-kernel trace defect {defect:.3e} at c={c}")


def _prolate_blocks(c: float, M: int) -> tuple[SymTridiag, SymTridiag]:
    """Even and odd parity blocks of the prolate operator
    -d/dx (1 - x^2) d/dx + c^2 x^2 in the normalised Legendre polynomials
    sqrt(k + 1/2) P_k, k < M; the operator couples degree k to k +- 2 only."""
    k = np.arange(M, dtype=float)
    diagonal = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    k = k[:-2]
    offdiag = (c * c * (k + 1) * (k + 2)
               / ((2 * k + 3) * np.sqrt((2 * k + 1) * (2 * k + 5))))
    return (SymTridiag(diagonal[0::2], offdiag[0::2]),
            SymTridiag(diagonal[1::2], offdiag[1::2]))


def _legendre_route(c: float, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``legendre_spectrum``'s values mu and the normalised-Legendre
    coefficients of psi_n, descending chi as solved: columns n = ..., 2, 0 of
    Ve (degrees 0, 2, ...) and n = ..., 3, 1 of Vo (degrees 1, 3, ...)."""
    c = _check_bandwidth(c)
    # mu_n < 1e-17 from plunge bound n0 on; psi_n needs degrees ~max(n, c + 14 c^(1/3))
    n0 = math.ceil(2.0 * c / math.pi + 4.0 * math.log1p(c)) + 24
    n = max(checked_index(count, 0, math.inf, "count"), n0)
    M = max(n, math.ceil(c + 14.0 * c ** (1.0 / 3.0))) + 40
    blocks = _prolate_blocks(c, M)
    # an ascending view would send psi0 to BLAS and move its last bits
    Ve, Vo = (eig_symtridiag(T).vectors[:, -m:]
              for T, m in zip(blocks, ((n + 1) // 2, n // 2)))
    tails = (Ve[-2:, -((n0 + 1) // 2):], Vo[-2:, -(n0 // 2):])
    if not max(np.max(np.abs(t)) for t in tails) <= np.finfo(float).eps:
        raise NumericalFailure(f"Legendre expansion unresolved at c={c}, M={M}")
    k = 2 * np.arange(blocks[0].order)
    p0 = np.cumprod(np.append(1.0, (1.0 - k[1:]) / k[1:]))   # P_k(0), k even
    psi0 = (np.sqrt(k + 0.5) * p0) @ Ve
    dpsi0 = ((k + 1) * np.sqrt(k + 1.5) * p0)[:blocks[1].order] @ Vo   # P'_{k+1}(0)
    mu = np.empty(n)
    mu[0::2] = (c / math.pi * (Ve[0] / psi0) ** 2)[::-1]
    mu[1::2] = (c ** 3 / (3.0 * math.pi) * (Vo[0] / dpsi0) ** 2)[::-1]
    _check_trace(mu, c)
    return mu, Ve, Vo


def legendre_spectrum(c: float, count: int) -> np.ndarray:
    """Sinc-kernel eigenvalues mu_n on [-1, 1] in the order of the prolate
    operator's eigenvalues chi_n: at least ``count``, and always enough to
    match the trace 2c/pi to ``Tolerances.trace_continuous_rel``.

    The operator's eigenfunctions psi_n (parity of n) are the kernel's. Both
    parity blocks go through ``eig_symtridiag`` once, and the last two Legendre
    coefficients beta of psi_n must be below machine epsilon for each n below
    the plunge bound n0. Values from n0 on, below 1e-17, are untrusted and may
    be 0.0. Past n0 and c + 14 c^(1/3), count sizes the basis and moves the last
    digits (1.4e-14 at c = 6 pi). Then mu_n = c lambda_n^2 / (2 pi) with
    lambda_n = sqrt(2) beta_0 / psi_n(0) for even n and c sqrt(2/3) beta_1 /
    psi_n'(0) for odd n (Xiao, Rokhlin & Yarvin, Inverse Problems 17, 2001).
    """
    return _legendre_route(c, count)[0]


def nystrom_spectrum(c: float, M: int | None = None) -> ContinuousSpectrum:
    """Sinc-kernel eigenvalues on [-1, 1] by the Nystrom method: an oracle for
    ``legendre_spectrum`` that the library itself does not call.

    The kernel is sampled on the memoised O(n) Gauss-Legendre rule of order
    ``M``. The rule is mirror-symmetric, so the scaled kernel matrix splits
    into even and odd index-reversal blocks, each built from kernel rows (the
    M x M matrix never is) and diagonalised by the checked ``eig_sym`` before
    the next is built; even modes fill columns 0::2, odd ones 1::2. The
    eigenvalues must also sum to the operator trace 2c/pi. ``M`` defaults to
    ``default_order(c)`` and may not be smaller.
    """
    c = _check_bandwidth(c)
    min_order = default_order(c)
    M = min_order if M is None else M
    if M < min_order:
        raise ValueError(f"quadrature order {M} below default {min_order}")
    rule = gauss_legendre(M)
    values, vectors = parity_spectrum(M, lambda odd: eig_sym(parity_block(
        lambda i, j: _sinc_kernel_matrix(c, rule.nodes, rule.weights, slice(i, j)),
        M, odd)))
    _check_trace(values, c)
    return ContinuousSpectrum(values=values, grid_vectors=vectors, rule=rule)


def _lag_integral(kernel, length: float, c: float) -> float:
    """Integral of kernel(x - y)^2 over [0, length]^2 for an even kernel, as
    2 * integral_0^length (length - t) kernel(t)^2 dt; the rule resolves
    kernel(t) ~ sin(2 c t / length)."""
    rule = gauss_legendre(max(128, math.ceil(4.0 * c / math.pi) + 64))
    t = length / 2.0 * (1.0 + rule.nodes)
    return length * float(np.sum(rule.weights * (length - t) * kernel(t) ** 2))


def hs_norm_sq(c: float, values: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm of the sinc-kernel operator on [-1, 1]:
    the sum of the squared eigenvalues ``values`` at this c (as from
    ``legendre_spectrum``), cross-checked against the lag integral of the
    squared kernel (``_lag_integral``)."""
    value = float(np.sum(values ** 2))
    quad = _lag_integral(lambda t: sinc_kernel(c * t, np.pi * t, c / np.pi), 2.0, c)
    rel = config.TOLERANCES.hs_cross_rel
    if not abs(value - quad) <= rel * max(abs(quad), 1e-300):
        raise NumericalFailure(
            f"HS norm cross-check failed at c={c}: {value} vs {quad}")
    return value


def hs_lower_bound(c: float) -> float:
    """Closed-form lower bound 2c/pi - log(2c/pi)/pi^2 - 0.45 for hs_norm_sq,
    stated for c >= 1 (it fails below c ~ 0.02)."""
    if not c >= 1.0:
        raise OutOfRangeError(f"c={c:g} below 1")
    t = 2.0 * c / math.pi
    return t - math.log(t) / math.pi ** 2 - 0.45


def _csc_minus_inverse(x: np.ndarray) -> np.ndarray:
    """1/sin(x) - 1/x = (x - sin x) / (x sin x) for 0 < x < pi; below x = 2
    x - sin x = x^3 sum_{k<=10} (-1)^k x^(2k) / (2k + 3)!, which does not cancel;
    below x = 1e-100, where x sin x underflows, it is x/6 to double precision."""
    s, y = np.sin(x), x * x
    coefficients = [(-1) ** k / math.factorial(2 * k + 3) for k in range(10, -1, -1)]
    return np.divide(np.where(x < 2.0, x * y * np.polyval(coefficients, y), x - s),
                     x * s, out=x / 6.0, where=x > 1e-100)


def kernel_hs_distance(N: int, W: float) -> float:
    """Hilbert-Schmidt distance on [-W, W]^2 between the Dirichlet kernel
    sin(pi N (x-y))/sin(pi (x-y)) and the sinc kernel with bandwidth pi N.

    Both depend on x - y only: the squared distance is the lag integral of
    sin(pi N t)^2 (1/sin(pi t) - 1/(pi t))^2 over [0, 2W] (``_lag_integral``).
    """
    N, W = (params := DiscreteParams(N, W)).N, params.W
    return math.sqrt(_lag_integral(
        lambda t: np.sin(np.pi * N * t) * _csc_minus_inverse(np.pi * t),
        2.0 * W, np.pi * N * W))


def kernel_hs_distance_bound(W: float) -> float:
    """Closed-form bound 4 pi^2 W^3 / (3 sin(2 pi W)) for kernel_hs_distance."""
    if not 0.0 < W < 0.5:
        raise OutOfRangeError(f"W must lie in (0, 0.5), got {W}")
    return 4.0 * math.pi ** 2 * W ** 3 / (3.0 * math.sin(2.0 * math.pi * W))


def plunge_index(c: float, b: float) -> int:
    """Index n(c, b) = floor(2c/pi + (2b/pi) log 2 + (b/pi) log c) around
    which the sinc-kernel eigenvalues cross a fixed level.

    At b = 1 its eigenvalue falls slowly toward 1/(1 + e^{pi b}) = 0.0414:
    ``legendre_spectrum`` gives 0.112, 0.086, 0.070 and 0.053 at c = 10, 50,
    200 and 1000. b = 0 gives the centre of the plunge region floor(2c/pi).
    """
    for name, value in (("c", c), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not c > 1:
        raise ValueError(f"plunge index needs c > 1, got {c}")
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    x = 2.0 * c / math.pi + (2.0 * b / math.pi) * math.log(2.0) \
        + (b / math.pi) * math.log(c)
    return snapped_floor(x)


def eigenspace_bound(N: int, W: float, b: float) -> tuple[float, bool]:
    """Projector-distance bound and whether its validity condition holds.

    Returns ``(bound, condition_ok)``. ``condition_ok`` requires
    b > log(3)/pi, c = pi N W below the admissible ceiling
    exp(alpha_b sin(2 pi W)/W^3 - 2 log 2 - pi/b), and
    log c + 2 log 2 + pi/b > 0, that is a positive bound; the unspecified
    lower threshold on c cannot be checked and is not enforced.
    """
    N, W = (params := DiscreteParams(N, W)).N, params.W
    if not b > math.log(3.0) / math.pi:
        raise ValueError(f"b must exceed log(3)/pi = {math.log(3)/math.pi:.4f}")
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    c = math.pi * N * W
    denom = 1.0 - 3.0 / (1.0 + math.exp(min(math.pi * b, 700.0)))   # e^700 < max float
    alpha = 3.0 / (32.0 * b * math.pi) * denom
    # W^3 underflows at tiny W; dividing by W three times gives +inf instead
    ceiling_log = alpha * (math.sin(2.0 * math.pi * W) / W) / W / W \
        - 2.0 * math.log(2.0) - math.pi / b
    gap = math.log(c) + 2.0 * math.log(2.0) + math.pi / b   # the bound's sign
    condition_ok = 0.0 < gap and math.log(c) <= ceiling_log
    bound = (W ** 3 * (4.0 * b * math.pi / (3.0 * math.sin(2.0 * math.pi * W)))
             * gap / denom)
    if not math.isfinite(bound):
        raise ValueError(f"b={b:g} gives a non-finite bound")
    return bound, condition_ok


def projector_distance(disc: DiscreteSpectrum, K: int) -> float:
    """Spectral-norm distance between two rank-K spectral projectors.

    On the Gauss-Legendre rule of order M = ``default_order(c)``, c = pi N W,
    which resolves the dilated modes (trigonometric polynomials of frequency
    below c): the span A of the first K sinc-kernel eigenfunctions psi_n,
    summed from the L Legendre coefficients of ``legendre_spectrum``'s solve
    and certified by their quadrature Gram against I, versus the first K
    dilated wave functions U_k(W x) of ``disc``, orthonormalised (Q) under
    the weights. psi_n follow the well-separated chi_n, so a cut inside a
    cluster of sinc-kernel values still names one subspace. It is the sine of
    the largest principal angle, ||A A^T - Q Q^T||_2 = ||(I - A A^T) Q||_2
    (Bjorck & Golub, Math. Comp. 27, 1973), in O(M L K) and no M x M array.
    """
    N, W = disc.N, disc.W
    K = checked_index(K, 0, N, "K")
    if K == 0:
        return 0.0
    tol = config.TOLERANCES
    if not disc.values[K - 1] >= tol.floor_untrusted:   # U_k(W x) sinks under rounding
        raise IllConditionedError(
            f"eigenvalue {disc.values[K - 1]:.3e} of mode {K - 1} below "
            f"{tol.floor_untrusted:.0e}; the rank-K projector is not resolvable")
    c = math.pi * N * W
    _, Ve, Vo = _legendre_route(c, K)
    rule = gauss_legendre(default_order(c))
    x, k = rule.nodes, np.arange(1.0, len(Ve) + len(Vo))
    # p_k = sqrt(k + 1/2) P_k: x p_k = a_(k+1) p_(k+1) + a_k p_(k-1), a_k = k / sqrt(4k^2 - 1)
    a, P = k / np.sqrt(4.0 * k * k - 1.0), np.empty((len(k) + 1, len(x)))
    P[0], P[1] = math.sqrt(0.5), math.sqrt(1.5) * x
    for j in range(1, len(k)):
        P[j + 1] = (x * P[j] - a[j - 1] * P[j - 1]) / a[j]
    sw = np.sqrt(rule.weights)[:, None]
    A = sw * np.hstack([P[0::2].T @ Ve[:, ::-1][:, :(K + 1) // 2],
                        P[1::2].T @ Vo[:, ::-1][:, :K // 2]])
    defect = np.max(np.abs(A.T @ A - np.eye(K)))
    if not defect <= tol.orthonormality:
        raise NumericalFailure(f"sinc-kernel eigenfunction Gram defect {defect:.3e} "
                               f"exceeds {tol.orthonormality:.1e} at c={c}")
    Q, _ = np.linalg.qr(sw * dpswf_matrix(disc, W * x, np.arange(K)))
    return float(np.linalg.norm(Q - A @ (A.T @ Q), 2))
