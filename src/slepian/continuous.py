"""Sinc-kernel operator on an interval: Nystrom eigenvalues and related tools.

The operator maps f to integral of sin(c(x-y))/(pi(x-y)) f(y) dy over the
interval. Discretising on a Gauss-Legendre grid with the symmetric
sqrt(w)-scaling gives a symmetric matrix whose eigenvalues approximate the
operator's; accuracy is certified by recomputing at doubled order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .discrete import DiscreteParams, dpswf_matrix, spectrum
from .numkit import (IllConditionedError, NumericalFailure, QuadratureRule,
                     eig_sym, gauss_legendre, parity_blocks, parity_vectors,
                     snapped_floor)


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Nystrom eigenvalues (descending) of the sinc kernel on [-h, h].

    ``grid_vectors`` columns are l2-orthonormal eigenvectors of the
    sqrt(w)-scaled matrix, i.e. samples of sqrt(w_i) * psi_n(x_i).
    """

    c: float
    values: np.ndarray
    grid_vectors: np.ndarray
    rule: QuadratureRule
    order: int
    halfwidth: float = 1.0


@dataclass(frozen=True)
class PlungeIndex:
    """Index around which the sinc-kernel eigenvalues cross a fixed level."""

    c: float
    b: float
    index: int


def default_order(c: float) -> int:
    """Quadrature size resolving the kernel's oscillation with margin."""
    return max(64, math.ceil(2.0 * c) + 60)


def _sinc_kernel_matrix(c: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    d = x[:, None] - x[None, :]
    K = np.empty_like(d)
    np.divide(np.sin(c * d), np.pi * d, out=K, where=(d != 0))
    np.fill_diagonal(K, c / np.pi)
    # outer(sw, sw) is exactly symmetric, so S inherits exact symmetry from K
    sw = np.sqrt(w)
    return np.outer(sw, sw) * K


def _nystrom_values(c: float, M: int, halfwidth: float):
    """Eigen-decomposition of the sqrt(w)-scaled kernel matrix S by parity.

    The rule is mirror-symmetric, so S commutes with the index reversal J and
    splits into even and odd blocks of half the size (``parity_blocks``).
    Each block goes through ``eig_sym`` and its output contract; eigenvectors
    of S are assembled as [u; +-Ju] / sqrt(2) (``parity_vectors``).
    """
    rule = gauss_legendre(M).scaled(halfwidth)
    # S is dropped once split, which keeps it out of the solves' peak memory
    even, odd = parity_blocks(_sinc_kernel_matrix(c, rule.nodes, rule.weights))
    even_sys, odd_sys = eig_sym(even), eig_sym(odd)
    del even, odd
    vectors = parity_vectors(even_sys.vectors, odd_sys.vectors, M)
    values = np.concatenate([even_sys.values, odd_sys.values])
    order = np.argsort(values, kind="stable")[::-1]
    return values[order], vectors[:, order], rule


def nystrom_spectrum(c: float, M: int | None = None, halfwidth: float = 1.0,
                     check_convergence: bool = True) -> ContinuousSpectrum:
    """Sinc-kernel eigenvalues on [-halfwidth, halfwidth] by the Nystrom method.

    The kernel is sampled on the memoised Newton Gauss-Legendre rule of order
    ``M``. The rule is mirror-symmetric, so the scaled kernel matrix splits
    into even and odd index-reversal blocks, each diagonalised by the
    contract-checked ``eig_sym``; eigenvalues must also sum to the operator
    trace 2 c halfwidth / pi.

    ``M`` defaults to ``default_order(c * halfwidth)`` and may not be smaller.
    With ``check_convergence`` the spectrum is recomputed at order 2M and each
    eigenvalue above 1e-12 must agree to 1e-10, otherwise the discretisation
    is declared unconverged.
    """
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"bandwidth c must be positive and finite, got {c}")
    if not (halfwidth > 0 and math.isfinite(halfwidth)):
        raise ValueError(f"halfwidth must be positive and finite, got {halfwidth}")
    min_order = default_order(c * halfwidth)
    if M is None:
        M = min_order
    if M < min_order:
        raise ValueError(f"quadrature order {M} below default {min_order}")
    values, vectors, rule = _nystrom_values(c, M, halfwidth)
    trace_defect = abs(values.sum() - 2.0 * c * halfwidth / math.pi)
    if trace_defect > TOL.trace_continuous_rel * (2.0 * c * halfwidth / math.pi):
        raise NumericalFailure(
            f"sinc-kernel trace defect {trace_defect:.3e} at c={c}")
    if check_convergence:
        refined, _, _ = _nystrom_values(c, 2 * M, halfwidth)
        mask = values >= TOL.floor_checks
        drift = np.max(np.abs(values[mask] - refined[:M][mask]),
                       initial=0.0)
        if drift > TOL.mesh_stability:
            raise NumericalFailure(
                f"mesh refinement moved an eigenvalue by {drift:.3e} at c={c}; "
                "increase the quadrature order")
    return ContinuousSpectrum(c=float(c), values=values,
                              grid_vectors=vectors, rule=rule,
                              order=M, halfwidth=float(halfwidth))


def hs_norm_sq(c: float, M: int | None = None,
               values: np.ndarray | None = None) -> float:
    """Squared Hilbert-Schmidt norm of the sinc-kernel operator on [-1, 1].

    Computed as the sum of squared Nystrom eigenvalues (``values``, when the
    caller already holds an order-M spectrum at this c, else solved here) and
    cross-checked against an independent two-dimensional quadrature of the
    squared kernel on a staggered grid: sum_ij w_i w_j K_ij^2 is the squared
    Frobenius norm of the scaled kernel matrix.
    """
    if values is None:
        values = nystrom_spectrum(c, M, check_convergence=False).values
    value = float(np.sum(values ** 2))
    check_rule = gauss_legendre(len(values) + 37)
    S = _sinc_kernel_matrix(c, check_rule.nodes, check_rule.weights)
    quad = float(np.vdot(S, S))
    if not abs(value - quad) <= TOL.hs_cross_rel * max(abs(quad), 1e-300):
        raise NumericalFailure(
            f"HS norm cross-check failed at c={c}: {value} vs {quad}")
    return value


def hs_lower_bound(c: float) -> float:
    """Closed-form lower bound 2c/pi - log(2c/pi)/pi^2 - 0.45 for hs_norm_sq.

    Valid once c is moderately large; it is vacuous (negative) for small c
    and is checked in the ledger only at the bandwidths where it applies.
    """
    if not c > 0:
        raise ValueError(f"bandwidth c must be positive, got {c}")
    t = 2.0 * c / math.pi
    return t - math.log(t) / math.pi ** 2 - 0.45


def kernel_hs_distance(N: int, W: float, quad_order: int | None = None) -> float:
    """Hilbert-Schmidt distance on [-W, W]^2 between the Dirichlet kernel
    sin(pi N (x-y))/sin(pi (x-y)) and the sinc kernel with bandwidth pi N.

    Evaluated by two-dimensional Gauss-Legendre quadrature; the integrand's
    diagonal value is 0 (both kernels tend to N).
    """
    N = DiscreteParams(N, W).N
    cN = math.pi * N
    Q = quad_order or max(128, math.ceil(4 * N * W) + 64)
    rule = gauss_legendre(Q).scaled(W)
    x, w = rule.nodes, rule.weights
    d = x[:, None] - x[None, :]
    num = np.sin(cN * d)
    dirichlet = np.empty_like(d)
    np.divide(num, np.sin(np.pi * d), out=dirichlet, where=(d != 0))
    sinc = np.empty_like(d)
    np.divide(num, np.pi * d, out=sinc, where=(d != 0))
    diff = dirichlet - sinc
    np.fill_diagonal(diff, 0.0)
    return float(math.sqrt(np.einsum("i,ij,j->", w, diff ** 2, w)))


def kernel_hs_distance_bound(W: float) -> float:
    """Closed-form bound 4 pi^2 W^3 / (3 sin(2 pi W)) for kernel_hs_distance."""
    if not 0.0 < W < 0.5:
        raise ValueError(f"W must lie in (0, 0.5), got {W}")
    return 4.0 * math.pi ** 2 * W ** 3 / (3.0 * math.sin(2.0 * math.pi * W))


def plunge_index(c: float, b: float) -> PlungeIndex:
    """Index n(c, b) = floor(2c/pi + (2b/pi) log 2 + (b/pi) log c).

    At this index the eigenvalue tends to 1/(1 + e^{pi b}) as c grows; b = 0
    gives the centre of the plunge region floor(2c/pi).
    """
    if not c > 1:
        raise ValueError(f"plunge index needs c > 1, got {c}")
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    x = 2.0 * c / math.pi + (2.0 * b / math.pi) * math.log(2.0) \
        + (b / math.pi) * math.log(c)
    return PlungeIndex(c=float(c), b=float(b), index=snapped_floor(x))


def eigenspace_bound(N: int, W: float, b: float) -> tuple[float, bool]:
    """Projector-distance bound and whether its validity condition holds.

    Returns ``(bound, condition_ok)``. ``condition_ok`` requires
    b > log(3)/pi and pi N W below the admissible ceiling
    exp(alpha_b sin(2 pi W)/W^3 - 2 log 2 - pi/b); the unspecified lower
    threshold on pi N W cannot be checked and is not enforced.
    """
    if not 0.0 < W < 0.5:
        raise ValueError(f"W must lie in (0, 0.5), got {W}")
    if not b > math.log(3.0) / math.pi:
        raise ValueError(f"b must exceed log(3)/pi = {math.log(3)/math.pi:.4f}")
    c = math.pi * N * W
    denom = 1.0 - 3.0 / (1.0 + math.exp(math.pi * b))
    alpha = 3.0 / (32.0 * b * math.pi) * denom
    ceiling_log = alpha * math.sin(2.0 * math.pi * W) / W ** 3 \
        - 2.0 * math.log(2.0) - math.pi / b
    condition_ok = math.log(c) <= ceiling_log
    bound = (W ** 3 * (4.0 * b * math.pi / (3.0 * math.sin(2.0 * math.pi * W)))
             * (math.log(c) + 2.0 * math.log(2.0) + math.pi / b) / denom)
    return bound, condition_ok


def projector_distance(N: int, W: float, K: int, disc=None,
                       quad_order: int | None = None) -> float:
    """Spectral-norm distance between two rank-K spectral projectors.

    On a shared Gauss-Legendre grid over [-1, 1]: the projector onto the
    first K Nystrom eigenvectors of the sinc kernel at c = pi N W, versus the
    projector onto the span of the first K dilated wave functions
    sqrt(W) U_k(W x) / sqrt(lambda_k). Quadrature weighting makes the discrete
    norm approximate the L2 operator norm.
    """
    if disc is None:
        disc = spectrum(DiscreteParams(N, W))
    N = disc.N
    W = disc.W
    if not 0 <= K <= N:
        raise ValueError(f"K must lie in [0, {N}], got {K}")
    if K == 0:
        return 0.0
    if disc.values[K - 1] < TOL.floor_untrusted:
        raise IllConditionedError(
            f"eigenvalue {disc.values[K - 1]:.3e} of mode {K - 1} below "
            f"{TOL.floor_untrusted:.0e}; the rank-K projector is not resolvable")
    c = math.pi * N * W
    M = quad_order or max(default_order(c), 4 * N)
    cont = nystrom_spectrum(c, M, check_convergence=False)
    x = cont.rule.nodes
    sw = np.sqrt(cont.rule.weights)
    P1 = cont.grid_vectors[:, :K] @ cont.grid_vectors[:, :K].T
    dilated = dpswf_matrix(disc, W * x, np.arange(K)) * sw[:, None]
    Q, _ = np.linalg.qr(dilated)
    P2 = (Q @ Q.conj().T).real
    D = P1 - P2
    D = 0.5 * (D + D.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(D))))
