"""Numerical kernels: symmetric eigensolvers, parity splits, the sinc kernel
and quadrature.

Thin, contract-checked wrappers around LAPACK (``numpy.linalg.eigh``,
``scipy.linalg.eigh_tridiagonal``), index-reversal parity splits, and a
Gauss-Legendre rule computed by Newton's method on the Legendre three-term
recurrence and memoised by order.
Every decomposition and every rule is validated against its output contract
(descending eigenvalues, orthonormal columns, small residual; ordered,
symmetric nodes and positive weights summing to 2) before it is returned, so
a silent defect cannot propagate into downstream verification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .config import TOL


class NumericalFailure(RuntimeError):
    """An iterative kernel failed to converge or broke its output contract."""


class IllConditionedError(NumericalFailure):
    """Requested quantity is not resolvable in double precision."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)

    def scaled(self, halfwidth: float, center: float = 0.0) -> "QuadratureRule":
        """Rule for the interval [center - halfwidth, center + halfwidth]."""
        return QuadratureRule(center + halfwidth * self.nodes, halfwidth * self.weights)


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal."""

    diagonal: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != max(len(self.diagonal) - 1, 0):
            raise ValueError("offdiag must have length n-1")

    @property
    def order(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        return self.apply(np.eye(self.order))

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Banded product ``dense() @ V`` for an n x k array, in O(n k) flops."""
        e = self.offdiag[:, None]
        out = self.diagonal[:, None] * V
        out[:-1] += e * V[1:]
        out[1:] += e * V[:-1]
        return out


@dataclass(frozen=True)
class EigenSystem:
    """Full spectral decomposition, eigenvalues descending.

    ``vectors[:, i]`` is the orthonormal eigenvector for ``values[i]``;
    ``residual_bound`` is the measured max column residual |A v - lambda v|.
    """

    values: np.ndarray
    vectors: np.ndarray
    method: str = "eigh"
    residual_bound: float = field(default=0.0)


def check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] < 1:
        raise ValueError("matrix order must be >= 1")
    if not (A == A.T).all():
        raise ValueError("matrix must be exactly symmetric")
    return A


def _validated_system(apply, values: np.ndarray, vectors: np.ndarray,
                      method: str) -> EigenSystem:
    """Sort descending and check the contract; ``apply(V)`` computes A @ V."""
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = vectors[:, order]
    n = len(values)
    gram_defect = np.max(np.abs(vectors.T @ vectors - np.eye(n)))
    if gram_defect > TOL.orthonormality:
        raise NumericalFailure(
            f"eigenvector orthonormality defect {gram_defect:.3e} exceeds "
            f"{TOL.orthonormality:.1e}")
    resid = np.max(np.linalg.norm(apply(vectors) - vectors * values, axis=0))
    scale = max(np.max(np.abs(values)), 1e-300)
    if resid > TOL.eigen_residual * scale:
        raise NumericalFailure(
            f"eigen residual {resid:.3e} exceeds {TOL.eigen_residual:.1e} * |A|")
    return EigenSystem(values=values, vectors=vectors, method=method,
                       residual_bound=float(resid))


def eig_sym(A: np.ndarray) -> EigenSystem:
    """Spectral decomposition of a real symmetric matrix, descending order."""
    A = check_symmetric(A)
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # LAPACK message carries the index
        raise NumericalFailure(f"symmetric eigensolver failed: {exc}") from exc
    return _validated_system(A.__matmul__, values, vectors, "eigh")


def eig_symtridiag(T: SymTridiag) -> EigenSystem:
    """Spectral decomposition of a symmetric tridiagonal matrix."""
    try:
        values, vectors = eigh_tridiagonal(T.diagonal, T.offdiag)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    return _validated_system(T.apply, values, vectors, "tridiag")


def parity_blocks(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a centrosymmetric symmetric matrix S (JSJ = S).

    With h = n // 2, A = S[:h, :h] and BJ = S[:h, n-h:][:, ::-1], they are
    A + BJ and A - BJ: S in the orthonormal bases of ``parity_vectors``. For
    odd n the even block gains the sqrt(2)-weighted middle row and column.
    """
    n = S.shape[0]
    h = n // 2
    A = S[:h, :h]
    BJ = S[:h, n - h:][:, ::-1]
    even = A + BJ
    if n % 2:
        col = math.sqrt(2.0) * S[:h, h]
        even = np.block([[even, col[:, None]], [col[None, :], S[h, h]]])
    return even, A - BJ


def parity_vectors(Ue: np.ndarray, Uo: np.ndarray, n: int) -> np.ndarray:
    """Lift even/odd block vectors u to length n as [u; +-Ju] / sqrt(2).

    For odd n the last row of ``Ue`` is the middle entry, taken unscaled. The
    columns are exactly symmetric, then antisymmetric, under index reversal.
    """
    h = n // 2
    r = 1.0 / math.sqrt(2.0)
    return np.hstack([
        np.vstack([Ue[:h] * r, Ue[h:], Ue[:h][::-1] * r]),
        np.vstack([Uo * r, np.zeros((n % 2, Uo.shape[1])), -Uo[::-1] * r])])


def tridiag_parity_blocks(T: SymTridiag) -> tuple[SymTridiag, SymTridiag]:
    """``parity_blocks`` of a persymmetric tridiagonal matrix, kept banded.

    For n = 2h the last diagonal entry becomes d[h-1] +- e[h-1]; for
    n = 2h + 1 the even block keeps the middle entry, coupled by sqrt(2) e[h-1].
    """
    d, e, h = T.diagonal, T.offdiag, T.order // 2
    if T.order % 2:
        even_e = np.append(e[:h - 1], math.sqrt(2.0) * e[h - 1]) if h else e
        return SymTridiag(d[:h + 1], even_e), SymTridiag(d[:h], e[:h - 1])
    shift = np.append(np.zeros(h - 1), e[h - 1])
    return SymTridiag(d[:h] + shift, e[:h - 1]), SymTridiag(d[:h] - shift, e[:h - 1])


def sinc_kernel(c: float, d: np.ndarray, at_zero: float) -> np.ndarray:
    """sin(c d) / (pi d) elementwise, equal to ``at_zero`` where d == 0.

    The caller gives the d = 0 limit c/pi in its own form (2W when c = 2 pi W),
    because c/pi need not round to the same double.
    """
    out = np.full(np.shape(d), at_zero, dtype=float)
    np.divide(np.sin(c * d), np.pi * d, out=out, where=(d != 0))
    return out


def spectral_norm_sym(A: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric matrix."""
    A = check_symmetric(A)
    try:
        values = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver failed: {exc}") from exc
    return float(np.max(np.abs(values)))


_NEWTON_MAX_STEPS = 20


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, O(n len(x)) flops."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@functools.lru_cache(maxsize=64)
def _gauss_legendre_rule(n: int) -> QuadratureRule:
    """Newton's method on the recurrence, from Tricomi's asymptotic guess.

    Only the n // 2 positive roots are iterated; the rule is completed by
    reflection, so nodes and weights are exactly mirror-symmetric and the
    middle node of an odd rule is exactly 0. Cost is O(n^2) flops per Newton
    step and O(n) memory (numpy's ``leggauss`` is an O(n^3) eigensolve).
    """
    k = np.arange(1, n // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - 1.0 / (8.0 * n ** 2) + 1.0 / (8.0 * n ** 3)) * np.cos(theta)
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step), initial=0.0) <= np.finfo(float).eps:
            break
    else:
        raise NumericalFailure(
            f"Newton iteration for Gauss-Legendre order {n} did not converge")
    if n % 2:
        x = np.append(x, 0.0)
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)
    # x descends from the largest root; mirror it into ascending order
    h = n // 2
    nodes = np.concatenate([-x[:h], x[h:], x[:h][::-1]])
    weights = np.concatenate([w[:h], w[h:], w[:h][::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for polynomials up to 2*order-1.

    Rules are memoised by order and their arrays are read-only. The contract
    (ordered nodes inside (-1, 1), mirror symmetry, positive weights summing
    to 2) is checked on every call, cache hits included, against the current
    tolerances.
    """
    if int(order) != order or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order}")
    rule = _gauss_legendre_rule(int(order))
    nodes, weights = rule.nodes, rule.weights
    if not (np.diff(nodes) > 0).all():
        raise NumericalFailure("quadrature nodes are not strictly increasing")
    if np.max(np.abs(nodes + nodes[::-1])) > TOL.node_symmetry:
        raise NumericalFailure("quadrature nodes are not symmetric about 0")
    if (weights <= 0).any() or abs(weights.sum() - 2.0) > TOL.weight_sum:
        raise NumericalFailure("quadrature weights are invalid")
    if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise NumericalFailure("quadrature nodes left (-1, 1)")
    return rule


def snapped_floor(x: float, snap: float = 1e-9) -> int:
    """floor(x), treating values within ``snap`` of an integer as exact.

    Products such as 2*N*W evaluate to e.g. 35.99999999999999 in double
    precision when the intended value is 36; a plain floor would be off by one.
    """
    r = round(x)
    if abs(x - r) <= snap:
        return int(r)
    return int(np.floor(x))
