"""Numerical kernels: symmetric eigensolvers, parity splits, the sinc kernel
and quadrature.

Thin, contract-checked wrappers around LAPACK (``numpy.linalg.eigh``, and
``dstevd`` for symmetric tridiagonal matrices), index-reversal parity splits,
and a Gauss-Legendre rule computed by Newton's method on the Legendre
three-term recurrence and memoised by order.
Every decomposition and every rule is validated against its output contract
(descending eigenvalues, orthonormal columns, small residual; ordered,
symmetric nodes and positive weights summing to 2) before it is returned, so
a silent defect cannot propagate into downstream verification.

``dstevd`` is the routine ``scipy.linalg.eigh_tridiagonal(d, e)`` runs for a
full spectrum. It is called on scipy's f2py LAPACK extension, loaded at the
first solve from its file in the scipy package: importing ``scipy.linalg``
would run its package ``__init__``, whose array-API layer imports
``numpy.f2py``, ``numpy.testing`` and more, and triple the start-up time of
every command. ``scipy.linalg``
must stay off the import path of ``slepian``; a test in ``test_numkit`` and
a CI step check that it does.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy   # runs scipy's shared-library setup, not its subpackages

from . import config


class NumericalFailure(RuntimeError):
    """An iterative kernel failed to converge or broke its output contract."""


class OutOfRangeError(ValueError):
    """Parameters outside the stated validity range of a bound."""


class IllConditionedError(NumericalFailure):
    """Requested quantity is not resolvable in double precision."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def scaled(self, halfwidth: float) -> "QuadratureRule":
        """Rule for the interval [-halfwidth, halfwidth]."""
        return QuadratureRule(halfwidth * self.nodes, halfwidth * self.weights)


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

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Banded product of the matrix with an n x k array, in O(n k) flops."""
        e = self.offdiag[:, None]
        out = self.diagonal[:, None] * V
        out[:-1] += e * V[1:]
        out[1:] += e * V[:-1]
        return out


class EigenSystem(NamedTuple):
    """Full spectral decomposition: ``vectors[:, i]`` is the orthonormal
    eigenvector for ``values[i]``; descending unless from ``parity_spectrum``."""

    values: np.ndarray
    vectors: np.ndarray


@functools.cache
def _load_flapack():
    """scipy's f2py LAPACK module, without importing ``scipy.linalg``.

    One instance per process: one loaded by ``scipy.linalg`` is reused, and a
    new one lands in ``sys.modules`` under its own name, where a later
    ``import scipy.linalg`` finds it; one without ``dstevd`` is an ImportError
    at the first solve, which the CLI reports in one line.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        path = os.path.join(scipy.__path__[0], "linalg",
                            "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    if not hasattr(module, "dstevd"):
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK dstevd in {name}; "
                          "slepian needs scipy>=1.17")
    return module


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of the float64
    symmetric tridiagonal matrix with diagonal d and off-diagonal e, by LAPACK
    ``dstevd``: what ``scipy.linalg.eigh_tridiagonal(d, e)`` returns, with its
    ValueError for a non-finite entry and LinAlgError for a nonzero info."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if len(d) == 1:   # the f2py wrapper wants len(e) >= 1
        return d.astype(float), np.ones((1, 1))
    values, vectors, info = _load_flapack().dstevd(d, e)
    if info:
        raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    return values, vectors


def _validated_system(kind: str, solve, apply) -> EigenSystem:
    """Run LAPACK's ``solve()``, check the contract in its ascending order and
    free the check's buffer; return a descending view of LAPACK's arrays.
    ``apply(V)`` is A @ V. A NaN anywhere fails the contract."""
    try:
        values, vectors = solve()
    except np.linalg.LinAlgError as exc:  # LAPACK message carries the index
        raise NumericalFailure(f"{kind} eigensolver failed: {exc}") from exc
    tol = config.TOLERANCES
    gram = vectors.T @ vectors   # the buffer is reused for the residual
    gram.flat[::len(values) + 1] -= 1.0
    gram_defect = np.max(np.abs(gram, out=gram))
    if not gram_defect <= tol.orthonormality:
        raise NumericalFailure(
            f"eigenvector orthonormality defect {gram_defect:.3e} exceeds "
            f"{tol.orthonormality:.1e}")
    R = np.subtract(apply(vectors), np.multiply(vectors, values, out=gram), out=gram)
    resid = math.sqrt(np.max(np.einsum("ij,ij->j", R, R)))
    del gram, R
    if not resid <= tol.eigen_residual * max(np.max(np.abs(values)), 1e-300):
        raise NumericalFailure(
            f"eigen residual {resid:.3e} exceeds {tol.eigen_residual:.1e} * |A|")
    if not (np.diff(values) >= 0).all():
        raise NumericalFailure(f"{kind} eigenvalues are not ascending")
    return EigenSystem(values=values[::-1], vectors=vectors[:, ::-1])


def eig_sym(A: np.ndarray) -> EigenSystem:
    """Spectral decomposition of a real symmetric matrix, descending order."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not A.shape[0] == A.shape[1] >= 1 or not (A == A.T).all():
        raise ValueError("matrix must be square, of order >= 1 and exactly symmetric")
    return _validated_system("symmetric", lambda: np.linalg.eigh(A), A.__matmul__)


def eig_symtridiag(T: SymTridiag) -> EigenSystem:
    """Spectral decomposition of a symmetric tridiagonal matrix."""
    return _validated_system(
        "tridiagonal", lambda: eigh_tridiagonal(T.diagonal, T.offdiag), T.apply)


def parity_block(rows, n: int, odd: bool) -> np.ndarray:
    """Even or odd block of a centrosymmetric symmetric n x n matrix S (JSJ = S)
    whose rows S[i:j] are ``rows(i, j)``, read about 2^16 entries at a time.

    With h = n // 2, A = S[:h, :h] and BJ = S[:h, n-h:][:, ::-1], they are
    A + BJ and A - BJ: S in the orthonormal bases ``parity_spectrum`` lifts.
    For odd n the even block gains the sqrt(2)-weighted middle row and column.
    """
    h, step = n // 2, max(1, 2 ** 16 // n)
    m = h if odd else n - h
    out = np.empty((m, m))
    for i in range(0, h, step):
        R = rows(i, min(i + step, h))
        (np.subtract if odd else np.add)(R[:, :h], R[:, n - h:][:, ::-1],
                                          out=out[i:i + len(R), :h])
        out[i:i + len(R), h:] = math.sqrt(2.0) * R[:, h:m]
    out[h:, :h] = out[:h, h:].T
    out[h:, h:] = rows(h, m)[:, h:m]
    return out


def parity_spectrum(n: int, solve) -> EigenSystem:
    """System of an n x n centrosymmetric operator from ``solve(odd)``, the
    even block's system, then (n > 1) the odd's: a block built in ``solve``
    dies there. The columns u of each block (overwritten) are lifted to
    [u; +-Ju] / sqrt(2) in the F-ordered columns of their parity, 0::2 and
    1::2, writing each entry once; for odd n the last row of an even block is
    the middle entry, taken unscaled. Column k is exactly symmetric (k even)
    or antisymmetric (k odd) under index reversal, and its first largest
    entry is positive."""
    h = n // 2
    even = solve(False)
    odd = solve(True) if n > 1 else EigenSystem(np.zeros(0), np.zeros((0, 0)))
    values = np.empty(n)
    values[0::2], values[1::2] = even.values, odd.values
    Ue, Uo = even.vectors, odd.vectors
    for U in (Ue, Uo)[:1 + (n > 1)]:   # the odd block is empty at n = 1
        U[:h] *= 1.0 / math.sqrt(2.0)
        lead = np.argmax(np.abs(U), axis=0)   # |v| = |Jv|: U holds the first maximum
        U *= np.copysign(1.0, U[lead, np.arange(U.shape[1])])
    out = np.empty((n, n), order="F")
    out[:n - h, 0::2] = Ue
    out[n - h:, 0::2] = Ue[:h][::-1]
    out[:h, 1::2] = Uo
    out[h:n - h, 1::2] = 0.0
    out[n - h:, 1::2] = np.negative(Uo, out=Uo)[::-1]
    return EigenSystem(values, out)


def tridiag_parity_blocks(T: SymTridiag) -> tuple[SymTridiag, SymTridiag]:
    """``parity_block``s of a persymmetric tridiagonal matrix, kept banded.

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


_NEWTON_MAX_STEPS = 20


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, O(n len(x)) flops.

    Each step computes ((2k + 1) x p - k p_prev) / (k + 1) in that operation
    order, in place in three buffers."""
    p_prev, p, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(2 * k + 1, x, out=t)
        t *= p
        p_prev *= k
        np.subtract(t, p_prev, out=p_prev)
        p_prev /= k + 1
        p_prev, p = p, p_prev
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
    (ordered nodes inside (-1, 1), exact mirror symmetry, positive weights
    summing to 2) is checked on every call, cache hits included, against
    ``config.TOLERANCES``.
    """
    order = checked_index(order, 1, math.inf, "order")
    rule, tol = _gauss_legendre_rule(order), config.TOLERANCES
    nodes, weights = rule.nodes, rule.weights
    if not (np.diff(nodes) > 0).all():
        raise NumericalFailure("quadrature nodes are not strictly increasing")
    if not (nodes == -nodes[::-1]).all():
        raise NumericalFailure("quadrature nodes are not symmetric about 0")
    if not ((weights > 0).all() and abs(weights.sum() - 2.0) <= tol.weight_sum):
        raise NumericalFailure("quadrature weights are invalid")
    if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise NumericalFailure("quadrature nodes left (-1, 1)")
    return rule


def snapped_floor(x: float) -> int:
    """floor(x), treating values within 1e-9 of an integer as exact.

    Products such as 2*N*W evaluate to e.g. 35.99999999999999 in double
    precision when the intended value is 36; a plain floor would be off by one.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot take the floor of non-finite {x}")
    r = round(x)
    return int(r) if abs(x - r) <= 1e-9 else math.floor(x)


def checked_index(value, lo: float, hi: float, name: str) -> int:
    """``value`` as an int: an integer (Python or numpy, or an integral float;
    never a bool) in [lo, hi], else ValueError naming ``name`` and the range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"{name}={value} is not an integer in [{lo}, {hi}]")
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")
    return int(value)
