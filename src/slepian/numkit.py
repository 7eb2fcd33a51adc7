"""Numerical kernels: symmetric eigensolvers, parity splits, the sinc kernel
and quadrature.

Thin, contract-checked wrappers around LAPACK (``numpy.linalg.eigh``, and
``dstevd`` for symmetric tridiagonal matrices), index-reversal parity splits,
and a Gauss-Legendre rule computed in O(n) by Newton's method in theta
(x = cos theta) on asymptotic and exact evaluations of P_n: nodes correctly
rounded (on x86-64), weights within 5e-15 relative of mpmath to order 8,000.
Every decomposition is validated against its output contract (descending
eigenvalues, orthonormal columns, small residual) before it is returned;
every rule (ordered nodes, positive weights summing to 2) once, when it is
built, and only a rule that passes is memoised. Mirror symmetry, which
the parity lift and the rule write exactly, is pinned by tests instead.

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


def sinc_kernel(x: np.ndarray, y: np.ndarray, at_zero: float) -> np.ndarray:
    """sin(x) / y elementwise, equal to ``at_zero`` where y == 0: the one sin
    ratio with a limit. The caller gives the limit in its own form (2W for
    x = 2 pi W d, y = pi d), as (2 pi W)/pi need not round to 2W.
    """
    out = np.full(np.shape(y), at_zero, dtype=float)
    np.divide(np.sin(x), y, out=out, where=(y != 0))
    return out


_NEWTON_MAX_STEPS = 20
_FOURIER_CUTOFF = 30.0   # n sin(theta) below which P_n is the exact Fourier sum
_STIELTJES_TERMS = 20    # remainder below 2.1e-19 of the amplitude past the cutoff


def _two_product(theta: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """The outer product theta k, rounded, and its rounding error, exact
    (Dekker) for integers and half-integers k below 2^25, which need no
    split."""
    split = 134217729.0 * theta
    high = split - (split - theta)
    hi = np.multiply.outer(theta, k)
    return hi, (np.multiply.outer(high, k) - hi) + np.multiply.outer(theta - high, k)


def _legendre_fourier(n: int):
    """theta -> (P_n(cos theta), dP_n/dtheta) by the exact finite Fourier
    series P_n(cos theta) = sum_{j=0..n} g_j g_(n-j) cos((n - 2j) theta), with
    g_j = (1/2)_j / j! (Szego 4.9.19), computed once per order; O(n) flops a
    node. Its coefficients are positive and sum to P_n(1) = 1, so the error
    is a few eps absolute plus the running product's drift, about sqrt(n) eps:
    at order 80,000 dP_n/dtheta is 2.8e-14 relative off at the cutoff and the
    outermost weights up to 7.8e-14 (2.2e-15 at 8,000; nodes within 6e-17)."""
    j = np.arange(1, n + 1)
    g = np.cumprod(np.concatenate(([1.0], (j - 0.5) / j)))
    k = np.arange(n, 0, -2)   # the terms j and n - j are equal
    a = 2.0 * g[:len(k)] * g[n - np.arange(len(k))]
    ak, middle = a * k, 0.0 if n % 2 else g[n // 2] ** 2
    def legendre(theta):
        kt, low = _two_product(theta, k)
        c, s = np.cos(kt), np.sin(kt)
        return ((c - s * low) * a).sum(axis=1) + middle, -((s + c * low) * ak).sum(axis=1)
    return legendre


def _legendre_stieltjes(n: int):
    """theta -> (P_n(cos theta), dP_n/dtheta) by Stieltjes' series (Szego
    8.21.11), C_n sum_m h_m cos(alpha_m) / (2 sin theta)^(m + 1/2) with
    alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2: O(1) flops a node, once
    h_m and C_n are computed for the order. The sum is Re(e^(i alpha_0) sum_m
    h_m u^m), u = (1 - i cot theta) / 2, by Horner. The phase (n + 1/2) theta
    is an exact Dekker product hi + lo below order 2^25, so P_n is good to a
    few eps absolute even where that phase is large. C_n = 2 / (pi (n + 1/2)
    g_n) takes g_n = (1/2)_n / n! from a compensated sum of logarithms: a
    running product of n factors drifts by about sqrt(n) eps, 3e-14 at 80,000."""
    h = np.cumprod([1.0] + [(m - 0.5) ** 2 / (m * (n + m + 0.5))
                            for m in range(1, _STIELTJES_TERMS)])
    g_n = math.exp(math.fsum(np.log1p(-0.5 / np.arange(1, n + 1))))
    c_n = 2.0 / (math.pi * (n + 0.5) * g_n)
    def legendre(theta):
        cot = np.cos(theta) / np.sin(theta)
        u = 0.5 - 0.5j * cot
        A = E = np.zeros_like(u)   # sum_m h_m u^m and sum_m m h_m u^m
        for m in range(_STIELTJES_TERMS - 1, -1, -1):
            A, E = A * u + h[m], E * u + m * h[m]
        amp = c_n / np.sqrt(2.0 * np.sin(theta))
        hi, lo = _two_product(theta, n + 0.5)
        phase = np.exp(1j * hi) * np.exp(1j * (lo - 0.25 * math.pi))
        A, E = phase * A, phase * E
        return amp * A.real, -amp * ((n + 0.5) * A.imag + E.imag + cot * (0.5 * A.real + E.real))
    return legendre


def _newton(n: int, legendre, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Roots of P_n(cos theta) by Newton on ``legendre`` from ``theta``: the
    roots in double, the step still left at them (below an ulp) and dP_n/dtheta.

    The error left after a step is about |P''/2P'| step^2 <= n step^2 (the
    ratio is largest at the first root, about n/5), so the iteration stops
    once that is below an ulp of theta at every node. A test on the step
    itself would not do: the rounded roots keep the step near eps theta,
    which the bound passes at any order below 10^15."""
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = legendre(theta)
        step = p / dp
        theta = theta - step
        if (n * step ** 2 <= np.finfo(float).eps * theta).all():
            p, dp = legendre(theta)
            return theta, p / dp, dp
    raise NumericalFailure(
        f"Newton iteration for Gauss-Legendre order {n} did not converge")


@functools.lru_cache(maxsize=64, typed=True)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for polynomials up to 2*order-1,
    by Newton's method in theta (x = cos theta) from Tricomi's asymptotic
    guess, after Hale & Townsend (SIAM J. Sci. Comput. 35, 2013).

    Only the n // 2 positive roots (and pi/2 for odd n) are iterated: those
    with n sin theta < ``_FOURIER_CUTOFF`` (about 9, and every root below
    order 30) on the exact Fourier sum, the rest on Stieltjes' series. The
    weights are 2 / (dP_n/dtheta)^2, with no 1 - x^2 to cancel. The rule is
    completed by reflection, so nodes and weights are exactly
    mirror-symmetric and the middle node of an odd rule is exactly 0. Cost
    is O(n) flops and memory (numpy's ``leggauss`` is an O(n^3) eigensolve).

    The contract (ordered nodes inside (-1, 1), positive weights summing to 2,
    against ``config.TOLERANCES``) is checked once, when the rule is built: a
    rule that fails raises and is not memoised. Rules are memoised by order
    and type (``True`` is refused, not taken for 1) with read-only arrays.
    """
    n = checked_index(order, 1, math.inf, "order")
    k = np.arange(1, n // 2 + 1)
    t = math.pi * (4 * k - 1) / (4 * n + 2)
    theta = np.arccos((1.0 - 1.0 / (8.0 * n ** 2) + 1.0 / (8.0 * n ** 3)) * np.cos(t))
    if n % 2:
        theta = np.append(theta, 0.5 * math.pi)
    edge = np.count_nonzero(n * np.sin(theta) < _FOURIER_CUTOFF)   # a prefix
    theta, step, dp = (np.concatenate(part) for part in zip(
        _newton(n, _legendre_fourier(n), theta[:edge]),
        _newton(n, _legendre_stieltjes(n), theta[edge:])))   # empty below order 30
    # cos(theta - step) rounded once from long double: on x86-64 (a 64-bit
    # significand) every node the tests pin is correctly rounded; where long
    # double is double, the step is lost and nodes are within an ulp
    x = np.cos(theta.astype(np.longdouble) - step).astype(float)
    w = 2.0 / dp ** 2
    if n % 2:
        x[-1] = 0.0
    # x descends from the largest root; mirror it into ascending order
    h = n // 2
    nodes = np.concatenate([-x[:h], x[h:], x[:h][::-1]])
    weights = np.concatenate([w[:h], w[h:], w[:h][::-1]])
    if not (np.diff(nodes) > 0).all():
        raise NumericalFailure("quadrature nodes are not strictly increasing")
    if not ((weights > 0).all() and abs(weights.sum() - 2.0) <= config.TOLERANCES.weight_sum):
        raise NumericalFailure("quadrature weights are invalid")
    if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise NumericalFailure("quadrature nodes left (-1, 1)")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


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
