"""Discrete prolate spheroidal sequences (DPSS) and wave functions (DPSWF).

Two independent computations of the same spectrum, each diagonalising the
two index-reversal parity blocks (half the order) with numkit's validated
solvers, so eigenvectors stay exactly symmetric/antisymmetric even where the
spectrum clusters at 0 and 1 beyond double-precision resolution:

* ``toeplitz`` route: the blocks of the prolate (Toeplitz) matrix
  ``sin(2 pi W (n-m)) / (pi (n-m))``.
* ``tridiag`` route: eigenvectors of the blocks of Slepian's commuting
  tridiagonal matrix, with eigenvalues recovered as Rayleigh quotients
  against the matching prolate block (the tridiagonal spectrum itself says
  nothing about the concentration values, so the Rayleigh quotient is what
  orders the modes).

Eigenvalues ``values[k]`` are the band-concentration ratios in (0, 1); columns
``dpss[:, k]`` are the unit-norm sequences. The wave functions are the
trigonometric polynomials obtained from the sequences (``dpswf``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .numkit import (IllConditionedError, NumericalFailure, SymTridiag,
                     eig_sym, eig_symtridiag, parity_blocks, parity_vectors,
                     sinc_kernel, tridiag_parity_blocks)

METHODS = ("toeplitz", "tridiag")


@dataclass(frozen=True)
class DiscreteParams:
    """Sequence length N >= 1 and half-bandwidth 0 < W < 1/2."""

    N: int
    W: float

    def __post_init__(self):
        N, W = self.N, self.W
        if isinstance(N, bool) or not isinstance(N, numbers.Real) or not N >= 1 or N % 1:
            raise ValueError(f"N must be an integer >= 1, got {N!r}")
        if isinstance(W, bool) or not isinstance(W, numbers.Real) or not 0.0 < W < 0.5:
            raise ValueError(f"W must lie strictly in (0, 0.5), got {W!r}")
        object.__setattr__(self, "N", int(N))

    @property
    def bandwidth(self) -> float:
        """Equivalent sinc-kernel bandwidth c = pi N W."""
        return math.pi * self.N * self.W


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Concentration eigenvalues (descending) and DPSS vectors for (N, W)."""

    params: DiscreteParams
    values: np.ndarray
    dpss: np.ndarray          # columns are the unit eigenvectors v^(k)
    method: str
    warnings: tuple[str, ...] = field(default=())

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def W(self) -> float:
        return self.params.W


def prolate_matrix(params: DiscreteParams) -> np.ndarray:
    """Toeplitz matrix sin(2 pi W (n-m)) / (pi (n-m)), diagonal 2W.

    The diagonal is the sinc limit of the generic entry.
    """
    N, W = params.N, params.W
    idx = np.arange(N)
    first = sinc_kernel(2.0 * np.pi * W, idx, 2.0 * W)
    return first[np.abs(idx[:, None] - idx[None, :])]


def commuting_tridiagonal(params: DiscreteParams) -> SymTridiag:
    """Slepian's tridiagonal matrix commuting with the prolate matrix."""
    N, W = params.N, params.W
    i = np.arange(N, dtype=float)
    diagonal = np.cos(2.0 * np.pi * W) * ((N - 1) / 2.0 - i) ** 2
    j = np.arange(N - 1, dtype=float)
    offdiag = 0.5 * (j + 1.0) * (N - j - 1.0)
    return SymTridiag(diagonal, offdiag)


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component positive in place; first index wins ties."""
    top = vectors[:(len(vectors) + 1) // 2]   # |v| = |Jv|: the first maximum is here
    lead = np.argmax(np.abs(top), axis=0)
    flip = top[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return vectors


def spectrum(params: DiscreteParams, method: str = "tridiag") -> DiscreteSpectrum:
    """Compute the DPSS spectrum of (N, W) by the requested route."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    N = params.N
    rho_blocks = parity_blocks(prolate_matrix(params))
    has_odd = N > 1   # the odd blocks are empty when N == 1
    if method == "toeplitz":
        systems = [eig_sym(B) for B in rho_blocks[:1 + has_odd]]
        values = np.concatenate([s.values for s in systems])
    else:
        T_blocks = tridiag_parity_blocks(commuting_tridiagonal(params))
        systems = [eig_symtridiag(T) for T in T_blocks[:1 + has_odd]]
        # u^T B u = v^T rho v for the lifted sequence v of block vector u
        values = np.concatenate([np.einsum("ij,ij->j", s.vectors, B @ s.vectors)
                                 for s, B in zip(systems, rho_blocks)])
    vectors = parity_vectors(systems[0].vectors,
                             systems[-1].vectors if has_odd else np.zeros((0, 0)), N)
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = _apply_sign_convention(vectors[:, order])
    warnings = _validate(params, values, vectors)
    return DiscreteSpectrum(params=params, values=values, dpss=vectors,
                            method=method, warnings=tuple(warnings))


def _validate(params: DiscreteParams, values: np.ndarray,
              vectors: np.ndarray) -> list[str]:
    N, W = params.N, params.W
    warnings: list[str] = []
    norms = np.linalg.norm(vectors, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-13:
        raise NumericalFailure("DPSS vectors are not unit norm")
    sym_defect = np.max(np.abs(np.abs(vectors) - np.abs(vectors[::-1, :])))
    if sym_defect > TOL.component_symmetry:
        raise NumericalFailure(
            f"component symmetry defect {sym_defect:.3e} exceeds "
            f"{TOL.component_symmetry:.1e}")
    trace_defect = abs(values.sum() - 2.0 * N * W) / (2.0 * N * W)
    if trace_defect > TOL.trace_rel:
        raise NumericalFailure(
            f"trace identity defect {trace_defect:.3e} exceeds {TOL.trace_rel:.1e}")
    trusted = values >= TOL.floor_untrusted
    if trusted.any():
        tv = values[trusted]
        # the clusters at 1 and 0 collapse to the endpoints within the floor
        if tv[0] > 1.0 + TOL.floor_untrusted or tv[-1] <= -TOL.floor_untrusted:
            raise NumericalFailure("trusted eigenvalues left the interval (0, 1)")
        if tv[0] >= 1.0:
            warnings.append("leading eigenvalues reach 1 within the floor")
        ties = np.flatnonzero(np.diff(tv) >= 0)
        if ties.size:
            warnings.append(
                f"non-strict ordering at trusted indices {ties.tolist()}")
    if not trusted.all():
        warnings.append(
            f"{int((~trusted).sum())} eigenvalues below {TOL.floor_untrusted:.0e} "
            "are reported but untrusted")
    return warnings


def dpswf_matrix(spec: DiscreteSpectrum, x: np.ndarray,
                 k: np.ndarray | slice | None = None) -> np.ndarray:
    """Evaluate wave functions on points ``x``; column j is mode k[j].

    U_k(x) = eps_k * sum_n v_n^(k) exp(-i pi (N-1-2n) x) with eps_k = 1 for
    even k and i for odd k (making U_k real-valued up to roundoff).
    """
    N = spec.N
    if k is None:
        k = np.arange(N)
    elif isinstance(k, slice):
        k = np.arange(N)[k]
    else:
        k = np.atleast_1d(np.asarray(k, dtype=int))
    n = np.arange(N)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phases = np.exp(-1j * np.pi * np.outer(x, N - 1 - 2 * n))
    eps = np.where(k % 2 == 0, 1.0 + 0.0j, 1.0j)
    return (phases @ spec.dpss[:, k]) * eps[None, :]


def dpswf(spec: DiscreteSpectrum, k: int, x: float) -> complex:
    """Evaluate the k-th discrete prolate spheroidal wave function at x."""
    if not 0 <= k <= spec.N - 1:
        raise ValueError(f"mode index k={k} outside [0, {spec.N - 1}]")
    return complex(dpswf_matrix(spec, np.array([x]), np.array([k]))[0, 0])


def concentration(spec: DiscreteSpectrum, j: int, k: int) -> float:
    """Band inner product (v_j)^T rho v_k = integral of U_j conj(U_k) on [-W, W].

    Equals values[j] when j == k and vanishes otherwise (double
    orthogonality of the wave functions).
    """
    N = spec.N
    if not (0 <= j < N and 0 <= k < N):
        raise ValueError(f"mode indices ({j}, {k}) outside [0, {N - 1}]")
    rho = prolate_matrix(spec.params)
    return float(spec.dpss[:, j] @ (rho @ spec.dpss[:, k]))


def symmetry_defect(N: int, W: float, method: str = "tridiag") -> float:
    """Max defect of the reflection identity between spectra at W and 1/2 - W.

    The eigenvalues satisfy lambda_k(1/2 - W) = 1 - lambda_{N-1-k}(W).
    """
    a = spectrum(DiscreteParams(N, W), method=method).values
    b = spectrum(DiscreteParams(N, 0.5 - W), method=method).values
    return float(np.max(np.abs(b - (1.0 - a[::-1]))))


def commutation_defect(params: DiscreteParams) -> float:
    """Normalised Frobenius norm of the commutator of the two matrices."""
    rho = prolate_matrix(params)
    T = commuting_tridiagonal(params)
    X = T.apply(rho)   # T rho; rho T = X^T as both matrices are symmetric
    return float(np.linalg.norm(X.T - X) /
                 (1.0 + np.linalg.norm(rho) * np.linalg.norm(T.dense())))


def extend_dpss(spec: DiscreteSpectrum, k: int, n: int,
                tail_floor: float | None = None) -> float:
    """Value of the k-th sequence at an arbitrary integer index.

    Applies the band-limiting kernel to the length-N eigenvector and divides
    by the eigenvalue, which reproduces v_n for n inside [0, N-1] and extends
    it outside. Requires values[k] >= tail_floor: division by a smaller
    eigenvalue amplifies double-precision noise beyond usefulness. The floor
    defaults to ``TOL.tail_floor`` as it stands at call time.
    """
    tail_floor = TOL.tail_floor if tail_floor is None else tail_floor
    N, W = spec.N, spec.W
    if not 0 <= k <= N - 1:
        raise ValueError(f"mode index k={k} outside [0, {N - 1}]")
    lam = spec.values[k]
    if not lam >= tail_floor:
        raise IllConditionedError(
            f"eigenvalue {lam:.3e} below extension floor {tail_floor:.1e}")
    kernel = sinc_kernel(2.0 * np.pi * W, n - np.arange(N), 2.0 * W)
    return float(kernel @ spec.dpss[:, k] / lam)
