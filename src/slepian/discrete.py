"""Discrete prolate spheroidal sequences (DPSS) and wave functions (DPSWF).

Two independent computations of the same spectrum, each diagonalising the
two index-reversal parity blocks (half the order) with numkit's validated
solvers, so eigenvectors stay exactly symmetric/antisymmetric even where the
spectrum clusters at 0 and 1 beyond double-precision resolution:

* ``toeplitz`` route: the blocks of the prolate (Toeplitz) matrix
  ``rho(n-m) = sin(2 pi W (n-m)) / (pi (n-m))``.
* ``tridiag`` route: eigenvectors of the blocks of Slepian's commuting
  tridiagonal matrix, with eigenvalues recovered as Rayleigh quotients
  against the matching prolate block, taken by one real FFT of each block
  vector (the tridiagonal spectrum itself says nothing about the
  concentration values). This route builds no prolate block.

Eigenvalues ``values[k]`` are the band-concentration ratios in (0, 1); columns
``dpss[:, k]`` are the unit-norm sequences. Mode k has parity (-1)^k and, on
the tridiag route, is Slepian's mode k (ordered by the tridiagonal's well
separated eigenvalues) also in the clusters at 1 and 0, where the values are
rounding noise; they descend wherever resolved. The wave functions are the
trigonometric polynomials obtained from the sequences (``dpswf_matrix``), and
``band_grams`` gives their band inner products v_j^T rho v_k. A full
spectrum peaks at about 1.5 N x N float64 arrays (the result and the two
half-order block vector arrays lifted into it; on the toeplitz route one
prolate block at a time lives beside them); partial spectra are a ROADMAP
item. Every value of rho, in ``extend_dpss`` too, comes from ``_rho``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from .numkit import (EigenSystem, IllConditionedError, NumericalFailure,
                     OutOfRangeError, SymTridiag, checked_index, eig_sym, eig_symtridiag,
                     parity_block, parity_spectrum, sinc_kernel, tridiag_parity_blocks)

METHODS = ("toeplitz", "tridiag")


@dataclass(frozen=True)
class DiscreteParams:
    """Sequence length N >= 1 and half-bandwidth 0 < W < 1/2, a normal double
    (a subnormal W leaves the trace 2NW and the prolate diagonal 2W inexact)."""

    N: int
    W: float

    def __post_init__(self):
        W = self.W   # stored as its double: a float32 W would keep 2NW in float32
        if (isinstance(W, bool) or not isinstance(W, numbers.Real)
                or not sys.float_info.min <= W < 0.5 or not float(W) < 0.5):
            raise ValueError(
                f"W must lie strictly in (0, 0.5) and be a normal double, got {W!r}")
        object.__setattr__(self, "W", float(W))
        object.__setattr__(self, "N", checked_index(self.N, 1, math.inf, "N"))

    @property
    def bandwidth(self) -> float:
        """Equivalent sinc-kernel bandwidth c = pi N W."""
        return math.pi * self.N * self.W


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Concentration eigenvalues and DPSS vectors for (N, W); mode k has
    parity (-1)^k, and the values descend wherever they are resolved."""

    params: DiscreteParams
    values: np.ndarray
    dpss: np.ndarray          # columns are the unit eigenvectors v^(k)

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def W(self) -> float:
        return self.params.W


def _rho(W: float, lags: np.ndarray) -> np.ndarray:
    """rho(d) = sin(2 pi W d) / (pi d) at the integer lags d, 2W at d = 0. The
    phase W d is reduced mod 1 into (-1/2, 1/2] in integers on W = p / q, so
    the t in sin(2 pi t) is correctly rounded at every lag."""
    p, q = W.as_integer_ratio()
    h = q // 2
    t = np.array([(h - (h - p * d) % q) / q for d in lags.tolist()])
    return sinc_kernel(2.0 * np.pi * t, np.pi * lags, 2.0 * W)


def _prolate_view(lag: np.ndarray) -> np.ndarray:
    """Read-only strided Toeplitz view ``[i, j] -> lag[|i - j|]``."""
    return sliding_window_view(np.concatenate([lag[:0:-1], lag]), len(lag))[::-1]


def prolate_matrix(params: DiscreteParams) -> np.ndarray:
    """Toeplitz matrix sin(2 pi W (n-m)) / (pi (n-m)), diagonal 2W (its limit)."""
    return _prolate_view(_rho(params.W, np.arange(params.N))).copy()


def _prolate_block(lag: np.ndarray, odd: bool) -> np.ndarray:
    """The even or odd block of the prolate matrix of the lag vector ``lag``,
    read from the strided view (the N x N matrix is never built)."""
    view = _prolate_view(lag)
    return parity_block(lambda i, j: view[i:j], len(lag), odd)


def _block_quotients(lag: np.ndarray, U: np.ndarray, odd: bool) -> np.ndarray:
    """u^T B u for every column u of U, B = ``_prolate_block(lag, odd)``:
    v^T rho v for the lifted sequence v of u, with B never built.

    With h = N // 2 and u = [w; mu] (mu only in the even block of odd N), B's
    leading h x h part is A +- H: Toeplitz A_ij = rho(|i-j|) and Hankel
    H_ij = rho(N-1-i-j). Let F be the real FFT of w zero-padded to
    L >= 2h - 1, so that nothing wraps around. Then w^T A w pairs |F|^2 with
    the DFT of the symmetric lags rho(|s|), and w^T H w pairs F^2 with the
    DFT of the Hankel lags rho(N-1-t) (Percival & Walden 1993, p. 390):
    O(h log h) a column, 16 columns at a time. The middle row of odd N adds
    2 sqrt(2) mu sum_i rho(h-i) w_i + 2W mu^2.
    """
    N, h = len(lag), len(lag) // 2
    out = np.zeros(U.shape[1])
    if h:
        L = 1 << (2 * h - 2).bit_length()
        weights = np.full(L // 2 + 1, 2.0 / L)   # rfft bins count twice,
        weights[[0, -1]] = 1.0 / L               # but zero and Nyquist once
        toeplitz, hankel = np.zeros(L), np.zeros(L)
        toeplitz[:h], toeplitz[L - h + 1:] = lag[:h], lag[h - 1:0:-1]
        hankel[:2 * h - 1] = lag[N - 1:N - 2 * h:-1]
        g = weights * np.fft.rfft(toeplitz).real
        q = (-weights if odd else weights) * np.conj(np.fft.rfft(hankel))
        for j in range(0, U.shape[1], 16):
            F = np.fft.rfft(U[:h, j:j + 16], n=L, axis=0)
            out[j:j + 16] = (F.real ** 2 + F.imag ** 2).T @ g + ((F * F).T @ q).real
    if N % 2 and not odd:
        mu = U[h]
        out += 2.0 * math.sqrt(2.0) * mu * (lag[h:0:-1] @ U[:h]) + lag[0] * mu * mu
    return out


def commuting_tridiagonal(params: DiscreteParams) -> SymTridiag:
    """Slepian's tridiagonal matrix commuting with the prolate matrix."""
    N, W = params.N, params.W
    i = np.arange(N, dtype=float)
    diagonal = np.cos(2.0 * np.pi * W) * ((N - 1) / 2.0 - i) ** 2
    j = np.arange(N - 1, dtype=float)
    offdiag = 0.5 * (j + 1.0) * (N - j - 1.0)
    return SymTridiag(diagonal, offdiag)


def spectrum(params: DiscreteParams, method: str = "tridiag") -> DiscreteSpectrum:
    """Compute the DPSS spectrum of (N, W) by the requested route."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "tridiag":
        T_blocks = tridiag_parity_blocks(commuting_tridiagonal(params))
    lag = _rho(params.W, np.arange(params.N))

    def solve(odd: bool) -> EigenSystem:   # a prolate block dies once used
        if method == "toeplitz":
            return eig_sym(_prolate_block(lag, odd))
        U = eig_symtridiag(T_blocks[odd]).vectors
        return EigenSystem(_block_quotients(lag, U, odd), U)
    values, vectors = parity_spectrum(params.N, solve)
    _validate(params, values, vectors)
    return DiscreteSpectrum(params, values, vectors)


def _validate(params: DiscreteParams, values: np.ndarray, vectors: np.ndarray) -> None:
    N, W, tol = params.N, params.W, config.TOLERANCES
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, vectors))
    if not np.max(np.abs(norms - 1.0)) <= 1e-13:
        raise NumericalFailure("DPSS vectors are not unit norm")
    trace_defect = abs(values.sum() - 2.0 * N * W) / (2.0 * N * W)
    if not trace_defect <= tol.trace_rel:
        raise NumericalFailure(
            f"trace identity defect {trace_defect:.3e} exceeds {tol.trace_rel:.1e}")
    # the cluster at 1 reaches 1 within the floor; the largest need not come first
    if not values.max() <= 1.0 + tol.floor_untrusted:
        raise NumericalFailure("trusted eigenvalues left the interval (0, 1)")


def half_sums(spec: DiscreteSpectrum, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modes k as half-length trigonometric sums: frequencies f_n = pi (N-1-2n)
    for n < N - N//2, and coefficients A[n, j] = 2 v_n^(k[j]), the middle one
    of odd N (f = 0) counted once. U_k(x) = sum_n A[n, j] cos(f_n x) for even
    k[j], sin for odd: eps_k sum_n v_n^(k) exp(-i f_n x), eps_k = 1 for even k
    and i for odd k, folded by the parity of v^(k)."""
    N, h = spec.N, spec.N // 2
    n = np.arange(N - h)
    return (np.pi * (N - 1 - 2 * n),
            spec.dpss[:N - h, k] * np.where(n < h, 2.0, 1.0)[:, None])


def dpswf_matrix(spec: DiscreteSpectrum, x: np.ndarray,
                 k: np.ndarray | None = None) -> np.ndarray:
    """Evaluate wave functions on points ``x`` as float64; column j is mode
    k[j], summed over the first half of its sequence (``half_sums``)."""
    N = spec.N
    k = np.arange(N) if k is None else np.array(   # as objects, True stays a bool
        [checked_index(kj, 0, N - 1, "mode index k")
         for kj in np.atleast_1d(np.asarray(k, dtype=object))], dtype=int)
    freqs, A = half_sums(spec, k)
    t = np.multiply.outer(np.asarray(x, dtype=float).ravel(), freqs)
    U = np.empty((len(t), k.size))
    for odd, trig in enumerate((np.cos, np.sin)):
        cols = np.flatnonzero(k % 2 == odd)
        U[:, cols] = trig(t) @ A[:, cols]
    return U


def band_grams(spec: DiscreteSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """V^T rho V for the even columns V = dpss[:, 0::2], then the odd 1::2, as
    U^T B U over the half-order prolate blocks B and block vectors U (entries
    across parities vanish); the double-orthogonality check reads them."""
    N, h, lag = spec.N, spec.N // 2, _rho(spec.W, np.arange(spec.N))
    grams = []
    for odd in (0, 1):
        U = spec.dpss[:h if odd else N - h, odd::2].copy()   # the block vectors
        U[:h] *= math.sqrt(2.0)
        grams.append(U.T @ (_prolate_block(lag, odd) @ U))
    return tuple(grams)


def mirror_params(params: DiscreteParams) -> DiscreteParams:
    """(N, 1/2 - W), where the reflection identity puts the mirror spectrum."""
    if not 0.5 - params.W < 0.5:
        raise OutOfRangeError(f"1/2 - W rounds to 1/2 at W={params.W:g}")
    return DiscreteParams(params.N, 0.5 - params.W)


def symmetry_defect(spec: DiscreteSpectrum, mirror: DiscreteSpectrum) -> float:
    """Max over all k of |mu_k - (1 - lambda_{N-1-k})|, the reflection identity
    between the values lambda of ``spec`` and mu of ``mirror`` at (N, 1/2 - W)."""
    if mirror_params(spec.params) != mirror.params:
        raise ValueError(f"mirror is not at (N, 1/2 - W)=({spec.N}, {0.5 - spec.W!r})")
    return float(np.max(np.abs(mirror.values - (1.0 - spec.values[::-1]))))


def commutation_defect(params: DiscreteParams) -> float:
    """Normalised Frobenius norm of [commuting_tridiagonal, prolate_matrix],
    row block by row block with no N x N temporary: entry (i, j) is
    X_ji - X_ij, X = T rho, each X entry taken in ``SymTridiag.apply``'s
    operation order from the lags and T's diagonals; ||rho||_F is O(N)."""
    N, T = params.N, commuting_tridiagonal(params)
    d, e = T.diagonal, T.offdiag
    lag = _rho(params.W, np.arange(N + 1))   # lag N meets only a zero e
    view, ep = _prolate_view(lag), np.concatenate(([0.0], e, [0.0]))
    sq, step = 0.0, max(1, 2 ** 16 // N)
    for i in range(0, N, step):
        j = min(i + step, N)
        r0, rp, rm = view[i:j, :N], view[i + 1:j + 1, :N], view[i:j, 1:]
        X = d[i:j, None] * r0 + ep[i + 1:j + 1, None] * rp + ep[i:j, None] * rm
        C = d * r0 + ep[1:] * rm + ep[:-1] * rp - X
        sq += float(np.einsum("ij,ij->", C, C))
    rho_sq = N * lag[0] ** 2 + 2.0 * float(np.arange(N - 1, 0, -1) @ lag[1:N] ** 2)
    return math.sqrt(sq) / (1.0 + math.sqrt(rho_sq * (d @ d + 2.0 * (e @ e))))


def extend_dpss(spec: DiscreteSpectrum, k: int, n: int) -> float:
    """Value of the k-th sequence at an integer index |n| <= 2**53, the range
    in which float64 holds every integer.

    Applies the band-limiting kernel to the length-N eigenvector and divides
    by the eigenvalue, which reproduces v_n for n inside [0, N-1] and extends
    it outside. The kernel ``_rho`` reduces its phase W (n - j) mod 1 in
    integers, so the error left is the cancellation in the sum, about
    eps ||v||_1 / (pi |n| values[k]) absolute.
    Requires values[k] >= ``Tolerances.tail_floor``: division by a smaller
    eigenvalue amplifies double-precision noise beyond usefulness.
    """
    N, W = spec.N, spec.W
    k = checked_index(k, 0, N - 1, "mode index k")
    n = checked_index(n, -2 ** 53, 2 ** 53, "sequence index n")
    lam, floor = spec.values[k], config.TOLERANCES.tail_floor
    if not lam >= floor:
        raise IllConditionedError(
            f"eigenvalue {lam:.3e} below extension floor {floor:.1e}")
    return float(_rho(W, n - np.arange(N)) @ spec.dpss[:, k] / lam)
