"""Numerical tolerances: the fields of the one frozen record ``TOLERANCES``, read
by each check when it runs and never reassigned, so every command runs at the
``Tolerances`` defaults. Four fixed constants are not fields: the unit-norm 1e-13
of ``discrete._validate``, ``approximation.WEIERSTRASS_TOL``, the integer snap
1e-9 of ``numkit.snapped_floor`` and the 1e-12 slack of ``sobolev_k_range``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # eigensolver output contracts
    orthonormality: float = 1e-12
    eigen_residual: float = 1e-11
    # quadrature rule contracts
    weight_sum: float = 1e-13
    # discrete spectrum identities
    trace_rel: float = 1e-11
    cross_route: float = 1e-10   # tridiag at W vs Toeplitz at 1/2 - W
    double_orthogonality: float = 1e-10
    commutation: float = 1e-12
    # eigenvalue floors
    floor_untrusted: float = 1e-13
    floor_checks: float = 1e-12   # also the slack of the bound checks
    tail_floor: float = 1e-8
    # continuous spectrum
    trace_continuous_rel: float = 1e-9
    hs_cross_rel: float = 1e-8
    # approximation experiments
    table1_rel: float = 0.02
    example2_sup: float = 1e-8


TOLERANCES = Tolerances()
