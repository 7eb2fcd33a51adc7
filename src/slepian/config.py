"""Numerical tolerances.

Every tolerance used by the library lives in the frozen ``Tolerances`` record;
the one in effect is ``current_tolerances()``, set per thread or task only by
``with using_tolerances(tol):``. The CLI sets none, so it runs at the
``Tolerances()`` defaults.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from contextvars import ContextVar
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
    cross_route: float = 1e-10   # tridiag at W vs Toeplitz at 1/2 - W; Nystrom vs Legendre
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

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not 0 < value < math.inf:
                raise ValueError(
                    f"tolerance {name} must be positive and finite, got {value}")


_TOLERANCES: ContextVar[Tolerances] = ContextVar("tolerances", default=Tolerances())


def current_tolerances() -> Tolerances:
    """The tolerances in effect in this context."""
    return _TOLERANCES.get()


@contextlib.contextmanager
def using_tolerances(tolerances: Tolerances):
    """Make ``tolerances`` the record in effect inside the ``with`` block."""
    token = _TOLERANCES.set(tolerances)
    try:
        yield
    finally:
        _TOLERANCES.reset(token)
