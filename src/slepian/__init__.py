"""Discrete prolate spheroidal sequences and wave functions.

Spectra by two independent routes (Toeplitz eigendecomposition and Slepian's
commuting tridiagonal matrix), sinc-kernel eigenvalues by two routes (prolate
operator and Nystrom), machine verification of the closed-form bounds relating
the two, and spectral approximation in the wave-function bases.
"""

from .approximation import (ProjectionResult, TestFunction, project_dilated,
                            project_native, projection_sweep, sobolev_norm)
from .bounds import (VERSION as __version__, BoundCheck, BoundReport,
                     comparison_constant, compare_spectra,
                     concentration_inequality_constant,
                     eigenvalue_tail_bound, plunge_count_bound,
                     plunge_count_bound_coarse, plunge_count_estimate,
                     plunge_decay_rate, plunge_mass,
                     superexponential_decay_bound, verify_all,
                     verify_comparison)
from .config import Tolerances, current_tolerances, using_tolerances
from .continuous import (ContinuousSpectrum, default_order, eigenspace_bound,
                         hs_lower_bound, hs_norm_sq,
                         kernel_hs_distance, kernel_hs_distance_bound,
                         legendre_spectrum, nystrom_spectrum, plunge_index,
                         projector_distance)
from .discrete import (DiscreteParams, DiscreteSpectrum, band_grams,
                       commutation_defect, commuting_tridiagonal, dpswf_matrix,
                       extend_dpss, mirror_params, spectrum, symmetry_defect)
from .numkit import (EigenSystem, IllConditionedError, NumericalFailure,
                     QuadratureRule, SymTridiag, eig_sym, eig_symtridiag,
                     gauss_legendre, snapped_floor)

__all__ = [name for name in dir() if not name.startswith("_")]
