import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from slepian import config, discrete
from slepian.bounds import verify_all
from slepian.continuous import (_sinc_kernel_matrix, default_order, legendre_spectrum,
                                nystrom_spectrum)
from slepian.config import Tolerances
from slepian.discrete import (METHODS, DiscreteParams, band_grams, commutation_defect,
                              commuting_tridiagonal, dpswf_matrix, extend_dpss,
                              mirror_params, mirror_values, prolate_matrix, spectrum,
                              symmetry_defect)
from slepian.numkit import (IllConditionedError, NumericalFailure, OutOfRangeError,
                            SymTridiag, eig_sym, eig_symtridiag, gauss_legendre,
                            tridiag_parity_blocks)

from conftest import assert_mode_order, parity_blocks, traced_peak


def _exact_phase(W, lags):
    """W d mod 1 in (-1/2, 1/2], reduced in exact rationals and then rounded
    once, for every integer lag d."""
    phases = []
    for d in lags:
        x = Fraction(W) * int(d)
        phases.append(float(x - math.ceil(x - Fraction(1, 2))))
    return np.array(phases)


class TestParams:
    @pytest.mark.parametrize("N,W", [(0, 0.2), (-1, 0.2), (2.5, 0.2),
                                     (3, 0.0), (3, 0.5), (3, 0.7), (3, -0.1),
                                     (True, 0.2), (math.nan, 0.2),
                                     (math.inf, 0.2), ("10", 0.2),
                                     (3, math.nan), (3, True), (3, "0.2"),
                                     (3, 5e-324), (3, 1e-320), (3, 2.2e-308),
                                     (3, Fraction(1, 2) - Fraction(1, 10 ** 30))])
    def test_invalid(self, N, W):
        with pytest.raises(ValueError):
            DiscreteParams(N, W)

    @pytest.mark.parametrize("N", [10.0, np.int64(10), np.float64(10.0)])
    def test_integral_N_stored_as_int(self, N):
        params = DiscreteParams(N, 0.2)
        assert type(params.N) is int and params.N == 10
        assert abs(spectrum(params).values.sum() - 4.0) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_float_W_and_c_computed_in_double(self, dtype):
        # NumPy 2 promotion would keep 2NW and pi N W in a float32 W's precision
        W, c = dtype(0.3), dtype(6.0 * math.pi)
        params = DiscreteParams(30, W)
        assert type(params.W) is float and params.W == float(W)
        for method in METHODS:
            assert spectrum(params, method).values.sum() == pytest.approx(
                60.0 * float(W), rel=1e-12)
        assert legendre_spectrum(c, 30).sum() == pytest.approx(
            2.0 * float(c) / math.pi, rel=1e-12)
        report = verify_all((30,), (W,), (0.05,))
        assert report.passed
        assert {type(check.params["W"]) for check in report.checks
                if "W" in check.params} == {float}
        assert DiscreteParams(30, Fraction(3, 10)).W == 0.3   # rounded to its double

    def test_bandwidth(self):
        assert DiscreteParams(60, 0.3).bandwidth == pytest.approx(
            math.pi * 18, rel=1e-15)


class TestProlateMatrix:
    def test_order_one_is_diagonal_value(self):
        A = prolate_matrix(DiscreteParams(1, 0.37))
        assert A.shape == (1, 1) and abs(A[0, 0] - 0.74) <= 1e-16

    def test_two_by_two_quarter_band(self):
        A = prolate_matrix(DiscreteParams(2, 0.25))
        expected = np.array([[0.5, 1 / math.pi], [1 / math.pi, 0.5]])
        assert A == pytest.approx(expected, abs=1e-16)

    def test_zero_entry_at_offset_two(self):
        A = prolate_matrix(DiscreteParams(3, 0.25))
        assert abs(A[0, 2]) <= 1e-16   # sin(pi)/(2 pi)

    def test_exact_symmetry(self):
        A = prolate_matrix(DiscreteParams(41, 0.123))
        assert (A == A.T).all()

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 60, 61, 500, 2001])
    @pytest.mark.parametrize("W", [0.01, 0.3, 0.45])
    def test_matches_indexed_lag_vector(self, N, W):
        # rho(n) = sin(2 pi t) / (pi n) at the exactly reduced phase t, 2W at 0
        idx = np.arange(N)
        lag = np.full(N, 2.0 * W)
        lag[1:] = np.sin(2.0 * np.pi * _exact_phase(W, idx[1:])) / (np.pi * idx[1:])
        rho = prolate_matrix(DiscreteParams(N, W))
        assert np.array_equal(rho, lag[np.abs(idx[:, None] - idx[None, :])])
        assert rho.flags.c_contiguous and rho.flags.writeable

    @pytest.mark.parametrize("W", [0.2, 0.25, 0.3, 0.45, 0.01, 1 / 3, 0.123,
                                   2.2250738585072014e-308])
    def test_phase_is_correctly_rounded(self, monkeypatch, W):
        # lags near 0 and near +-2**53, the range extend_dpss reaches; Dekker's
        # two-product reduction gave -1/2 at (0.2, -2**53), where W d is k + 1/2,
        # and 1/2 at (1/3, -2**53 - 3), where the phase is -0.49999999999999994
        lags = np.concatenate([np.arange(-40, 41), 2 ** 53 - np.arange(40),
                               -2 ** 53 - np.arange(40), 2 ** 52 + np.arange(40)])
        seen = []
        real = discrete.sinc_kernel
        monkeypatch.setattr(discrete, "sinc_kernel",
                            lambda x, y, at_zero: seen.append(x) or real(x, y, at_zero))
        discrete._rho(W, lags)
        assert np.array_equal(seen[0], 2.0 * np.pi * _exact_phase(W, lags))

    def test_peak(self):
        # one N x N result; no N x N index array beside it
        N = 2000
        params = DiscreteParams(N, 0.3)
        tracemalloc.start()
        try:
            prolate_matrix(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * N * N * 8


class TestCommutingTridiagonal:
    def test_order_one(self):
        T = commuting_tridiagonal(DiscreteParams(1, 0.3))
        assert T.diagonal == pytest.approx([0.0], abs=0)

    def test_two_by_two_quarter_band(self):
        T = commuting_tridiagonal(DiscreteParams(2, 0.25))
        assert np.max(np.abs(T.diagonal)) <= 1e-16   # cos(pi/2) ~ 6e-17
        assert T.offdiag == pytest.approx([0.5], abs=0)

    def test_three_by_three(self):
        T = commuting_tridiagonal(DiscreteParams(3, 0.1))
        c = math.cos(0.2 * math.pi)
        assert T.diagonal == pytest.approx([c, 0.0, c], abs=1e-15)
        assert T.offdiag == pytest.approx([1.0, 1.0], abs=0)


class TestSpectrum:
    def test_scalar_case(self):
        disc = spectrum(DiscreteParams(1, 0.2))
        assert disc.values == pytest.approx([0.4], abs=1e-16)
        assert disc.dpss.tolist() == [[1.0]]

    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_two_by_two_closed_form(self, method):
        disc = spectrum(DiscreteParams(2, 0.25), method=method)
        expected = [0.5 + 1 / math.pi, 0.5 - 1 / math.pi]
        assert disc.values == pytest.approx(expected, abs=1e-14)
        root = 1 / math.sqrt(2)
        assert np.abs(disc.dpss) == pytest.approx(
            np.full((2, 2), root), abs=1e-14)

    def test_trace_identity(self, get_spectrum):
        disc = get_spectrum(60, 0.3)
        assert abs(disc.values.sum() - 36.0) <= 1e-9
        assert abs(disc.values.sum() - 36.0) / 36.0 <= 1e-11

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (60, 0.4), (25, 0.25)])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_invariants(self, get_spectrum, N, W, method):
        disc = get_spectrum(N, W, method)
        assert np.max(np.abs(np.linalg.norm(disc.dpss, axis=0) - 1)) <= 1e-13
        flipped = np.abs(disc.dpss[::-1, :])
        assert np.max(np.abs(np.abs(disc.dpss) - flipped)) <= 1e-10
        trusted = disc.values[disc.values >= 1e-13]
        assert (trusted > 0).all() and trusted[0] <= 1.0 + 1e-13
        lead = np.argmax(np.abs(disc.dpss), axis=0)
        assert (disc.dpss[lead, np.arange(N)] > 0).all()

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (120, 0.2)])
    def test_cross_route_values(self, get_spectrum, N, W):
        a = get_spectrum(N, W, "toeplitz")
        b = get_spectrum(N, W, "tridiag")
        mask = a.values >= 1e-12
        assert np.max(np.abs(a.values[mask] - b.values[mask])) <= 1e-10

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3)])
    def test_cross_route_vectors(self, get_spectrum, N, W):
        a = get_spectrum(N, W, "toeplitz")
        b = get_spectrum(N, W, "tridiag")
        gaps = np.empty(N)
        lam = a.values
        for k in range(N):
            left = lam[k - 1] - lam[k] if k else np.inf
            right = lam[k] - lam[k + 1] if k + 1 < N else np.inf
            gaps[k] = min(left, right)
        for k in np.flatnonzero(gaps >= 1e-6):
            overlap = abs(np.dot(a.dpss[:, k], b.dpss[:, k]))
            assert overlap >= 1 - 1e-8

    @pytest.mark.parametrize("N,W", [(2000, 0.3), (2001, 0.1), (2000, 0.45)])
    @pytest.mark.parametrize("method", METHODS)
    def test_values_lie_in_the_unit_interval_at_scale(self, get_spectrum, N, W, method):
        # README: values lie in (0, 1] to within about 1e-14, untrusted ones too
        values = get_spectrum(N, W, method).values
        assert values.min() >= -1e-14 and values.max() <= 1.0 + 1e-14

    @pytest.mark.parametrize("N", [60, 61])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_parity_pure_by_construction(self, get_spectrum, N, method):
        V = get_spectrum(N, 0.3, method).dpss
        assert (np.abs(V) == np.abs(V[::-1])).all()

    def test_toeplitz_route_checks_eigen_contract(self, monkeypatch):
        # rotating two eigenvectors of a parity block keeps every invariant
        # that _validate checks; only the solver's residual check sees it
        eigh = np.linalg.eigh

        def rotated(A):
            values, vectors = eigh(A)
            c, s = math.cos(1e-4), math.sin(1e-4)
            vectors[:, [-2, -1]] = vectors[:, [-2, -1]] @ np.array([[c, -s], [s, c]])
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", rotated)
        with pytest.raises(NumericalFailure, match="residual"):
            spectrum(DiscreteParams(20, 0.1), method="toeplitz")

    def test_bad_method(self):
        with pytest.raises(ValueError):
            spectrum(DiscreteParams(4, 0.1), method="fft")


class TestModeOrder:
    """Column k is Slepian's mode k: parity (-1)^k on every route, and on the
    tridiag route the column of scipy's dpss at index k."""

    POINTS = [(60, 0.3), (61, 0.25), (200, 0.1)]

    @pytest.mark.parametrize("N,W", POINTS)
    def test_tridiag_columns_match_scipy_dpss(self, get_spectrum, N, W):
        from scipy.signal.windows import dpss
        V = get_spectrum(N, W).dpss
        overlap = np.abs(np.einsum("kn,nk->k", dpss(N, N * W, Kmax=N), V))
        assert np.min(overlap) >= 1 - 1e-12

    @pytest.mark.parametrize("N,W", POINTS)
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_parity_and_descent(self, get_spectrum, N, W, method):
        disc = get_spectrum(N, W, method)
        assert_mode_order(disc.values, disc.dpss)

    @pytest.mark.parametrize("c", [5.0, 18.85, 56.55])
    def test_nystrom_parity_and_descent(self, get_nystrom, c):
        cont = get_nystrom(c)
        assert_mode_order(cont.values, cont.grid_vectors)

    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_wave_functions_are_real(self, get_spectrum, method):
        disc = get_spectrum(60, 0.3, method)
        assert dpswf_matrix(disc, np.linspace(-0.5, 0.5, 201)).dtype == np.float64
        # a scalar point and mode give a 1 x 1 array
        assert dpswf_matrix(disc, 0.1, 1).shape == (1, 1)


class TestBandGrams:
    @pytest.mark.parametrize("N", [1, 2, 7, 60, 61])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_blocks_of_the_full_size_gram(self, get_spectrum, N, method):
        disc = get_spectrum(N, 0.3, method)
        full = disc.dpss.T @ prolate_matrix(disc.params) @ disc.dpss
        even, odd = band_grams(disc)
        assert even.shape == ((N + 1) // 2,) * 2 and odd.shape == (N // 2,) * 2
        assert np.max(np.abs(even - full[0::2, 0::2])) <= 1e-14
        assert np.max(np.abs(odd - full[1::2, 1::2]), initial=0.0) <= 1e-14
        # the entries between parities are zero but for rounding
        assert np.max(np.abs(full[0::2, 1::2]), initial=0.0) <= 1e-14

    def test_diagonal_is_the_spectrum(self, spec60_03):
        even, odd = band_grams(spec60_03)
        assert np.max(np.abs(np.diag(even) - spec60_03.values[0::2])) <= 1e-14
        assert np.max(np.abs(np.diag(odd) - spec60_03.values[1::2])) <= 1e-14

    @pytest.mark.parametrize("N,W", [(60, 0.3), (61, 0.3), (500, 0.45),
                                     (2000, 0.3), (2001, 0.1)])
    @pytest.mark.parametrize("method", METHODS)
    def test_gram_is_diag_of_the_spectrum(self, get_spectrum, N, W, method):
        # double orthogonality, which the native cosine-sum residual reads
        disc = get_spectrum(N, W, method)
        for odd, G in enumerate(band_grams(disc)):
            assert np.max(np.abs(G - np.diag(disc.values[odd::2]))) <= 1e-13


def _random_cases(seed=90125, count=8):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(2, 150)), float(rng.uniform(0.01, 0.49)))
            for _ in range(count)]


class TestRandomisedSweep:
    """Spectrum invariants over randomly drawn (N, W), seeded."""

    CASES = _random_cases()

    @pytest.mark.parametrize("N,W", CASES)
    def test_invariants_hold(self, N, W):
        disc = spectrum(DiscreteParams(N, W))
        assert abs(disc.values.sum() - 2 * N * W) / (2 * N * W) <= 1e-11
        assert np.max(np.abs(np.abs(disc.dpss)
                             - np.abs(disc.dpss[::-1, :]))) <= 1e-10
        trusted = disc.values[disc.values >= 1e-13]
        assert (trusted > 0).all() and trusted[0] <= 1 + 1e-13
        other = spectrum(DiscreteParams(N, W), method="toeplitz")
        mask = disc.values >= 1e-12
        assert np.max(np.abs(disc.values[mask]
                             - other.values[mask])) <= 1e-10

    def test_moderate_scale(self):
        disc = spectrum(DiscreteParams(512, 0.25))
        assert abs(disc.values.sum() - 256.0) / 256.0 <= 1e-11
        assert symmetry_defect(disc, spectrum(DiscreteParams(512, 0.25), "toeplitz")) <= 1e-10

    @pytest.mark.parametrize("W", [1e-6, 0.499999])
    def test_extreme_bandwidths(self, W):
        disc = spectrum(DiscreteParams(8, W))
        assert abs(disc.values.sum() - 16 * W) / (16 * W) <= 1e-11
        assert np.max(np.abs(np.abs(disc.dpss)
                             - np.abs(disc.dpss[::-1, :]))) <= 1e-10


class TestDpswf:
    def test_single_mode_is_constant_one(self):
        disc = spectrum(DiscreteParams(1, 0.3))
        U = dpswf_matrix(disc, [-0.4, 0.0, 0.27, 1.3], [0])
        assert U == pytest.approx(np.ones((4, 1)), abs=1e-15)

    @pytest.mark.parametrize("N,W", [(60, 0.3), (7, 0.2), (8, 0.2)])
    def test_periodicity(self, get_spectrum, N, W):
        disc = get_spectrum(N, W)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-0.5, 0.5, size=100)
        sign = (-1.0) ** (N - 1)
        for k in (0, 1, N // 2, N - 1):
            u0 = dpswf_matrix(disc, xs, np.array([k]))[:, 0]
            u1 = dpswf_matrix(disc, xs + 1.0, np.array([k]))[:, 0]
            assert np.max(np.abs(u1 - sign * u0)) <= 1e-12

    def test_two_by_two_at_zero(self):
        disc = spectrum(DiscreteParams(2, 0.25))
        assert dpswf_matrix(disc, 0.0, 0)[0, 0] ** 2 == pytest.approx(2.0, abs=1e-13)

    def test_index_range(self, spec60_03):
        with pytest.raises(ValueError, match=r"mode index k=60 outside \[0, 59\]"):
            dpswf_matrix(spec60_03, 0.0, 60)

    @pytest.mark.parametrize("k", [-1, 61])
    def test_matrix_index_range(self, get_spectrum, k):
        # a negative k would otherwise pick the other parity's sum
        with pytest.raises(ValueError, match=rf"mode index k={k} outside \[0, 60\]"):
            dpswf_matrix(get_spectrum(61, 0.25), [0.0, 0.1], [0, k])

    @pytest.mark.parametrize("k", [0.5, True])
    def test_index_must_be_an_integer(self, get_spectrum, k):
        # 0.5 would otherwise be truncated to mode 0, True taken as mode 1
        message = rf"mode index k={k} is not an integer in \[0, 60\]"
        spec = get_spectrum(61, 0.25)
        with pytest.raises(ValueError, match=message):
            dpswf_matrix(spec, 0.1, k)
        with pytest.raises(ValueError, match=message):
            dpswf_matrix(spec, [0.0, 0.1], [0, k])

    @pytest.mark.parametrize("N,W", [(60, 0.3), (61, 0.25)])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_half_length_sums_match_complex_definition(self, get_spectrum,
                                                       N, W, method):
        # U_k(x) = eps_k sum_n v_n exp(-i pi (N-1-2n) x), eps_k = 1 or i
        disc = get_spectrum(N, W, method)
        xs = np.concatenate([np.random.default_rng(7).uniform(-0.5, 0.5, 300),
                             [0.0, -0.5, 0.5]])
        phases = np.exp(-1j * np.pi * np.outer(xs, N - 1 - 2 * np.arange(N)))
        eps = np.where(np.arange(N) % 2 == 0, 1.0, 1.0j)
        reference = (phases @ disc.dpss) * eps
        U = dpswf_matrix(disc, xs)
        assert U.dtype == np.float64
        peak = np.max(np.abs(U), axis=0)
        assert (np.max(np.abs(U - reference), axis=0) <= 1e-13 * peak).all()
        # a column subset in any order evaluates the same columns
        k = np.array([N - 1, 0, 3, 2])
        subset = dpswf_matrix(disc, xs, k)
        assert np.max(np.abs(subset - U[:, k])) <= 1e-15 * peak.max()

    def test_unit_norm_over_period(self, spec60_03):
        # orthonormality on [-1/2, 1/2] via quadrature
        from slepian.numkit import gauss_legendre
        rule = gauss_legendre(256).scaled(0.5)
        U = dpswf_matrix(spec60_03, rule.nodes, np.arange(6))
        gram = (U.conj().T * rule.weights[None, :]) @ U
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-12


class TestPublicApi:
    def test_one_band_gram_one_evaluator_no_unread_fields(self):
        import slepian
        from slepian.continuous import ContinuousSpectrum
        for name in ("concentration", "dpswf", "prolate_matrix"):
            assert name not in slepian.__all__ and not hasattr(slepian, name)
        assert [f.name for f in dataclasses.fields(discrete.DiscreteSpectrum)] == [
            "params", "values", "dpss"]
        assert [f.name for f in dataclasses.fields(ContinuousSpectrum)] == [
            "values", "grid_vectors", "rule"]

    def test_exports_are_the_documented_surface(self):
        # numkit internals, the tolerance override and the submodules stay out
        import slepian
        assert set(slepian.__all__) == {
            "BoundCheck", "BoundReport", "ContinuousSpectrum", "DiscreteParams",
            "DiscreteSpectrum", "IllConditionedError", "NumericalFailure",
            "ProjectionResult", "TestFunction", "Tolerances", "band_grams",
            "commutation_defect", "compare_spectra", "comparison_constant",
            "concentration_inequality_constant", "dpswf_matrix", "eigenspace_bound",
            "eigenvalue_tail_bound", "extend_dpss", "hs_lower_bound", "hs_norm_sq",
            "kernel_hs_distance", "kernel_hs_distance_bound", "legendre_spectrum",
            "mirror_params", "nystrom_spectrum", "plunge_count_bound",
            "plunge_count_bound_coarse", "plunge_count_estimate", "plunge_decay_rate",
            "plunge_index", "plunge_mass", "project_dilated", "project_native",
            "projection_sweep", "projector_distance", "sobolev_norm", "spectrum",
            "superexponential_decay_bound", "symmetry_defect", "verify_all",
            "verify_comparison"}
        for name in ("EigenSystem", "QuadratureRule", "SymTridiag", "eig_sym",
                     "eig_symtridiag", "gauss_legendre", "snapped_floor",
                     "default_order", "commuting_tridiagonal", "current_tolerances",
                     "using_tolerances"):
            assert not hasattr(slepian, name)


class TestConcentration:
    """Band inner products v_j^T rho v_k, from ``band_grams``."""

    def test_scalar_case(self):
        even, odd = band_grams(spectrum(DiscreteParams(1, 0.2)))
        assert even.tolist() == [[0.4]] and odd.shape == (0, 0)   # [[2W]]

    def test_diagonal_and_off_diagonal(self, spec60_03):
        # mode k is row k // 2 of the Gram of its parity (-1)^k
        grams = band_grams(spec60_03)
        for j in (0, 5, 20):
            assert abs(grams[j % 2][j // 2, j // 2] - spec60_03.values[j]) <= 1e-10
        for j, k in ((0, 2), (3, 11), (6, 40), (1, 59)):
            assert abs(grams[j % 2][j // 2, k // 2]) <= 1e-10

    def test_full_double_orthogonality(self, spec60_03):
        rho = prolate_matrix(spec60_03.params)
        gram = spec60_03.dpss.T @ rho @ spec60_03.dpss
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.diag(gram) - spec60_03.values)) <= 1e-12

    def test_coefficient_orthonormality(self, spec60_03):
        gram = spec60_03.dpss.T @ spec60_03.dpss
        assert np.max(np.abs(gram - np.eye(60))) <= 1e-12


class TestSymmetry:
    def test_scalar(self):
        params = DiscreteParams(1, 0.2)
        assert symmetry_defect(spectrum(params), spectrum(mirror_params(params))) <= 1e-16
        assert symmetry_defect(spectrum(params)) <= 1e-16

    def test_self_dual_quarter(self, get_spectrum):
        disc = get_spectrum(60, 0.25)
        assert np.max(np.abs(disc.values + disc.values[::-1] - 1.0)) <= 1e-10

    @pytest.mark.parametrize("N,W", [(60, 0.1), (60, 0.3), (30, 0.2), (17, 0.05)])
    @pytest.mark.parametrize("method", METHODS)
    def test_defect(self, get_spectrum, N, W, method):
        for mirror_method in METHODS:   # the spec's route x the mirror's route
            assert symmetry_defect(get_spectrum(N, W, method),
                                   get_spectrum(N, 0.5 - W, mirror_method)) <= 1e-10
        assert symmetry_defect(get_spectrum(N, W, method)) <= 1e-10   # values only

    @pytest.mark.parametrize("N,W", [(1, 0.2), (2, 0.3), (17, 0.05), (60, 0.1),
                                     (61, 0.25), (400, 0.3), (401, 0.45)])
    def test_mirror_values_are_the_toeplitz_values(self, N, W):
        # eigvalsh's values of the same parity blocks: equal to rounding, in
        # the same mode order, and never worse against the tridiag route
        params = DiscreteParams(N, W)
        full = spectrum(mirror_params(params), "toeplitz").values
        mu = mirror_values(params)
        assert mu.shape == (N,)
        assert np.max(np.abs(mu - full)) <= 1e-14
        gap = abs(symmetry_defect(spectrum(params)) - symmetry_defect(
            spectrum(params), spectrum(mirror_params(params), "toeplitz")))
        assert gap <= 4e-15

    @pytest.mark.parametrize("method", METHODS)
    def test_default_mirror_solves_no_vector(self, monkeypatch, method):
        spec = spectrum(DiscreteParams(31, 0.2), method)
        mu = mirror_values(spec.params)

        def forbidden(*args, **kwargs):
            raise AssertionError("the default mirror made a vector solve")

        for name in ("spectrum", "eig_sym", "eig_symtridiag", "parity_spectrum"):
            monkeypatch.setattr(discrete, name, forbidden)
        assert symmetry_defect(spec) == np.max(np.abs(mu - (1.0 - spec.values[::-1])))

    @pytest.mark.parametrize("method", METHODS)
    def test_values_at_hand_are_reused(self, monkeypatch, method):
        # both spectra are given: symmetry_defect solves nothing
        spec = spectrum(DiscreteParams(30, 0.2), method)
        mirror = spectrum(DiscreteParams(30, 0.5 - 0.2), "toeplitz")

        def forbidden(*args, **kwargs):
            raise AssertionError("symmetry_defect made a solve")

        for name in ("spectrum", "eig_sym", "eig_symtridiag"):
            monkeypatch.setattr(discrete, name, forbidden)
        assert symmetry_defect(spec, mirror) == np.max(
            np.abs(mirror.values - (1.0 - spec.values[::-1])))

    @pytest.mark.parametrize("N,W", [(31, 0.5 - 0.2), (30, 0.2),
                                     (30, math.nextafter(0.5 - 0.2, 1.0))])
    def test_rejects_a_mirror_off_the_reflected_point(self, N, W):
        spec = spectrum(DiscreteParams(30, 0.2))
        with pytest.raises(ValueError, match=r"mirror is not at \(N, 1/2 - W\)"):
            symmetry_defect(spec, spectrum(DiscreteParams(N, W), "toeplitz"))

    def test_mirror_params(self):
        assert mirror_params(DiscreteParams(30, 0.1)) == DiscreteParams(30, 0.4)
        assert mirror_params(DiscreteParams(7, 0.25)) == DiscreteParams(7, 0.25)

    @pytest.mark.parametrize("W", [1e-300, 1e-17])
    def test_reflection_that_rounds_to_half_is_out_of_range(self, W):
        # 1/2 - W rounds to 1/2 for W <= 2^-55: there is no mirror to compare
        spec = spectrum(DiscreteParams(30, W))
        for call in (lambda: mirror_params(spec.params), lambda: mirror_values(spec.params),
                     lambda: symmetry_defect(spec), lambda: symmetry_defect(spec, spec)):
            with pytest.raises(OutOfRangeError, match=f"rounds to 1/2 at W={W:g}"):
                call()

    def test_smallest_resolvable_reflection_runs(self):
        assert 0.5 - 3e-17 < 0.5
        params = DiscreteParams(30, 3e-17)
        mirror = spectrum(mirror_params(params), "toeplitz")
        assert symmetry_defect(spectrum(params), mirror) <= 1e-10
        assert symmetry_defect(spectrum(params)) <= 1e-10


class TestCommutation:
    @staticmethod
    def defect(params):
        return commutation_defect(params)

    def test_scalar_commutes(self):
        assert self.defect(DiscreteParams(1, 0.3)) == 0.0

    def test_two_by_two(self):
        assert self.defect(DiscreteParams(2, 0.25)) <= 1e-14

    @pytest.mark.parametrize("N,W", [(60, 0.3), (30, 0.1), (120, 0.4)])
    def test_grid(self, N, W):
        assert self.defect(DiscreteParams(N, W)) <= 1e-12

    @pytest.mark.parametrize("N,W", [(1, 0.3), (2, 0.25), (61, 0.3), (500, 0.45), (2000, 0.3)])
    def test_matches_dense_formula(self, N, W):
        # the parent's dense formula: the N x N product T rho and its transpose
        params = DiscreteParams(N, W)
        T, rho = commuting_tridiagonal(params), prolate_matrix(params)
        X = T.apply(rho)
        dense = float(np.linalg.norm(X.T - X) / (1.0 + np.linalg.norm(rho) * math.sqrt(
            T.diagonal @ T.diagonal + 2.0 * (T.offdiag @ T.offdiag))))
        assert commutation_defect(params) == pytest.approx(dense, rel=1e-12, abs=0)

    def test_detects_non_commuting_matrix(self, monkeypatch):
        params = DiscreteParams(30, 0.2)
        T = commuting_tridiagonal(params)
        bent = SymTridiag(T.diagonal + np.linspace(0.0, 1.0, 30), T.offdiag)
        monkeypatch.setattr(discrete, "commuting_tridiagonal", lambda p: bent)
        rho, sig = prolate_matrix(params), bent.apply(np.eye(30))
        dense = (np.linalg.norm(rho @ sig - sig @ rho)
                 / (1.0 + np.linalg.norm(rho) * np.linalg.norm(sig)))
        assert dense > 1e-4
        assert commutation_defect(params) == pytest.approx(dense, rel=1e-12, abs=0)


class TestExtend:
    def test_scalar_case(self):
        disc = spectrum(DiscreteParams(1, 0.25))
        assert extend_dpss(disc, 0, 1) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_reproduces_inside(self, get_spectrum):
        disc = get_spectrum(20, 0.15, "toeplitz")
        for k in (0, 1, 2):
            for n in range(20):
                assert abs(extend_dpss(disc, k, n)
                           - disc.dpss[n, k]) <= 1e-9

    def test_far_tail_decays(self, get_spectrum):
        disc = get_spectrum(20, 0.15, "toeplitz")
        for k in (0, 1, 2):
            assert abs(extend_dpss(disc, k, 200)) <= abs(extend_dpss(disc, k, 20))
            assert abs(extend_dpss(disc, k, -181)) <= abs(extend_dpss(disc, k, -1))

    # 60-digit mpmath sums sum_j v_j sin(2 pi W (n-j)) / (pi (n-j)) / lambda_0
    # over the float64 tridiag-route vector v of (30, 0.2), mode 0;
    # n = -2**53 takes lags n - j beyond 2**53
    @pytest.mark.parametrize("n,reference", [
        (10 ** 3, 1.5380559745193923e-11), (10 ** 6, 1.9606125809280158e-14),
        (10 ** 9, 1.961000890325596e-17), (10 ** 12, 1.96118936653135e-20),
        (2 ** 53 - 30, -2.1771485620095423e-24), (-2 ** 53, 2.177148562009637e-24)])
    def test_far_values_match_mpmath(self, get_spectrum, n, reference):
        value = extend_dpss(get_spectrum(30, 0.2), 0, n)
        assert value == pytest.approx(reference, rel=1e-8, abs=0)

    @pytest.mark.parametrize("k,n,message", [
        (0.5, 3, "mode index k=0.5 is not an integer in [0, 59]"),
        (60, 3, "mode index k=60 outside [0, 59]"),
        (2, 3.5, "sequence index n=3.5 is not an integer in "
                 "[-9007199254740992, 9007199254740992]"),
        (2, False, "sequence index n=False is not an integer in "
                   "[-9007199254740992, 9007199254740992]"),
        # past 2**53 float64 lags are not exact; 10**30 is no C long either
        (2, 10 ** 30, f"sequence index n={10 ** 30} outside "
                      "[-9007199254740992, 9007199254740992]")])
    def test_index_checks(self, get_spectrum, k, n, message):
        with pytest.raises(ValueError) as info:
            extend_dpss(get_spectrum(60, 0.1), k, n)
        assert str(info.value) == message

    def test_floor_error(self, get_spectrum):
        disc = get_spectrum(30, 0.1)
        assert disc.values[29] < 1e-8
        with pytest.raises(IllConditionedError):
            extend_dpss(disc, 29, 35)

    def test_floor_read_at_call_time(self, get_spectrum, monkeypatch):
        disc = get_spectrum(30, 0.1)
        assert 1e-8 < disc.values[6] < 0.5
        extend_dpss(disc, 6, 35)
        monkeypatch.setattr(config, "TOLERANCES",
                            dataclasses.replace(config.TOLERANCES, tail_floor=0.5))
        with pytest.raises(IllConditionedError):
            extend_dpss(disc, 6, 35)


def _mp_prolate_values(N, W, dps=40):
    """Eigenvalues of the prolate matrix for the double W, by mpmath eigsy."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        w = mpmath.mpf(W)
        A = mpmath.matrix(N, N)
        for i in range(N):
            for j in range(N):
                k = abs(i - j)
                A[i, j] = 2 * w if k == 0 else (
                    mpmath.sin(2 * mpmath.pi * w * k) / (mpmath.pi * k))
        values = mpmath.eigsy(A, eigvals_only=True)
        return np.sort(np.array([float(v) for v in values]))[::-1]


class TestMpmathOracle:
    """Values above the trust floor against a 40-digit eigensolve."""

    @pytest.mark.parametrize("N,W", [(11, 1 / 6), (24, 0.1), (24, 0.3), (25, 0.2)])
    def test_trusted_values_match(self, get_spectrum, N, W):
        reference = _mp_prolate_values(N, W)
        for method in ("toeplitz", "tridiag"):
            values = get_spectrum(N, W, method).values
            trusted = values >= Tolerances().floor_untrusted
            assert np.max(np.abs(values[trusted] - reference[trusted])) <= 4e-15


def _reference_lift(Ue, Uo, n):
    """[u; +-Ju] / sqrt(2) stacked into a new array, block columns in order."""
    h = n // 2
    r = 1.0 / math.sqrt(2.0)
    return np.hstack([
        np.vstack([Ue[:h] * r, Ue[h:], Ue[:h][::-1] * r]),
        np.vstack([Uo * r, np.zeros((n % 2, Uo.shape[1])), -Uo[::-1] * r])])


def _interleaved(values, vectors):
    """Block-ordered values and columns (even block, then odd) moved to the
    parity order: the even block to 0::2, the odd block to 1::2."""
    n = len(values)
    slots = np.r_[0:n:2, 1:n:2]   # block column j goes to column slots[j]
    out_values, out_vectors = np.empty(n), np.empty_like(vectors)
    out_values[slots], out_vectors[:, slots] = values, vectors
    return out_values, out_vectors


def _signed(vectors):
    """Columns negated in place where their first largest |entry| is negative."""
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors[:, vectors[lead, np.arange(vectors.shape[1])] < 0] *= -1.0
    return vectors


def _reference_spectrum(params, method):
    """The full-size construction: blocks of the N x N prolate matrix (or, on
    the tridiag route, the FFT quotients), lift, interleave, then the sign
    convention on the lifted vectors."""
    N = params.N
    if method == "toeplitz":
        systems = [eig_sym(B) for B in parity_blocks(prolate_matrix(params))[:1 + (N > 1)]]
        values = np.concatenate([s.values for s in systems])
    else:
        T_blocks = tridiag_parity_blocks(discrete.commuting_tridiagonal(params))
        systems = [eig_symtridiag(T) for T in T_blocks[:1 + (N > 1)]]
        lag = discrete._rho(params.W, np.arange(N))
        values = np.concatenate([discrete._block_quotients(lag, s.vectors, odd)
                                 for odd, s in enumerate(systems)])
    Uo = systems[1].vectors if N > 1 else np.zeros((0, 0))
    values, vectors = _interleaved(values, _reference_lift(systems[0].vectors, Uo, N))
    return values, _signed(vectors)


class TestBitIdentity:
    """The lag-vector blocks and the interleaved in-place lift change no bit."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 60, 61, 301])
    @pytest.mark.parametrize("W", [0.01, 0.1, 0.3, 0.45])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_spectrum_matches_full_size_construction(self, N, W, method):
        params = DiscreteParams(N, W)
        values, vectors = _reference_spectrum(params, method)
        disc = spectrum(params, method)
        assert np.array_equal(disc.values, values)
        assert np.array_equal(disc.dpss, vectors)
        assert disc.dpss.flags.f_contiguous

    @pytest.mark.parametrize("N", [1, 2, 7, 60, 61])
    def test_blocks_from_lag_vector(self, N):
        params = DiscreteParams(N, 0.3)
        lag = discrete._rho(params.W, np.arange(N))
        for odd, old in enumerate(parity_blocks(prolate_matrix(params))):
            new = discrete._prolate_block(lag, odd)
            assert new.flags.c_contiguous and np.array_equal(new, old)

    @pytest.mark.parametrize("c,M", [(5.0, None), (18.85, 99)])
    def test_nystrom_matches_full_size_construction(self, c, M):
        order = M or default_order(c)
        rule = gauss_legendre(order)
        even, odd = parity_blocks(_sinc_kernel_matrix(c, rule.nodes, rule.weights))
        se, so = eig_sym(even), eig_sym(odd)
        values, vectors = _interleaved(np.concatenate([se.values, so.values]),
                                       _reference_lift(se.vectors, so.vectors, order))
        cont = nystrom_spectrum(c, M)
        assert np.array_equal(cont.values, values)
        assert np.array_equal(cont.grid_vectors, _signed(vectors))


class TestBlockQuotients:
    """The tridiag route's FFT Rayleigh quotients against the dense u^T B u."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 60, 61, 301, 2000])
    @pytest.mark.parametrize("W", [0.01, 0.1, 0.3, 0.45])
    def test_matches_dense_quotient(self, N, W):
        params = DiscreteParams(N, W)
        T_blocks = tridiag_parity_blocks(commuting_tridiagonal(params))
        lag, rng = discrete._rho(W, np.arange(N)), np.random.default_rng(N)
        for odd in (0, 1)[:1 + (N > 1)]:
            B, U = discrete._prolate_block(lag, odd), eig_symtridiag(T_blocks[odd]).vectors
            R = rng.standard_normal((len(U), 3))   # unit vectors, not eigenvectors
            for V in (U, R / np.linalg.norm(R, axis=0)):
                dense = np.einsum("ij,ij->j", V, B @ V)
                assert np.max(np.abs(discrete._block_quotients(lag, V, odd) - dense)) <= 1e-14

    @pytest.mark.parametrize("N", [1, 2, 61, 300])
    def test_tridiag_route_builds_no_prolate_block(self, monkeypatch, N):
        def refuse(*args):
            raise AssertionError("the tridiag route built a prolate block")

        monkeypatch.setattr(discrete, "_prolate_block", refuse)
        monkeypatch.setattr(discrete, "_prolate_view", refuse)
        assert spectrum(DiscreteParams(N, 0.3), "tridiag").values.shape == (N,)
        with pytest.raises(AssertionError, match="built a prolate block"):
            spectrum(DiscreteParams(N, 0.3), "toeplitz")

    @pytest.mark.parametrize("N", [1, 2, 61, 300])
    def test_toeplitz_route_builds_no_tridiagonal_block(self, monkeypatch, N):
        def refuse(*args):
            raise AssertionError("the toeplitz route built a tridiagonal block")

        monkeypatch.setattr(discrete, "tridiag_parity_blocks", refuse)
        assert spectrum(DiscreteParams(N, 0.3), "toeplitz").values.shape == (N,)
        with pytest.raises(AssertionError, match="built a tridiagonal block"):
            spectrum(DiscreteParams(N, 0.3), "tridiag")


@pytest.mark.parametrize("route,order", [*((m, n) for m in METHODS for n in (1, 2, 60, 61)),
                                         ("nystrom", 98), ("nystrom", 99)])
def test_lift_applies_the_sign_rule(route, order):
    # parity_spectrum makes the first largest |entry| of every column positive,
    # for the DPSS of both routes and for the Nystrom grid vectors alike
    if route == "nystrom":
        V = nystrom_spectrum(18.85, order).grid_vectors
    else:
        V = spectrum(DiscreteParams(order, 0.3), route).dpss
    lead = np.argmax(np.abs(V), axis=0)
    assert (V[lead, np.arange(order)] > 0).all()
    assert (V[::-1, 0::2] == V[:, 0::2]).all()
    assert (V[::-1, 1::2] == -V[:, 1::2]).all()


class TestMemory:
    @pytest.mark.parametrize("N", [400, 401])
    @pytest.mark.parametrize("method", ["toeplitz", "tridiag"])
    def test_full_spectrum_peak(self, N, method):
        # about N^2 doubles for the result and N^2 / 2 for the block vectors;
        # the toeplitz route builds one prolate block at a time next to them,
        # the tridiag route none (its quotients take 16 columns at a time)
        params = DiscreteParams(N, 0.3)
        assert traced_peak(lambda: spectrum(params, method)) <= 1.7 * N * N * 8

    def test_nystrom_peak(self):
        # the M x M kernel is never built: the result, the two block vector
        # arrays and one block at a time
        M = 1001
        peak = traced_peak(lambda: nystrom_spectrum(300.0, M))
        assert peak <= 1.6 * M * M * 8


class TestValidateChecks:
    """Each corruption of one column is caught."""

    N = 300

    @pytest.fixture
    def corrupted(self, get_spectrum):
        disc = get_spectrum(self.N, 0.3)
        V = disc.dpss.copy(order="F")
        assert discrete._validate(disc.params, disc.values, V) is None
        return disc, V

    def test_value_above_one_past_the_first(self, corrupted):
        # the values are not sorted: the largest may sit at any index
        disc, V = corrupted
        floor = Tolerances().floor_untrusted
        values = disc.values.copy()
        values[3] = 1.0 + 2.0 * floor
        assert values[0] <= 1.0 + floor
        with pytest.raises(NumericalFailure, match="interval"):
            discrete._validate(disc.params, values, V)

    @pytest.mark.parametrize("where, message", [
        ("value", "trace identity"), ("vector", "unit norm")])
    def test_nan_fails(self, corrupted, where, message):
        disc, V = corrupted
        values = disc.values.copy()
        if where == "value":
            values[self.N - 1] = math.nan
        else:
            V[0, self.N - 1] = math.nan
        with pytest.raises(NumericalFailure, match=message):
            discrete._validate(disc.params, values, V)

    def test_norm_defect(self, corrupted):
        disc, V = corrupted
        V[:, self.N - 1] *= 1.0 + 1e-12
        with pytest.raises(NumericalFailure, match="unit norm"):
            discrete._validate(disc.params, disc.values, V)
