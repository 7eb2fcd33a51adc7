import math

import numpy as np
import pytest

from slepian.approximation import (TestFunction, dilated_gram, project_dilated,
                                   project_native, sobolev_norm, weierstrass,
                                   weierstrass_terms)
from slepian.discrete import dpswf_matrix
from slepian.numkit import IllConditionedError, NumericalFailure, gauss_legendre


class TestWeierstrass:
    def test_value_at_zero(self):
        assert weierstrass(1.0, 0.0) == pytest.approx(2.0, abs=2e-12)
        assert weierstrass(2.0, 0.0) == pytest.approx(1 / (1 - 0.25), abs=2e-12)

    def test_uniform_bound(self):
        xs = np.linspace(-1, 1, 1001)
        values = weierstrass(1.0, xs)
        assert np.max(np.abs(values)) <= 1 / (1 - 0.5) + 1e-12

    def test_even(self):
        xs = np.linspace(0, 1, 257)
        assert np.max(np.abs(weierstrass(1.0, xs) - weierstrass(1.0, -xs))) <= 1e-14

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            weierstrass(0.0, 0.1)

    def test_overflowing_frequencies_rejected(self):
        # s = 1e-2 needs 3988 terms; frequencies past 2^1023 are not finite
        with pytest.raises(ValueError, match="overflow"):
            weierstrass_terms(1e-2)
        with pytest.raises(ValueError, match="overflow"):
            TestFunction.weierstrass(1e-2)

    def test_largest_finite_frequency_accepted(self):
        amps, freqs = weierstrass_terms(math.log2(1e12) / 1022.5)
        assert len(freqs) == 1024 and freqs[-1] == 2.0 ** 1023
        assert np.isfinite(amps).all() and amps[-1] <= 1e-12


class TestTestFunction:
    def test_sinc_at_zero(self):
        f = TestFunction.sinc_bandlimited(56.0)
        assert f(0.0) == pytest.approx(1.0, abs=1e-15)
        assert f(0.1) == pytest.approx(math.sin(5.6) / 5.6, rel=1e-14)

    def test_sinc_validation(self):
        with pytest.raises(ValueError):
            TestFunction.sinc_bandlimited(-2.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            TestFunction.from_samples(np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        good = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="finite"):
            TestFunction.from_samples(np.array([0.0, bad, 1.0]), good)
        with pytest.raises(ValueError, match="finite"):
            TestFunction.from_samples(good, np.array([0.0, bad, 1.0]))

    def test_samples_interpolate(self):
        f = TestFunction.from_samples(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert f(0.5) == pytest.approx(1.0)

    def test_weierstrass_terms_cover_tolerance(self):
        f = TestFunction.weierstrass(1.0)
        amps, freqs = f.cosine_terms
        assert amps[-1] <= 1e-12
        assert freqs[-1] == 2.0 ** (len(amps) - 1)


class TestSobolevNorm:
    def test_single_fourier_mode(self):
        f = TestFunction.from_callable(lambda x: np.exp(2j * np.pi * x))
        for s in (0.5, 1.0, 2.0):
            spec = sobolev_norm(f, s, "native")
            assert spec.norm ** 2 == pytest.approx(2.0 ** s, rel=1e-8)

    def test_constant(self):
        f = TestFunction.from_callable(lambda x: np.ones_like(x))
        assert sobolev_norm(f, 1.7, "native").norm == pytest.approx(1.0, rel=1e-10)

    def test_h0_is_l2(self):
        f = TestFunction.from_callable(lambda x: np.cos(2 * np.pi * x))
        spec = sobolev_norm(f, 0.0, "native")
        assert spec.norm == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_weierstrass_closed_form_h1(self):
        f = TestFunction.weierstrass(1.0)
        spec = sobolev_norm(f, 1.0, "native")
        # frozen from exact pairwise integrals, cross-checked against an FFT
        # of a short truncation that a grid can actually resolve
        assert spec.norm == pytest.approx(1.68368412919908, rel=1e-12)
        assert spec.coefficients is None

    def test_weierstrass_h0_matches_l2(self):
        f = TestFunction.weierstrass(1.0)
        spec = sobolev_norm(f, 0.0, "native")
        rule = gauss_legendre(2048).scaled(0.5)
        l2 = math.sqrt(np.sum(rule.weights * f(rule.nodes) ** 2))
        # the grid reference itself misses the terms beyond its resolution,
        # so it only confirms the closed form to ~5e-6
        assert spec.norm == pytest.approx(l2, rel=2e-5)

    def test_unresolvable_frequency_raises(self):
        # a pure cosine far above any admissible grid aliases differently at
        # every doubling, so the norm never stabilises
        f = TestFunction.from_callable(lambda x: np.cos(2.0 ** 30 * x))
        with pytest.raises(NumericalFailure):
            sobolev_norm(f, 1.0, "native")

    def test_closed_form_agrees_with_fft_on_resolvable_sum(self):
        terms = 10   # frequencies up to 2^9, resolvable on a modest grid
        amps = 2.0 ** -np.arange(terms)
        freqs = 2.0 ** np.arange(terms)
        f = TestFunction(kind="weierstrass", params={"s": 1.0},
                         evaluator=lambda x: np.cos(np.multiply.outer(x, freqs)) @ amps,
                         cosine_terms=(amps, freqs))
        closed = sobolev_norm(f, 1.0, "native").norm
        grid = TestFunction.from_callable(f.evaluator)
        fft = sobolev_norm(grid, 1.0, "native").norm
        assert closed == pytest.approx(fft, rel=1e-6)

    def test_dilated_interval_lattice_mode(self):
        # cos(pi x) is the n = +-1 lattice mode on (-1, 1): H^1 norm^2 = 2
        amps, freqs = np.array([1.0]), np.array([math.pi])
        f = TestFunction(kind="cosine", params={"s": 1.0},
                         evaluator=lambda x: np.cos(math.pi * x),
                         cosine_terms=(amps, freqs))
        closed = sobolev_norm(f, 1.0, "dilated")
        assert closed.norm ** 2 == pytest.approx(2.0, rel=1e-13)
        fft = sobolev_norm(TestFunction.from_callable(f.evaluator), 1.0,
                           "dilated")
        assert fft.norm ** 2 == pytest.approx(2.0, rel=1e-8)

    def test_invalid_arguments(self):
        f = TestFunction.weierstrass(1.0)
        with pytest.raises(ValueError):
            sobolev_norm(f, -1.0, "native")
        with pytest.raises(ValueError):
            sobolev_norm(f, 1.0, "half")


class TestProjectNative:
    def test_basis_reproduction(self, spec60_03):
        f = TestFunction.from_callable(
            lambda x: dpswf_matrix(spec60_03, x, np.array([0]))[:, 0])
        result = project_native(f, spec60_03, 1)
        assert result.residual_l2 <= 1e-11
        assert result.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        full = project_native(f, spec60_03, 10)
        assert np.max(np.abs(full.coefficients[1:])) <= 1e-12

    def test_constant_residual_decreases(self, get_spectrum):
        disc = get_spectrum(61, 0.3)
        f = TestFunction.from_callable(lambda x: np.ones_like(x))
        residuals = [project_native(f, disc, K).residual_l2
                     for K in range(1, 30, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_weierstrass_sobolev_bound_holds_on_valid_range(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        for K in range(47, 60):
            result = project_native(f, spec60_03, K)
            assert result.sobolev_rhs is not None
            assert result.sobolev_ok, (K, result.residual_l2, result.sobolev_rhs)

    def test_sobolev_bound_skipped_outside_range(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        result = project_native(f, spec60_03, 20)
        assert result.sobolev_ok is None
        assert "outside" in result.note

    def test_bessel_inequality(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        result = project_native(f, spec60_03, 60)
        # |f|^2 on [-1/2, 1/2] from the exact pairwise cosine integrals
        l2_sq = 2.2669772678290565
        assert np.sum(np.abs(result.coefficients) ** 2) <= l2_sq + 1e-10

    def test_quadrature_path_agrees_with_closed_form(self, spec60_03):
        # drop the cosine structure to force the grid path; the unresolvable
        # Weierstrass tail limits agreement to the grid's resolution
        f = TestFunction.weierstrass(1.0)
        g = TestFunction.from_callable(f.evaluator)
        a = project_native(f, spec60_03, 50)
        b = project_native(g, spec60_03, 50)
        assert b.residual_l2 == pytest.approx(a.residual_l2, rel=5e-2)
        assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-2

    def test_k_range(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        for K in (0, 61):
            with pytest.raises(ValueError):
                project_native(f, spec60_03, K)


class TestProjectDilated:
    def test_bandlimited_high_accuracy(self, spec60_03):
        f = TestFunction.sinc_bandlimited(56.0)
        result = project_dilated(f, spec60_03, 60)
        assert result.residual_sup <= 1e-8
        assert result.residual_l2 <= 1e-8

    def test_weierstrass_reference_residuals(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        r60 = project_dilated(f, spec60_03, 60)
        assert abs(r60.residual_l2 - 8.64e-3) / 8.64e-3 <= 0.10
        r36 = project_dilated(f, spec60_03, 36)
        assert abs(r36.residual_l2 - 2.43e-2) / 2.43e-2 <= 0.10

    def test_monotone_residuals(self, spec60_03):
        # nested-projection monotonicity, over the modes that are resolvable;
        # beyond the trust floor the SVD cutoff may reshuffle directions and
        # wiggle the residual at the 1e-9 level
        f = TestFunction.weierstrass(1.0)
        k_max = int(np.sum(spec60_03.values >= 1e-13))
        residuals = [project_dilated(f, spec60_03, K).residual_l2
                     for K in range(1, k_max + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_floor_exclusion_recorded(self, spec60_03):
        f = TestFunction.sinc_bandlimited(56.0)
        result = project_dilated(f, spec60_03, 60, lambda_floor=1e-13)
        assert result.excluded
        assert all(spec60_03.values[k] < 1e-13 for k in result.excluded)
        assert result.residual_sup <= 1e-6   # floor cutoff costs accuracy

    def test_all_modes_excluded(self, spec60_03):
        f = TestFunction.sinc_bandlimited(56.0)
        with pytest.raises(IllConditionedError):
            project_dilated(f, spec60_03, 10, lambda_floor=2.0)

    def test_untrusted_modes_have_no_coefficients(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        result = project_dilated(f, spec60_03, 60)
        assert set(result.untrusted).isdisjoint(result.coefficient_indices)
        for k in result.coefficient_indices:
            assert spec60_03.values[k] >= 1e-13

    def test_norm_identity(self, spec60_03):
        # integral of W |U_k(W x)|^2 over [-1, 1] equals lambda_k
        rule = gauss_legendre(512)
        U = dpswf_matrix(spec60_03, 0.3 * rule.nodes, np.arange(8))
        norms = np.sum(rule.weights[:, None] * 0.3 * np.abs(U) ** 2, axis=0)
        assert np.max(np.abs(norms - spec60_03.values[:8])) <= 1e-12


class TestDilatedGram:
    def test_orthonormal_for_resolvable_modes(self, spec60_03):
        modes = [k for k in range(60) if spec60_03.values[k] >= 1e-7]
        G = dilated_gram(spec60_03, modes)
        assert np.max(np.abs(G - np.eye(len(modes)))) <= 1e-9

    def test_parseval_on_projection(self, spec60_03):
        # coefficients in the dilated orthonormal family obey Bessel on [-1, 1]
        f = TestFunction.sinc_bandlimited(56.0)
        result = project_dilated(f, spec60_03, 40)
        rule = gauss_legendre(512)
        l2_sq = float(np.sum(rule.weights * f(rule.nodes) ** 2))
        assert np.sum(np.abs(result.coefficients) ** 2) <= l2_sq + 1e-9
