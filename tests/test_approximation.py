import dataclasses
import math
import re

import numpy as np
import pytest

from slepian import approximation, discrete
from slepian.approximation import (BASES, TestFunction, project_dilated,
                                   project_native, projection_sweep,
                                   sobolev_k_range, sobolev_norm,
                                   weierstrass_terms)
from slepian.discrete import band_grams, dpswf_matrix
from slepian.numkit import NumericalFailure, OutOfRangeError, gauss_legendre


class TestWeierstrass:
    def test_value_at_zero(self):
        assert TestFunction.weierstrass(1.0)(0.0) == pytest.approx(2.0, abs=2e-12)
        assert TestFunction.weierstrass(2.0)(0.0) == pytest.approx(
            1 / (1 - 0.25), abs=2e-12)

    def test_uniform_bound(self):
        xs = np.linspace(-1, 1, 1001)
        values = TestFunction.weierstrass(1.0)(xs)
        assert np.max(np.abs(values)) <= 1 / (1 - 0.5) + 1e-12

    def test_even(self):
        xs = np.linspace(0, 1, 257)
        f = TestFunction.weierstrass(1.0)
        assert np.max(np.abs(f(xs) - f(-xs))) <= 1e-14

    def test_invalid_s(self):
        for s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be positive and finite"):
                TestFunction.weierstrass(s)
            with pytest.raises(ValueError, match="must be positive and finite"):
                weierstrass_terms(s)

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
        for alpha in (-2.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be positive and finite"):
                TestFunction.sinc_bandlimited(alpha)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            TestFunction.from_samples(np.array([]), np.array([]))

    def test_unequal_sample_lengths_rejected(self):
        with pytest.raises(ValueError) as info:
            TestFunction.from_samples(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0]))
        assert type(info.value) is ValueError
        assert str(info.value) == "x and y sample arrays differ in length"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        good = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="finite"):
            TestFunction.from_samples(np.array([0.0, bad, 1.0]), good)
        with pytest.raises(ValueError, match="finite"):
            TestFunction.from_samples(good, np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("big", [1.1e150, -1e308])
    def test_sample_values_that_overflow_the_fit_rejected(self, big):
        # the L2 residual squares f: near 1e154 it overflowed to a NaN fit
        with pytest.raises(ValueError, match="must not exceed 1e150"):
            TestFunction.from_samples(np.array([-1.0, 0.0, 1.0]), np.array([0.0, big, 1.0]))

    @pytest.mark.parametrize("basis", BASES)
    def test_largest_sample_values_fit_finite(self, get_spectrum, basis):
        x = np.linspace(-1.0, 1.0, 41)
        f = TestFunction.from_samples(x, 1e150 * (-1.0) ** np.arange(41))
        for row in projection_sweep(f, get_spectrum(61, 0.3), 61, basis):
            assert math.isfinite(row.residual_l2) and math.isfinite(row.residual_sup)
            assert np.isfinite(row.coefficients).all()

    def test_samples_interpolate(self):
        f = TestFunction.from_samples(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert f(0.5) == pytest.approx(1.0)

    def test_only_samples_record_a_span(self):
        f = TestFunction.from_samples([0.5, -1.0, 1.0], [1.0, 2.0, 3.0])
        assert f.span == (-1.0, 1.0)
        assert TestFunction.sinc_bandlimited(56.0).span is None
        assert TestFunction.weierstrass(1.0).span is None

    def test_weierstrass_terms_cover_tolerance(self):
        f = TestFunction.weierstrass(1.0)
        amps, freqs = f.cosine_terms
        assert amps[-1] <= 1e-12
        assert freqs[-1] == 2.0 ** (len(amps) - 1)


def _recording(calls):
    def evaluator(x):
        calls.append(np.shape(x))
        raise AssertionError("the evaluator must not be called")
    return evaluator


def _doubling_sum(terms=10):
    """sum_k 2^-k cos(2^k x), k < terms, with its derivative."""
    amps, freqs = 2.0 ** -np.arange(terms), 2.0 ** np.arange(terms)
    f = TestFunction(lambda x: np.cos(np.multiply.outer(x, freqs)) @ amps,
                     cosine_terms=(amps, freqs), s=1.0)
    return f, lambda x: -np.sin(np.multiply.outer(x, freqs)) @ (amps * freqs)


class TestSobolevNorm:
    def test_single_fourier_mode(self):
        # cos(2 pi x) = (e_1 + e_-1)/2: (1/4 + 1/4) (1 + 1)^s
        f = TestFunction(lambda x: np.cos(2 * np.pi * x),
                         cosine_terms=(np.array([1.0]), np.array([2 * np.pi])))
        for s in (0.0, 1.0):
            assert sobolev_norm(f, s) ** 2 == pytest.approx(2.0 ** s / 2, rel=1e-14)

    def test_constant(self):
        f = TestFunction(lambda x: np.ones_like(x),
                         cosine_terms=(np.array([1.0]), np.array([0.0])))
        for s in (0.0, 1.0):
            assert sobolev_norm(f, s) == pytest.approx(1.0, rel=1e-15)

    def test_h0_is_l2(self):
        f, _ = _doubling_sum()
        rule = gauss_legendre(1024).scaled(0.5)
        l2_sq = np.sum(rule.weights * f(rule.nodes) ** 2)
        assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(l2_sq), rel=1e-13)

    def test_closed_form_agrees_with_quadrature_on_resolvable_sum(self):
        # frequencies up to 2^9: Gauss-Legendre of order 1024 integrates
        # f^2 and f'^2 to rounding on [-1/2, 1/2]
        f, df = _doubling_sum()
        rule = gauss_legendre(1024).scaled(0.5)
        w, x = rule.weights, rule.nodes
        h1_sq = np.sum(w * f(x) ** 2) + np.sum(w * df(x) ** 2) / (2 * np.pi) ** 2
        assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(h1_sq), rel=1e-13)

    def test_plain_callable_refused_without_evaluation(self):
        # only a cosine sum has the closed form, even at s in {0, 1}
        calls = []
        for s in (0.0, 1.0, 0.5):
            with pytest.raises(NumericalFailure, match=f"H\\^{s} norm is "
                               f"computed only for a cosine sum"):
                sobolev_norm(TestFunction(_recording(calls)), s)
        assert calls == []

    def test_unresolvable_cosine_sum_refused_before_any_grid(self):
        # Weierstrass at s = 0.5 reaches 2^80; no grid resolves it
        calls = []
        f = TestFunction(_recording(calls), cosine_terms=weierstrass_terms(0.5),
                         s=0.5)
        with pytest.raises(NumericalFailure, match=r"H\^0\.5 norm .* s in \{0, 1\}"):
            sobolev_norm(f, 0.5)
        assert calls == []

    def test_divergent_cosine_sum_refused_before_any_grid(self):
        # the periodised derivative of the s = 2 sum jumps at the seam, so
        # its H^2 norm diverges; its H^1 norm has the closed form
        calls = []
        f = TestFunction(_recording(calls), cosine_terms=weierstrass_terms(2.0),
                         s=2.0)
        with pytest.raises(NumericalFailure, match=r"H\^2\.0 norm .* s in \{0, 1\}"):
            sobolev_norm(f, 2.0)
        assert sobolev_norm(f, 1.0) > 0
        assert calls == []

    def test_weierstrass_closed_form_h1(self):
        f = TestFunction.weierstrass(1.0)
        norm = sobolev_norm(f, 1.0)
        # frozen from exact pairwise integrals, cross-checked against an FFT
        # of a short truncation that a grid can actually resolve
        assert type(norm) is float
        assert norm == pytest.approx(1.68368412919908, rel=1e-12)

    def test_weierstrass_h0_matches_l2(self):
        f = TestFunction.weierstrass(1.0)
        norm = sobolev_norm(f, 0.0)
        rule = gauss_legendre(2048).scaled(0.5)
        l2 = math.sqrt(np.sum(rule.weights * f(rule.nodes) ** 2))
        # the grid reference itself misses the terms beyond its resolution,
        # so it only confirms the closed form to ~5e-6
        assert norm == pytest.approx(l2, rel=2e-5)

    def test_unresolvable_frequency_raises(self):
        # a plain callable: its spectrum is unknown, here far above any grid
        f = TestFunction(lambda x: np.cos(2.0 ** 30 * x))
        with pytest.raises(NumericalFailure):
            sobolev_norm(f, 1.0)

    def test_invalid_arguments(self):
        f = TestFunction.weierstrass(1.0)
        with pytest.raises(ValueError):
            sobolev_norm(f, -1.0)


class TestProjectNative:
    def test_basis_reproduction(self, spec60_03):
        f = TestFunction(
            lambda x: dpswf_matrix(spec60_03, x, np.array([0]))[:, 0])
        result = project_native(f, spec60_03, 1)
        assert result.residual_l2 <= 1e-11
        assert result.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        full = project_native(f, spec60_03, 10)
        assert np.max(np.abs(full.coefficients[1:])) <= 1e-12

    def test_constant_residual_decreases(self, get_spectrum):
        disc = get_spectrum(61, 0.3)
        f = TestFunction(lambda x: np.ones_like(x))
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

    def test_sobolev_bound_skipped_below_unit_bandwidth(self, get_spectrum):
        # K = 10 lies in [5, 59], but the inequality needs c = pi N W >= 1
        result = project_native(TestFunction.weierstrass(1.0),
                                get_spectrum(60, 0.001), 10)
        assert (result.sobolev_ok, result.sobolev_rhs, result.note) == (
            None, None, "c=pi N W=0.188496 below 1")
        with pytest.raises(OutOfRangeError, match="below 1"):
            sobolev_k_range(60, 0.001)
        assert sobolev_k_range(60, 0.3) == (47, 59)

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
        g = TestFunction(f.evaluator)
        a = project_native(f, spec60_03, 50)
        b = project_native(g, spec60_03, 50)
        assert b.residual_l2 == pytest.approx(a.residual_l2, rel=5e-2)
        assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-2

    def test_band_gram_residual_agrees_with_quadrature(self, spec60_03):
        # a cosine sum the band rule resolves: the closed-form residual, from
        # the band Gram diag(lambda), against the quadrature residual
        amps, freqs = np.array([1.0, 0.5]), np.array([3.0, 40.0])
        f = TestFunction(lambda x: np.cos(np.multiply.outer(x, freqs)) @ amps,
                         cosine_terms=(amps, freqs))
        g = TestFunction(f.evaluator)
        for K in (1, 2, 5, 12, 20):
            a, b = project_native(f, spec60_03, K), project_native(g, spec60_03, K)
            assert a.residual_l2 == pytest.approx(b.residual_l2, rel=1e-12)

    def test_k_range(self, spec60_03):
        f = TestFunction.weierstrass(1.0)
        for K in (0, 61):
            with pytest.raises(ValueError):
                project_native(f, spec60_03, K)

    @pytest.mark.parametrize("N,W,s", [(60, 0.3, 1.0), (61, 0.3, 1.0),
                                       (200, 0.2, 1.0), (60, 0.45, 2.0)])
    def test_residual_reads_double_orthogonality(self, get_spectrum, N, W, s):
        # sum_k lambda_k beta_k^2 differs from beta^T G beta, G the band Grams,
        # by beta^T (G - diag lambda) beta, plus rounding of the sums
        disc = get_spectrum(N, W)
        f = TestFunction.weierstrass(s)
        amps, freqs = f.cosine_terms
        gamma = approximation._cosine_mode_integrals(amps, freqs, disc, 1.0, W)
        f_band_sq = approximation._cosine_l2_sq(amps, freqs, W)
        grams = band_grams(disc)
        defect = max(np.max(np.abs(G - np.diag(disc.values[odd::2])), initial=0.0)
                     for odd, G in enumerate(grams))
        for row in projection_sweep(f, disc, N, "native"):
            b = row.coefficients
            ref = f_band_sq - 2.0 * (b @ gamma[:row.K]) + sum(
                bp @ G[:len(bp), :len(bp)] @ bp
                for G, bp in zip(grams, (b[0::2], b[1::2])))
            tol = np.sum(np.abs(b)) ** 2 * defect + 8 * np.finfo(float).eps * f_band_sq
            assert abs(row.residual_l2 ** 2 - max(ref, 0.0)) <= tol, row.K

    @pytest.mark.parametrize("N", [60, 61])
    def test_cosine_sum_builds_no_prolate_block(self, get_spectrum, monkeypatch, N):
        def refuse(*args):
            raise AssertionError("a native projection built a prolate block")

        disc = get_spectrum(N, 0.3)
        monkeypatch.setattr(discrete, "_prolate_block", refuse)
        monkeypatch.setattr(discrete, "_prolate_view", refuse)
        f = TestFunction.weierstrass(1.0)
        assert project_native(f, disc, 50).K == 50
        assert len(projection_sweep(f, disc, N, "native")) == N
        with pytest.raises(AssertionError, match="built a prolate block"):
            band_grams(disc)

    def test_unresolvable_sobolev_norm_becomes_a_note(self, get_spectrum):
        # the evaluator refuses the Sobolev grids; the sup grid has 2001 points
        amps, freqs = weierstrass_terms(0.5)

        def small_grids_only(x):
            assert np.size(x) <= 2001, "Sobolev grid built"
            return np.cos(np.multiply.outer(x, freqs)) @ amps

        f = TestFunction(small_grids_only, cosine_terms=(amps, freqs), s=0.5)
        result = project_native(f, get_spectrum(30, 0.2), 25)
        assert result.sobolev_ok is None
        assert result.note.startswith("Sobolev norm unavailable")


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
        # Gram matrix of the normalised modes sqrt(W) U_k(W x) / sqrt(lambda_k)
        modes = [k for k in range(60) if spec60_03.values[k] >= 1e-7]
        rule = gauss_legendre(256)
        U = dpswf_matrix(spec60_03, 0.3 * rule.nodes, np.array(modes))
        U = U * np.sqrt(0.3) / np.sqrt(spec60_03.values[modes])[None, :]
        G = (U.conj().T * rule.weights[None, :]) @ U
        assert np.max(np.abs(G - np.eye(len(modes)))) <= 1e-9

    def test_parseval_on_projection(self, spec60_03):
        # coefficients in the dilated orthonormal family obey Bessel on [-1, 1]
        f = TestFunction.sinc_bandlimited(56.0)
        result = project_dilated(f, spec60_03, 40)
        rule = gauss_legendre(512)
        l2_sq = float(np.sum(rule.weights * f(rule.nodes) ** 2))
        assert np.sum(np.abs(result.coefficients) ** 2) <= l2_sq + 1e-9


def _sample_target():
    x = np.linspace(-1.0, 1.0, 512)
    return TestFunction.from_samples(x, np.cos(3.1 * x + 0.2)
                                     + 0.4 * np.cos(17.3 * x) - 0.2 * x ** 2)


SWEEP_CASES = {
    "example2": (lambda: TestFunction.sinc_bandlimited(56.0), 60, "dilated"),
    "example3": (lambda: TestFunction.weierstrass(1.0), 36, "dilated"),
    "samples": (_sample_target, 30, "dilated"),
    "native_cosine": (lambda: TestFunction.weierstrass(1.0), 60, "native"),
    "native_grid": (lambda: TestFunction.sinc_bandlimited(40.0), 60, "native"),
}


class TestProjectionSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_rows_equal_standalone_projections(self, spec60_03, case):
        # the same frame and the same per-K arithmetic: equal to the last bit
        make, K, basis = SWEEP_CASES[case]
        f = make()
        sweep = projection_sweep(f, spec60_03, K, basis)
        assert [row.K for row in sweep] == list(range(1, K + 1))
        project = project_dilated if basis == "dilated" else project_native
        for k, row in enumerate(sweep, start=1):
            alone = project(f, spec60_03, k)
            assert np.array_equal(row.coefficients, alone.coefficients)
            assert dataclasses.replace(row, coefficients=None) == \
                dataclasses.replace(alone, coefficients=None)

    @pytest.mark.parametrize("basis", ["dilated", "native"])
    def test_mode_evaluations_do_not_grow_with_k(self, spec60_03, monkeypatch,
                                                 basis):
        calls = []
        real = approximation.dpswf_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(approximation, "dpswf_matrix", counting)
        f = _sample_target()
        projection_sweep(f, spec60_03, 60, basis)
        n_full = len(calls)
        calls.clear()
        projection_sweep(f, spec60_03, 5, basis)
        assert n_full == len(calls) <= 4

    def test_rows_do_not_share_coefficients(self, spec60_03):
        sweep = projection_sweep(TestFunction.weierstrass(1.0), spec60_03, 3,
                                 "native")
        sweep[-1].coefficients[0] = 0.0
        assert sweep[0].coefficients[0] != 0.0

    def test_invalid_arguments(self, spec60_03):
        f = TestFunction.sinc_bandlimited(56.0)
        for K in (0, 61):
            with pytest.raises(ValueError):
                projection_sweep(f, spec60_03, K)
        with pytest.raises(ValueError):
            projection_sweep(f, spec60_03, 10, "half")


class TestSampleSpan:
    @pytest.mark.parametrize("basis,x,interval", [
        ("dilated", [0.0, 0.5], "[-1.0, 1.0]"),
        ("dilated", [-1.0, 0.999], "[-1.0, 1.0]"),
        ("dilated", [-0.5, 0.5], "[-1.0, 1.0]"),
        ("native", [-0.4, 0.5], "[-0.5, 0.5]")],
        ids=["right-half", "short-of-one", "native-span", "native"])
    def test_samples_must_cover_fitted_interval(self, get_spectrum, basis, x,
                                                interval):
        # np.interp would hold the end values as constants past the samples;
        # the span is checked before f is evaluated
        calls = []
        f = dataclasses.replace(TestFunction.from_samples(x, [1.0, 2.0]),
                                evaluator=_recording(calls))
        spec = get_spectrum(16, 0.2)
        project = project_dilated if basis == "dilated" else project_native
        message = re.escape(f"samples span x in [{x[0]}, {x[1]}], which does "
                            f"not cover the fitted interval {interval}")
        with pytest.raises(ValueError, match=message):
            project(f, spec, 16)
        with pytest.raises(ValueError, match=message):
            projection_sweep(f, spec, 16, basis)
        assert calls == []


class TestRealModes:
    @pytest.mark.parametrize("N,W", [(60, 0.3), (61, 0.25)])
    def test_cosine_mode_integrals(self, get_spectrum, N, W):
        # odd modes are sine sums: exactly 0.0 against a cosine sum; even
        # modes agree with Gauss-Legendre quadrature of f U_k
        disc = get_spectrum(N, W)
        amps, freqs = np.array([1.0, -0.5, 0.25]), np.array([0.0, 3.0, 17.0])
        for scale, T in ((1.0, 0.5), (1.0, W), (W, 1.0)):
            ip = approximation._cosine_mode_integrals(amps, freqs, disc, scale, T)
            assert ip.dtype == np.float64 and (ip[1::2] == 0.0).all()
            rule = gauss_legendre(512).scaled(T)
            f = np.cos(np.outer(rule.nodes, freqs)) @ amps
            quad = (dpswf_matrix(disc, scale * rule.nodes).T * rule.weights) @ f
            assert np.max(np.abs(ip[0::2] - quad[0::2])) <= 1e-12

    @pytest.mark.parametrize("basis", ["dilated", "native"])
    def test_complex_target_is_its_real_and_imaginary_parts(self, spec60_03,
                                                            basis):
        # f = g + i h: coefficients add and squared residuals add, at every K
        f, g, h = (TestFunction(fn) for fn in (
            lambda x: np.exp(3j * x), lambda x: np.cos(3.0 * x),
            lambda x: np.sin(3.0 * x)))
        rows = [projection_sweep(t, spec60_03, 60, basis) for t in (f, g, h)]
        for rf, rg, rh in zip(*rows):
            assert rf.coefficient_indices == rg.coefficient_indices
            assert rg.coefficients.dtype == np.float64
            assert np.max(np.abs(rf.coefficients - rg.coefficients
                                 - 1j * rh.coefficients)) <= 1e-12
            assert rf.residual_l2 ** 2 == pytest.approx(
                rg.residual_l2 ** 2 + rh.residual_l2 ** 2, rel=0, abs=1e-12)


@pytest.mark.parametrize("K,message", [(2.5, "K=2.5 is not an integer in [1, 60]"),
                                       (True, "K=True is not an integer in [1, 60]"),
                                       (0, "K=0 outside [1, 60]")])
@pytest.mark.parametrize("project", [
    project_native, project_dilated, projection_sweep,
    lambda f, spec, K: projection_sweep(f, spec, K, "native")])
def test_rank_must_be_an_integer(spec60_03, project, K, message):
    with pytest.raises(ValueError) as info:
        project(TestFunction.sinc_bandlimited(56.0), spec60_03, K)
    assert str(info.value) == message
