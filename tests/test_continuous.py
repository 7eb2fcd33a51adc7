import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_mode_order, traced_peak
from slepian import config, continuous
from slepian.config import Tolerances
from slepian.continuous import (_lag_integral, _prolate_blocks,
                                _sinc_kernel_matrix, default_order,
                                eigenspace_bound, hs_lower_bound, hs_norm_sq,
                                kernel_hs_distance, kernel_hs_distance_bound,
                                legendre_spectrum, nystrom_spectrum,
                                plunge_index, projector_distance)
from slepian.discrete import dpswf_matrix
from slepian.numkit import (IllConditionedError, NumericalFailure,
                            OutOfRangeError, eig_symtridiag, gauss_legendre, sinc_kernel)


class TestNystrom:
    @pytest.mark.parametrize("c", [5.0, 18.85])
    def test_trace(self, get_nystrom, c):
        cont = get_nystrom(c)
        expected = 2 * c / math.pi
        assert abs(cont.values.sum() - expected) <= 1e-9 * expected

    def test_descending_and_range(self, get_nystrom):
        cont = get_nystrom(18.85)
        assert_mode_order(cont.values, cont.grid_vectors)
        trusted = cont.values[cont.values >= 1e-13]
        # the top of the spectrum saturates at 1 within the numerical floor
        assert (trusted > 0).all() and trusted[0] < 1.0 + 1e-13

    @pytest.mark.parametrize("c", [1e-3, 5.0, 56.55])
    def test_mesh_doubling_stability(self, c):
        M = default_order(c)
        a = nystrom_spectrum(c, M)
        b = nystrom_spectrum(c, 2 * M)
        mask = a.values >= 1e-12
        drift = np.max(np.abs(a.values[mask] - b.values[:M][mask]))
        assert drift <= 1e-10

    def test_trace_check_catches_a_shifted_value(self, monkeypatch):
        # one eigenvalue 1e-6 off breaks the operator trace 2c/pi
        real = continuous.parity_spectrum

        def shifted(M, solve):
            values, vectors = real(M, solve)
            values[0] += 1e-6
            return values, vectors

        monkeypatch.setattr(continuous, "parity_spectrum", shifted)
        with pytest.raises(NumericalFailure) as info:
            nystrom_spectrum(5.0)
        assert type(info.value) is NumericalFailure
        assert str(info.value) == "sinc-kernel trace defect 1.000e-06 at c=5.0"

    def test_order_below_default_rejected(self):
        with pytest.raises(ValueError):
            nystrom_spectrum(18.85, M=32)

    @pytest.mark.parametrize("c", [0.0, -2.0, math.inf, -math.inf, math.nan])
    def test_invalid_bandwidth(self, c):
        with pytest.raises(ValueError):
            nystrom_spectrum(c)

    @pytest.mark.parametrize("M", [98, 99])
    def test_parity_split_matches_dense(self, M):
        c = 18.85
        cont = nystrom_spectrum(c, M)
        S = _sinc_kernel_matrix(c, cont.rule.nodes, cont.rule.weights)
        dense = np.linalg.eigvalsh(S)[::-1]
        assert np.max(np.abs(cont.values - dense)) <= 1e-13
        V = cont.grid_vectors
        assert np.max(np.abs(V.T @ V - np.eye(M))) <= Tolerances().orthonormality
        resid = np.max(np.linalg.norm(S @ V - V * cont.values, axis=0))
        assert resid <= Tolerances().eigen_residual * np.max(np.abs(cont.values))

    def test_grid_vectors_orthonormal(self, get_nystrom):
        cont = get_nystrom(18.85)
        gram = cont.grid_vectors.T @ cont.grid_vectors
        assert np.max(np.abs(gram - np.eye(len(cont.rule.nodes)))) <= 1e-12


def _mp_nystrom_oracle(c, M=40, dps=40):
    """Sinc-kernel eigenvalues at ``dps`` digits: Nystrom on an M-point
    Gauss-Legendre rule, split by parity on the positive nodes, so a
    different method from the Legendre route. For c <= 10 the rule resolves
    the eigenvalues used below far beyond double precision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        c = mp.mpf(c)
        nodes, weights = [], []
        for x0 in np.polynomial.legendre.leggauss(M)[0][M // 2:]:
            x = mp.mpf(float(x0))
            for _ in range(50):
                p, q = mp.legendre(M, x), mp.legendre(M - 1, x)
                dp = M * (q - x * p) / (1 - x * x)
                x -= p / dp
                if abs(p / dp) < mp.mpf(10) ** (-dps - 5):
                    break
            dp = M * (mp.legendre(M - 1, x) - x * mp.legendre(M, x)) / (1 - x * x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp ** 2))

        def kernel(t):
            return c / mp.pi if t == 0 else mp.sin(c * t) / (mp.pi * t)

        h = M // 2
        parts = []
        for sign in (1, -1):
            A = mp.matrix(h, h)
            for i in range(h):
                for j in range(h):
                    A[i, j] = mp.sqrt(weights[i] * weights[j]) * (
                        kernel(nodes[i] - nodes[j]) + sign * kernel(nodes[i] + nodes[j]))
            E = mp.eigsy(A, eigvals_only=True)
            parts.append(sorted((E[i] for i in range(h)), reverse=True))
        return [float(v) for pair in zip(*parts) for v in pair]


class TestLegendreSpectrum:
    @pytest.mark.parametrize("c", [2.0, 18.85, 94.25, 707.0, 1414.0])
    def test_agrees_with_nystrom(self, get_nystrom, c):
        ny = get_nystrom(c).values
        k = int(np.count_nonzero(ny >= 1e-12))
        mu = legendre_spectrum(c, k)
        assert len(mu) >= k
        # measured at most 3.8e-13 (c = 1414)
        assert np.max(np.abs(mu[:k] - ny[:k])) <= 1e-12

    @pytest.mark.parametrize("c", [1e-3, 2.0, 94.25, 707.0])
    @pytest.mark.parametrize("count", [0, 40, 600])
    def test_count_and_trace(self, c, count):
        mu = legendre_spectrum(c, count)
        assert len(mu) >= count
        trace = 2 * c / math.pi
        assert abs(mu.sum() - trace) <= Tolerances().trace_continuous_rel * trace
        assert (mu >= 0).all()

    # scipy's pro_cv aborts the process at c = 400 (scipy 1.17.1), so the
    # comparison stays at c <= 200, where it was measured to run
    @pytest.mark.parametrize("c", [2.0, 18.85, 94.25])
    def test_operator_eigenvalues_match_pro_cv(self, c):
        special = pytest.importorskip("scipy.special")
        even, odd = (eig_symtridiag(T).values[::-1]
                     for T in _prolate_blocks(c, 200))
        chi = np.ravel(np.column_stack([even[:20], odd[:20]]))
        ref = np.array([special.pro_cv(0, n, c) for n in range(40)])
        assert np.max(np.abs(chi - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_mpmath_oracle(self, c):
        # Relative accuracy is claimed down to 1e-15 only: the eigenvector
        # entry beta_0 carries an absolute error near 1e-17, so below that
        # the values keep an absolute accuracy of about c * 1e-32 (measured
        # at c = 10: 1e-11 relative at mu_18 = 7.7e-17, 5e-6 at 3.9e-24)
        ref = np.array(_mp_nystrom_oracle(c))
        mu = legendre_spectrum(c, len(ref))[:len(ref)]
        mask = ref >= 1e-15
        assert mask.sum() >= 6 and (~mask).sum() >= 10
        assert np.max(np.abs(mu[mask] - ref[mask]) / ref[mask]) <= 1e-12
        assert np.max(np.abs(mu[~mask] - ref[~mask])) <= 1e-29

    @staticmethod
    def _plunge_bound(c):
        return math.ceil(2 * c / math.pi + 4 * math.log1p(c)) + 24

    def test_short_basis_raises(self, monkeypatch):
        # n + 2 degrees give every returned column, but too few to resolve
        # psi_n below the plunge bound (n0 = 103 here)
        real = continuous._prolate_blocks
        monkeypatch.setattr(continuous, "_prolate_blocks",
                            lambda c, M: real(c, 120 + 2))
        with pytest.raises(NumericalFailure, match="Legendre expansion unresolved"):
            legendre_spectrum(94.25, 120)

    @pytest.mark.parametrize("c, count", [(565.5, 630), (1885.0, 2030)])
    def test_one_basis_per_call(self, monkeypatch, c, count):
        sizes = []
        real = continuous._prolate_blocks

        def spy(c, M):
            sizes.append(M)
            return real(c, M)

        monkeypatch.setattr(continuous, "_prolate_blocks", spy)
        assert len(legendre_spectrum(c, count)) == count
        assert len(sizes) == 1

    def test_doubled_basis_reference(self, monkeypatch):
        c, count = 565.5, 630
        mu = legendre_spectrum(c, count)
        real = continuous._prolate_blocks
        monkeypatch.setattr(continuous, "_prolate_blocks",
                            lambda c, M: real(c, 2 * M))
        reference = legendre_spectrum(c, count)
        # measured 2.6e-13 against a basis twice the size
        assert np.max(np.abs(mu - reference)) <= 1e-12
        assert np.max(mu[self._plunge_bound(c):]) <= 1e-17

    def test_trace_defect_raises(self, monkeypatch):
        monkeypatch.setattr(config, "TOLERANCES", dataclasses.replace(
            config.TOLERANCES, trace_continuous_rel=1e-300))
        with pytest.raises(NumericalFailure, match="trace defect"):
            legendre_spectrum(18.85, 0)

    @pytest.mark.parametrize("c", [0.0, -2.0, math.inf, math.nan])
    def test_invalid_bandwidth(self, c):
        with pytest.raises(ValueError):
            legendre_spectrum(c, 0)

    @pytest.mark.parametrize("count,message", [
        (2.5, "count=2.5 is not an integer in [0, inf]"),
        (True, "count=True is not an integer in [0, inf]"),
        (-1, "count=-1 outside [0, inf]")])
    def test_invalid_count(self, count, message):
        with pytest.raises(ValueError) as info:
            legendre_spectrum(10.0, count)
        assert str(info.value) == message


class TestLagIntegrals:
    @pytest.mark.parametrize("c", [1e-3, 2.0, 18.85, 94.25, 707.0])
    def test_hs_lag_integral_matches_two_dimensional_quadrature(self, c):
        rule = gauss_legendre(default_order(c) + 37)
        S = _sinc_kernel_matrix(c, rule.nodes, rule.weights)
        two_d = float(np.vdot(S, S))
        one_d = _lag_integral(lambda t: sinc_kernel(c * t, np.pi * t, c / np.pi), 2.0, c)
        assert one_d == pytest.approx(two_d, rel=1e-13, abs=0)

    @staticmethod
    def two_d_distance(N, W):
        rule = gauss_legendre(max(128, math.ceil(4 * N * W) + 64)).scaled(W)
        x, w = rule.nodes, rule.weights
        d = x[:, None] - x[None, :]
        dirichlet = np.full_like(d, N)
        np.divide(np.sin(np.pi * N * d), np.sin(np.pi * d), out=dirichlet,
                  where=(d != 0))
        diff = dirichlet - sinc_kernel(np.pi * N * d, np.pi * d, N)
        return math.sqrt(np.einsum("i,ij,j->", w, diff ** 2, w))

    @pytest.mark.parametrize("N,W", [(60, 0.1), (60, 0.3), (30, 0.4),
                                     (60, 0.4), (500, 0.45)])
    def test_kernel_distance_matches_two_dimensional_quadrature(self, N, W):
        assert kernel_hs_distance(N, W) == pytest.approx(
            self.two_d_distance(N, W), rel=1e-14)

    def test_kernel_distance_at_small_band(self):
        assert kernel_hs_distance(10, 1e-3) == pytest.approx(
            3.3965720962501456e-08, rel=1e-10, abs=0)

    @staticmethod
    def mp_distance(N, W, dps=20):
        """The same lag integral by mpmath quadrature, one panel per period."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(dps):
            w, pi = mpmath.mpf(W), mpmath.pi
            f = lambda t: ((mpmath.sin(pi * N * t) * (1 / mpmath.sin(pi * t) - 1 / (pi * t))) ** 2
                           * (2 * w - t))
            panels = mpmath.linspace(0, 2 * w, int(N * W) + 2)
            return float(mpmath.sqrt(2 * mpmath.quad(f, panels, method="gauss-legendre")))

    @pytest.mark.parametrize("N,W,rel", [(10, 1e-3, 1e-14), (5, 1e-4, 1e-14),
                                         (60, 0.1, 1e-15), (30, 0.3, 1e-15),
                                         (500, 0.45, 1e-15)])
    def test_kernel_distance_matches_mpmath(self, N, W, rel):
        # 1/sin(pi t) - 1/(pi t) cancels at small t unless taken from a series
        reference = self.mp_distance(N, W)
        assert abs(kernel_hs_distance(N, W) - reference) <= rel * reference


def _hs_norm_sq(c):
    return hs_norm_sq(c, legendre_spectrum(c, 0))


class TestHsNorm:
    def test_rank_one_limit(self):
        c = 1e-3
        value = _hs_norm_sq(c)
        leading = (2 * c / math.pi) ** 2
        assert abs(value - leading) <= 1e-6 * leading

    @pytest.mark.parametrize("c", [1.0, 5.0, 18.85, 37.7, 56.55, 75.4])
    def test_lower_bound(self, c):
        assert _hs_norm_sq(c) >= hs_lower_bound(c)

    @pytest.mark.parametrize("c", [0.999, 0.01, 0.0, -1.0, math.nan])
    def test_lower_bound_range(self, c):
        with pytest.raises(OutOfRangeError, match="below 1"):
            hs_lower_bound(c)

    def test_sum_matches_eigenvalues(self, get_nystrom):
        cont = get_nystrom(18.85)
        assert _hs_norm_sq(18.85) == pytest.approx(
            float(np.sum(cont.values ** 2)), rel=1e-10)

    def test_precomputed_values_are_cross_checked(self, get_nystrom):
        cont = get_nystrom(18.85, 130)
        assert hs_norm_sq(18.85, cont.values) == pytest.approx(
            _hs_norm_sq(18.85), rel=1e-12)
        with pytest.raises(NumericalFailure):
            hs_norm_sq(18.85, 1.01 * cont.values)


class TestKernelDistance:
    def test_small_band_limit(self):
        measured = kernel_hs_distance(10, 1e-3)
        bound = kernel_hs_distance_bound(1e-3)
        assert bound == pytest.approx(2.0944e-6, rel=1e-3)
        assert 0 < measured <= bound

    @pytest.mark.parametrize("N,W", [(60, 0.1), (60, 0.3), (30, 0.4), (60, 0.4)])
    def test_bound_holds_with_margin(self, N, W):
        measured = kernel_hs_distance(N, W)
        bound = kernel_hs_distance_bound(W)
        assert measured <= bound
        assert measured / bound < 1.0

    def test_example_value(self):
        # bound at W = 0.3: 4 pi^2 (0.027) / (3 sin(0.6 pi))
        expected = 4 * math.pi ** 2 * 0.027 / (3 * math.sin(0.6 * math.pi))
        assert kernel_hs_distance_bound(0.3) == pytest.approx(expected, rel=1e-15)
        assert kernel_hs_distance(60, 0.3) <= expected

    @pytest.mark.parametrize("W", [0.0, -0.1, 0.5, 0.7, math.nan, math.inf])
    def test_bound_outside_its_range(self, W):
        # the exception every other bound raises, which a bound check skips on
        with pytest.raises(OutOfRangeError, match="W must lie in"):
            kernel_hs_distance_bound(W)


class TestPlungeIndex:
    def test_time_bandwidth_products(self):
        # 2c/pi evaluates to 35.99999999999999 here; the snap keeps it at 36
        index = plunge_index(math.pi * 60 * 0.3, 0.0)
        assert type(index) is int and index == 36
        assert plunge_index(10.0, 0.0) == 6

    def test_with_level_parameter(self):
        value = 2 * 10 / math.pi + (2 / math.pi) * math.log(2) \
            + (1 / math.pi) * math.log(10)
        assert math.floor(value) == 7
        assert plunge_index(10.0, 1.0) == 7

    def test_invariant_formula(self):
        value = 2 * 33.7 / math.pi + (4.4 / math.pi) * math.log(2) \
            + (2.2 / math.pi) * math.log(33.7)
        assert plunge_index(33.7, 2.2) == math.floor(value)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            plunge_index(0.5, 0.0)
        with pytest.raises(ValueError):
            plunge_index(10.0, -1.0)

    @pytest.mark.parametrize("c,b,name", [(math.nan, 0.0, "c"), (math.inf, 0.0, "c"),
                                          (10.0, math.nan, "b"), (10.0, math.inf, "b")])
    def test_non_finite_rejected(self, c, b, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            plunge_index(c, b)

    def test_level_falls_slowly_toward_the_limit(self):
        # the docstring's measured values: at b = 1 the eigenvalue at n(c, 1)
        # decreases with c but stays well above 1/(1 + e^pi) = 0.0414
        index = {c: plunge_index(c, 1.0) for c in (10.0, 50.0, 200.0, 1000.0)}
        mu = [legendre_spectrum(c, n + 1)[n] for c, n in index.items()]
        assert np.round(mu, 4).tolist() == [0.1123, 0.0857, 0.0699, 0.0528]
        assert all(np.diff(mu) < 0)
        assert mu[-1] > 1.0 / (1.0 + math.exp(math.pi))


class TestProjectorDistance:
    def test_rank_zero(self, get_spectrum):
        assert projector_distance(get_spectrum(20, 0.1), 0) == 0.0

    def test_top_eigenspaces_close(self, get_spectrum):
        disc = get_spectrum(60, 0.1)
        d = projector_distance(disc, 6)
        assert d <= 0.05

    @pytest.mark.parametrize("K", [1, 4, 9, 12])
    def test_distance_in_unit_interval(self, get_spectrum, K):
        disc = get_spectrum(60, 0.1)
        d = projector_distance(disc, K)
        assert -1e-12 <= d <= 1.0 + 1e-10

    def test_unresolvable_rank_rejected(self, get_spectrum):
        disc = get_spectrum(60, 0.1)
        assert disc.values[39] < 1e-13
        with pytest.raises(IllConditionedError):
            projector_distance(disc, 40)

    def test_rank_bounds(self, get_spectrum):
        disc = get_spectrum(60, 0.1)
        with pytest.raises(ValueError):
            projector_distance(disc, 61)

    @pytest.mark.parametrize("K,message", [
        (2.5, "K=2.5 is not an integer in [0, 60]"),
        (True, "K=True is not an integer in [0, 60]"),
        (-1, "K=-1 outside [0, 60]")])
    def test_rank_must_be_an_integer(self, get_spectrum, K, message):
        with pytest.raises(ValueError) as info:
            projector_distance(get_spectrum(60, 0.1), K)
        assert str(info.value) == message

    @pytest.mark.parametrize("method", ["tridiag", "toeplitz"])
    @pytest.mark.parametrize("N,W,K", [(60, 0.1, 6), (250, 0.1, 51),
                                       (61, 0.37, 39), (150, 0.45, 128)])
    def test_matches_projector_difference(self, get_spectrum, N, W, K, method):
        # the former construction: Nystrom at max(default, 4N), both M x M
        # projectors and their eigenvalues; the subspaces agree to eps / gap
        disc, c = get_spectrum(N, W, method), math.pi * N * W
        cont = nystrom_spectrum(c, max(default_order(c), 4 * N))
        A, sw = cont.grid_vectors[:, :K], np.sqrt(cont.rule.weights)
        Q, _ = np.linalg.qr(dpswf_matrix(disc, W * cont.rule.nodes, np.arange(K))
                            * sw[:, None])
        D = A @ A.T - Q @ Q.T
        reference = np.max(np.abs(np.linalg.eigvalsh(0.5 * (D + D.T))))
        mu = legendre_spectrum(c, K + 1)
        assert (abs(projector_distance(disc, K) - reference)
                <= 1e-14 / (mu[K - 1] - mu[K]))

    def test_peak(self, get_spectrum):
        # principal angles of two 102-column bases; the M x M projector
        # form at M = 4N = 2000 peaked at 156 MB
        disc = get_spectrum(500, 0.1)
        assert traced_peak(lambda: projector_distance(disc, 102)) <= 10e6

    @pytest.mark.parametrize("N,W,K,rel", [(60, 0.3, 11, 1e-13), (60, 0.3, 20, 1e-13),
                                           (200, 0.05, 32, 1e-8)])
    def test_refinement_stability(self, get_spectrum, monkeypatch, N, W, K, rel):
        # cuts inside the sinc-kernel cluster at 1 (60, 0.3), and the deep
        # tail (200, 0.05), where a Nystrom basis was 2.8e-4 off and moved by
        # 3.8e-4 relative when its quadrature order doubled
        disc = get_spectrum(N, W)
        distance = projector_distance(disc, K)
        blocks, order = continuous._prolate_blocks, continuous.default_order
        monkeypatch.setattr(continuous, "_prolate_blocks", lambda c, M: blocks(c, M + 80))
        monkeypatch.setattr(continuous, "default_order", lambda c: 2 * order(c))
        assert abs(projector_distance(disc, K) - distance) <= rel * distance

    def test_gram_certification_fires(self, get_spectrum, monkeypatch):
        # a rule of order 16 cannot integrate products of psi_n of degree ~100
        monkeypatch.setattr(continuous, "default_order", lambda c: 16)
        with pytest.raises(NumericalFailure, match="Gram defect") as info:
            projector_distance(get_spectrum(60, 0.1), 6)
        assert type(info.value) is NumericalFailure

    @pytest.mark.parametrize("N,W,b", [(60, 0.1, 1.0), (100, 0.1, 2.0),
                                       (200, 0.05, 1.5)])
    def test_within_eigenspace_bound_at_plunge_index(self, get_spectrum, N, W, b):
        # the bound is stated for K = n(c, b) where its condition holds
        K = plunge_index(math.pi * N * W, b)
        bound, condition_ok = eigenspace_bound(N, W, b)
        assert condition_ok
        assert projector_distance(get_spectrum(N, W), K) <= bound


class TestEigenspaceBound:
    def test_condition_and_value(self):
        bound, ok = eigenspace_bound(60, 0.1, 1.0)
        assert ok
        denom = 1 - 3 / (1 + math.exp(math.pi))
        c = math.pi * 6
        expected = 1e-3 * (4 * math.pi / (3 * math.sin(0.2 * math.pi))) \
            * (math.log(c) + 2 * math.log(2) + math.pi) / denom
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_b_range(self):
        for b, message in ((0.3, "must exceed log"),   # log(3)/pi ~ 0.3497
                           (math.nan, "must exceed log"),
                           (math.inf, "must be finite")):
            with pytest.raises(ValueError, match=message):
                eigenspace_bound(60, 0.1, b)

    @pytest.mark.parametrize("b", [225.9, 300.0, 1e300])
    def test_large_b_is_finite(self, b):
        # e^(pi b) overflows past b = 225.9; 1 - 3/(1 + e^(pi b)) is 1 there
        bound, ok = eigenspace_bound(60, 0.1, b)
        assert math.isfinite(bound) and not ok
        c = math.pi * 6
        expected = 1e-3 * (4 * b * math.pi / (3 * math.sin(0.2 * math.pi))) \
            * (math.log(c) + 2 * math.log(2) + math.pi / b)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_negative_bound_is_not_valid(self):
        # c = 60 pi 1e-5 is below exp(-2 log 2 - pi): the bound is negative
        bound, ok = eigenspace_bound(60, 1e-5, 1.0)
        assert bound < 0 and not ok

    @pytest.mark.parametrize("W", [1e-110, 1e-200, 1e-300, 2.2250738585072014e-308])
    def test_tiny_w_gives_a_verdict(self, W):
        # W^3 underflows to 0; the ceiling is finite or +inf, never 1/0
        bound, ok = eigenspace_bound(60, W, 1.0)
        assert bound <= 0 and not ok

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValueError, match="gives a non-finite bound"):
            eigenspace_bound(60, 0.1, 1e308)

    @pytest.mark.parametrize("N,W,message", [
        (60, 5e-324, "W must lie strictly in"),   # subnormal: was blamed on b
        (0, 0.1, r"N=0 outside \[1, inf\]"),      # was a math domain error
        (2.5, 0.1, "N=2.5 is not an integer")])
    def test_bad_n_or_w_named(self, N, W, message):
        with pytest.raises(ValueError, match=message):
            eigenspace_bound(N, W, 1.0)
