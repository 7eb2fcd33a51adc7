import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from slepian import numkit
from slepian.config import TOL
from slepian.numkit import (NumericalFailure, SymTridiag, eig_sym,
                            eig_symtridiag, gauss_legendre, parity_blocks,
                            parity_vectors, sinc_kernel, snapped_floor,
                            spectral_norm_sym, tridiag_parity_blocks)


def _mp_gauss_node(n, i, steps=5):
    """Node i (ascending) of the order-n Gauss-Legendre rule and its weight,
    at 40 digits.

    Newton on the three-term recurrence in mpmath, started from the cosine
    asymptotic guess for that index, so the reference shares nothing with the
    rule under test.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = -mpmath.cos(mpmath.pi * (4 * i + 3) / (4 * n + 2))
        for step in range(steps + 1):
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            if step < steps:
                x -= p / dp
        return x, 2 / ((1 - x * x) * dp * dp)


class TestGaussLegendre:
    def test_order_one(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_order_two_closed_form(self):
        rule = gauss_legendre(2)
        root = 1.0 / math.sqrt(3.0)
        assert rule.nodes == pytest.approx([-root, root], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_quartic_with_order_three(self):
        rule = gauss_legendre(3)
        value = np.sum(rule.weights * rule.nodes ** 4)
        assert value == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_monomial_exactness(self, order):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            value = np.sum(rule.weights * rule.nodes ** k)
            assert abs(value - exact) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 7, 50, 201])
    def test_rule_invariants(self, order):
        rule = gauss_legendre(order)
        assert (np.diff(rule.nodes) > 0).all()
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-14
        assert abs(rule.weights.sum() - 2.0) <= 1e-13
        assert (rule.weights > 0).all()
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0

    @pytest.mark.parametrize("order", [0, -3, 2.5])
    def test_invalid_order(self, order):
        with pytest.raises(ValueError):
            gauss_legendre(order)

    def test_accuracy_against_mpmath(self):
        # the outermost weights are where an eigenvalue-based rule (numpy's
        # leggauss) loses accuracy: about 6e-8 relative at this order
        n = 2048
        rule = gauss_legendre(n)
        for i in (0, 1, 2, 3, 4, 300, 1023, 1500):
            x, w = _mp_gauss_node(n, i)
            assert abs(rule.nodes[i] - float(x)) <= 1e-15
            assert abs(rule.weights[i] / float(w) - 1.0) <= 1e-9

    @pytest.mark.parametrize("order", [6, 7])
    def test_exact_mirror_symmetry(self, order):
        rule = gauss_legendre(order)
        assert (rule.nodes == -rule.nodes[::-1]).all()
        assert (rule.weights == rule.weights[::-1]).all()
        if order % 2:
            assert rule.nodes[order // 2] == 0.0

    def test_cached_arrays_read_only(self):
        rule = gauss_legendre(17)
        assert gauss_legendre(17) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_validation_runs_on_cache_hit(self, monkeypatch):
        rule = gauss_legendre(2048)
        defect = abs(rule.weights.sum() - 2.0)
        assert 0.0 < defect <= TOL.weight_sum
        monkeypatch.setattr(TOL, "weight_sum", defect / 2)
        with pytest.raises(NumericalFailure):
            gauss_legendre(2048)

    def test_scaled_interval(self):
        rule = gauss_legendre(5).scaled(0.25)
        assert abs(rule.weights.sum() - 0.5) <= 1e-14
        value = np.sum(rule.weights * rule.nodes ** 2)
        assert value == pytest.approx(2 * 0.25 ** 3 / 3, abs=1e-15)


class TestEigSym:
    def test_identity(self):
        system = eig_sym(np.eye(3))
        assert system.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)

    def test_two_by_two_closed_form(self):
        A = np.array([[0.5, 1 / math.pi], [1 / math.pi, 0.5]])
        system = eig_sym(A)
        assert system.values == pytest.approx(
            [0.5 + 1 / math.pi, 0.5 - 1 / math.pi], abs=1e-14)

    def test_second_difference_closed_form(self):
        n = 4
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        system = eig_sym(A)
        expected = [2 - 2 * math.cos(k * math.pi / 5) for k in (4, 3, 2, 1)]
        assert system.values == pytest.approx(expected, abs=1e-13)

    def test_output_contract_random(self):
        rng = np.random.default_rng(7)
        B = rng.normal(size=(40, 40))
        A = B + B.T
        system = eig_sym(A)
        assert (np.diff(system.values) <= 0).all()
        gram = system.vectors.T @ system.vectors
        assert np.max(np.abs(gram - np.eye(40))) <= 1e-12
        resid = np.max(np.linalg.norm(A @ system.vectors
                                      - system.vectors * system.values, axis=0))
        assert resid <= 1e-11 * np.max(np.abs(system.values))
        assert system.residual_bound == resid

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(25, 25))
        A = B + B.T
        s1, s2 = eig_sym(A), eig_sym(A)
        assert (s1.values == s2.values).all()
        assert (s1.vectors == s2.vectors).all()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))


class TestEigSymTridiag:
    def test_scalar(self):
        system = eig_symtridiag(SymTridiag(np.array([5.0]), np.array([])))
        assert system.values == pytest.approx([5.0], abs=0)
        assert system.vectors.tolist() == [[1.0]]

    def test_two_by_two(self):
        system = eig_symtridiag(SymTridiag(np.zeros(2), np.array([1.0])))
        assert system.values == pytest.approx([1.0, -1.0], abs=1e-14)

    def test_three_by_three(self):
        T = SymTridiag(np.full(3, 2.0), np.full(2, -1.0))
        system = eig_symtridiag(T)
        expected = [2 + math.sqrt(2), 2.0, 2 - math.sqrt(2)]
        assert system.values == pytest.approx(expected, abs=1e-14)

    def test_agrees_with_dense(self):
        rng = np.random.default_rng(3)
        T = SymTridiag(rng.normal(size=80), rng.normal(size=79))
        tri = eig_symtridiag(T)
        dense = eig_sym(T.dense())
        scale = max(1.0, np.max(np.abs(dense.values)))
        assert np.max(np.abs(tri.values - dense.values)) <= 1e-12 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SymTridiag(np.zeros(3), np.zeros(3))

    def test_banded_product_matches_dense(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 60):
            T = SymTridiag(rng.normal(size=n), rng.normal(size=n - 1))
            V = rng.normal(size=(n, 5))
            assert (T.dense() == _dense(T)).all()
            assert np.max(np.abs(T.apply(V) - _dense(T) @ V)) <= 1e-14 * n

    def test_corrupted_vector_fails_contract(self, monkeypatch):
        # a small rotation of two eigenvectors keeps them orthonormal, so only
        # the banded residual check can catch it
        def rotated(d, e):
            values, vectors = eigh_tridiagonal(d, e)
            c, s = math.cos(1e-4), math.sin(1e-4)
            vectors[:, [0, 1]] = vectors[:, [0, 1]] @ np.array([[c, -s], [s, c]])
            return values, vectors

        monkeypatch.setattr(numkit, "eigh_tridiagonal", rotated)
        T = SymTridiag(np.arange(40.0), np.ones(39))
        with pytest.raises(NumericalFailure, match="residual"):
            eig_symtridiag(T)


def _dense(T):
    """Reference dense form, independent of SymTridiag.apply."""
    return (np.diag(T.diagonal) + np.diag(T.offdiag, 1)
            + np.diag(T.offdiag, -1))


def _persymmetric_tridiag(n, seed):
    rng = np.random.default_rng(seed)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    return SymTridiag(d + d[::-1], e + e[::-1])


def _centrosymmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A = A + A.T
    return A + A[::-1, ::-1]


class TestParitySplit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 60, 61])
    def test_tridiag_blocks_carry_spectrum(self, n):
        T = _persymmetric_tridiag(n, n)
        even, odd = tridiag_parity_blocks(T)
        assert (even.order, odd.order) == ((n + 1) // 2, n // 2)
        split = np.sort(np.concatenate(
            [eigh_tridiagonal(B.diagonal, B.offdiag, eigvals_only=True)
             for B in (even, odd)]))
        full = eigh_tridiagonal(T.diagonal, T.offdiag, eigvals_only=True)
        assert np.max(np.abs(split - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 60, 61])
    def test_dense_blocks_carry_spectrum(self, n):
        S = _centrosymmetric(n, n)
        even, odd = parity_blocks(S)
        assert (even == even.T).all() and (odd == odd.T).all()
        split = np.sort(np.concatenate([np.linalg.eigvalsh(even),
                                        np.linalg.eigvalsh(odd)]))
        full = np.linalg.eigvalsh(S)
        assert np.max(np.abs(split - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("n", [1, 2, 5, 60, 61])
    def test_lifted_vectors_are_parity_eigenvectors(self, n):
        S = _centrosymmetric(n, 7 * n)
        even, odd = parity_blocks(S)
        se = eig_sym(even)
        Uo = eig_sym(odd).vectors if n > 1 else np.zeros((0, 0))
        V = parity_vectors(se.vectors, Uo, n)
        assert V.shape == (n, n)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
        h = (n + 1) // 2
        assert (V[::-1, :h] == V[:, :h]).all()
        assert (V[::-1, h:] == -V[:, h:]).all()
        resid = S @ V[:, :h] - V[:, :h] * se.values
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(se.values))

    def test_tridiag_blocks_match_dense_blocks(self):
        T = _persymmetric_tridiag(9, 3)
        for tri, dense in zip(tridiag_parity_blocks(T), parity_blocks(_dense(T))):
            assert np.max(np.abs(_dense(tri) - dense)) <= 1e-15 * np.max(np.abs(dense))


class TestSincKernel:
    def test_lag_vector_matches_closed_form(self):
        W = 0.37
        k = np.arange(1, 40)
        row = sinc_kernel(2.0 * np.pi * W, np.arange(40), 2.0 * W)
        assert row[0] == 2.0 * W
        assert np.array_equal(row[1:], np.sin(2.0 * np.pi * W * k) / (np.pi * k))

    def test_value_at_zero_is_the_callers(self):
        # at W = 0.37, (2 pi W)/pi does not round to 2W, so the limit is passed in
        c = 2.0 * np.pi * 0.37
        assert c / np.pi != 0.74
        d = np.array([[0.0, 0.5], [-0.5, 0.0]])
        K = sinc_kernel(c, d, 0.74)
        assert np.array_equal(np.diag(K), [0.74, 0.74])
        assert K[0, 1] == np.sin(c * 0.5) / (np.pi * 0.5) == K[1, 0]


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm_sym(np.zeros((4, 4))) == 0.0

    def test_identity(self):
        assert spectral_norm_sym(np.eye(5)) == pytest.approx(1.0, abs=1e-15)

    def test_two_by_two(self):
        A = np.array([[0.5, 1 / math.pi], [1 / math.pi, 0.5]])
        assert spectral_norm_sym(A) == pytest.approx(0.5 + 1 / math.pi, rel=1e-10)


def test_snapped_floor():
    assert snapped_floor(35.99999999999999) == 36
    assert snapped_floor(36.00000000000001) == 36
    assert snapped_floor(35.4) == 35
    assert snapped_floor(-0.2) == -1
    assert snapped_floor(12.0) == 12
