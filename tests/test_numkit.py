import dataclasses
import math
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy

from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstevd

from slepian import DiscreteParams, config, numkit
from slepian.discrete import commuting_tridiagonal
from slepian.config import Tolerances
from slepian.numkit import (NumericalFailure, SymTridiag, checked_index, eig_sym,
                            eig_symtridiag, gauss_legendre, parity_block,
                            parity_spectrum, sinc_kernel, snapped_floor,
                            tridiag_parity_blocks)

from conftest import parity_blocks


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

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 7, 2048])
    def test_exact_mirror_symmetry(self, order):
        # built by reflection, and not re-checked at run time: order 1 is the
        # bare middle node, 2 and 3 reflect one root, 2048 is the native
        # frame's rule at N = 512
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

    def test_failed_rule_is_not_memoised(self, monkeypatch):
        # the contract is checked where the rule is built: a rule that fails
        # raises and stays out of the memo, so the next call builds it again
        rule = gauss_legendre(2048)
        defect = abs(rule.weights.sum() - 2.0)
        assert 0.0 < defect <= Tolerances().weight_sum
        gauss_legendre.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(config, "TOLERANCES", dataclasses.replace(
                config.TOLERANCES, weight_sum=defect / 2))
            with pytest.raises(NumericalFailure, match="quadrature weights are invalid"):
                gauss_legendre(2048)
        assert gauss_legendre.cache_info().currsize == 0
        rebuilt = gauss_legendre(2048)
        assert rebuilt is not rule and gauss_legendre.cache_info().currsize == 1
        assert (rebuilt.nodes == rule.nodes).all() and (rebuilt.weights == rule.weights).all()

    def test_bool_order_is_refused_after_order_one_is_memoised(self):
        # typed memo keys: True equals 1.0 and np.int64(1) and hashes alike,
        # so an untyped memo would hand order 1's rule to True, unchecked,
        # once order 1 is memoised under either (a bare int is keyed apart)
        for one in (1, 1.0, np.int64(1)):
            assert gauss_legendre(one).nodes.tolist() == [0.0]
        with pytest.raises(ValueError):
            gauss_legendre(True)

    def test_constants_are_computed_once_per_rule(self, monkeypatch):
        # C_n's O(n) compensated sum runs once per build, not per Newton step
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda x: calls.append(1) or fsum(x))
        gauss_legendre.__wrapped__(963)
        assert len(calls) == 1

    def test_newton_non_convergence_is_numerical_failure(self, monkeypatch):
        # the uncached builder, so no failed order stays in the memo
        monkeypatch.setattr(numkit, "_NEWTON_MAX_STEPS", 0)
        with pytest.raises(NumericalFailure, match="order 9 did not converge"):
            gauss_legendre.__wrapped__(9)

    @pytest.mark.parametrize("nodes,message", [
        ([0.5, -0.5], "quadrature nodes are not strictly increasing"),
        ([-1.0, 1.0], "quadrature nodes left (-1, 1)")])
    def test_contract_rejects_a_faulty_rule(self, monkeypatch, nodes, message):
        # Newton "converges" to theta = arccos(nodes[1]) with no step left and
        # dP/dtheta = sqrt(2): order 2's nodes are +-cos(theta) with unit
        # weights summing to 2, so only the named check fails
        monkeypatch.setattr(numkit, "_newton", lambda n, legendre, t: (
            np.full_like(t, math.acos(nodes[1])), np.zeros_like(t),
            np.full_like(t, math.sqrt(2.0))))
        with pytest.raises(NumericalFailure) as info:
            gauss_legendre.__wrapped__(2)
        assert type(info.value) is NumericalFailure and str(info.value) == message

    @pytest.mark.parametrize("n", [963, 2048])
    def test_outermost_weights_against_mpmath(self, n):
        # where 1 - x^2 cancelled in the x-space rule: 5.5e-11 at n = 2048
        rule = gauss_legendre(n)
        for i in range(5):
            x, w = _mp_gauss_node(n, i)
            assert abs(rule.weights[i] / float(w) - 1.0) <= 1e-13

    @staticmethod
    def _mp_legendre(n, theta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            t = mpmath.mpf(float(theta))
            x = mpmath.cos(t)
            p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            return float(p), float(-mpmath.sin(t) * n * (x * p - q) / (x * x - 1))

    @pytest.mark.parametrize("n,evaluator,ns", [
        (7, "_legendre_fourier", [0.3, 2.0, 6.9]),
        (100, "_legendre_fourier", [2.4, 15.0, 29.9]),
        (2048, "_legendre_fourier", [2.4, 15.0, 29.9]),
        (100, "_legendre_stieltjes", [30.0, 70.0, 100.0]),
        (2048, "_legendre_stieltjes", [30.0, 500.0, 2048.0])])
    def test_evaluators_against_mpmath(self, n, evaluator, ns):
        # each route in its own regime, n sin(theta) = ns; errors relative to
        # the amplitude of P_n and of n P_n there
        theta = np.arcsin(np.array(ns) / n)
        p, dp = getattr(numkit, evaluator)(n)(theta)
        for t, ns_, pi, dpi in zip(theta, ns, p, dp):
            ref_p, ref_dp = self._mp_legendre(n, t)
            amp = math.sqrt(2.0 / (math.pi * max(ns_, 1.0)))
            assert abs(pi - ref_p) <= 1e-14 * amp
            assert abs(dpi - ref_dp) <= 1e-14 * n * amp

    @pytest.mark.parametrize("n", [30, 100, 963, 8000])
    def test_evaluators_agree_at_the_cutoff(self, n):
        theta = np.arcsin(numkit._FOURIER_CUTOFF / n) * np.array([0.999, 1.0, 1.001])
        for a, b in zip(numkit._legendre_fourier(n)(theta),
                        numkit._legendre_stieltjes(n)(theta)):
            assert np.max(np.abs(a - b)) <= 1e-14 * n

    def test_order_80000_keeps_its_contract(self):
        rule = gauss_legendre(80000)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14

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
        dense = eig_sym(T.apply(np.eye(T.order)))
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



class TestContractRejectsNaN:
    """A NaN from LAPACK, in a value or a vector, fails the contract, and so do
    values that do not ascend; nothing is re-sorted."""

    @staticmethod
    def _corrupt(values, vectors, where):
        if where == "value":
            values[1] = math.nan
        elif where == "vector":
            vectors[0, 1] = math.nan
        else:   # descending: consistent pairs in the wrong order
            values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
        return values, vectors

    @pytest.mark.parametrize("where, message", [
        ("value", "residual"), ("vector", "orthonormality"),
        ("descending", "not ascending")])
    def test_eig_sym(self, monkeypatch, where, message):
        real = np.linalg.eigh
        monkeypatch.setattr(numkit.np.linalg, "eigh",
                            lambda A: self._corrupt(*real(A), where))
        with pytest.raises(NumericalFailure, match=message):
            eig_sym(np.diag([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("where, message", [
        ("value", "residual"), ("vector", "orthonormality"),
        ("descending", "not ascending")])
    def test_eig_symtridiag(self, monkeypatch, where, message):
        monkeypatch.setattr(numkit, "eigh_tridiagonal",
                            lambda d, e: self._corrupt(*eigh_tridiagonal(d, e), where))
        with pytest.raises(NumericalFailure, match=message):
            eig_symtridiag(SymTridiag(np.arange(40.0), np.ones(39)))


class TestDstevd:
    """``numkit.eigh_tridiagonal`` is LAPACK dstevd reached without
    ``scipy.linalg``, with ``scipy.linalg.eigh_tridiagonal``'s input checks."""

    @staticmethod
    def _assert_same_as_public(d, e):
        # the public wrapper wants len(e) >= 1; a 1 x 1 matrix has no e
        want = dstevd(d, e if len(e) else np.zeros(1))
        assert want[2] == 0
        got = numkit.eigh_tridiagonal(d, e)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_matches_public_dstevd(self, n):
        rng = np.random.default_rng(n)
        self._assert_same_as_public(rng.normal(size=n), rng.normal(size=n - 1))

    def test_matches_public_dstevd_on_a_dpss_block(self):
        even, _ = tridiag_parity_blocks(commuting_tridiagonal(DiscreteParams(2000, 0.3)))
        assert even.order == 1000
        self._assert_same_as_public(even.diagonal, even.offdiag)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["d", "e"])
    def test_non_finite_input_raises_scipys_error(self, bad, which):
        d, e = np.arange(4.0), np.ones(3)
        (d if which == "d" else e)[1] = bad
        with pytest.raises(ValueError) as scipys:
            eigh_tridiagonal(d, e)
        with pytest.raises(ValueError, match="must not contain infs or NaNs") as ours:
            numkit.eigh_tridiagonal(d, e)
        assert str(ours.value) == str(scipys.value)

    def test_nonzero_info_is_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(numkit._load_flapack(), "dstevd",
                            lambda d, e: (d.copy(), np.eye(len(d)), 3))
        with pytest.raises(NumericalFailure, match="info=3"):
            eig_symtridiag(SymTridiag(np.arange(40.0), np.ones(39)))

    def test_scipy_without_dstevd_is_an_import_error(self, monkeypatch):
        # a stand-in _flapack without the routine: one clear ImportError that
        # names the installed scipy, not an AttributeError at the first solve
        name = "scipy.linalg._flapack"
        monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
        numkit._load_flapack.cache_clear()   # loaded at the first solve, then kept
        try:
            with pytest.raises(ImportError) as info:
                numkit._load_flapack()
        finally:
            numkit._load_flapack.cache_clear()
        assert str(info.value) == (f"scipy {scipy.__version__} has no LAPACK dstevd in "
                                   f"{name}; slepian needs scipy>=1.17")


def test_import_keeps_scipy_linalg_out():
    """``import slepian`` and its first tridiagonal solve cost numpy and bare
    scipy only: a module-level import of ``scipy.linalg`` pulls in
    ``numpy.f2py`` and ``numpy.testing`` through scipy's array-API layer,
    about 0.3 s per process. mpmath, which the tests' oracles import, is no
    dependency of the package and stays out too."""
    code = ("import sys, slepian, slepian.cli; "
            "slepian.spectrum(slepian.DiscreteParams(8, 0.2)); "
            "print(*sorted({'scipy.linalg', 'numpy.f2py', 'numpy.testing', 'mpmath'} "
            "& set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == []


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

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 61, 601, 602])
    def test_block_matches_definition(self, n):
        # from n = 601 the rows are read in more than one chunk
        S = _centrosymmetric(n, n)
        for odd, ref in enumerate(parity_blocks(S)):
            assert np.array_equal(parity_block(lambda i, j: S[i:j], n, odd), ref)

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
        blocks = parity_blocks(S)
        values, V = parity_spectrum(n, lambda odd: eig_sym(blocks[odd]))
        assert V.shape == (n, n) and V.flags.f_contiguous
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-13
        assert (V[::-1, 0::2] == V[:, 0::2]).all()
        assert (V[::-1, 1::2] == -V[:, 1::2]).all()
        resid = S @ V - V * values
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(values))

    def test_tridiag_blocks_match_dense_blocks(self):
        T = _persymmetric_tridiag(9, 3)
        for tri, dense in zip(tridiag_parity_blocks(T), parity_blocks(_dense(T))):
            assert np.max(np.abs(_dense(tri) - dense)) <= 1e-15 * np.max(np.abs(dense))


class TestSincKernel:
    def test_lag_vector_matches_closed_form(self):
        W = 0.37
        k = np.arange(1, 40)
        row = sinc_kernel(2.0 * np.pi * W * np.arange(40), np.pi * np.arange(40), 2.0 * W)
        assert row[0] == 2.0 * W
        assert np.array_equal(row[1:], np.sin(2.0 * np.pi * W * k) / (np.pi * k))

    def test_value_at_zero_is_the_callers(self):
        # at W = 0.37, (2 pi W)/pi does not round to 2W, so the limit is passed in
        c = 2.0 * np.pi * 0.37
        assert c / np.pi != 0.74
        d = np.array([[0.0, 0.5], [-0.5, 0.0]])
        K = sinc_kernel(c * d, np.pi * d, 0.74)
        assert np.array_equal(np.diag(K), [0.74, 0.74])
        assert K[0, 1] == np.sin(c * 0.5) / (np.pi * 0.5) == K[1, 0]


def test_snapped_floor():
    assert snapped_floor(35.99999999999999) == 36
    assert snapped_floor(36.00000000000001) == 36
    assert snapped_floor(35.4) == 35
    assert snapped_floor(-0.2) == -1
    assert snapped_floor(12.0) == 12


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_snapped_floor_rejects_non_finite(x):
    with pytest.raises(ValueError, match=f"non-finite {x}"):
        snapped_floor(x)


class TestCheckedIndex:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0])
    def test_integers_accepted(self, value):
        k = checked_index(value, 0, 5, "k")
        assert (k, type(k)) == (3, int)

    @pytest.mark.parametrize("value", [0.5, True, np.bool_(False), math.nan,
                                       math.inf, "3", None, 1j])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError) as info:
            checked_index(value, 0, 5, "mode index k")
        assert str(info.value) == f"mode index k={value} is not an integer in [0, 5]"

    @pytest.mark.parametrize("value", [-1, 6, np.int64(6)])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(ValueError) as info:
            checked_index(value, 0, 5, "K")
        assert str(info.value) == f"K={value} outside [0, 5]"
