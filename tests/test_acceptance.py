"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance. The parameter
grid is N in {30, 60, 120} and W in {0.1, 0.2, 0.3, 0.4}; eigenvalues below
1e-12 are outside double-precision resolution and are excluded wherever an
inequality is eigenvalue-by-eigenvalue.
"""

import math
import time

import numpy as np
import pytest

from slepian.approximation import TestFunction, project_dilated, project_native
from slepian.bounds import (COMPARISON_TAIL, OutOfRangeError,
                            compare_spectra, comparison_constant,
                            concentration_inequality_constant,
                            eigenvalue_tail_bound, plunge_count_bound,
                            plunge_count_bound_coarse, plunge_decay_rate,
                            superexponential_decay_bound)
from slepian.continuous import (default_order, hs_lower_bound, hs_norm_sq,
                                legendre_spectrum, nystrom_spectrum)
from slepian.discrete import (DiscreteParams, commutation_defect,
                              dpswf_matrix, prolate_matrix, spectrum,
                              symmetry_defect)

E = math.e
PI = math.pi

GRID_N = (30, 60, 120)
GRID_W = (0.1, 0.2, 0.3, 0.4)
GRID_EPS = (0.01, 0.05, 0.2)
TABLE1 = {0.1: 4.15e-3, 0.2: 1.65e-2, 0.3: 3.98e-2, 0.4: 8.51e-2}
FLOOR = 1e-12


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def table1_results():
    # timed end to end: spectra plus the sinc-kernel eigenvalues, no caching
    start = time.perf_counter()
    results = {}
    for W in GRID_W:
        disc = spectrum(DiscreteParams(60, W), method="toeplitz")
        cont = legendre_spectrum(disc.params.bandwidth, 60 + COMPARISON_TAIL)
        results[W] = compare_spectra(60, W, disc.values, cont)
    return results, time.perf_counter() - start


def test_criterion_01_table1_reproduction(table1_results):
    results, elapsed = table1_results
    worst = max(abs(results[W][0] - TABLE1[W]) / TABLE1[W] for W in GRID_W)
    ok = worst <= 0.02 and elapsed <= 30.0
    report(1, ok, f"l2 comparison within {worst:.2%} of the reference "
                  f"(limit 2%), runtime {elapsed:.2f}s (limit 30s)")


def test_criterion_02_l2_bound(table1_results):
    results, _ = table1_results
    margins = {W: bound - l2_diff for W, (l2_diff, bound) in results.items()}
    ok = all(m >= 0 for m in margins.values())
    assert results[0.1][1] == pytest.approx(2.239e-2, rel=1e-3)
    report(2, ok, "each l2 difference below W^3 4pi^2/(3 sin 2piW); "
                  f"min margin {min(margins.values()):.3e}")


def test_criterion_03_comparison_inequality(get_spectrum, get_nystrom):
    worst = -np.inf
    for N in GRID_N:
        for W in GRID_W:
            lam = get_spectrum(N, W).values
            c = PI * N * W
            cont = get_nystrom(c, max(default_order(c), N + 10))
            A = comparison_constant(W)
            mask = lam >= FLOOR
            worst = max(worst, float(np.max(
                lam[mask] - A * cont.values[:N][mask])))
    grid = np.linspace(1e-6, 0.5 - 1e-6, 1000)
    a_values = np.array([comparison_constant(float(w)) for w in grid])
    in_range = bool((a_values >= PI ** 2 / 8 - 1e-12).all()
                    and (a_values <= 2.0).all())
    ok = worst <= 1e-12 and in_range
    report(3, ok, f"lambda_k <= A(W) lambda_k(c) + 1e-12 on the grid "
                  f"(worst excess {worst:.2e}); A(W) in [pi^2/8, 2] "
                  f"on a 1000-point grid: {in_range}")


def test_criterion_04_count_bounds(get_spectrum):
    ok_counts = True
    for N in GRID_N:
        for W in GRID_W:
            lam = get_spectrum(N, W).values
            for eps in GRID_EPS:
                count = int(np.sum((lam >= eps) & (lam <= 1 - eps)))
                ok_counts &= count <= plunge_count_bound(N, W, eps)
    ok_improves = True
    for N in (2, 3, 5, 10, 30, 60, 120, 250):
        for W in np.linspace(0.02, 0.48, 24):
            if PI * N * W >= 1.0:
                for eps in GRID_EPS:
                    ok_improves &= (plunge_count_bound(N, float(W), eps)
                                    < plunge_count_bound_coarse(N, eps))
    report(4, ok_counts and ok_improves,
           f"plunge counts below the bound ({ok_counts}); bound sharper than "
           f"the log(N-1) bound whenever N >= 2 and pi N W >= 1 ({ok_improves})")


def test_criterion_05_decay_bounds(get_spectrum):
    tail_checked = decay_checked = 0
    ok = True
    for N in GRID_N:
        for W in GRID_W:
            lam = get_spectrum(N, W).values
            if 0.0 < W < 2 / (E * PI) and N >= 2:
                q = E * PI * W * (N - 1) / 2
                for n in range(N):
                    if n > q and lam[n] >= FLOOR:
                        ok &= lam[n] <= eigenvalue_tail_bound(n, N, W)
                        tail_checked += 1
            if N >= 3 and W < 2 / (E * PI) * (N - 1) / N:
                lo = max(2, math.ceil(E * PI / 2 * N * W))
                for k in range(lo, N):
                    if lam[k] >= FLOOR:
                        ok &= lam[k] <= superexponential_decay_bound(k, N, W)
                        decay_checked += 1
    etas = {}
    for N in GRID_N:
        for W in GRID_W:
            try:
                etas[(N, W)] = plunge_decay_rate(N, W, get_spectrum(N, W).values)
            except OutOfRangeError:
                continue
    ok &= bool(etas) and all(eta > 0 for eta in etas.values())
    report(5, ok, f"tail bounds hold ({tail_checked} tail, {decay_checked} "
                  f"decay indices); empirical plunge decay rate positive at "
                  f"{len(etas)} grid points")


def test_criterion_06_identities(get_spectrum):
    worst = {"trace": 0.0, "symmetry": 0.0, "commutation": 0.0,
             "orthogonality": 0.0, "periodicity": 0.0}
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-0.5, 0.5, size=100)
    for N in GRID_N:
        for W in GRID_W:
            disc = get_spectrum(N, W)
            rho = prolate_matrix(disc.params)
            worst["trace"] = max(worst["trace"],
                                 abs(disc.values.sum() - 2 * N * W) / (2 * N * W))
            worst["symmetry"] = max(worst["symmetry"], symmetry_defect(
                disc, get_spectrum(N, 0.5 - W, "toeplitz")))
            worst["commutation"] = max(worst["commutation"],
                                       commutation_defect(disc.params))
            gram = disc.dpss.T @ rho @ disc.dpss
            off = gram - np.diag(np.diag(gram))
            worst["orthogonality"] = max(worst["orthogonality"],
                                         float(np.max(np.abs(off))))
            u0 = dpswf_matrix(disc, xs)
            u1 = dpswf_matrix(disc, xs + 1.0)
            defect = np.max(np.abs(u1 - (-1.0) ** (N - 1) * u0))
            worst["periodicity"] = max(worst["periodicity"], float(defect))
    ok = (worst["trace"] <= 1e-11 and worst["symmetry"] <= 1e-10
          and worst["commutation"] <= 1e-12 and worst["orthogonality"] <= 1e-10
          and worst["periodicity"] <= 1e-12)
    report(6, ok, "identities: " + ", ".join(
        f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_continuous_side():
    cs = (5.0, 18.85, 37.7, 56.55, 75.4)
    worst_trace = 0.0
    worst_drift = 0.0
    hs_ok = True
    for c in cs:
        M = default_order(c)
        cont = nystrom_spectrum(c, M, check_convergence=False)
        refined = nystrom_spectrum(c, 2 * M, check_convergence=False)
        expected = 2 * c / PI
        worst_trace = max(worst_trace,
                          abs(cont.values.sum() - expected) / expected)
        mask = cont.values >= FLOOR
        worst_drift = max(worst_drift, float(np.max(
            np.abs(cont.values[mask] - refined.values[:M][mask]))))
        hs_ok &= hs_norm_sq(c, legendre_spectrum(c, 0)) >= hs_lower_bound(c)
    ok = worst_trace <= 1e-9 and hs_ok and worst_drift <= 1e-10
    report(7, ok, f"trace defect {worst_trace:.2e} (limit 1e-9), HS lower "
                  f"bound holds at all five bandwidths ({hs_ok}), mesh-doubling "
                  f"drift {worst_drift:.2e} (limit 1e-10)")


def test_criterion_08_bandlimited_projection(spec60_03):
    f = TestFunction.sinc_bandlimited(56.0)
    result = project_dilated(f, spec60_03, 60)
    ok = result.residual_sup <= 1e-8
    report(8, ok, f"sup residual {result.residual_sup:.3e} for the "
                  f"bandlimited target with all 60 modes (limit 1e-8)")


def test_criterion_09_weierstrass_projection(spec60_03):
    f = TestFunction.weierstrass(1.0)
    r60 = project_dilated(f, spec60_03, 60)
    r36 = project_dilated(f, spec60_03, 36)
    dev60 = abs(r60.residual_l2 - 8.64e-3) / 8.64e-3
    dev36 = abs(r36.residual_l2 - 2.43e-2) / 2.43e-2
    sobolev_ok = True
    for K in range(47, 60):
        result = project_native(f, spec60_03, K)
        sobolev_ok &= bool(result.sobolev_ok)
    ok = dev60 <= 0.10 and dev36 <= 0.10 and sobolev_ok
    report(9, ok, f"residuals {r60.residual_l2:.3e} (K=60, dev {dev60:.1%}) "
                  f"and {r36.residual_l2:.3e} (K=36, dev {dev36:.1%}); "
                  f"Sobolev inequality at every valid K: {sobolev_ok}")


def test_criterion_10_concentration_constant(get_spectrum):
    result = concentration_inequality_constant(1 / 6)
    formula = result["formula_value"]
    empirical = result["empirical"]
    consistent = True
    for N, a_n in result["per_n"].items():
        lam = get_spectrum(N, 1 / 6).values[N - 1]
        consistent &= lam >= math.exp(
            -empirical * (1 - 2 / 6) * (N - 1)) * (1 - 1e-9)
    ok = (abs(formula - 1.0206) <= 1e-3 and math.isfinite(empirical)
          and empirical > 0 and consistent)
    report(10, ok, f"formula value {formula:.6f} (1.0206 +- 1e-3), empirical "
                   f"constant {empirical:.4f}, defining inequality "
                   f"self-consistent: {consistent}")


def test_criterion_11_cross_route(get_spectrum):
    worst = 0.0
    for N in GRID_N:
        for W in GRID_W:
            a = get_spectrum(N, W, "toeplitz").values
            b = get_spectrum(N, W, "tridiag").values
            mask = a >= FLOOR
            worst = max(worst, float(np.max(np.abs(a[mask] - b[mask]))))
    closed = 0.0
    for method in ("toeplitz", "tridiag"):
        one = spectrum(DiscreteParams(1, 0.2), method=method)
        closed = max(closed, abs(one.values[0] - 0.4))
        two = spectrum(DiscreteParams(2, 0.25), method=method)
        closed = max(closed, abs(two.values[0] - (0.5 + 1 / PI)),
                     abs(two.values[1] - (0.5 - 1 / PI)))
    ok = worst <= 1e-10 and closed <= 1e-14
    report(11, ok, f"route disagreement {worst:.2e} (limit 1e-10); "
                   f"closed-form 1x1/2x2 defect {closed:.2e} (limit 1e-14)")
