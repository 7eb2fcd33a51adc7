import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from slepian import bounds, continuous, discrete
from slepian.bounds import (COMPARISON_TAIL, TURAN_N_LIST, TURAN_W, OutOfRangeError,
                            compare_spectra, comparison_constant,
                            concentration_inequality_constant,
                            eigenvalue_tail_bound, eigenvalue_tail_range,
                            plunge_count, plunge_count_bound,
                            plunge_count_bound_coarse, plunge_count_estimate,
                            plunge_decay_rate, plunge_mass,
                            superexponential_decay_bound,
                            superexponential_decay_range, verify_all,
                            verify_comparison)
from slepian.config import Tolerances, using_tolerances
from slepian.continuous import (default_order, hs_norm_sq, legendre_spectrum,
                                nystrom_spectrum)

E = math.e
PI = math.pi


class TestTailBound:
    def test_prefactor_value(self):
        # C_W at W = 0.1 is sqrt(0.2) (2 + 2/(0.1 e pi)) ~ 1.9418
        bound = eigenvalue_tail_bound(20, 21, 0.1)
        cw = math.sqrt(0.2) * (2 + 2 / (E * PI * 0.1))
        assert cw == pytest.approx(1.9418, abs=1e-4)
        q = E * PI * 0.1 * 20 / 2
        expected = cw / (math.sqrt(20) * math.log(20 / q)) * (q / 20) ** 19.5
        assert bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("N,W", [(21, 0.1), (41, 0.1), (60, 0.2)])
    def test_dominates_spectrum(self, get_spectrum, N, W):
        lam = get_spectrum(N, W).values
        q = E * PI * W * (N - 1) / 2
        checked = 0
        for n in range(N):
            if n > q and lam[n] >= 1e-12:
                assert lam[n] <= eigenvalue_tail_bound(n, N, W)
                checked += 1
        if N == 21:
            assert checked >= 3

    def test_monotone_decrease(self):
        N, W = 30, 0.05
        q = E * PI * W * (N - 1) / 2
        values = [eigenvalue_tail_bound(n, N, W)
                  for n in range(math.floor(q) + 1, N)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        with pytest.raises(OutOfRangeError):
            eigenvalue_tail_bound(10, 21, 0.3)   # W >= 2/(e pi)
        with pytest.raises(OutOfRangeError):
            eigenvalue_tail_bound(5, 21, 0.1)    # n below e pi W (N-1)/2
        with pytest.raises(OutOfRangeError):
            eigenvalue_tail_bound(21, 21, 0.1)   # n > N-1

    def test_index_range(self):
        # e pi W (N-1)/2 = 8.54 at (21, 0.1)
        assert eigenvalue_tail_range(21, 0.1) == range(9, 21)
        for n in range(-1, 23):
            if n in range(9, 21):
                assert eigenvalue_tail_bound(n, 21, 0.1) > 0
            else:
                with pytest.raises(OutOfRangeError, match=f"n={n} outside"):
                    eigenvalue_tail_bound(n, 21, 0.1)
        with pytest.raises(OutOfRangeError,
                           match=r"W=0.3 outside \(0, 2/\(e pi\)\)"):
            eigenvalue_tail_range(21, 0.3)
        with pytest.raises(OutOfRangeError, match="N=1 must be >= 2"):
            eigenvalue_tail_range(1, 0.1)


class TestCountBounds:
    def test_reference_evaluation(self):
        assert plunge_count_bound(60, 0.3, 0.05) == pytest.approx(
            15.854450114718038, rel=1e-12)
        assert plunge_count_bound_coarse(60, 0.05) == pytest.approx(
            26.00002507976772, rel=1e-12)
        assert plunge_count_estimate(60, 0.05) == pytest.approx(
            28.657500613707274, rel=1e-12)

    def test_estimate_degenerates_at_fifteen(self):
        assert plunge_count_estimate(60, 15.0) == 0.0

    def test_coarse_defined_for_small_n(self):
        value = plunge_count_bound_coarse(2, 0.25)
        assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("N", [30, 60, 120])
    @pytest.mark.parametrize("W", [0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2])
    def test_counts_below_bound(self, get_spectrum, N, W, eps):
        lam = get_spectrum(N, W).values
        count = int(np.sum((lam >= eps) & (lam <= 1 - eps)))
        assert count <= plunge_count_bound(N, W, eps)

    @pytest.mark.parametrize("N", [2, 5, 30, 60, 120, 240])
    @pytest.mark.parametrize("W", [0.05, 0.1, 0.25, 0.4, 0.49])
    @pytest.mark.parametrize("eps", [0.01, 0.2, 0.45])
    def test_improves_coarse_bound(self, N, W, eps):
        if PI * N * W >= 1.0:
            assert plunge_count_bound(N, W, eps) < plunge_count_bound_coarse(N, eps)

    def test_monotone_decreasing_in_eps(self):
        grid = np.linspace(0.005, 0.495, 99)
        values = [plunge_count_bound(60, 0.3, float(e)) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        for bad_eps in (0.0, 0.5, -0.1):
            with pytest.raises(OutOfRangeError):
                plunge_count_bound(60, 0.3, bad_eps)
        with pytest.raises(OutOfRangeError):
            plunge_count_bound_coarse(1, 0.1)

    @pytest.mark.parametrize("eps", [1e-320, 5e-324, float("nan")])
    def test_subnormal_eps_is_out_of_range(self, eps):
        # eps must be a normal double, as W must
        for bound in (lambda: plunge_count_bound(60, 0.3, eps),
                      lambda: plunge_count_bound_coarse(60, eps)):
            with pytest.raises(OutOfRangeError, match="not a normal double"):
                bound()

    def test_smallest_normal_eps_gives_finite_bounds(self):
        eps = sys.float_info.min
        for value in (plunge_count_bound(60, 0.3, eps),
                      plunge_count_bound_coarse(60, eps),
                      plunge_count_estimate(60, eps)):
            assert 0 < value < math.inf

    @pytest.mark.parametrize("bound", [lambda eps: plunge_count_bound(10 ** 16, 0.3, eps),
                                       lambda eps: plunge_count_bound_coarse(10 ** 16, eps)])
    @pytest.mark.parametrize("eps", [sys.float_info.min, np.finfo(float).tiny])
    def test_overflowing_bound_is_out_of_range(self, bound, eps):
        # a numpy eps overflows without a RuntimeWarning too
        assert bound(4 * eps) < math.inf
        with pytest.raises(OutOfRangeError, match="makes the count bound overflow"):
            bound(eps)

    @pytest.mark.parametrize("N,W", [(60, 0.0), (60, 0.5), (60, -0.1), (0, 0.3)])
    def test_bound_outside_its_parameters(self, N, W):
        with pytest.raises(OutOfRangeError) as info:
            plunge_count_bound(N, W, 0.05)
        assert type(info.value) is OutOfRangeError
        assert str(info.value) == f"invalid (N, W)=({N}, {W})"

    def test_estimate_needs_one_sample(self):
        with pytest.raises(OutOfRangeError) as info:
            plunge_count_estimate(0, 0.05)
        assert type(info.value) is OutOfRangeError
        assert str(info.value) == "N=0 must be >= 1"

    def test_estimate_takes_log_of_each_factor(self):
        # log(15/eps) overflows inside the log below eps = 15/DBL_MAX
        for eps in (sys.float_info.min, 5e-324, 1e-300):
            expected = 8 / PI ** 2 * math.log(8 * 60 + 12) * (math.log(15) - math.log(eps))
            assert plunge_count_estimate(60, eps) == expected
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(OutOfRangeError, match="positive and finite"):
                plunge_count_estimate(60, eps)

    @pytest.mark.parametrize("N,W", [(1, 0.3), (5, 0.001), (3, 0.1)])
    def test_below_unit_bandwidth(self, N, W):
        # pi N W < 1, where log(2NW)/pi^2 + 0.45 is not a bound
        with pytest.raises(OutOfRangeError, match="below 1"):
            plunge_count_bound(N, W, 0.05)

    def test_count_is_closed_band(self):
        values = np.array([1.0, 0.96, 0.95, 0.5, 0.05, 0.04])
        assert plunge_count(values, 0.05) == 3
        assert plunge_count(values, 0.01) == 5


class TestComparisonConstant:
    def test_small_band_limit(self):
        assert comparison_constant(1e-6) == pytest.approx(PI ** 2 / 8, abs=1e-11)

    def test_reference_value(self):
        assert comparison_constant(0.3) == pytest.approx(1.4626227887577845,
                                                         rel=1e-12)

    @pytest.mark.parametrize("W", [0.0, 0.5, -0.1, math.nan])
    def test_w_outside_half_open_band(self, W):
        with pytest.raises(OutOfRangeError) as info:
            comparison_constant(W)
        assert type(info.value) is OutOfRangeError
        assert str(info.value) == f"W={W} outside (0, 0.5)"

    def test_bounded_on_dense_grid(self):
        grid = np.linspace(1e-6, 0.5 - 1e-6, 1000)
        values = np.array([comparison_constant(float(w)) for w in grid])
        assert (values >= PI ** 2 / 8 - 1e-12).all()
        assert (values <= 2.0).all()

    @pytest.mark.parametrize("N", [30, 60])
    @pytest.mark.parametrize("W", [0.1, 0.2, 0.3, 0.4])
    def test_dominates_discrete_spectrum(self, get_spectrum, get_nystrom, N, W):
        lam = get_spectrum(N, W).values
        c = PI * N * W
        cont = get_nystrom(c, max(default_order(c), N + 10))
        check = verify_comparison(N, W, lam, cont.values)
        assert check.name == "comparison_inequality" and check.satisfied

    def test_scalar_case(self):
        lam = 0.4   # N = 1, W = 0.2
        cont = nystrom_spectrum(0.2 * PI, check_convergence=False)
        assert lam <= comparison_constant(0.2) * cont.values[0] + 1e-12


class TestSharedFormulas:
    def test_one_definition_per_bound_statement(self):
        # no exported asymptotic decay constants or second decay-bound body,
        # and one tolerance for the reflection pair
        import slepian
        assert not hasattr(slepian, "asymptotic_decay_constants")
        assert not hasattr(bounds, "decay_formula")
        fields = [f.name for f in dataclasses.fields(Tolerances)]
        assert "symmetry_identity" not in fields and len(fields) == 14

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (500, 0.45)])
    def test_count_bound_is_mass_bound_over_eps_gap(self, N, W):
        _, mass_bound = plunge_mass(N, W, np.zeros(N))
        for eps in (0.01, 0.05, 0.2):
            assert plunge_count_bound(N, W, eps) == mass_bound / (eps * (1 - eps))


class TestDecayBound:
    def test_far_tail_value(self):
        # k = N-1 at (60, 0.1): 2 exp(-119 log(120/(6 e pi)))
        expected = 2 * math.exp(-119 * math.log(120 / (E * PI * 6)))
        assert superexponential_decay_bound(59, 60, 0.1) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(2 * math.exp(-101.26928413684631),
                                         rel=1e-2, abs=0)

    def test_defined_at_range_edge(self):
        k = math.ceil(E * PI * 60 * 0.1 / 2)
        value = superexponential_decay_bound(k, 60, 0.1)
        assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.1), (120, 0.1),
                                     (30, 0.2), (120, 0.2)])
    def test_dominates_spectrum(self, get_spectrum, N, W):
        if not (N >= 3 and W < 2 / (E * PI) * (N - 1) / N):
            pytest.skip("outside validity range")
        lam = get_spectrum(N, W).values
        lo = E * PI / 2 * N * W
        for k in range(max(2, math.ceil(lo)), N):
            if lam[k] >= 1e-12:
                assert lam[k] <= superexponential_decay_bound(k, N, W)

    def test_range_errors(self):
        with pytest.raises(OutOfRangeError):
            superexponential_decay_bound(10, 60, 0.1)   # below e pi N W / 2
        with pytest.raises(OutOfRangeError):
            superexponential_decay_bound(59, 60, 0.24)  # W too large
        with pytest.raises(OutOfRangeError):
            superexponential_decay_bound(2, 2, 0.1)     # N < 3

    def test_index_range(self):
        # (e pi / 2) N W = 25.6 at (60, 0.1) and 1.28 at (3, 0.1)
        assert superexponential_decay_range(60, 0.1) == range(26, 60)
        assert superexponential_decay_range(3, 0.1) == range(2, 3)
        for k in (0, 1, 25, 60):
            with pytest.raises(OutOfRangeError, match=f"k={k} outside"):
                superexponential_decay_bound(k, 60, 0.1)
        with pytest.raises(OutOfRangeError,
                           match="W=0.3 outside the admissible range for N=30"):
            superexponential_decay_range(30, 0.3)
        with pytest.raises(OutOfRangeError, match="N=2 must be >= 3"):
            superexponential_decay_range(2, 0.1)


class TestPlungeMass:
    def test_scalar_case(self):
        # (1, 0.2) has c = 0.63, below the bound's range c >= 1
        with pytest.raises(OutOfRangeError, match="below 1"):
            plunge_mass(1, 0.2, np.array([0.4]))
        measured, _ = plunge_mass(2, 0.2, np.array([0.6, 0.2]))
        assert measured == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (120, 0.4)])
    def test_bound_holds(self, get_spectrum, N, W):
        measured, bound = plunge_mass(N, W, get_spectrum(N, W).values)
        assert 0.0 <= measured <= bound

    def test_reference_bound_value(self):
        _, bound = plunge_mass(60, 0.3, np.zeros(60))
        assert bound == pytest.approx(0.7530863804491068, rel=1e-10)


class TestPlungeDecayRate:
    def test_positive_where_defined(self, get_spectrum):
        eta = plunge_decay_rate(200, 0.2, get_spectrum(200, 0.2).values)
        assert eta > 0

    def test_empty_range_raises(self):
        with pytest.raises(OutOfRangeError):
            plunge_decay_rate(10, 0.1, np.zeros(10))

    def test_stability_across_lengths(self, get_spectrum):
        etas = [plunge_decay_rate(N, 0.2, get_spectrum(N, 0.2).values)
                for N in (150, 200, 300)]
        assert max(etas) <= 1.2 * min(etas)


class TestConcentrationConstant:
    def test_formula_value(self):
        result = concentration_inequality_constant(1 / 6, n_list=(7, 9, 11))
        assert result["formula_value"] == pytest.approx(
            3 * math.log(12 / (E * PI)), rel=1e-14)
        assert result["formula_value"] == pytest.approx(1.0206, abs=1e-3)

    def test_empirical_values(self, get_spectrum):
        result = concentration_inequality_constant(1 / 6, n_list=(7, 9, 11))
        assert result["empirical"] > 0
        assert math.isfinite(result["empirical"])
        assert result["empirical_sq"] == result["empirical"] / 2
        # empirical estimate sits above the closed-form lower bound
        assert result["empirical"] >= result["formula_value"]
        # the defining inequality holds at A = empirical for every N used
        A = result["empirical"]
        for N in (7, 9, 11):
            lam = get_spectrum(N, 1 / 6).values[N - 1]
            assert lam >= math.exp(-A * (1 - 2 / 6) * (N - 1)) * (1 - 1e-9)

    def test_floor_error_for_large_n(self):
        with pytest.raises(OutOfRangeError,
                           match=r"^all lambda_\(N-1\) below 1e-12 for N in "
                                 r"\(15, 20, 25\); choose smaller N$"):
            concentration_inequality_constant(1 / 6, n_list=(15, 20, 25))

    def test_w_range(self):
        with pytest.raises(OutOfRangeError):
            concentration_inequality_constant(0.1)


class TestCompareSpectra:
    TABLE = {0.1: 4.15e-3, 0.2: 1.65e-2, 0.3: 3.98e-2, 0.4: 8.51e-2}

    @staticmethod
    def cont(N, W, count=None):
        return legendre_spectrum(PI * N * W, count or N + COMPARISON_TAIL)

    @pytest.mark.parametrize("W", [0.1, 0.2, 0.3, 0.4])
    def test_reproduces_reference_table(self, get_spectrum, W):
        l2_diff, bound = compare_spectra(
            60, W, get_spectrum(60, W, "toeplitz").values, self.cont(60, W))
        assert abs(l2_diff - self.TABLE[W]) / self.TABLE[W] <= 0.02
        assert l2_diff <= bound + Tolerances().floor_checks

    def test_bound_value(self, get_spectrum):
        l2_diff, bound = compare_spectra(60, 0.1, get_spectrum(60, 0.1).values,
                                         self.cont(60, 0.1))
        assert bound == pytest.approx(0.0223882, rel=1e-5)
        assert l2_diff <= bound

    def test_tail_extension_invariance(self, get_spectrum):
        # the sinc-kernel values past N + COMPARISON_TAIL change nothing
        lam = get_spectrum(60, 0.1).values
        cont = self.cont(60, 0.1, 120)
        a, _ = compare_spectra(60, 0.1, lam, cont)
        b = float(np.linalg.norm(np.append(lam, np.zeros(60)) - cont[:120]))
        assert abs(a - b) <= 1e-12

    def test_precomputed_continuous_values(self, get_spectrum):
        lam = get_spectrum(60, 0.1).values
        cont = self.cont(60, 0.1)
        assert len(cont) >= 90
        with pytest.raises(ValueError, match="need 90"):
            compare_spectra(60, 0.1, lam, cont[:89])

    def test_short_continuous_values_in_comparison_check(self, get_spectrum):
        lam = get_spectrum(30, 0.2).values
        cont = self.cont(30, 0.2)
        with pytest.raises(ValueError, match="need 30 sinc-kernel eigenvalues, got 5"):
            verify_comparison(30, 0.2, lam, cont[:5])

    def test_discrete_values_of_length_n(self, get_spectrum):
        lam = get_spectrum(30, 0.2).values
        with pytest.raises(ValueError, match="need 30 discrete eigenvalues, got 4"):
            compare_spectra(30, 0.2, lam[:4], self.cont(30, 0.2))


@pytest.fixture(scope="module")
def report():
    return verify_all()


class TestVerifyAll:
    def test_default_grid_passes(self, report):
        failing = [c for c in report.checks
                   if not c.satisfied and not c.informational and not c.skipped]
        assert report.passed, [c.name for c in failing]

    def test_json_roundtrip(self, report):
        text = report.to_json()
        payload = json.loads(text)
        assert payload["pass"] is True
        assert {"version", "tolerances", "pass", "checks"} <= set(payload)

    @staticmethod
    def digest(payload) -> str:
        # names, params and verdicts; the measured numbers may move in their
        # last digits. Float params are rounded to 10 significant digits, and
        # the concentration_constant per-N values, which derive from the
        # smallest eigenvalue (about 1e-11 at N = 11) and move with it, are
        # pinned by their keys only.
        def pinned(v):
            if isinstance(v, dict):
                return sorted(v)
            return float(f"{v:.10g}") if isinstance(v, float) else v

        key = [[c["name"], {k: pinned(v) for k, v in c["params"].items()},
                c["satisfied"], c["informational"], c["skipped"]]
               for c in payload["checks"]]
        return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()

    def test_checks_match_reference(self, report):
        payload = json.loads(report.to_json())
        assert len(payload["checks"]) == 175
        assert self.digest(payload) == (
            "67907609ad07f2c1f0b48daf11c0b877f535d24c901bf6b30d635401aee1faa2")

    def test_family_checking_no_index_is_a_skip(self, report):
        # six tail/decay entries of the default grid have no eigenvalue above
        # the 1e-12 floor in range: skips, not passes on numbers never computed
        families = [c for c in report.checks if "checked" in c.params]
        empty = [c for c in families if c.params["checked"] == 0]
        assert sorted((c.name, c.params["N"], c.params["W"]) for c in empty) == [
            (name, N, W) for name in ("eigenvalue_tail_bound", "superexponential_decay")
            for N, W in ((30, 0.2), (60, 0.1), (60, 0.2))]
        for c in empty:
            assert c.skipped and c.note == "no eigenvalue above 1e-12 in range"
            assert c.measured is None and c.margin is None
        assert not any(c.skipped for c in families if c.params["checked"])

    def test_l2_entry_is_compare_spectra(self, report):
        entries = [c for c in report.checks if c.name == "spectra_l2_distance"]
        assert len(entries) == 8
        for entry in entries:
            N, W = entry.params["N"], entry.params["W"]
            c = discrete.DiscreteParams(N, W).bandwidth
            assert entry.params["c"] == c
            measured, bound = compare_spectra(
                N, W, discrete.spectrum(discrete.DiscreteParams(N, W)).values,
                legendre_spectrum(c, N + COMPARISON_TAIL))
            assert (entry.measured, entry.bound) == (measured, bound)
            assert entry.margin == bound - measured

    def test_double_orthogonality_reads_the_band_grams(self, report):
        entries = [c for c in report.checks if c.name == "double_orthogonality"]
        assert len(entries) == 8
        for entry in entries:
            disc = discrete.spectrum(discrete.DiscreteParams(entry.params["N"],
                                                             entry.params["W"]))
            assert entry.measured == max(np.max(np.abs(G - np.diag(np.diag(G))))
                                         for G in discrete.band_grams(disc))

    def test_digest_tracks_verdicts_not_noise(self, report):
        payload = json.loads(report.to_json())
        reference = self.digest(payload)
        turan, = [c for c in payload["checks"]
                  if c["name"] == "concentration_constant"]
        turan["params"]["per_n"] = {k: v * (1 + 1e-6)
                                    for k, v in turan["params"]["per_n"].items()}
        payload["checks"][0]["params"]["W"] *= 1 + 1e-13
        assert self.digest(payload) == reference
        payload["checks"][0]["satisfied"] = not payload["checks"][0]["satisfied"]
        assert self.digest(payload) != reference

    def test_no_nystrom_solve_and_one_legendre_spectrum_per_grid_point(
            self, monkeypatch):
        calls = []

        def counting(c, *args, **kwargs):
            calls.append(round(c, 12))
            return legendre_spectrum(c, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_all made a Nystrom solve")

        monkeypatch.setattr(bounds, "legendre_spectrum", counting)
        monkeypatch.setattr(continuous, "legendre_spectrum", counting)
        monkeypatch.setattr(continuous, "nystrom_spectrum", forbidden)
        n_grid, w_grid = (30, 60), (0.1, 0.2)
        verify_all(n_grid, w_grid, (0.05,))
        expected = [round(PI * N * W, 12) for N in n_grid for W in w_grid]
        assert sorted(calls) == sorted(expected)

    def test_one_spectrum_per_grid_point_and_route(self, monkeypatch):
        calls = []
        real = discrete.spectrum

        def counting(params, method="tridiag"):
            calls.append((params.N, params.W, method))
            return real(params, method)

        monkeypatch.setattr(bounds, "spectrum", counting)
        monkeypatch.setattr(discrete, "spectrum", counting)
        verify_all((30,), (0.1,), (0.05,))
        # the tridiag route at W, the Toeplitz route at 1/2 - W that both
        # route checks read, then the concentration constant's spectra
        assert calls == [(30, 0.1, "tridiag"), (30, 0.4, "toeplitz")] + [
            (N, TURAN_W, "tridiag") for N in TURAN_N_LIST]

    def test_route_checks_compare_the_mirror_with_the_reflected_spectrum(self):
        report = verify_all((60,), (0.3,), (0.05,))
        lam = discrete.spectrum(discrete.DiscreteParams(60, 0.3)).values
        mu = discrete.spectrum(discrete.DiscreteParams(60, 0.2), "toeplitz").values
        gap = np.abs(mu - (1.0 - lam[::-1]))   # over k, against lambda_(N-1-k)
        entry = {c.name: c for c in report.checks}
        assert entry["symmetry_identity"].measured == np.max(gap)
        trusted = lam[::-1] >= Tolerances().floor_checks
        assert 0 < trusted.sum() < 60
        assert entry["cross_route_agreement"].measured == np.max(gap[trusted])

    def test_check_names_sorted(self, report):
        keys = [(c.name, json.dumps(c.params, sort_keys=True))
                for c in report.checks]
        assert keys == sorted(keys)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_all(w_grid=())

    @pytest.mark.parametrize("n_grid,w_grid", [((True,), (0.2,)), ((2.5,), (0.2,)),
                                               ((30,), (0.5,)), ((30,), (True,))])
    def test_invalid_grid_rejected(self, n_grid, w_grid):
        with pytest.raises(ValueError):
            verify_all(n_grid, w_grid, (0.05,))

    @pytest.mark.parametrize("eps_grid", [(0.0,), (0.05, 0.5)])
    def test_invalid_eps_rejected(self, eps_grid):
        with pytest.raises(ValueError, match="invalid eps"):
            verify_all((30,), (0.1,), eps_grid)

    @pytest.mark.parametrize("measured,bound", [(math.inf, math.inf), (math.nan, 1.0),
                                                (1.0, math.inf), (-1e308, 1e308)])
    @pytest.mark.parametrize("lower", [False, True])
    def test_non_finite_number_fails_its_check(self, measured, bound, lower):
        # an infinite bound or margin, or a NaN, is no verdict
        check = bounds._check("x", "ref", {}, lambda: (measured, bound), lower=lower)
        assert not (check.satisfied or check.skipped)

    def test_report_refuses_non_finite_json(self):
        check = bounds._check("x", "ref", {}, lambda: (math.inf, math.inf))
        with pytest.raises(ValueError, match="not JSON compliant"):
            bounds.BoundReport([check]).to_json()

    def test_only_out_of_range_becomes_a_skip(self, monkeypatch):
        def broken(*args):
            raise ValueError("not a range error")

        monkeypatch.setattr(bounds, "plunge_mass", broken)
        with pytest.raises(ValueError, match="not a range error"):
            verify_all((30,), (0.1,), (0.05,))

    def test_range_gated_checks_skipped(self):
        report = verify_all(n_grid=(30,), w_grid=(0.3,), eps_grid=(0.05,))
        tail = [c for c in report.checks if c.name == "eigenvalue_tail_bound"]
        assert len(tail) == 1 and tail[0].skipped
        assert report.passed

    def test_bounds_below_unit_bandwidth_skipped(self):
        # c = pi N W = 0.0157: the plunge mass and count bounds are negative
        # and the HS lower bound fails there
        report = verify_all(n_grid=(5,), w_grid=(0.001,), eps_grid=(0.05,))
        notes = {c.name: c.note for c in report.checks if c.skipped}
        for name in ("plunge_mass", "plunge_count", "plunge_count_improvement"):
            assert notes[name] == "c=pi N W=0.015708 below 1"
        assert notes["hs_norm_lower_bound"] == "c=0.015708 below 1"
        assert report.passed

    def test_improvement_skipped_for_single_sample(self):
        report = verify_all(n_grid=(1,), w_grid=(0.4,), eps_grid=(0.05,))
        gain, = [c for c in report.checks
                 if c.name == "plunge_count_improvement"]
        assert gain.skipped and gain.note == "N=1 must be >= 2"
        assert report.passed

    def test_no_eigenvalue_above_the_check_floor(self):
        # floor_checks = 1 empties every route comparison and inequality
        tol = Tolerances(floor_checks=1.0)
        with using_tolerances(tol):
            report = verify_all((30,), (0.2,), (0.05,))
        assert report.tolerances == dataclasses.asdict(tol)
        cross, = [c for c in report.checks if c.name == "cross_route_agreement"]
        assert (cross.measured, cross.satisfied) == (0.0, True)
        for name in ("eigenvalue_tail_bound", "superexponential_decay",
                     "comparison_inequality"):
            family, = [c for c in report.checks if c.name == name]
            assert family.skipped and family.params["checked"] == 0
            assert family.note == "no eigenvalue above 1e+00 in range"
        assert report.passed

    def test_large_point_reports_every_check(self):
        report = verify_all((500,), (0.45,), (0.05,))
        assert len(report.checks) == 17
        assert report.passed

    def test_decay_skip_note_is_the_formula_message(self):
        report = verify_all(n_grid=(30,), w_grid=(0.3,), eps_grid=(0.05,))
        decay, = [c for c in report.checks if c.name == "superexponential_decay"]
        assert decay.skipped
        assert decay.note == "W=0.3 outside the admissible range for N=30"

    @pytest.mark.parametrize("N,W,note", [(1, 0.1, "N=1 must be >= 2"),
                                          (1, 0.3, "W=0.3 outside (0, 2/(e pi))"),
                                          (30, 0.3, "W=0.3 outside (0, 2/(e pi))")])
    def test_tail_skip_note_names_failed_condition(self, N, W, note):
        report = verify_all(n_grid=(N,), w_grid=(W,), eps_grid=(0.05,))
        tail, = [c for c in report.checks if c.name == "eigenvalue_tail_bound"]
        assert tail.skipped and tail.note == note

    def test_hs_check_keyed_by_exact_bandwidth(self):
        # two grid points a rounding apart keep their own HS entries, each
        # with the norm of its own spectrum, and a bandwidth below 1e-12 is
        # reported as itself, not as 0
        w_grid = (0.2, 0.2000000000000001)
        report = verify_all((30,), w_grid, (0.05,))
        hs = {ch.params["c"]: ch.measured for ch in report.checks
              if ch.name == "hs_norm_lower_bound"}
        assert sorted(hs) == sorted(PI * 30 * W for W in w_grid)
        for c, measured in hs.items():
            assert measured == hs_norm_sq(c, legendre_spectrum(c, 60))
        tiny, = [c for c in verify_all((30,), (1e-15,), (0.05,)).checks
                 if c.name == "hs_norm_lower_bound"]
        assert tiny.skipped and tiny.params["c"] == PI * 30 * 1e-15
        assert tiny.note == f"c={PI * 30 * 1e-15:g} below 1"

    def test_repeated_eps_is_one_point(self):
        once = verify_all((30,), (0.2,), (0.05,))
        assert len(once.checks) == 17
        assert verify_all((30,), (0.2,), (0.05, 0.05)).to_json() == once.to_json()

    def test_upper_bound_checks_share_one_rule(self, report):
        # every entry that ran obeys the one rule: an upper check reports
        # margin = bound - measured and measured <= bound + slack, a lower
        # check margin = measured - bound and measured >= bound - slack; a
        # skipped entry has no numbers and never fails
        slack = dict.fromkeys(
            ("trace_identity", "symmetry_identity", "commutation",
             "double_orthogonality", "cross_route_agreement",
             "plunge_count_improvement", "plunge_count_estimate",
             "plunge_decay_rate", "concentration_constant"), 0.0)
        lower = {"hs_norm_lower_bound", "concentration_constant",
                 "plunge_decay_rate"}
        ran = [c for c in report.checks if not c.skipped]
        assert len({c.name for c in ran}) == 17
        for c in ran:
            tol = slack.get(c.name, Tolerances().floor_checks)
            if c.name in lower:
                assert c.margin == c.measured - c.bound
                assert c.satisfied == (c.measured >= c.bound - tol)
            else:
                assert c.margin == c.bound - c.measured
                assert c.satisfied == (c.measured <= c.bound + tol)
        for c in report.checks:
            if c.skipped:
                assert (c.bound, c.measured, c.margin, c.satisfied) == (
                    None, None, None, True)
