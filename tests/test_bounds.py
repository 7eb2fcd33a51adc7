import hashlib
import json
import math

import numpy as np
import pytest

from slepian import bounds, continuous
from slepian.bounds import (BoundReport, IllConditionedFloor, OutOfRangeError,
                            asymptotic_decay_constants, compare_spectra,
                            comparison_constant,
                            concentration_inequality_constant, decay_formula,
                            eigenvalue_tail_bound, plunge_count_bound,
                            plunge_count_bound_coarse, plunge_count_estimate,
                            plunge_decay_rate, plunge_mass,
                            superexponential_decay_bound, verify_all,
                            verify_comparison)
from slepian.continuous import default_order, nystrom_spectrum

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


class TestComparisonConstant:
    def test_small_band_limit(self):
        assert comparison_constant(1e-6) == pytest.approx(PI ** 2 / 8, abs=1e-11)

    def test_reference_value(self):
        assert comparison_constant(0.3) == pytest.approx(1.4626227887577845,
                                                         rel=1e-12)

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
        checks = verify_comparison(N, W, lam, cont.values)
        assert all(c_.satisfied for c_ in checks)

    def test_scalar_case(self):
        lam = 0.4   # N = 1, W = 0.2
        cont = nystrom_spectrum(0.2 * PI, check_convergence=False)
        assert lam <= comparison_constant(0.2) * cont.values[0] + 1e-12


class TestSharedFormulas:
    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (500, 0.45)])
    def test_count_bound_is_mass_bound_over_eps_gap(self, N, W):
        _, mass_bound = plunge_mass(N, W, np.zeros(N))
        for eps in (0.01, 0.05, 0.2):
            assert plunge_count_bound(N, W, eps) == mass_bound / (eps * (1 - eps))

    def test_decay_bound_is_formula_in_range(self):
        for k in range(26, 60):   # (e pi / 2) N W = 25.6
            assert superexponential_decay_bound(k, 60, 0.1) == decay_formula(k, 60, 0.1)


class TestDecayBound:
    def test_far_tail_value(self):
        # k = N-1 at (60, 0.1): 2 exp(-119 log(120/(6 e pi)))
        expected = 2 * math.exp(-119 * math.log(120 / (E * PI * 6)))
        assert superexponential_decay_bound(59, 60, 0.1) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(2 * math.exp(-101.3), rel=1e-2)

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


class TestPlungeMass:
    def test_scalar_case(self):
        measured, _ = plunge_mass(1, 0.2, values=np.array([0.4]))
        assert measured == pytest.approx(0.24, abs=1e-15)

    @pytest.mark.parametrize("N,W", [(30, 0.1), (60, 0.3), (120, 0.4)])
    def test_bound_holds(self, get_spectrum, N, W):
        measured, bound = plunge_mass(N, W, get_spectrum(N, W).values)
        assert 0.0 <= measured <= bound

    def test_reference_bound_value(self):
        _, bound = plunge_mass(60, 0.3, values=np.zeros(60))
        assert bound == pytest.approx(0.7530863804491068, rel=1e-10)


class TestPlungeDecayRate:
    def test_positive_where_defined(self, get_spectrum):
        eta = plunge_decay_rate(200, 0.2, get_spectrum(200, 0.2).values)
        assert eta > 0

    def test_empty_range_raises(self):
        with pytest.raises(OutOfRangeError):
            plunge_decay_rate(10, 0.1)

    def test_stability_across_lengths(self, get_spectrum):
        etas = [plunge_decay_rate(N, 0.2, get_spectrum(N, 0.2).values)
                for N in (150, 200, 300)]
        assert max(etas) <= 1.2 * min(etas)


class TestAsymptoticDecayConstants:
    def test_values(self):
        c1, c2 = asymptotic_decay_constants(0.1, 1.0)
        assert c1 == 2.0
        assert c2 == pytest.approx(0.8 * math.log(10 / (E * PI)), rel=1e-13)
        assert c2 == pytest.approx(0.126284, abs=1e-6)

    def test_open_threshold(self):
        with pytest.raises(OutOfRangeError):
            asymptotic_decay_constants(0.1, (E * PI - 6) / 4)

    def test_consistency_with_decay_bound(self):
        # the asymptotic envelope dominates the per-index bound from k = 29 on
        # at (N, W, eps) = (60, 0.1, 1); nearer the plunge the per-index bound
        # is larger and the comparison reverses
        c1, c2 = asymptotic_decay_constants(0.1, 1.0)
        envelope = c1 * math.exp(-c2 * 60)
        assert envelope < decay_formula(26, 60, 0.1)
        for k in range(29, 60):
            assert envelope >= decay_formula(k, 60, 0.1)


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
        with pytest.raises(IllConditionedFloor):
            concentration_inequality_constant(1 / 6, n_list=(15, 20, 25))

    def test_w_range(self):
        with pytest.raises(OutOfRangeError):
            concentration_inequality_constant(0.1)


class TestCompareSpectra:
    TABLE = {0.1: 4.15e-3, 0.2: 1.65e-2, 0.3: 3.98e-2, 0.4: 8.51e-2}

    @pytest.mark.parametrize("W", [0.1, 0.2, 0.3, 0.4])
    def test_reproduces_reference_table(self, get_spectrum, W):
        cmp_ = compare_spectra(60, W, get_spectrum(60, W, "toeplitz").values)
        assert abs(cmp_.l2_diff - self.TABLE[W]) / self.TABLE[W] <= 0.02
        assert cmp_.satisfied

    def test_bound_value(self, get_spectrum):
        cmp_ = compare_spectra(60, 0.1, get_spectrum(60, 0.1).values)
        assert cmp_.bound == pytest.approx(0.0223882, rel=1e-5)
        assert cmp_.l2_diff <= cmp_.bound

    def test_tail_extension_invariance(self, get_spectrum):
        lam = get_spectrum(60, 0.1).values
        a = compare_spectra(60, 0.1, lam, tail=30)
        b = compare_spectra(60, 0.1, lam, tail=60)
        assert abs(a.l2_diff - b.l2_diff) <= 1e-12

    def test_precomputed_continuous_values(self, get_spectrum, get_nystrom):
        lam = get_spectrum(60, 0.1).values
        cont = get_nystrom(PI * 6.0, 130)
        a = compare_spectra(60, 0.1, lam)
        b = compare_spectra(60, 0.1, lam, cont_values=cont.values)
        assert a.l2_diff == b.l2_diff
        with pytest.raises(ValueError):
            compare_spectra(60, 0.1, lam, cont_values=cont.values[:89])


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
        again = BoundReport.from_json(text)
        assert again.to_json() == text
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
            "56566f88582ec73b252c223a3438a6a5fc333263166493bb3faae9b9e04681be")

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

    def test_one_nystrom_solve_per_bandwidth(self, monkeypatch):
        calls = []

        def counting(c, *args, **kwargs):
            calls.append(c)
            return nystrom_spectrum(c, *args, **kwargs)

        monkeypatch.setattr(bounds, "nystrom_spectrum", counting)
        monkeypatch.setattr(continuous, "nystrom_spectrum", counting)
        n_grid, w_grid = (30, 60), (0.1, 0.2)
        verify_all(n_grid, w_grid, (0.05,))
        assert len(calls) == len(n_grid) * len(w_grid)

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

    def test_range_gated_checks_skipped(self):
        report = verify_all(n_grid=(30,), w_grid=(0.3,), eps_grid=(0.05,))
        tail = [c for c in report.checks if c.name == "eigenvalue_tail_bound"]
        assert len(tail) == 1 and tail[0].skipped
        assert report.passed

    @pytest.mark.parametrize("N,W,note", [(1, 0.1, "N=1 must be >= 2"),
                                          (1, 0.3, "W=0.3 outside (0, 2/(e pi))"),
                                          (30, 0.3, "W=0.3 outside (0, 2/(e pi))")])
    def test_tail_skip_note_names_failed_condition(self, N, W, note):
        report = verify_all(n_grid=(N,), w_grid=(W,), eps_grid=(0.05,))
        tail, = [c for c in report.checks if c.name == "eigenvalue_tail_bound"]
        assert tail.skipped and tail.note == note

    def test_upper_bound_checks_share_one_rule(self, report):
        # every "measured <= bound + slack" check reports margin = bound -
        # measured and a verdict consistent with its slack
        slack = {"trace_identity": 0.0, "symmetry_identity": 0.0,
                 "commutation": 0.0, "double_orthogonality": 0.0,
                 "cross_route_agreement": 0.0}
        upper = [c for c in report.checks if not c.skipped and c.name in {
            *slack, "plunge_mass", "spectra_l2_distance", "kernel_hs_distance",
            "plunge_count", "comparison_inequality", "eigenvalue_tail_bound",
            "superexponential_decay"}]
        assert len({c.name for c in upper}) == 12
        for c in upper:
            assert c.margin == c.bound - c.measured
            tol = slack.get(c.name, bounds.TOL.check_floor)
            assert c.satisfied == (c.measured <= c.bound + tol)
