import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npsteer import (
    ObservableReport,
    PureTwoModeState,
    all_verdicts,
    boundary_curves,
    np_entanglement,
    np_steering,
    number_phase_state,
    observable_report,
    relative_phase_density,
    single_mode_ur_check,
    split_fock_state,
    two_mode_squeezed_state,
)
from npsteer.criteria import (
    DEFAULT_TOL,
    PRODUCT_CRITERIA,
    CriterionVerdict,
    _verdict,
    hz_criteria,
    naive_criteria,
    sampled_np_verdicts,
)
from npsteer.fock import gaussian_distribution, thermal_distribution
from npsteer.phase_povm import linear_phase_variance
from npsteer.statespec import parse_state_spec

from oracles import flat_mixture, oracle_moments, rand_mixture, rand_product, rand_pure


def gaussian_number_phase_mixture(mean: float, var: float):
    return flat_mixture(gaussian_distribution(mean, math.sqrt(var)))


class TestNumberPhaseCriteria:
    def test_single_pair_state_violates_entanglement_bound(self):
        report = observable_report(number_phase_state(1, 0.0))
        v = np_entanglement(report)
        assert v.lhs == pytest.approx(0.75, abs=1e-14)
        assert v.bound == 1.0
        assert v.violated

    def test_squeezed_state_never_violates(self):
        report = observable_report(two_mode_squeezed_state(1.0))
        ent = np_entanglement(report)
        assert ent.lhs == pytest.approx(math.sinh(2.0) ** 2 + 1.0, rel=1e-6)
        assert not ent.violated
        assert not np_steering(report).violated

    def test_two_photon_state_steering_value(self):
        report = observable_report(number_phase_state(2, 0.0))
        v = np_steering(report)
        assert v.lhs == pytest.approx(5.0 / 36.0, abs=1e-14)
        assert v.violated

    def test_thermal_mixture_does_not_violate_steering(self):
        mix = flat_mixture(thermal_distribution(1.0))
        v = np_steering(observable_report(mix))
        want = 2.25 * (1.0 - (1.0 - math.log(2.0)) ** 2)
        assert v.lhs == pytest.approx(want, abs=1e-6)
        assert not v.violated

    def test_gaussian_mixture_entanglement_threshold_sides(self):
        below = observable_report(gaussian_number_phase_mixture(100.0, 40.0))
        above = observable_report(gaussian_number_phase_mixture(100.0, 60.0))
        assert np_entanglement(below).violated
        assert not np_entanglement(above).violated

    def test_gaussian_mixture_steering_at_low_number_variance(self):
        report = observable_report(gaussian_number_phase_mixture(100.0, 10.0))
        v = np_steering(report)
        assert v.violated
        assert v.lhs == pytest.approx(0.205, abs=0.01)

    def test_vacuum_sits_on_the_boundary_without_violation(self):
        report = observable_report(number_phase_state(0, 0.0))
        assert not np_entanglement(report).violated
        assert not np_steering(report).violated
        assert np_entanglement(report).margin == pytest.approx(0.0, abs=1e-14)


class TestNaiveCriteria:
    def test_wide_density_yields_advisory(self):
        state = number_phase_state(10, 0.0)
        report = observable_report(state)
        naive = naive_criteria(report, relative_phase_density(state))
        assert not naive.applicable  # d2_rel = 21/121 > 0.1
        assert naive.ent.advisory is not None
        assert naive.ent.violated and naive.steer.violated

    def test_narrow_density_is_applicable_without_advisory(self):
        state = split_fock_state(60, 0.0, 0.5)
        report = observable_report(state)
        naive = naive_criteria(report, relative_phase_density(state))
        assert naive.applicable
        assert naive.ent.advisory is None

    def test_uniform_phase_never_violates(self):
        state = number_phase_state(0, 0.0)
        naive = naive_criteria(
            observable_report(state), relative_phase_density(state, grid_size=1024)
        )
        assert naive.ent.lhs == pytest.approx(math.pi**2 / 3.0, abs=1e-4)
        assert not naive.ent.violated
        assert not naive.steer.violated

    def test_additive_form_goes_blind_at_large_number_variance(self):
        # the additive sum is dominated by the number variance long before
        # the product criterion stops certifying entanglement
        mix = gaussian_number_phase_mixture(1000.0, 50.0)
        report = observable_report(mix)
        naive = naive_criteria(report, relative_phase_density(mix))
        assert np_entanglement(report).violated
        assert not naive.ent.violated
        assert naive.ent.lhs > 2.0


class TestHZCriteria:
    def test_balanced_split_detects_entanglement_but_not_steering(self):
        hz = hz_criteria(observable_report(split_fock_state(4, 0.0, 0.5)))
        assert hz.ent.lhs == pytest.approx(4.0, rel=1e-12)
        assert hz.ent.bound == pytest.approx(3.0, abs=1e-12)
        assert hz.ent.violated
        assert hz.steer_a_by_b.bound == pytest.approx(4.0, abs=1e-12)
        assert not hz.steer_a_by_b.violated
        assert not hz.steer_b_by_a.violated

    def test_squeezed_state_has_no_cross_coherence_to_flag(self):
        hz = hz_criteria(observable_report(two_mode_squeezed_state(1.0)))
        assert hz.ent.lhs == 0.0
        assert not any(v.violated for v in hz)

    def test_two_photon_flat_state_matches_dense_oracle(self):
        state = number_phase_state(2, 0.0)
        hz = hz_criteria(observable_report(state))
        want = oracle_moments(state)
        assert hz.ent.lhs == pytest.approx(abs(want["adagb"]) ** 2, abs=1e-13)
        assert hz.ent.lhs == pytest.approx(8.0 / 9.0, abs=1e-13)
        assert hz.ent.bound == pytest.approx(want["nanb"], abs=1e-13)
        assert hz.steer_a_by_b.violated  # 8/9 > 2/3 + 1/3/2 = 5/6

    def test_violated_only_above_bound(self):
        # orientation: HZ flags lhs ABOVE bound, product criteria flag below
        report = observable_report(split_fock_state(1, 0.0, 0.5))
        hz = hz_criteria(report)
        assert hz.ent.lhs == pytest.approx(0.25, abs=1e-14)
        assert hz.ent.bound == pytest.approx(0.0, abs=1e-14)
        assert hz.ent.violated
        assert hz.ent.margin == pytest.approx(-0.25, abs=1e-14)


class TestSingleModeUR:
    def test_number_eigenstate_saturates(self):
        v = single_mode_ur_check(0.0, 1.0)
        assert v.lhs == 0.25
        assert not v.violated
        assert v.margin == 0.0

    def test_extremal_point_saturates_at_three_quarters_sum(self):
        n_var, d2 = 0.25, 0.5
        v = single_mode_ur_check(n_var, d2)
        assert v.lhs == pytest.approx(0.25, abs=1e-15)
        assert not v.violated
        assert n_var + d2 == pytest.approx(0.75)

    def test_sub_bound_value_is_flagged(self):
        assert single_mode_ur_check(0.0, 0.5).violated


class TestSampledVerdicts:
    def test_clear_violation_at_many_sigma(self):
        ent, steer = sampled_np_verdicts(n_var=0.0, d2_hat=0.5, d2_se=0.01, shots=10**6)
        assert ent.violated and steer.violated
        assert ent.advisory is not None

    def test_borderline_estimate_is_not_claimed(self):
        # point estimate below the bound but within z standard errors
        ent, _ = sampled_np_verdicts(n_var=0.0, d2_hat=0.98, d2_se=0.01, shots=10**6, z=5.0)
        assert ent.lhs < ent.bound
        assert not ent.violated

    def test_z_scales_the_claim_threshold(self):
        strict, _ = sampled_np_verdicts(n_var=0.0, d2_hat=0.95, d2_se=0.02, shots=10**6, z=5.0)
        loose, _ = sampled_np_verdicts(n_var=0.0, d2_hat=0.95, d2_se=0.02, shots=10**6, z=1.0)
        assert not strict.violated
        assert loose.violated

    def test_claim_error_is_at_least_one_over_root_shots(self):
        # lhs 0 clears the bound 1 by 5 errors of 1/sqrt(shots) only above 25 shots
        at_25 = sampled_np_verdicts(n_var=0.0, d2_hat=0.0, d2_se=0.0, shots=25, z=5.0)
        at_26 = sampled_np_verdicts(n_var=0.0, d2_hat=0.0, d2_se=0.0, shots=26, z=5.0)
        assert [v.violated for v in at_25] == [False, False]
        assert [v.violated for v in at_26] == [True, True]
        # a larger bootstrap error still decides
        wide = sampled_np_verdicts(n_var=0.0, d2_hat=0.0, d2_se=0.25, shots=10**6, z=5.0)
        assert [v.violated for v in wide] == [False, False]

    @pytest.mark.parametrize("shots", [0, -3])
    def test_shots_below_one_rejected(self, shots):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            sampled_np_verdicts(0.0, 0.5, 0.01, shots)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sampled_np_verdicts(0.0, 0.5, -0.1, 10**6)


class TestVerdictRule:
    # (lhs, bound) whose margin is 0.5 on the criterion's side, and exactly one ulp beyond
    SIDES = {
        False: ((0.25, 0.75), (0.25, np.nextafter(0.75, 1.0))),
        True: ((0.75, 0.25), (np.nextafter(0.75, 1.0), 0.25)),
    }

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_margin_equal_to_the_slack_is_not_violated_and_one_ulp_beyond_is(self, above):
        side = -1.0 if above else 1.0
        (lhs, bound), (lhs_beyond, bound_beyond) = self.SIDES[above]
        at = _verdict("X", lhs, bound, above=above, slack=0.5)
        beyond = _verdict("X", lhs_beyond, bound_beyond, above=above, slack=0.5)
        assert side * at.margin == 0.5 and not at.violated
        assert side * beyond.margin == np.nextafter(0.5, 1.0) and beyond.violated
        assert _verdict("X", lhs, bound, above=above, slack=np.nextafter(0.5, 0.0)).violated

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_default_slack_is_the_tolerance_up_to_unit_scale(self, above):
        def margin_of(m):
            return _verdict("X", *((m, 0.0) if above else (0.0, m)), above=above)

        assert not margin_of(DEFAULT_TOL).violated
        assert margin_of(np.nextafter(DEFAULT_TOL, 1.0)).violated
        assert not margin_of(-1.0).violated  # the far side of the bound

    def test_default_slack_scales_with_the_larger_of_lhs_and_bound(self):
        # two ulps of 65536 past the bound are rounding; 2e-12 of it is not
        rounded = np.nextafter(np.nextafter(65536.0, np.inf), np.inf)
        assert not _verdict("HZ_ENT", rounded, 65536.0, above=True).violated
        assert not _verdict("NP_ENT", 65536.0, rounded).violated
        assert _verdict("HZ_ENT", 65536.0 * (1 + 2e-12), 65536.0, above=True).violated
        assert _verdict("NP_ENT", 65536.0, 65536.0 * (1 + 2e-12)).violated


def _decided_by_margin(v: CriterionVerdict, slack: float) -> bool:
    """The verdict equals the rule on its printed margin: past the bound, on the criterion's
    side (above for HZ_*, below for the rest), by more than ``slack``."""
    side = -1.0 if v.criterion_id.startswith("HZ_") else 1.0
    return v.margin == float(v.bound - v.lhs) and v.violated == (side * v.margin > slack)


def _exact_slack(v: CriterionVerdict) -> float:
    return DEFAULT_TOL * max(1.0, abs(v.lhs), abs(v.bound))


def _near(rng: np.random.Generator, value: float) -> float:
    """``value`` moved either way by a relative 1e-16 to 1e-9, or left as it is."""
    return value * (1.0 + rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-16, -9))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_every_verdict_is_decided_by_its_margin(seed):
    # reports that sit on one product bound and one HZ bound up to rounding, at scales
    # from 1e-3 to 1e6, so that a rule written apart from the margin would show
    rng = np.random.default_rng(seed)
    density = relative_phase_density(number_phase_state(int(rng.integers(0, 6)), 0.3))
    lin_var = linear_phase_variance(density)
    kind = int(rng.integers(0, 3))
    if kind < 2:  # NP_ENT or NP_STEER on its bound
        n_var = rng.uniform(0.0, 4.0)
        s = PRODUCT_CRITERIA[("NP_ENT", "NP_STEER")[kind]][0]
        d2 = _near(rng, s / (n_var + s))
    else:  # NAIVE_ENT or NAIVE_STEER on its bound
        n_var = _near(rng, rng.choice([2.0, 1.0]) - lin_var)
        d2 = rng.uniform(0.0, 1.0)
    scale = 10.0 ** rng.uniform(-3, 6)
    na, nb = rng.uniform(0.0, scale, 2)
    hz_bound = scale + 0.5 * (0.0, na, nb)[int(rng.integers(0, 3))]
    adagb = math.sqrt(_near(rng, hz_bound)) * np.exp(1j * rng.uniform(-math.pi, math.pi))
    report = ObservableReport(**{
        **dict.fromkeys((f.name for f in dataclasses.fields(ObservableReport)), 0.0),
        "n_var": n_var, "d2_rel": d2, "hz_adagb": complex(adagb), "hz_nanb": scale,
        "hz_na": na, "hz_nb": nb,
    })
    for v in all_verdicts(report, density):
        assert _decided_by_margin(v, _exact_slack(v)), v

    ur_var = rng.uniform(0.0, 4.0)
    ur = single_mode_ur_check(ur_var, _near(rng, 0.25 / (ur_var + 0.25)))
    assert _decided_by_margin(ur, _exact_slack(ur)), ur

    se, shots, z = 10.0 ** rng.uniform(-4, -1), int(rng.integers(1, 10**7)), rng.uniform(0.5, 6)
    for v in sampled_np_verdicts(n_var, _near(rng, d2), se, shots, z):
        s = PRODUCT_CRITERIA[v.criterion_id][0]
        assert _decided_by_margin(v, (n_var + s) * (z * max(se, shots**-0.5))), v


def _coherent(nbar: float, phase: float, cutoff: int) -> np.ndarray:
    """Amplitudes on 0..cutoff of the coherent state of mean ``nbar`` and phase ``phase``."""
    n = np.arange(cutoff + 1)
    log_mag = 0.5 * (n * math.log(nbar) - nbar) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    return np.exp(log_mag + 1j * phase * n)


@pytest.mark.parametrize("phase", [0.0, 0.7])
@pytest.mark.parametrize("nbar", [64, 128, 200, 256, 300, 400])
def test_product_coherent_grids_are_never_flagged(nbar, phase):
    # separable at any cutoff, and on HZ_ENT's bound: lhs = bound = nbar^2 up to rounding,
    # a few ulps of 65536 at nbar = 256. Three cutoffs past the Poisson tail.
    for k in (8, 10, 12):
        cutoff = int(nbar + k * math.sqrt(nbar)) + 10
        amps = np.outer(_coherent(nbar, 0.0, cutoff), _coherent(nbar, phase, cutoff))
        verdicts = all_verdicts(observable_report(PureTwoModeState.normalized(amps)))
        assert [v.criterion_id for v in verdicts if v.violated] == [], cutoff


# Phase-averaged coherent light split on a beam splitter: a mixture of product coherent
# states, separable at every point of this 100-point grid. HZ_ENT's margin is
# t(1-t)(Δ²N - <N>), zero for the state the spec names.
SPLIT_POISSON_MEANS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 10.0, 30.0, 100.0, 1000.0)
SPLIT_TRANSMISSIVITIES = tuple(round(0.05 + 0.1 * i, 2) for i in range(10))
# Means at which trimming the Poisson tails leaves the state sub-Poissonian by more than the
# rounding slack at some transmissivity: truncation, not rounding, decides HZ_ENT there.
TRUNCATION_DECIDED_MEANS = (0.5, 1.5, 2.0, 3.0, 4.0, 30.0)


@pytest.mark.parametrize(
    "mean", [m for m in SPLIT_POISSON_MEANS if m not in TRUNCATION_DECIDED_MEANS]
)
def test_split_poissonian_mixtures_are_never_flagged(mean):
    for t in SPLIT_TRANSMISSIVITIES:
        spec = {"family": "mixture", "base": "split_fock", "transmissivity": t,
                "noise": {"kind": "poissonian", "mean": mean}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = observable_report(parse_state_spec(json.dumps(spec)).build())
        assert [v.criterion_id for v in all_verdicts(report) if v.violated] == [], t


class TestBoundaryCurves:
    def test_entanglement_threshold_values(self):
        curve = boundary_curves("ENT_FIG2", np.array([0.25, 0.5]))
        np.testing.assert_allclose(curve.threshold, [3.0, 1.0], atol=1e-14)

    def test_steering_threshold_boundary_case(self):
        curve = boundary_curves("STEER_FIG2", np.array([1.0]))
        assert curve.threshold[0] == pytest.approx(0.0, abs=1e-15)

    def test_ur_curve_minimum(self):
        grid = np.linspace(0.01, 1.0, 199)
        curve = boundary_curves("UR_FIG1", grid)
        k = int(np.argmin(curve.threshold))
        assert curve.threshold[k] == pytest.approx(0.75, abs=1e-12)
        assert grid[k] == pytest.approx(0.5, abs=1e-12)

    def test_figure_two_thresholds_strictly_decrease(self):
        grid = np.linspace(0.01, 1.0, 500)
        for which in ("ENT_FIG2", "STEER_FIG2"):
            assert np.all(np.diff(boundary_curves(which, grid).threshold) < 0)

    def test_steering_curve_below_entanglement_curve(self):
        grid = np.linspace(0.05, 1.0, 100)
        ent = boundary_curves("ENT_FIG2", grid).threshold
        steer = boundary_curves("STEER_FIG2", grid).threshold
        assert np.all(steer < ent + 1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="inside"):
            boundary_curves("ENT_FIG2", np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="inside"):
            boundary_curves("ENT_FIG2", np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match="unknown curve"):
            boundary_curves("FIG3", np.array([0.5]))

    @pytest.mark.parametrize("which", ["ENT_FIG2", "STEER_FIG2", "UR_FIG1"])
    def test_threshold_beyond_the_float_range_is_refused_without_warning(self, which):
        assert np.isfinite(boundary_curves(which, np.array([1e-308, 0.5])).threshold).all()
        message = f"d2 = 1e-320 is too small: the {which} threshold overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                boundary_curves(which, np.array([1e-320, 0.5]))


class TestVerdictShape:
    def test_margin_is_bound_minus_lhs(self):
        v = np_entanglement(observable_report(number_phase_state(1, 0.0)))
        assert v.margin == pytest.approx(v.bound - v.lhs, abs=1e-15)

    def test_json_omits_absent_advisory(self):
        v = CriterionVerdict("NP_ENT", 0.5, 1.0, 0.5, True)
        assert "advisory" not in v.to_json_dict()
        w = CriterionVerdict("NP_ENT", 0.5, 1.0, 0.5, True, advisory="careful")
        assert w.to_json_dict()["advisory"] == "careful"

    def test_all_verdicts_reporting_order(self):
        state = number_phase_state(2, 0.0)
        verdicts = all_verdicts(
            observable_report(state), relative_phase_density(state)
        )
        assert [v.criterion_id for v in verdicts] == [
            "NP_ENT", "NP_STEER", "NAIVE_ENT", "NAIVE_STEER",
            "HZ_ENT", "HZ_STEER_A_BY_B", "HZ_STEER_B_BY_A",
        ]

    def test_all_verdicts_without_density_skips_naive(self):
        verdicts = all_verdicts(observable_report(number_phase_state(2, 0.0)))
        assert [v.criterion_id for v in verdicts] == [
            "NP_ENT", "NP_STEER", "HZ_ENT", "HZ_STEER_A_BY_B", "HZ_STEER_B_BY_A",
        ]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_steering_verdict_implies_entanglement_verdict(seed):
    rng = np.random.default_rng(seed)
    state = rand_pure(rng, 7) if seed % 2 else rand_mixture(rng, 8, 4)
    report = observable_report(state)
    if np_steering(report).violated:
        assert np_entanglement(report).violated


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_product_states_never_flagged(seed):
    rng = np.random.default_rng(seed)
    report = observable_report(rand_product(rng, 8))
    assert report.n_var + 1e-12 >= 0
    assert np_entanglement(report).lhs - np_entanglement(report).bound >= -1e-10
    assert np_steering(report).lhs - np_steering(report).bound >= -1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_fixed_total_states_reduce_to_dispersion_test(seed):
    rng = np.random.default_rng(seed)
    total = int(seed % 9)
    amps = rng.normal(size=total + 1) + 1j * rng.normal(size=total + 1)
    amps /= np.linalg.norm(amps)
    state = PureTwoModeState.from_sector(total, amps)
    report = observable_report(state)
    assert report.n_var < 1e-18
    expectation = report.d2_rel < 1.0 - 1e-12
    assert np_entanglement(report).violated == expectation
    assert np_steering(report).violated == expectation
