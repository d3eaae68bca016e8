import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npsteer
from npsteer import fock, observables
from npsteer import (
    ArraySizeError,
    PureTwoModeState,
    SectorMixture,
    TruncationError,
    mixture_from_sector_amplitudes,
    number_phase_state,
    observable_report,
    relative_phase_density,
    sample_local_phases,
    split_fock_state,
    two_mode_squeezed_state,
)
from npsteer.fock import (
    NumberDistribution,
    gaussian_distribution,
    poissonian_distribution,
    select_cutoff,
    thermal_distribution,
    tmss_tail_mass,
)
from npsteer.phase_povm import joint_local_phase_density

from conftest import traced_peak
from oracles import (
    GRID_CASES,
    flat_mixture,
    joined,
    oracle_grid_moments_in_place,
    oracle_grid_view,
    oracle_mixture,
    oracle_normalized_coeffs,
    oracle_sector_amplitudes,
    oracle_sector_masses,
    oracle_squeezed_grid,
    oracle_tmss_cutoff_scan,
    oracle_number_phase_amps,
    oracle_split_fock_amps,
    oracle_trim_tails,
    rand_single,
)


class TestPureTwoModeState:
    def test_rejects_non_square_grid(self):
        with pytest.raises(ValueError, match="square"):
            PureTwoModeState(np.ones((2, 3), dtype=complex))

    def test_rejects_norm_off_by_more_than_tolerance(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = 1.0 + 1e-5
        with pytest.raises(ValueError, match="norm"):
            PureTwoModeState(c)

    def test_accepts_norm_within_tolerance(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = math.sqrt(1.0 + 1e-13)
        PureTwoModeState(c)

    def test_coefficients_are_read_only(self):
        state = number_phase_state(2, 0.0)
        with pytest.raises(ValueError):
            state.coeffs[0, 0] = 1.0

    def test_normalized_rescales(self):
        state = PureTwoModeState.normalized(np.full((3, 3), 1.0 + 0j))
        assert oracle_sector_masses(state).sum() == pytest.approx(1.0, abs=1e-14)

    def test_rejects_nan_grid(self):
        c = np.zeros((2, 2), dtype=complex)
        c[0, 0] = np.nan
        with pytest.raises(ValueError, match="norm"):
            PureTwoModeState(c)
        with pytest.raises(ValueError, match="norm"):
            PureTwoModeState.normalized(c)

    def test_normalized_rejects_zero_grid(self):
        with pytest.raises(ValueError, match="zero"):
            PureTwoModeState.normalized(np.zeros((2, 2), dtype=complex))

    @pytest.mark.parametrize("total,amps,match", [
        (3, np.ones(3), "sector 3 needs 4 amplitudes"),
        (1, np.ones((1, 2)), "sector 1 needs 2 amplitudes"),
        (1, [0, 0], "norm"),
        (1, [np.nan, 1], "norm"),
        (1, [np.inf, 1], "norm"),
    ])
    def test_from_sector_rejects_bad_amplitudes(self, total, amps, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                PureTwoModeState.from_sector(total, amps)

    def test_rejects_an_infinite_grid(self):
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0], c[1, 2] = 0.5, np.inf
        with pytest.raises(ValueError, match="norm"):
            PureTwoModeState(c)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="norm"):
            PureTwoModeState.normalized(c)  # inf / inf rescales to NaN

    def test_constructor_keeps_a_copy_of_the_callers_grid(self, rng):
        arr = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        arr /= np.linalg.norm(arr)
        want = arr.copy()
        state = PureTwoModeState(arr)
        arr[0, 0] = 7.0
        assert state.coeffs.tobytes() == want.tobytes()
        assert arr.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 2, 14, 37, 300])
    def test_normalized_keeps_the_bits_and_leaves_the_callers_grid(self, k, order):
        # the norm of a grid is summed in its memory order: for the F-ordered D=14 grid a
        # C-ordered copy would give other bits
        rng = np.random.default_rng(k)
        raw = np.asarray(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)), order=order)
        before = raw.copy(order="K")
        state = PureTwoModeState.normalized(raw)
        assert state.coeffs.tobytes() == oracle_normalized_coeffs(raw).tobytes()
        assert state.coeffs.flags.c_contiguous and not state.coeffs.flags.writeable
        assert raw.tobytes() == before.tobytes() and raw.flags.writeable

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_squeezed_grid_is_the_normalized_raw_grid(self, r):
        state = two_mode_squeezed_state(r)
        m = np.arange(state.cutoff + 1)
        raw = np.zeros((len(m), len(m)), dtype=complex)
        raw[m, m] = np.exp(m * math.log(math.tanh(r))) / math.cosh(r)
        assert state.coeffs.tobytes() == oracle_normalized_coeffs(raw).tobytes()

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_flat_gather_view_equals_the_2d_gather(self, case):
        state = GRID_CASES[case]()
        got, want = state.sector_view, oracle_grid_view(state.coeffs)
        assert got.amps.tobytes() == want.amps.tobytes()
        for name in ("starts", "totals", "first_m"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_sector_view_masses_sum_to_one(self, rng):
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        state = PureTwoModeState.normalized(c)
        view = state.sector_view
        masses = np.add.reduceat(np.abs(view.amps) ** 2, view.starts[:-1])
        assert view.totals.tolist() == list(range(9))
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_grid_sector_view_lists_nonzero_anti_diagonals_in_order(self, rng, k):
        c = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        c[rng.random((k, k)) < 0.6] = 0.0
        c[0, 0] = 1.0  # the empty anti-diagonals must be left out, not this one
        state = PureTwoModeState.normalized(c)
        view, grid = state.sector_view, state.coeffs
        want = [
            (total, m[0], grid[m, total - m])
            for total in range(2 * k - 1)
            for m in [np.arange(max(0, total - k + 1), min(total, k - 1) + 1)]
            if np.any(grid[m, total - m])
        ]
        assert view.totals.tolist() == [w[0] for w in want]
        assert view.first_m.tolist() == [w[1] for w in want]
        assert np.diff(view.starts).tolist() == [len(w[2]) for w in want]
        assert view.amps.tobytes() == np.concatenate([w[2] for w in want]).tobytes()


class TestFixedTotalConstructors:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_number_phase_state_is_unit_norm_and_single_sector(self, n):
        state = number_phase_state(n, 0.7)
        masses = oracle_sector_masses(state)
        assert abs(masses.sum() - 1.0) < 1e-12
        assert masses[n] == pytest.approx(1.0, abs=1e-12)

    def test_number_phase_amplitudes_are_flat_with_phase_ramp(self):
        state = number_phase_state(3, 0.5)
        amps = oracle_sector_amplitudes(state, 3)
        expected = np.exp(1j * 0.5 * np.arange(4)) / 2.0
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_number_phase_rejects_negative_total(self):
        with pytest.raises(ValueError, match="non-negative"):
            number_phase_state(-1, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 6, 13])
    def test_balanced_split_matches_binomial_root_weights(self, n):
        state = split_fock_state(n, 0.0, 0.5)
        amps = oracle_sector_amplitudes(state, n)
        expected = np.array(
            [math.sqrt(math.comb(n, m) / 2.0**n) for m in range(n + 1)]
        )
        np.testing.assert_allclose(np.abs(amps), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_extreme_transmissivity_sends_all_photons_one_way(self, t):
        state = split_fock_state(4, 0.0, t)
        amps = oracle_sector_amplitudes(state, 4)
        expected = np.zeros(5)
        expected[4 if t == 1.0 else 0] = 1.0
        np.testing.assert_allclose(np.abs(amps), expected, atol=1e-15)

    def test_transmissivity_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="transmissivity"):
            split_fock_state(2, 0.0, 1.5)

    def test_single_photon_split_equals_number_phase_state_up_to_global_phase(self):
        a = oracle_sector_amplitudes(number_phase_state(1, 0.9), 1)
        b = oracle_sector_amplitudes(split_fock_state(1, 0.9, 0.5), 1)
        overlap = abs(np.vdot(a, b))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [301, 400, 1000])
    @pytest.mark.parametrize("t", [0.5, 0.3])
    def test_large_split_matches_exact_binomial_weights(self, n, t):
        # t = a / d exactly in binary, so the weights binom(n, m) a^m (d - a)^(n - m)
        # are integers summing to d^n, and each division rounds correctly
        a, d = Fraction(t).numerator, Fraction(t).denominator
        want = [math.sqrt(math.comb(n, m) * a**m * (d - a) ** (n - m) / d**n) for m in range(n + 1)]
        amps = oracle_sector_amplitudes(split_fock_state(n, 0.0, t), n)
        np.testing.assert_allclose(np.abs(amps), want, rtol=0, atol=1e-12)

    def test_large_split_uses_stable_log_weights(self):
        state = split_fock_state(400, 0.0, 0.5)
        amps = oracle_sector_amplitudes(state, 400)
        assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
        # symmetric weights at t = 1/2
        np.testing.assert_allclose(np.abs(amps), np.abs(amps[::-1]), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::npsteer.observables.TruncationBiasWarning")
    def test_fixed_total_states_allocate_no_grid(self):
        # the (N+1)^2 grid of N = 2000 alone takes 64 MB
        state = number_phase_state(2000, 0.3)
        peak = traced_peak(lambda: (observable_report(state), relative_phase_density(state)))
        assert peak < 8 * 2**20


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed_state(0.0)
        assert state.cutoff == 0
        assert state.coeffs[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 40])
    def test_zero_squeezing_at_any_cutoff_is_vacuum(self, cutoff):
        state = two_mode_squeezed_state(0.0, cutoff=cutoff)
        assert state.cutoff == cutoff
        assert state.coeffs[0, 0] == 1.0 and np.count_nonzero(state.coeffs) == 1
        got = observable_report(state).to_json_dict()
        want = observable_report(two_mode_squeezed_state(0.0, cutoff=0)).to_json_dict()
        assert repr(got) == repr(want)
        assert got["n_mean"] == 0.0 and got["n_var"] == 0.0

    def test_amplitudes_are_geometric_on_the_diagonal(self):
        r = 0.6
        state = two_mode_squeezed_state(r, cutoff=40, tail_tol=1e-6)
        diag = np.diag(state.coeffs)
        ratio = diag[1:11] / diag[:10]
        np.testing.assert_allclose(ratio.real, math.tanh(r), atol=1e-12)
        off = state.coeffs - np.diag(diag)
        assert np.all(off == 0)

    def test_tail_mass_bound_covers_directly_summed_remainder(self):
        r, cutoff = 0.4, 12
        lam = math.tanh(r) ** 2
        exact_total = sum((1 - lam) * lam**m for m in range(cutoff + 1))
        discarded = 1.0 - exact_total
        bound = tmss_tail_mass(r, cutoff)
        assert bound >= discarded - 1e-15
        assert bound == pytest.approx(discarded, rel=1e-10)

    def test_select_cutoff_is_minimal(self):
        r, tol = 0.9, 1e-8
        m = select_cutoff(r, tol)
        assert tmss_tail_mass(r, m) < tol
        assert m == 0 or tmss_tail_mass(r, m - 1) >= tol

    def test_explicit_cutoff_below_requirement_raises_with_requirement(self):
        with pytest.raises(TruncationError) as err:
            two_mode_squeezed_state(1.5, cutoff=10, tail_tol=1e-10)
        assert err.value.required_cutoff is not None
        # rebuilding at the reported cutoff succeeds
        two_mode_squeezed_state(1.5, cutoff=err.value.required_cutoff, tail_tol=1e-10)

    def test_auto_cutoff_keeps_number_moments_accurate(self):
        r = 1.0
        state = two_mode_squeezed_state(r, tail_tol=1e-10)
        p = np.abs(np.diag(state.coeffs)) ** 2
        n = 2.0 * np.arange(len(p))
        var = float(np.dot(p, n**2)) - float(np.dot(p, n)) ** 2
        assert var == pytest.approx(math.sinh(2 * r) ** 2, abs=1e-8)

    def test_squeezing_beyond_double_precision_raises_truncation_error(self):
        with pytest.raises(TruncationError, match="double precision"):
            two_mode_squeezed_state(20.0)

    @pytest.mark.parametrize("r,cutoff", [(5.0, None), (1.0, 10_000)])
    def test_grid_over_the_array_limit_raises_before_allocating(self, refuse_large_arrays, r, cutoff):
        with pytest.raises(TruncationError, match=r"at cutoff \d+: the \d+ x \d+ amplitude grid "
                                                  r"needs [\d,]+ bytes"):
            two_mode_squeezed_state(r, cutoff=cutoff)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            two_mode_squeezed_state(-0.1)

    @settings(max_examples=300)
    @given(r=st.floats(0.001, 3.5), log_tol=st.floats(-14.0, math.log10(0.9)))
    def test_cutoff_search_returns_the_cutoff_of_the_scan(self, r, log_tol):
        tol = 10.0**log_tol
        assert fock._tmss_moment_cutoff(r, tol) == oracle_tmss_cutoff_scan(r, tol)

    @pytest.mark.parametrize("r,tol", [(0.0, 1e-10), (1e-3, 1e-10), (2.0, 1e-10), (3.5, 1e-14),
                                       (1.0, 0.9), (0.3, 1e-3)])
    def test_cutoff_search_on_fixed_cases(self, r, tol):
        assert fock._tmss_moment_cutoff(r, tol) == oracle_tmss_cutoff_scan(r, tol)

    def test_cutoff_search_takes_few_steps(self, monkeypatch):
        calls = []
        tail = fock._tmss_weighted_tail
        monkeypatch.setattr(fock, "_tmss_weighted_tail", lambda r, c: calls.append(c) or tail(r, c))
        with pytest.raises(ArraySizeError, match="at cutoff 17384861: "):
            two_mode_squeezed_state(7.0)
        assert len(calls) < 100


# Squeezed states against their dense construction: at their own cutoff (r = 3 left out, whose
# 4153 x 4153 grid takes 276 MB), and at explicit cutoffs, which tail_tol = 1 lets through.
SQUEEZED_CASES = [(r, None, fock.DEFAULT_TAIL_TOL) for r in (0.0, 1e-3, 0.5, 1.0, 2.0)] + [
    (r, cutoff, 1.0) for r in (0.0, 1e-3, 0.5, 1.0, 2.0, 3.0) for cutoff in (0, 1, 2, 40)
]


def _squeezed_case_id(case):
    r, cutoff, _ = case
    return f"r{r}-cutoff{'auto' if cutoff is None else cutoff}"


class TestDiagonalSqueezedState:
    """A squeezed state stores its diagonal; its grid, sector view, moments and densities
    have the bits of the grid state built densely, as ``oracle_squeezed_grid`` builds it."""

    @pytest.fixture(params=SQUEEZED_CASES, ids=_squeezed_case_id)
    def states(self, request):
        r, cutoff, tol = request.param
        state = two_mode_squeezed_state(r, cutoff=cutoff, tail_tol=tol)
        grid = oracle_squeezed_grid(r, state.cutoff)
        return state, PureTwoModeState(grid), grid

    def test_grid_is_the_dense_grid(self, states):
        state, _, grid = states
        assert state.coeffs.tobytes() == grid.tobytes()
        assert state.coeffs.flags.c_contiguous and not state.coeffs.flags.writeable

    def test_sector_view_is_the_gathered_view(self, states):
        state, _, grid = states
        got, want = state.sector_view, oracle_grid_view(grid)
        assert got.roots is None and want.roots is None  # a pure state's view has no roots
        for name in ("amps", "starts", "totals", "first_m"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_grid_moments_keep_the_bits(self, states):
        state, dense, grid = states
        got = (observables.exp_phase_single(state, 1), observables.exp_phase_single(state, 2),
               *observables._ladder_moments(state))
        if len(dense.sector_view.starts) > 2:
            want = oracle_grid_moments_in_place(grid)
        else:  # one sector: the moments that change the total number are not summed
            want = (0j,) * 5
        assert list(map(repr, got)) == list(map(repr, want))

    def test_report_fields_keep_their_repr(self, states):
        state, dense, _ = states
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, want = (observable_report(s).to_json_dict() for s in (state, dense))
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    def test_relative_density_keeps_the_bits(self, states):
        state, dense, _ = states
        got, want = (relative_phase_density(s).values for s in (state, dense))
        assert got.tobytes() == want.tobytes()

    def test_joint_density_keeps_the_bits(self, states):
        state, dense, _ = states
        if state.cutoff > 40:
            return  # a K x K joint density of these cutoffs takes 16 MB and more
        got, want = (joint_local_phase_density(s).values for s in (state, dense))
        assert got.tobytes() == want.tobytes()

    def test_stores_the_diagonal_until_the_grid_is_read(self):
        state = two_mode_squeezed_state(2.0)
        assert state._coeffs is None and state._diagonal.shape == (505,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            observable_report(state)
        relative_phase_density(state)
        assert state._coeffs is None
        assert state.coeffs.shape == (505, 505)


def probs(dist) -> dict:
    """The distribution's masses by photon number."""
    return dict(zip(dist.support.tolist(), dist.masses.tolist()))


class TestNumberDistributions:
    def test_poissonian_mode_ratio_is_exactly_one(self):
        dist = poissonian_distribution(5.0)
        assert probs(dist)[5] == probs(dist)[4]

    @pytest.mark.parametrize("mean", [0.5, 2.0, 10.0, 50.0])
    def test_poissonian_moments(self, mean):
        dist = poissonian_distribution(mean)
        assert dist.mean == pytest.approx(mean, abs=1e-9)
        assert dist.variance == pytest.approx(mean, rel=1e-9)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 2.0, 5.0])
    def test_thermal_moments(self, mean):
        dist = thermal_distribution(mean)
        assert dist.mean == pytest.approx(mean, abs=1e-9)
        assert dist.variance == pytest.approx(mean * (mean + 1.0), rel=1e-9)

    def test_thermal_successive_ratio_is_geometric(self):
        mean = 3.0
        dist = thermal_distribution(mean)
        q = mean / (mean + 1.0)
        assert probs(dist)[7] / probs(dist)[6] == pytest.approx(q, rel=1e-13)

    def test_gaussian_is_symmetric_about_integer_mean(self):
        dist = gaussian_distribution(100.0, math.sqrt(10.0))
        assert probs(dist)[95] == pytest.approx(probs(dist)[105], rel=1e-13)
        assert dist.mean == pytest.approx(100.0, abs=1e-8)
        assert dist.variance == pytest.approx(10.0, rel=1e-6)

    def test_gaussian_regime_flag(self):
        assert gaussian_distribution(100.0, 20.0).meta["regime_violation"] is True
        assert gaussian_distribution(400.0, 10.0).meta["regime_violation"] is False

    def test_gaussian_clips_at_zero_occupation(self):
        dist = gaussian_distribution(1.0, 2.0)
        assert dist.support[0] >= 0

    def test_kept_mass_reported_and_close_to_one(self):
        dist = thermal_distribution(2.0, tail_tol=1e-10)
        assert 1.0 - dist.meta["kept_mass"] < 1e-9

    def test_point_distribution(self):
        dist = NumberDistribution.point(3)
        assert probs(dist) == {3: 1.0}
        assert dist.variance == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_mean_rejected(self, bad):
        for ctor in (poissonian_distribution, thermal_distribution):
            with pytest.raises(ValueError, match="mean"):
                ctor(bad)

    @pytest.mark.parametrize("support,masses,match", [
        ([], [], "non-empty"),
        ([0, 1], [1.0], "equal-length"),
        ([[0, 1]], [[0.5, 0.5]], "1-d"),
        ([0.5, 1], [0.5, 0.5], "integers"),
        (["0", "1"], [0.5, 0.5], "integers"),
        ([-1, 1], [0.5, 0.5], "non-negative"),
        ([1, 1], [0.5, 0.5], "strictly increasing"),
        ([2, 1], [0.5, 0.5], "strictly increasing"),
        ([0, 1], [1.5, -0.5], ">= 0"),
        ([0, 1], [0.5, float("nan")], ">= 0"),
        ([0, 1], [0.5, 0.4], "sum"),
    ])
    def test_constructor_checks(self, support, masses, match):
        with pytest.raises(ValueError, match=match):
            NumberDistribution(support, masses)

    def test_arrays_are_kept_read_only(self):
        support, masses = np.array([2, 5]), np.array([0.25, 0.75])
        dist = NumberDistribution(support, masses, {"kept_mass": 1.0})
        assert dist.support is support and dist.masses is masses
        assert not (support.flags.writeable or masses.flags.writeable)
        assert (dist.mean, dist.variance) == (4.25, 1.6875)


class TestSectorMixtures:
    def test_point_mass_mixture_is_the_pure_sector_state(self):
        mix = flat_mixture(NumberDistribution.point(3))
        assert (mix.totals().tolist(), mix.weights().tolist()) == ([3], [1.0])
        np.testing.assert_allclose(
            mix.amps, oracle_sector_amplitudes(number_phase_state(3, 0.0), 3), atol=1e-15
        )

    def test_weights_follow_the_distribution(self):
        dist = poissonian_distribution(2.0)
        mix = flat_mixture(dist)
        np.testing.assert_allclose(mix.weights(), dist.masses, atol=1e-15)
        assert mix.totals() is dist.support

    def test_sector_triples_are_built_only_when_read(self):
        mix = mixture_from_sector_amplitudes(
            poissonian_distribution(3.0), joined(lambda n: np.ones(n + 1))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the top sector has mass on the cutoff edge
            observable_report(mix)
        relative_phase_density(mix)
        sample_local_phases(mix, 50, seed=1)
        assert "sectors" not in vars(mix)
        assert [n for n, _, _ in mix.sectors] == mix.totals().tolist()
        assert "sectors" in vars(mix)

    # A valid flat mixture (sector 0 and sector 1) and, per case, the arrays that break one check.
    FLAT = {"totals": [0, 1], "weights": [0.5, 0.5], "amps": [1.0, 0.6, 0.8j]}
    DTYPES = {"totals": np.int64, "weights": float, "amps": complex}

    @pytest.mark.parametrize("match,bad", [
        ("at least one", {"totals": [], "weights": [], "amps": []}),
        ("2 sectors need 2 weights, got 1", {"weights": [1.0]}),
        (r"sectors 0..1 need 3 amplitudes in all, got \(4,\)$", {"amps": [1.0, 0.6, 0.8j, 0.0]}),
        (r"sectors 0..1 need 3 amplitudes in all, got \(2,\)$", {"amps": [1.0, 1.0]}),
        (r"got \(1, 3\)$", {"amps": [[1.0, 0.6, 0.8j]]}),
        # int64 starts would wrap here (2^62 + 1 + 2^63 - 1 > 2^63 - 1); the count does not
        ("need 13835058055282163712 amplitudes", {"totals": [2**62, 2**63 - 2]}),
        (">= 0, got -1", {"totals": [-1, 0], "amps": [1.0]}),
        ("increasing", {"totals": [1, 1]}),
        ("increasing", {"totals": [1, 0], "amps": [0.6, 0.8j, 1.0]}),
        (">= 0", {"weights": [1.5, -0.5]}),
        ("sum", {"weights": [0.5, float("nan")]}),
        ("sum", {"weights": [0.5, 0.6]}),
        ("norm", {"amps": [1.0, 0.6, 0.7]}),
        ("norm", {"amps": [1.0, float("nan"), 0.8]}),
    ])
    def test_flat_mixture_checks(self, match, bad):
        arrays = {**self.FLAT, **bad}
        args = [np.array(arrays[k], dtype=self.DTYPES[k]) for k in self.DTYPES]
        with pytest.raises(ValueError, match=match):
            SectorMixture(*args)

    def test_lists_are_converted(self):
        mix = SectorMixture([0, 1], [0.5, 0.5], [1, 0.6, 0.8j])
        for got, want in zip((mix.totals(), mix.weights(), mix.starts, mix.amps),
                             ([0, 1], [0.5, 0.5], [0, 1, 3], [1.0, 0.6, 0.8j])):
            np.testing.assert_array_equal(got, want)
        assert [a.dtype for a in (mix.totals(), mix.starts, mix.weights(), mix.amps)] == [
            np.int64, np.int64, np.float64, np.complex128]

    def test_arrays_of_their_dtype_are_kept_not_copied(self):
        args = [np.array(self.FLAT[k], dtype=self.DTYPES[k]) for k in self.DTYPES]
        mix = SectorMixture(*args)
        kept = (mix.totals(), mix.weights(), mix.amps)
        assert all(a is b for a, b in zip(args, kept))
        assert not any(a.flags.writeable for a in (*args, mix.starts))

    @pytest.mark.parametrize("bad", [
        {"totals": [0, 1.5]}, {"totals": [0, float("nan")]}, {"totals": ["0", "1"]},
        {"totals": [0, 1 + 2**-40]},
    ])
    def test_non_integer_totals_are_refused(self, bad):
        arrays = {**self.FLAT, **bad}
        with pytest.raises(ValueError, match="must be integers"):
            SectorMixture(arrays["totals"], arrays["weights"], arrays["amps"])

    @pytest.mark.parametrize("match,builder", [
        ("sectors 2..2 need 3 amplitudes", joined(lambda n: np.ones(n))),
        ("norm", joined(lambda n: np.zeros(n + 1))),
    ])
    def test_flat_builder_checks(self, match, builder):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):
            mixture_from_sector_amplitudes(NumberDistribution.point(2), builder)

    def test_builder_output_is_normalized_in_place_unless_read_only(self):
        fresh = np.full(3, 2.0 + 0j)
        mix = mixture_from_sector_amplitudes(NumberDistribution.point(2), lambda totals: fresh)
        assert mix.amps is fresh
        frozen = np.full(3, 2.0 + 0j)
        frozen.flags.writeable = False
        mix = mixture_from_sector_amplitudes(NumberDistribution.point(2), lambda totals: frozen)
        np.testing.assert_array_equal(frozen, 2.0)
        np.testing.assert_allclose(mix.amps, 1.0 / math.sqrt(3.0), rtol=1e-15)

    def test_mixture_over_the_array_limit_raises_before_building(self, refuse_large_arrays):
        dist = gaussian_distribution(1e9, 1.0)
        with pytest.raises(TruncationError, match=r"mixture of \d+ sectors up to N = \d+ needs"):
            mixture_from_sector_amplitudes(dist, lambda totals: pytest.fail("a sector was built"))

    def test_array_limit_is_inclusive(self):
        fock.require_array_bytes(fock.MAX_ARRAY_BYTES, "an array")
        with pytest.raises(TruncationError, match="an array needs"):
            fock.require_array_bytes(fock.MAX_ARRAY_BYTES + 1, "an array")


def _uniform(support) -> NumberDistribution:
    return NumberDistribution(support, np.full(len(support), 1.0 / len(support)))


@given(
    before=st.sets(st.integers(0, 330), min_size=1, max_size=40),
    after=st.sets(st.integers(0, 330), min_size=1, max_size=40),
    base=st.sampled_from(["number_phase", "split_fock"]),
    phi=st.sampled_from([0.0, 1e-3, 0.7, -2.3, 3.1]),
    t=st.floats(0.05, 0.999),
)
@settings(max_examples=60)
def test_mixture_from_a_previous_one_has_the_bytes_of_a_fresh_build(before, after, base, phi, t):
    """Supports with gaps on either side, across N = 300 where the split kernel moves from
    exact binomials to log-factorials: the shared sectors are copied, only the others are
    built, and the mixture has the bytes of a build without the previous one."""
    kernel = (
        (lambda totals: fock._number_phase_amps(totals, phi)) if base == "number_phase"
        else (lambda totals: fock._split_fock_amps(totals, phi, t))
    )
    previous = mixture_from_sector_amplitudes(_uniform(sorted(before)), kernel)
    asked = []

    def spy(totals):
        asked.append(totals.tolist())
        return kernel(totals)

    dist = _uniform(sorted(after))
    mix = mixture_from_sector_amplitudes(dist, spy, previous)
    fresh = mixture_from_sector_amplitudes(dist, kernel)
    for a, b in ((mix.totals(), fresh.totals()), (mix.weights(), fresh.weights()),
                 (mix.amps, fresh.amps), (mix.starts, fresh.starts)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    new = sorted(after - before)
    assert asked == ([new] if new else [])



def assert_flat_build_matches_oracle(dist, phi, t):
    """Kernels, mixtures and fixed-total states equal the per-sector build exactly."""
    totals = dist.support
    for kernel, oracle in (
        (lambda tot: fock._number_phase_amps(tot, phi), lambda n: oracle_number_phase_amps(n, phi)),
        (lambda tot: fock._split_fock_amps(tot, phi, t), lambda n: oracle_split_fock_amps(n, phi, t)),
    ):
        assert np.array_equal(kernel(totals), np.concatenate([oracle(n) for n in totals.tolist()]))
        flat, loop = mixture_from_sector_amplitudes(dist, kernel), oracle_mixture(dist, oracle)
        for a, b in (
            (flat.amps, loop.amps),
            (flat.starts, loop.starts),
            (flat.totals(), loop.totals()),
            (flat.weights(), loop.weights()),
            *zip(flat.sector_view, loop.sector_view),
        ):
            assert np.array_equal(a, b)
    n = int(totals[-1])
    for state, amps in (
        (number_phase_state(n, phi), oracle_number_phase_amps(n, phi)),
        (split_fock_state(n, phi, t), oracle_split_fock_amps(n, phi, t)),
    ):
        want = PureTwoModeState.from_sector(n, amps).sector_view.amps
        assert np.array_equal(state.sector_view.amps, want)


# Sector sets with gaps: small, straddling the exact-binomial limit N = 300, and spread out.
SECTOR_SETS = st.one_of(
    st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(285, 320), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(0, 420), min_size=1, max_size=6, unique=True),
)


@settings(max_examples=60)
@given(
    totals=SECTOR_SETS,
    phi=st.one_of(st.sampled_from([0.0, 0.4, -1.3]), st.floats(-100.0, 100.0)),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_build_equals_the_per_sector_build(totals, phi, t, seed):
    masses = np.random.default_rng(seed).random(len(totals)) + 0.05
    dist = NumberDistribution(sorted(totals), masses / masses.sum())
    assert_flat_build_matches_oracle(dist, phi, t)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("dist", [
    lambda: gaussian_distribution(300.0, 30.0),
    lambda: poissonian_distribution(20.0),
    lambda: thermal_distribution(5.0),
], ids=["gaussian(300,30)", "poissonian(20)", "thermal(5)"])
def test_flat_build_equals_the_per_sector_build_on_noise(dist, t):
    assert_flat_build_matches_oracle(dist(), 0.7, t)


def test_binomial_table_grows_on_demand_with_exact_rows(monkeypatch):
    monkeypatch.setattr(fock, "_binomial", np.ones(1))
    for totals in ([4], [0, 2, 9], [250, 300], [3], [300]):
        want = [math.comb(n, m) for n in totals for m in range(n + 1)]
        assert np.array_equal(fock._binomials(np.array(totals)), np.array(want, dtype=float))
    assert len(fock._binomial) == 301 * 302 // 2


def assert_trim_matches_the_loop(numbers, raw, tail_tol):
    kept, masses, fraction = fock._trim_tails(numbers, raw, tail_tol)
    # the trim returns the raw kept masses and _distribution_from_raw normalizes them;
    # a kept point of zero mass normalizes to NaN on both sides
    with np.errstate(invalid="ignore"):
        got = kept, masses / masses.sum(), fraction
        want = oracle_trim_tails(numbers, raw, tail_tol)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert repr(got[2]) == repr(want[2])
    return got


# Masses from 1 down to 1e-30, and zeros, so that either tail can fall under the budget.
TRIM_MASSES = st.lists(
    st.one_of(st.just(0.0), st.integers(0, 30).map(lambda e: 10.0**-e), st.floats(0.0, 1.0)),
    min_size=1, max_size=40,
).filter(lambda masses: sum(masses) > 0.0)


@settings(max_examples=300)
@given(
    masses=TRIM_MASSES,
    first=st.integers(0, 10**6),
    tail_tol=st.one_of(st.floats(1e-14, 1e-1), st.sampled_from([1e-300, 1.0, 10.0, math.inf])),
)
def test_trim_tails_equals_the_loop(masses, first, tail_tol):
    numbers = np.arange(first, first + len(masses))
    assert_trim_matches_the_loop(numbers, np.array(masses), tail_tol)


@pytest.mark.parametrize("masses", [[0.25], [0.0, 0.25, 0.0], [1e-20, 0.5, 1e-20]])
def test_trim_tails_single_point_kept_alone(masses):
    numbers = np.arange(5, 5 + len(masses))
    kept, out, fraction = assert_trim_matches_the_loop(numbers, np.array(masses), 1e-10)
    assert kept.tolist() == [6 if len(masses) == 3 else 5] and out.tolist() == [1.0]
    assert fraction == 1.0


def test_trim_tails_keeps_a_tail_whose_mass_equals_the_budget():
    # budget 0.25: each end's first point reaches it exactly, so neither is dropped
    kept, _, fraction = assert_trim_matches_the_loop(np.arange(4), np.full(4, 0.25), 0.5)
    assert kept.tolist() == [0, 1, 2, 3] and fraction == 1.0


def test_trim_tails_all_trimmed_keeps_one_point():
    kept, out, fraction = assert_trim_matches_the_loop(np.arange(10), np.full(10, 0.1), 100.0)
    assert kept.tolist() == [9] and out.tolist() == [1.0]
    assert fraction == pytest.approx(0.1, abs=1e-15)


def test_trim_tails_holds_one_running_sum_at_a_time():
    x = np.arange(-100_000, 100_001)
    raw = np.exp(-(x / 5000.0) ** 2 / 2.0)
    numbers = x + 10**6
    peak = traced_peak(lambda: fock._trim_tails(numbers, raw, 1e-10))
    # the N^2-weighted masses and one running sum, then the kept masses
    assert peak < 2.5 * raw.nbytes


class TestBuildLimits:
    @pytest.mark.parametrize("build,match", [
        (lambda: number_phase_state(10**9, 0.0), r"n=1000000000: .* needs 16,000,000,016 bytes"),
        (lambda: split_fock_state(10**9, 0.0), r"n=1000000000: .* needs 16,000,000,016 bytes"),
        (lambda: thermal_distribution(1e12), r"thermal noise mean=1000000000000.0: .* needs [\d,]+ bytes"),
        (lambda: poissonian_distribution(1e12),
         r"poissonian noise mean=1000000000000.0: .* needs [\d,]+ bytes"),
        (lambda: gaussian_distribution(1e9, 1e8),
         r"gaussian noise mean=1000000000.0, std=100000000.0: .* needs [\d,]+ bytes"),
    ], ids=["number_phase", "split_fock", "thermal", "poissonian", "gaussian"])
    def test_build_over_the_array_limit_raises_before_allocating(self, refuse_large_arrays, build,
                                                                 match):
        with pytest.raises(ArraySizeError, match=match):
            build()

    def test_wide_noise_mixture_is_refused_from_its_sector_count(self, monkeypatch):
        # 433,824 trimmed points, from a 4 MB mass array: the distribution fits, but its
        # sectors hold at least 433,824 * 433,825 / 2 amplitudes.
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 16 << 20)
        dist = gaussian_distribution(1e6, 2e4)
        assert len(dist.support) == 433_824
        with pytest.raises(ArraySizeError, match=(
            r"^a mixture of 433824 sectors up to N = \d+ needs at least "
            r"1,505,629,574,400 bytes"
        )):
            mixture_from_sector_amplitudes(dist, lambda totals: pytest.fail("a sector was built"))

    @pytest.mark.parametrize("build", [
        lambda: number_phase_state(2, 1e308),
        lambda: split_fock_state(400, 1e306, 0.3),
        lambda: mixture_from_sector_amplitudes(
            poissonian_distribution(3.0), lambda totals: fock._number_phase_amps(totals, 1e308)
        ),
    ])
    def test_non_finite_phase_factor_names_phi_without_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"phi = 1e\+30[68] makes the phase factor"):
                build()

    def test_largest_finite_phase_factor_is_kept(self):
        state = number_phase_state(1, 1e308)
        assert np.isfinite(state.sector_view.amps).all()

    @pytest.mark.parametrize("mean,std", [(400.0, 1e-300), (400.5, 1e-10)])
    def test_gaussian_without_mass_names_std(self, mean, std):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"std = {std!r} is too small"):
                gaussian_distribution(mean, std)

    @pytest.mark.parametrize("mean,std", [(1.0, 1e308), (1e308, 1e307)])
    def test_gaussian_support_beyond_the_float_range_names_std(self, refuse_large_arrays,
                                                                 mean, std):
        what = re.escape(f"gaussian noise mean={mean!r}, std={std!r}")
        with pytest.raises(ArraySizeError, match=(
            rf"^{what}: the support, \S+ either side of the mean, reaches beyond the largest float"
        )):
            gaussian_distribution(mean, std)

    def test_narrow_gaussian_is_a_point_mass(self):
        assert probs(gaussian_distribution(400.0, 1e-160)) == {400: 1.0}


# Each public builder, valid arguments for it, and the arguments the table below makes bad.
# tail_tol = 1.0 lets the squeezed state take a small explicit cutoff.
BUILDER_ARGUMENTS = [
    (poissonian_distribution, {"mean": 5.0}, ("mean", "tail_tol")),
    (thermal_distribution, {"mean": 3.0}, ("mean", "tail_tol")),
    (gaussian_distribution, {"mean": 400.0, "std": 10.0}, ("mean", "std", "tail_tol")),
    (select_cutoff, {"r": 1.0, "tail_tol": 1e-10}, ("r", "tail_tol")),
    (tmss_tail_mass, {"r": 1.0, "cutoff": 3}, ("r",)),
    (two_mode_squeezed_state, {"r": 1.0, "cutoff": 2, "tail_tol": 1.0},
     ("r", "cutoff", "tail_tol")),
    (number_phase_state, {"n": 2, "phi": 0.0}, ("n",)),
    (split_fock_state, {"n": 2, "phi": 0.0}, ("n",)),
    (NumberDistribution.point, {"n": 2}, ("n",)),
]
BAD_ARGUMENTS = [
    pytest.param(build, {**kwargs, arg: value}, arg,
                 id=f"{build.__qualname__}-{arg}={value!r}")
    for build, kwargs, args in BUILDER_ARGUMENTS
    for arg in args
    for value in (math.nan, math.inf, -math.inf, *((2.5,) if arg in ("n", "cutoff") else ()),
                  *((-1.0,) if arg == "r" else ()))
    if (arg, value) != ("r", math.inf)  # see test_infinite_squeezing_is_a_truncation_error
]


@pytest.mark.parametrize("build,kwargs,arg", BAD_ARGUMENTS)
def test_a_bad_builder_argument_raises_a_value_error_naming_it(build, kwargs, arg):
    with pytest.raises(ValueError, match=rf"^{arg} must be "):
        build(**kwargs)


@pytest.mark.parametrize("cutoff", [None, 2])
def test_infinite_squeezing_is_a_truncation_error(cutoff):
    with pytest.raises(TruncationError, match="cutoff"):
        two_mode_squeezed_state(math.inf, cutoff=cutoff)


def test_infinite_squeezing_leaves_all_mass_in_the_tail():
    with pytest.raises(TruncationError, match="no cutoff bounds the tail"):
        select_cutoff(math.inf, 1e-10)
    assert tmss_tail_mass(math.inf, 3) == 1.0


@given(total=st.integers(min_value=0, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_sector_embedding_roundtrip(total, seed):
    rng = np.random.default_rng(seed)
    amps = rand_single(rng, total + 1)
    state = PureTwoModeState.from_sector(total, amps)
    masses = oracle_sector_masses(state)
    assert abs(masses.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(oracle_sector_amplitudes(state, total), amps, atol=1e-13)
    assert masses[total] == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(min_value=0, max_value=60),
    t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_split_amplitude_mass_is_binomial(n, t):
    amps = oracle_sector_amplitudes(split_fock_state(n, 0.0, t), n)
    assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
    mean = float(np.sum(np.abs(amps) ** 2 * np.arange(n + 1)))
    assert mean == pytest.approx(n * t, abs=1e-9)


def test_import_leaves_scipy_unloaded():
    # the child imports the npsteer this test imported, however pytest found it
    src = str(Path(npsteer.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import npsteer; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
