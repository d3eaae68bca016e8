import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import npsteer
from npsteer import fock
from npsteer import (
    NumberDistribution,
    PureTwoModeState,
    SectorMixture,
    SectorState,
    TruncationError,
    gaussian_distribution,
    mixture_from_sector_amplitudes,
    mixture_over_sectors,
    number_phase_state,
    observable_report,
    poissonian_distribution,
    relative_phase_density,
    sample_local_phases,
    select_cutoff,
    split_fock_state,
    thermal_distribution,
    tmss_tail_mass,
    two_mode_squeezed_state,
)

from oracles import rand_single


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
        assert state.total_mass() == pytest.approx(1.0, abs=1e-14)

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

    def test_sector_amplitudes_cover_out_of_grid_region(self):
        state = number_phase_state(2, 0.3)
        # total 3 exceeds every anti-diagonal of a cutoff-2 state
        assert np.all(state.sector_amplitudes(3) == 0)

    def test_sector_masses_sum_to_one(self, rng):
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        state = PureTwoModeState.normalized(c)
        masses = state.sector_masses()
        assert len(masses) == 9
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
        assert abs(state.total_mass() - 1.0) < 1e-12
        masses = state.sector_masses()
        assert masses[n] == pytest.approx(1.0, abs=1e-12)

    def test_number_phase_amplitudes_are_flat_with_phase_ramp(self):
        state = number_phase_state(3, 0.5)
        amps = state.sector_amplitudes(3)
        expected = np.exp(1j * 0.5 * np.arange(4)) / 2.0
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_number_phase_rejects_negative_total(self):
        with pytest.raises(ValueError, match="non-negative"):
            number_phase_state(-1, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 6, 13])
    def test_balanced_split_matches_binomial_root_weights(self, n):
        state = split_fock_state(n, 0.0, 0.5)
        amps = state.sector_amplitudes(n)
        expected = np.array(
            [math.sqrt(math.comb(n, m) / 2.0**n) for m in range(n + 1)]
        )
        np.testing.assert_allclose(np.abs(amps), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_extreme_transmissivity_sends_all_photons_one_way(self, t):
        state = split_fock_state(4, 0.0, t)
        amps = state.sector_amplitudes(4)
        expected = np.zeros(5)
        expected[4 if t == 1.0 else 0] = 1.0
        np.testing.assert_allclose(np.abs(amps), expected, atol=1e-15)

    def test_transmissivity_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="transmissivity"):
            split_fock_state(2, 0.0, 1.5)

    def test_single_photon_split_equals_number_phase_state_up_to_global_phase(self):
        a = number_phase_state(1, 0.9).sector_amplitudes(1)
        b = split_fock_state(1, 0.9, 0.5).sector_amplitudes(1)
        overlap = abs(np.vdot(a, b))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [301, 400, 1000])
    @pytest.mark.parametrize("t", [0.5, 0.3])
    def test_large_split_matches_exact_binomial_weights(self, n, t):
        # t = a / d exactly in binary, so the weights binom(n, m) a^m (d - a)^(n - m)
        # are integers summing to d^n, and each division rounds correctly
        a, d = Fraction(t).numerator, Fraction(t).denominator
        want = [math.sqrt(math.comb(n, m) * a**m * (d - a) ** (n - m) / d**n) for m in range(n + 1)]
        amps = split_fock_state(n, 0.0, t).sector_amplitudes(n)
        np.testing.assert_allclose(np.abs(amps), want, rtol=0, atol=1e-12)

    def test_large_split_uses_stable_log_weights(self):
        state = split_fock_state(400, 0.0, 0.5)
        amps = state.sector_amplitudes(400)
        assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
        # symmetric weights at t = 1/2
        np.testing.assert_allclose(np.abs(amps), np.abs(amps[::-1]), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::npsteer.observables.TruncationBiasWarning")
    def test_fixed_total_states_allocate_no_grid(self):
        # the (N+1)^2 grid of N = 2000 alone takes 64 MB
        state = number_phase_state(2000, 0.3)
        tracemalloc.start()
        try:
            observable_report(state)
            relative_phase_density(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTwoModeSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        state = two_mode_squeezed_state(0.0)
        assert state.cutoff == 0
        assert state.coeffs[0, 0] == pytest.approx(1.0)

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


class TestNumberDistributions:
    def test_poissonian_mode_ratio_is_exactly_one(self):
        dist = poissonian_distribution(5.0)
        assert dist.probs[5] == dist.probs[4]

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
        assert dist.probs[7] / dist.probs[6] == pytest.approx(q, rel=1e-13)

    def test_gaussian_is_symmetric_about_integer_mean(self):
        dist = gaussian_distribution(100.0, math.sqrt(10.0))
        assert dist.probs[95] == pytest.approx(dist.probs[105], rel=1e-13)
        assert dist.mean == pytest.approx(100.0, abs=1e-8)
        assert dist.variance == pytest.approx(10.0, rel=1e-6)

    def test_gaussian_regime_flag(self):
        assert gaussian_distribution(100.0, 20.0).meta["regime_violation"] is True
        assert gaussian_distribution(400.0, 10.0).meta["regime_violation"] is False

    def test_gaussian_clips_at_zero_occupation(self):
        dist = gaussian_distribution(1.0, 2.0)
        assert min(dist.probs) >= 0

    def test_kept_mass_reported_and_close_to_one(self):
        dist = thermal_distribution(2.0, tail_tol=1e-10)
        assert 1.0 - dist.meta["kept_mass"] < 1e-9

    def test_point_distribution(self):
        dist = NumberDistribution.point(3)
        assert dist.probs == {3: 1.0}
        assert dist.variance == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_mean_rejected(self, bad):
        for ctor in (poissonian_distribution, thermal_distribution):
            with pytest.raises(ValueError, match="mean"):
                ctor(bad)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            NumberDistribution({0: 0.5, 1: 0.4}, mean=0.0, variance=0.0)

    def test_nan_masses_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            NumberDistribution({0: 0.5, 1: float("nan")}, mean=0.0, variance=0.0)


class TestSectorMixtures:
    def test_point_mass_mixture_is_the_pure_sector_state(self):
        dist = NumberDistribution.point(3)
        mix = mixture_over_sectors(dist, lambda n: number_phase_state(n, 0.0))
        assert len(mix.sectors) == 1
        total, weight, sector = mix.sectors[0]
        assert (total, weight) == (3, 1.0)
        np.testing.assert_allclose(
            sector.amps, number_phase_state(3, 0.0).sector_amplitudes(3), atol=1e-15
        )

    def test_off_sector_support_is_rejected_naming_the_sector(self):
        dist = NumberDistribution.point(2)

        def leaky_builder(n):
            c = np.zeros((n + 2, n + 2), dtype=complex)
            c[0, n] = 1.0
            c[n + 1, n + 1] = 1e-6  # mass on total 2n+2
            return PureTwoModeState.normalized(c)

        with pytest.raises(ValueError, match="sector 2"):
            mixture_over_sectors(dist, leaky_builder)

    def test_weights_follow_the_distribution(self):
        dist = poissonian_distribution(2.0)
        mix = mixture_over_sectors(dist, lambda n: number_phase_state(n, 0.0))
        np.testing.assert_allclose(mix.weights(), dist.masses(), atol=1e-15)
        np.testing.assert_array_equal(mix.totals(), dist.support())

    def test_fast_amplitude_path_matches_full_builder(self):
        dist = thermal_distribution(1.0)
        slow = mixture_over_sectors(dist, lambda n: split_fock_state(n, 0.2, 0.5))
        fast = mixture_from_sector_amplitudes(
            dist, lambda n: split_fock_state(n, 0.2, 0.5).sector_amplitudes(n)
        )
        for (na, wa, sa), (nb, wb, sb) in zip(slow.iter_sectors(), fast.iter_sectors()):
            assert na == nb
            assert wa == pytest.approx(wb, abs=1e-15)
            np.testing.assert_allclose(sa.amps, sb.amps, atol=1e-14)

    def test_sector_state_requires_matching_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            SectorState(3, np.ones(3, dtype=complex) / math.sqrt(3))

    def test_nan_sector_amplitudes_and_weights_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            SectorState(1, np.array([np.nan, 1.0], dtype=complex))
        s0 = SectorState(0, np.ones(1, dtype=complex))
        s1 = SectorState(1, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="sum"):
            SectorMixture(((0, 0.5, s0), (1, float("nan"), s1)))

    def test_mixture_rejects_unsorted_sectors(self):
        s0 = SectorState(0, np.ones(1, dtype=complex))
        s1 = SectorState(1, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="increasing"):
            SectorMixture(((1, 0.5, s1), (0, 0.5, s0)))

    def test_flat_and_triple_built_mixtures_are_equal(self, rng):
        dist = poissonian_distribution(4.0)
        raw = {int(n): 3.0 * rand_single(rng, int(n) + 1) for n in dist.support()}
        flat = mixture_from_sector_amplitudes(dist, lambda n: raw[n])
        triples = SectorMixture(
            (n, w, SectorState(n, raw[n] / math.sqrt(float(np.sum(np.abs(raw[n]) ** 2)))))
            for n, w in zip(dist.support().tolist(), dist.masses().tolist())
        )
        for a, b in (
            (flat.amps, triples.amps),
            (flat.starts, triples.starts),
            (flat.totals(), triples.totals()),
            (flat.weights(), triples.weights()),
            *zip(flat.sector_view, triples.sector_view),
        ):
            np.testing.assert_array_equal(a, b)
        for (na, wa, sa), (nb, wb, sb) in zip(flat.sectors, triples.sectors, strict=True):
            assert (na, wa) == (nb, wb)
            np.testing.assert_array_equal(sa.amps, sb.amps)

    def test_sector_triples_are_built_only_when_read(self):
        mix = mixture_from_sector_amplitudes(poissonian_distribution(3.0), lambda n: np.ones(n + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the top sector has mass on the cutoff edge
            observable_report(mix)
        relative_phase_density(mix)
        sample_local_phases(mix, 50, seed=1)
        assert "sectors" not in vars(mix)
        assert [n for n, _, _ in mix.iter_sectors()] == mix.totals().tolist()
        assert "sectors" in vars(mix)

    # A valid flat mixture (sector 0 and sector 1) and, per case, the arrays that break one check.
    FLAT = {"totals": [0, 1], "weights": [0.5, 0.5], "starts": [0, 1, 3], "amps": [1.0, 0.6, 0.8j]}

    @pytest.mark.parametrize("match,bad", [
        ("at least one", {"totals": [], "weights": [], "starts": [0], "amps": []}),
        ("increasing", {"totals": [1, 1]}),
        (">= 0", {"weights": [1.5, -0.5]}),
        ("sum", {"weights": [0.5, float("nan")]}),
        ("sum", {"weights": [0.5, 0.6]}),
        ("sector 0 needs 1 amplitudes, got 2", {"starts": [0, 2, 3]}),
        ("norm", {"amps": [1.0, 0.6, 0.7]}),
        ("norm", {"amps": [1.0, float("nan"), 0.8]}),
    ])
    def test_flat_mixture_checks(self, match, bad):
        arrays = {**self.FLAT, **bad}
        dtypes = {"totals": np.int64, "weights": float, "starts": np.int64, "amps": complex}
        args = [np.array(arrays[k], dtype=dtypes[k]) for k in ("totals", "weights", "starts", "amps")]
        with pytest.raises(ValueError, match=match):
            SectorMixture._flat(*args)
        if not bad.keys() & {"starts", "amps"}:  # the same check on (N, weight, SectorState) triples
            triples = [(n, w, SectorState(n, np.ones(n + 1) / math.sqrt(n + 1)))
                       for n, w in zip(arrays["totals"], arrays["weights"])]
            with pytest.raises(ValueError, match=match):
                SectorMixture(triples)

    @pytest.mark.parametrize("match,builder", [
        ("sector 2 needs 3 amplitudes", lambda n: np.ones(n)),
        ("norm", lambda n: np.zeros(n + 1)),
    ])
    def test_flat_builder_checks(self, match, builder):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):
            mixture_from_sector_amplitudes(NumberDistribution.point(2), builder)

    def test_mixture_over_the_array_limit_raises_before_building(self, refuse_large_arrays):
        dist = gaussian_distribution(1e9, 1.0)
        with pytest.raises(TruncationError, match=r"mixture of \d+ sectors up to N = \d+ needs"):
            mixture_from_sector_amplitudes(dist, lambda n: pytest.fail("a sector was built"))

    def test_array_limit_is_inclusive(self):
        fock.require_array_bytes(fock.MAX_ARRAY_BYTES, "an array")
        with pytest.raises(TruncationError, match="an array needs"):
            fock.require_array_bytes(fock.MAX_ARRAY_BYTES + 1, "an array")

    def test_mixture_distribution_roundtrip(self):
        dist = poissonian_distribution(1.5)
        mix = mixture_over_sectors(dist, lambda n: number_phase_state(n, 0.0))
        again = mix.distribution()
        assert again.mean == pytest.approx(dist.mean, abs=1e-12)
        assert again.variance == pytest.approx(dist.variance, abs=1e-12)


@given(total=st.integers(min_value=0, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_sector_embedding_roundtrip(total, seed):
    rng = np.random.default_rng(seed)
    amps = rand_single(rng, total + 1)
    state = SectorState(total, amps).to_pure_state()
    assert abs(state.total_mass() - 1.0) < 1e-12
    np.testing.assert_allclose(state.sector_amplitudes(total), amps, atol=1e-13)
    masses = state.sector_masses()
    assert masses[total] == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(min_value=0, max_value=60),
    t=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_split_amplitude_mass_is_binomial(n, t):
    state = split_fock_state(n, 0.0, t)
    amps = state.sector_amplitudes(n)
    assert abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) < 1e-12
    mean = float(np.sum(np.abs(amps) ** 2 * np.arange(n + 1)))
    assert mean == pytest.approx(n * t, abs=1e-9)


def test_import_leaves_scipy_unloaded():
    # the child imports the npsteer this test imported, however pytest found it
    src = str(Path(npsteer.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import npsteer; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
