import dataclasses
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npsteer import (
    ArraySizeError,
    PureTwoModeState,
    estimate_relative_dispersion,
    mixture_from_sector_amplitudes,
    number_phase_state,
    relative_phase_density,
    sample_local_phases,
    split_fock_state,
    TruncationError,
    two_mode_squeezed_state,
    write_samples_csv,
)
from npsteer.fock import (
    NumberDistribution,
    gaussian_distribution,
    poissonian_distribution,
    thermal_distribution,
)
from npsteer.observables import TruncationBiasWarning, exp_phase_relative, observable_report
from npsteer.phase_povm import (
    JointPhaseDensity,
    PhaseDensity,
    SampleSet,
    default_grid_size,
    joint_local_phase_density,
    linear_phase_variance,
    nyquist_minimum,
    phase_grid,
    wrap_angle,
)

from npsteer import cli, fock, phase_povm
from conftest import traced_peak
from oracles import (
    GRID_CASES,
    flat_mixture,
    joined,
    oracle_bootstrap_std,
    oracle_bootstrap_values,
    oracle_density_loop,
    oracle_groups,
    oracle_jackknife_std,
    oracle_joint_density,
    oracle_joint_values,
    oracle_relative_density,
    oracle_samples_csv,
    oracle_summed_profiles,
    oracle_weighted_view,
    rand_mixture,
    rand_pure,
    rand_single,
    raw_sectors,
    relative_marginal_from_joint,
    write_density_csv,
)


JOINT_CASES = {
    **GRID_CASES,
    "number_phase-n3": lambda: number_phase_state(3, 0.7),
    "split_fock-n40": lambda: split_fock_state(40, -1.1, 0.3),
}

FAMILY_STATES = [
    ("number_phase", lambda: number_phase_state(7, 0.4)),
    ("split_fock", lambda: split_fock_state(6, -0.2, 0.5)),
    ("tmss", lambda: two_mode_squeezed_state(0.7, cutoff=28)),
    (
        "poissonian_mixture",
        lambda: flat_mixture(poissonian_distribution(3.0), "number_phase", 0.1),
    ),
    (
        "thermal_mixture",
        lambda: flat_mixture(thermal_distribution(1.0), "split_fock", 0.0, 0.5),
    ),
]


class TestGridRules:
    def test_default_grid_is_even_power_of_two_above_nyquist(self):
        k = default_grid_size(30)
        assert k >= nyquist_minimum(30)
        assert k % 2 == 0
        assert k & (k - 1) == 0

    def test_small_cutoffs_use_the_floor(self):
        assert default_grid_size(3) == 64

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="even"):
            relative_phase_density(number_phase_state(2, 0.0), grid_size=65)

    def test_undersized_grid_rejected_with_required_minimum(self):
        state = two_mode_squeezed_state(0.7, cutoff=40)
        with pytest.raises(ValueError, match="82"):
            relative_phase_density(state, grid_size=80)

    def test_canonical_grid_spans_half_open_interval(self):
        phis = phase_grid(64)
        assert phis[0] == -math.pi
        assert phis[-1] < math.pi
        assert np.allclose(np.diff(phis), 2 * math.pi / 64)


class TestPhaseDensity:
    def test_phis_are_the_read_only_canonical_grid_of_the_values(self):
        k = 64
        d = PhaseDensity(np.full(k, 1 / (2 * math.pi)))
        assert d.phis.tobytes() == phase_grid(k).tobytes()
        assert d.phis is d.phis and not d.phis.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.phis = phase_grid(k)
        joint = JointPhaseDensity(np.full((k, k), 1 / (2 * math.pi) ** 2))
        assert joint.phis.tobytes() == phase_grid(k).tobytes()

    @pytest.mark.parametrize("values", [np.full(1, 1 / (2 * math.pi)), np.full((2, 2), 0.1)])
    def test_requires_one_axis_of_at_least_two_points(self, values):
        with pytest.raises(ValueError, match="1-d array of at least 2 points"):
            PhaseDensity(values)

    @pytest.mark.parametrize("values", [np.full(4, 0.1), np.full((2, 3), 0.1)])
    def test_joint_requires_a_square_array(self, values):
        with pytest.raises(ValueError, match="K x K array"):
            JointPhaseDensity(values)

    @pytest.mark.parametrize("value", [1.0, float("nan")])
    def test_rejects_unnormalized_values(self, value):
        k = 64
        with pytest.raises(ValueError, match="integrates"):
            PhaseDensity(np.full(k, value))

    def test_clips_tiny_negative_values(self):
        k = 64
        vals = np.full(k, 1 / (2 * math.pi))
        vals[1] += vals[0] + 5e-15
        vals[0] = -5e-15
        d = PhaseDensity(vals)
        assert d.values.min() == 0.0

    def test_copies_a_writable_array_and_keeps_a_read_only_one(self):
        vals = np.full(64, 1 / (2 * math.pi))
        copied = PhaseDensity(vals)
        vals[0] = 5.0
        assert copied.values[0] == 1 / (2 * math.pi) and not copied.values.flags.writeable
        vals[0] = 1 / (2 * math.pi)
        vals.flags.writeable = False
        assert PhaseDensity(vals).values is vals
        base = np.full(64, 1 / (2 * math.pi))
        view = base[:]
        view.flags.writeable = False
        kept = PhaseDensity(view)
        base[0] = 5.0  # a read-only view over a writable base is copied
        assert kept.values is not view and kept.values[0] == 1 / (2 * math.pi)
        clipped = vals.copy()
        clipped[1] += clipped[0] + 5e-15
        clipped[0] = -5e-15
        clipped.flags.writeable = False
        assert PhaseDensity(clipped).values.min() == 0.0  # a read-only array is clipped too

    def test_rejects_genuinely_negative_values(self):
        k = 64
        vals = np.full(k, 1 / (2 * math.pi))
        vals[0] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            PhaseDensity(vals)

    @pytest.mark.parametrize("name,make", FAMILY_STATES)
    def test_density_normalized_for_every_family(self, name, make):
        density = relative_phase_density(make())
        assert density.integrate() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name,make", FAMILY_STATES)
    def test_first_moment_equals_phase_coherence(self, name, make):
        state = make()
        density = relative_phase_density(state)
        assert density.moment(1) == pytest.approx(exp_phase_relative(state), abs=1e-12)

    def test_density_values_match_direct_sum(self):
        state = number_phase_state(3, 0.7)
        density = relative_phase_density(state)
        for k in (0, 5, 17, 40, 63):
            want = oracle_relative_density(state, float(density.phis[k]))
            assert density.values[k] == pytest.approx(want, abs=1e-12)

    def test_mixture_density_values_match_direct_sum(self, rng):
        mix = rand_mixture(rng, max_total=6, n_sectors=4)
        density = relative_phase_density(mix)
        for k in (3, 31, 50):
            want = oracle_relative_density(mix, float(density.phis[k]))
            assert density.values[k] == pytest.approx(want, abs=1e-12)

    def test_density_is_invariant_under_global_phase(self, rng):
        from npsteer import PureTwoModeState

        base = rand_pure(rng, 5)
        rotated = PureTwoModeState(base.coeffs * np.exp(0.77j))
        a = relative_phase_density(base)
        b = relative_phase_density(rotated)
        np.testing.assert_allclose(a.values, b.values, atol=1e-13)


class TestBlockedDensity:
    """The blocked FFT sum against the per-sector loop it replaced: equal bits."""

    K = phase_povm.DENSITY_BLOCK_CELLS // 32  # blocks of 32 sectors

    @pytest.mark.parametrize("sectors", [1, 31, 32, 33, 65])
    def test_mixture_matches_the_loop(self, rng, sectors):
        mix = rand_mixture(rng, max_total=300, n_sectors=sectors)  # ragged rows
        assert len(mix.sector_view.totals) == sectors
        got = relative_phase_density(mix, self.K).values
        np.testing.assert_array_equal(got, oracle_density_loop(mix, self.K))

    @pytest.mark.parametrize("grid_size", [None, K])
    def test_grid_state_with_empty_anti_diagonals_matches_the_loop(self, rng, grid_size):
        c = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        total = np.add.outer(np.arange(40), np.arange(40))
        c[(total % 3 == 1) | ((total > 20) & (total < 30))] = 0.0
        state = PureTwoModeState.normalized(c)
        # of the 79 anti-diagonals, 26 (total % 3 == 1) + 9 (21..29) - 3 (both) are empty
        assert len(state.sector_view.totals) == 79 - 26 - 9 + 3
        density = relative_phase_density(state, grid_size)
        np.testing.assert_array_equal(density.values, oracle_density_loop(state, density.grid_size))

    def test_grid_over_the_array_limit_raises_before_allocating(self, refuse_large_arrays):
        with pytest.raises(TruncationError, match=r"K=134217728: .* needs 2,147,483,648 bytes"):
            relative_phase_density(number_phase_state(3, 0.0), grid_size=1 << 27)

    def test_zero_weight_sector_is_left_out(self, rng):
        dist = NumberDistribution([2, 5, 9], [0.5, 0.0, 0.5])
        amps = {n: rand_single(rng, n + 1) for n in (2, 5, 9)}
        mix = mixture_from_sector_amplitudes(dist, joined(lambda n: amps[n]))
        np.testing.assert_array_equal(mix.sector_view.totals, [2, 9])
        density = relative_phase_density(mix)
        np.testing.assert_array_equal(density.values, oracle_density_loop(mix, density.grid_size))


class TestSummedProfiles:
    """The pre-padded block transform against one length-K FFT per sector: equal bits."""

    @pytest.mark.parametrize("lengths", [
        [1] * 40,  # one amplitude a sector, as in a squeezed state's diagonal
        [7, 3, 5, 1, 9] * 8,
        [2, 8, 4, 6] * 10,
        [1, 2, 31, 32, 17, 4, 9, 10] * 5,
        [32],
    ], ids=["length_1", "odd", "even", "ragged", "one_sector"])
    # K = 64 takes every case in one block; the larger K takes 16 sectors a block, 40 in three
    @pytest.mark.parametrize("grid_size", [64, phase_povm.DENSITY_BLOCK_CELLS // 16])
    def test_matches_one_fft_per_sector(self, rng, lengths, grid_size):
        starts = np.concatenate(([0], np.cumsum(lengths)))
        amps = rng.normal(size=starts[-1]) + 1j * rng.normal(size=starts[-1])
        amps[rng.random(starts[-1]) < 0.2] = 0.0
        got = phase_povm._summed_profiles(amps, starts, grid_size)
        assert got.tobytes() == oracle_summed_profiles(amps, starts, grid_size).tobytes()

    @given(seed=st.integers(0, 2**32 - 1),
           totals=st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True).map(sorted))
    @settings(max_examples=40)
    def test_roots_applied_in_the_pad_keep_the_bits_of_the_scaled_copy(self, seed, totals):
        # zero-weight and all-zero sectors, single entries and signed zeros, in blocks of
        # four rows (shared with a helper on more than one CPU) and in one block
        amps, starts, totals, weights = raw_sectors(seed, totals)
        view = fock._weighted_view(amps, starts, totals, weights)
        want = oracle_weighted_view(amps, starts, totals, weights)
        for cells in (4 * 64, phase_povm.DENSITY_BLOCK_CELLS):
            with mock.patch.object(phase_povm, "DENSITY_BLOCK_CELLS", cells):
                got = phase_povm._summed_profiles(view.amps, view.starts, 64, roots=view.roots)
            assert got.tobytes() == oracle_summed_profiles(want.amps, want.starts, 64).tobytes()

    @pytest.mark.parametrize("helpers", [0, 1, 4])
    @pytest.mark.parametrize("case", ["below", "at", "above"])
    def test_shared_blocks_match_one_fft_per_sector(self, rng, monkeypatch, helpers, case):
        """Around the sharing threshold, with up to more workers than cores under fast
        switching, the sum has the bits of the loop; it is shared only from the threshold."""
        k = phase_povm.DENSITY_BLOCK_CELLS // 16
        shared_rows = phase_povm.DENSITY_BLOCK_CELLS // ((1 + max(helpers, 1)) * k)
        full = phase_povm.SHARED_DENSITY_BLOCKS - 1  # full blocks just below the threshold
        n = {"below": full * shared_rows, "at": full * shared_rows + 1,
             "above": (full + 1) * shared_rows + 1}[case]
        lengths = rng.integers(1, 40, n)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        amps = rng.normal(size=starts[-1]) + 1j * rng.normal(size=starts[-1])
        amps[rng.random(starts[-1]) < 0.2] = 0.0
        teams = []
        team = phase_povm._Team
        monkeypatch.setattr(phase_povm, "_Team", lambda h: teams.append(h) or team(h))
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if helpers > 1 else interval)
        try:
            got = phase_povm._summed_profiles(amps, starts, k)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == oracle_summed_profiles(amps, starts, k).tobytes()
        assert teams == [helpers if case != "below" else 0]

    @pytest.fixture
    def shared_mixture(self, rng, monkeypatch):
        """Amplitudes of 64 sectors at a K whose density is shared with one helper."""
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        starts = np.concatenate(([0], np.cumsum(rng.integers(1, 40, 64))))
        return rng.normal(size=starts[-1]) + 0j, starts, phase_povm.DENSITY_BLOCK_CELLS // 16

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failing_transform_raises_in_the_caller(self, monkeypatch, shared_mixture, failing):
        # The failing thread's FFT waits until the other thread has run one, so both work.
        fft = np.fft.fft
        other_ran = threading.Event()

        def fft_failing_on_one_thread(*args, **kwargs):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper != (failing == "helper"):
                out = fft(*args, **kwargs)
                other_ran.set()
                return out
            other_ran.wait(10.0)
            raise RuntimeError(f"{failing} FFT failed")

        monkeypatch.setattr(np.fft, "fft", fft_failing_on_one_thread)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} FFT failed"):
            phase_povm._summed_profiles(*shared_mixture)
        assert other_ran.is_set()
        assert threading.active_count() == threads

    def test_small_densities_stay_on_the_calling_thread(self, rng, monkeypatch):
        """Single sectors, few blocks and the sampler's sectors start no helper thread."""
        def no_thread(*args, **kwargs):
            raise AssertionError("a small density started a thread")

        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        monkeypatch.setattr(phase_povm.threading, "Thread", no_thread)
        poisson50 = flat_mixture(poissonian_distribution(50.0), "split_fock", 0.0, 0.5)
        for state in (number_phase_state(1000, 0.0), split_fock_state(400, 0.0, 0.5), poisson50):
            relative_phase_density(state)
        sample_local_phases(rand_mixture(rng, max_total=60, n_sectors=12), 300, 17)

    def test_mixture_sample_stream_matches_one_fft_per_sector(self, rng, monkeypatch):
        mix = rand_mixture(rng, max_total=60, n_sectors=12)  # odd and even sector lengths
        got = sample_local_phases(mix, 3000, 17)
        monkeypatch.setattr(phase_povm, "_summed_profiles", oracle_summed_profiles)
        want = sample_local_phases(mix, 3000, 17)
        assert [s.phis.tobytes() for s in got] == [s.phis.tobytes() for s in want]


class TestDensityAlongside:
    """``alongside`` (the CLI's observable report) runs beside the density's helper; the
    density, the report and the errors must not show it."""

    # Each state and the helpers its density is shared with when one is available.
    STATES = {
        "tmss_r2": (lambda: two_mode_squeezed_state(2.0), 1),
        "gaussian_400_10": (lambda: flat_mixture(gaussian_distribution(400.0, 10.0)), 1),
        "number_phase_1000": (lambda: number_phase_state(1000, 0.0), 0),
    }

    @pytest.fixture
    def teams(self, monkeypatch):
        """The helper count of every team started, in order."""
        started = []
        team = phase_povm._Team
        monkeypatch.setattr(phase_povm, "_Team", lambda h: started.append(h) or team(h))
        return started

    @pytest.mark.filterwarnings("ignore::npsteer.TruncationBiasWarning")  # n = 1000 ends at the edge
    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("name", list(STATES))
    def test_same_bytes_with_and_without_alongside(self, monkeypatch, teams, helpers, name):
        make, shared = self.STATES[name]
        state = make()
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 0)
        want = relative_phase_density(state).values.tobytes()
        report = observable_report(state)
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
        reports = []

        def alongside():
            assert threading.current_thread() is threading.main_thread()
            reports.append(observable_report(state))

        assert relative_phase_density(state).values.tobytes() == want
        assert relative_phase_density(state, alongside=alongside).values.tobytes() == want
        assert reports == [report]
        assert teams == [0, helpers * shared, helpers * shared]

    def test_alongside_failure_while_the_helper_transforms(self, monkeypatch, teams):
        """The error surfaces as it is, once the helper has stopped and been joined, and the
        caller's switch interval is back."""
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        fft = np.fft.fft
        transforming = threading.Event()

        def fft_signalling(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                transforming.set()
            return fft(*args, **kwargs)

        def failing_report():
            assert transforming.wait(10.0)
            raise OSError("report failed")

        monkeypatch.setattr(np.fft, "fft", fft_signalling)
        threads = threading.enumerate()
        interval = sys.getswitchinterval()
        with pytest.raises(OSError, match="report failed"):
            relative_phase_density(two_mode_squeezed_state(2.0), alongside=failing_report)
        assert teams == [1]
        assert threading.enumerate() == threads
        assert sys.getswitchinterval() == interval

    def test_report_warning_reaches_the_caller_of_a_shared_density(self, capsys, monkeypatch,
                                                                   teams):
        # 201 sectors at K = 1024 make four shared blocks; the top sector holds 3e-8 of the mass.
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        spec = '{"family": "tmss", "r": 2.0, "cutoff": 200, "tail_tol": 1e-5}'
        with pytest.warns(TruncationBiasWarning, match="cutoff edge"):
            assert cli.main(["eval", "--state", spec]) == 0
        assert teams == [1]
        assert capsys.readouterr().out.startswith("NP_ENT ")


class TestJointDensity:
    def test_requires_pure_state(self, rng):
        mix = rand_mixture(rng, max_total=4, n_sectors=2)
        with pytest.raises(ValueError, match="pure"):
            joint_local_phase_density(mix)

    def test_normalization(self):
        j = joint_local_phase_density(split_fock_state(4, 0.0, 0.5))
        assert j.integrate() == pytest.approx(1.0, abs=1e-12)

    def test_values_match_direct_sum(self, rng):
        state = rand_pure(rng, 4)
        j = joint_local_phase_density(state)
        for a, b in ((0, 0), (9, 40), (33, 17)):
            want = oracle_joint_density(state, float(j.phis[a]), float(j.phis[b]))
            assert j.values[a, b] == pytest.approx(want, abs=1e-12)

    def test_marginalization_reproduces_relative_density(self, rng):
        for _ in range(5):
            state = rand_pure(rng, 6)
            joint = joint_local_phase_density(state)
            marg = relative_marginal_from_joint(joint)
            rel = relative_phase_density(state, grid_size=joint.grid_size)
            np.testing.assert_allclose(marg.values, rel.values, atol=1e-10)

    def test_difference_moment_matches_phase_coherence(self, rng):
        state = rand_pure(rng, 5)
        j = joint_local_phase_density(state)
        h = j.spacing
        phase = np.exp(1j * (j.phis[:, None] - j.phis[None, :]))
        moment = complex(np.sum(phase * j.values) * h * h)
        assert moment == pytest.approx(exp_phase_relative(state), abs=1e-12)

    @pytest.mark.parametrize("name", [*GRID_CASES, "number_phase-n3", "split_fock-n40"])
    def test_values_equal_the_fft2_recipe_by_bytes(self, name):
        state = JOINT_CASES[name]()
        floor = max(phase_povm.MIN_GRID, nyquist_minimum(state.cutoff))
        # an even K that is no power of two and that the column block width does not divide
        odd = next(k for k in range(floor + 2, 4 * floor, 2)
                   if k & (k - 1) and k % (phase_povm.DENSITY_BLOCK_CELLS // k))
        for k in (floor, default_grid_size(state.cutoff), odd):
            values = joint_local_phase_density(state, grid_size=k).values
            assert values.tobytes() == oracle_joint_values(state, k).tobytes(), k

    def test_keeps_the_grid_it_builds(self, monkeypatch):
        # the density adopts its one K x K grid: no clipped copy of it is made
        monkeypatch.setattr(np, "clip", lambda *a, **k: pytest.fail("the grid was copied"))
        joint = joint_local_phase_density(number_phase_state(3, 0.0))
        assert not joint.values.flags.writeable

    def test_peak_memory_is_one_grid_and_the_row_transform(self):
        # the K x K float grid, the (cutoff + 1) x K complex row transform and one column
        # block. The fft2 recipe held a complex K x K transform and its modulus at once
        # (3 grids), and any further K x K temporary, a clipped copy of the grid among
        # them, would add one more: each breaks this bound.
        state = rand_pure(np.random.default_rng(5), 40)
        k = 1024
        peak = traced_peak(lambda: joint_local_phase_density(state, grid_size=k))
        assert peak < 1.5 * k * k * 8 + (state.cutoff + 1) * k * 16

    def test_grid_over_the_array_limit_raises_before_allocating(self, refuse_large_arrays):
        with pytest.raises(TruncationError, match="K=1000000.* needs 16,000,000,000,000 bytes"):
            joint_local_phase_density(number_phase_state(3, 0.0), grid_size=1_000_000)


class TestLinearPhaseVariance:
    def test_uniform_density_gives_pi_squared_over_three(self):
        density = relative_phase_density(number_phase_state(0, 0.0))
        want = math.pi**2 / 3.0
        # rectangle rule on the non-band-limited integrand: error -pi^2/(3K^2)
        assert linear_phase_variance(density) == pytest.approx(want, abs=1.5e-3)

    def test_uniform_density_error_shrinks_with_grid(self):
        density = relative_phase_density(number_phase_state(0, 0.0), grid_size=1024)
        assert linear_phase_variance(density) == pytest.approx(
            math.pi**2 / 3.0, abs=1e-5
        )

    def test_narrow_density_approaches_dispersion(self):
        state = split_fock_state(50, 0.0, 0.5)
        lpv = linear_phase_variance(relative_phase_density(state))
        d2 = 1.0 - abs(exp_phase_relative(state)) ** 2
        assert lpv == pytest.approx(d2, rel=0.1)

    def test_recentring_makes_result_phase_independent(self):
        # the grid-placement part of the rectangle-rule error is O(h^2), so
        # shifting the peak off a grid point moves the value only at that order
        a = linear_phase_variance(
            relative_phase_density(split_fock_state(8, 0.0, 0.5), grid_size=512)
        )
        b = linear_phase_variance(
            relative_phase_density(split_fock_state(8, 2.5, 0.5), grid_size=512)
        )
        assert a == pytest.approx(b, abs=1e-6)


class TestSampling:
    def test_fixed_seed_pins_the_stream(self):
        s1, s2 = sample_local_phases(number_phase_state(3, 0.0), 4, seed=123)
        np.testing.assert_allclose(
            s1.phis,
            [0.0945752184793136, -0.8742227717631881, 1.4123571385178888, 1.1953058911302499],
            rtol=0, atol=0,
        )
        np.testing.assert_allclose(
            s2.phis,
            [-0.46746071849233983, -1.6026108049822432, -2.1977374306545525, 1.6783073725241273],
            rtol=0, atol=0,
        )

    def test_fixed_seed_pins_the_mixture_stream(self):
        mix = flat_mixture(poissonian_distribution(2.0))
        m1, m2 = sample_local_phases(mix, 4, seed=7)
        np.testing.assert_allclose(
            m1.phis,
            [-0.7724729946202404, -0.05631392695092252, -2.3859702513100682, 1.6946485983051165],
            rtol=0, atol=0,
        )
        np.testing.assert_allclose(
            m2.phis,
            [-0.5020410924128353, -1.2795229825177354, 2.1070696716270376, 0.8564140215575646],
            rtol=0, atol=0,
        )

    def test_same_seed_reproduces_exactly(self, rng):
        state = rand_pure(rng, 5)
        a = sample_local_phases(state, 257, seed=9)
        b = sample_local_phases(state, 257, seed=9)
        np.testing.assert_array_equal(a[0].phis, b[0].phis)
        np.testing.assert_array_equal(a[1].phis, b[1].phis)

    @pytest.mark.parametrize("make", [lambda: split_fock_state(4, 0.3, 0.5),
                                      lambda: flat_mixture(poissonian_distribution(2.0))])
    def test_batches_partition_the_sequential_stream(self, make):
        state = make()
        full = sample_local_phases(state, 40, seed=11)
        head = sample_local_phases(state, 25, seed=11)
        tail = sample_local_phases(state, 15, seed=11, start_shot=25)
        for i in (0, 1):
            np.testing.assert_array_equal(
                full[i].phis, np.concatenate([head[i].phis, tail[i].phis])
            )

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: split_fock_state(4, 0.3, 0.5), id="pure"),
        pytest.param(lambda: flat_mixture(poissonian_distribution(2.0)), id="mixture"),
    ])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_shot_blocks_keep_the_stream(self, monkeypatch, make, extra):
        # one block more or less than a whole number of blocks, away from shot 0: the stream
        # equals one draw for every shot and batches cut inside a block
        state = make()
        shots, start = phase_povm.SHOT_BLOCK + extra, 1000
        blocked = sample_local_phases(state, shots, seed=5, start_shot=start)
        cut = 777
        head = sample_local_phases(state, cut, seed=5, start_shot=start)
        tail = sample_local_phases(state, shots - cut, seed=5, start_shot=start + cut)
        monkeypatch.setattr(phase_povm, "SHOT_BLOCK", 1 << 40)
        whole = sample_local_phases(state, shots, seed=5, start_shot=start)
        for i in (0, 1):
            assert blocked[i].phis.tobytes() == whole[i].phis.tobytes()
            joined_phis = np.concatenate([head[i].phis, tail[i].phis])
            assert blocked[i].phis.tobytes() == joined_phis.tobytes()

    def test_peak_memory_per_shot(self):
        # two angles and an index a shot, the row groups and the sample sets' copies; the
        # uniforms are drawn a block at a time, not 32 bytes a shot at once
        shots = 400_000
        state = number_phase_state(3, 0.0)
        peak = traced_peak(lambda: sample_local_phases(state, shots, seed=3))
        assert peak < 60 * shots

    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    @pytest.mark.parametrize("labels", [
        pytest.param([3, 0, 3, 7, 0, 0, 9, 3], id="gaps"),
        pytest.param([5] * 6, id="one label"),
        pytest.param([0], id="one shot"),
        pytest.param(np.random.default_rng(4).integers(0, 50, 3001) * 3, id="random with gaps"),
    ])
    def test_groups_equal_the_sort_diff_split_recipe(self, labels, dtype):
        labels = np.asarray(labels, dtype=dtype)
        got = list(phase_povm._groups(labels))
        want = oracle_groups(labels)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_groups_hold_the_sort_and_the_counts(self):
        # the stable sort (8 bytes a shot) and the label counts: no sorted copy of the
        # labels and no difference of it beside the sort, as the sort-diff-split recipe held
        shots, labels = 1_000_000, 4096
        cells = np.random.default_rng(6).integers(0, labels, shots).astype(np.int32)
        seen = grouped = 0

        def group_all():
            nonlocal seen, grouped
            for _, group in phase_povm._groups(cells):
                seen, grouped = seen + 1, grouped + len(group)

        peak = traced_peak(group_all)
        assert (seen, grouped) == (labels, shots)
        # the counts, their running sums and the labels present: 8 bytes a label each
        assert peak < 8 * shots + 3 * 8 * labels + (1 << 16)

    def test_angles_live_in_principal_interval(self, rng):
        state = rand_pure(rng, 6)
        s1, s2 = sample_local_phases(state, 2000, seed=3)
        for s in (s1, s2):
            assert s.phis.min() >= -math.pi
            assert s.phis.max() < math.pi

    def test_empirical_difference_matches_density(self):
        state = number_phase_state(2, 0.0)
        s1, s2 = sample_local_phases(state, 60_000, seed=21)
        est = estimate_relative_dispersion(s1, s2)
        exact = 1.0 - (2.0 / 3.0) ** 2
        assert abs(est.d2_hat - exact) < 5.0 * est.std_error

    def test_empirical_marginal_matches_single_mode_density(self):
        # phi1 of a fixed-N flat-superposition state is uniform by symmetry
        state = number_phase_state(4, 0.0)
        s1, _ = sample_local_phases(state, 50_000, seed=2)
        hist, _ = np.histogram(s1.phis, bins=16, range=(-math.pi, math.pi))
        expected = 50_000 / 16
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        assert chi2 < 45.0  # 15 dof, p ~ 1e-4 cushion

    def test_shot_and_seed_validation(self):
        state = number_phase_state(1, 0.0)
        with pytest.raises(ValueError, match="shots"):
            sample_local_phases(state, 0, seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            sample_local_phases(state, 5, seed=-1)

    @pytest.mark.parametrize("arg,value,message", [
        pytest.param("shots", 2.0, "shots ", id="shots=2.0"),
        pytest.param("shots", True, "shots ", id="shots=True"),
        pytest.param("seed", 1.5, r"--seed 1\.5: ", id="seed=1.5"),
        pytest.param("seed", True, "--seed True: ", id="seed=True"),
        pytest.param("start_shot", 1.5, "start_shot ", id="start_shot=1.5"),
        pytest.param("start_shot", True, "start_shot ", id="start_shot=True"),
        pytest.param("start_shot", 2**300, "start_shot ", id="start_shot=2**300"),
        # 5 shots run one past the counter range
        pytest.param("start_shot", 2**256 - 4, "start_shot ", id="start_shot=2**256-4"),
    ])
    def test_stream_arguments_must_be_integers_in_range(self, arg, value, message):
        args = {"shots": 5, "seed": 1, "start_shot": 0, arg: value}
        with pytest.raises(ValueError, match=f"^{message}"):
            sample_local_phases(number_phase_state(1, 0.0), **args)

    def test_stream_arguments_reach_the_ends_of_their_ranges(self):
        state = number_phase_state(1, 0.0)
        last = sample_local_phases(state, 5, seed=2**128 - 1, start_shot=2**256 - 5)
        assert last[0].start_shot == 2**256 - 5
        a = sample_local_phases(state, 5, seed=np.uint64(7), start_shot=np.int64(3))
        b = sample_local_phases(state, 5, seed=7, start_shot=3)
        assert a[0].phis.tobytes() == b[0].phis.tobytes()

    def test_refuse_large_arrays_covers_a_padded_transform(self, refuse_large_arrays):
        with pytest.raises(AssertionError, match=r"fft\[3, 8388608\]"):
            np.fft.fft(np.ones((3, 2)), n=1 << 23, axis=1)
        with pytest.raises(AssertionError, match=r"fft\[16777217\]"):
            np.fft.fft(np.ones(2), n=(1 << 24) + 1)

    def test_refuse_large_arrays_covers_the_shot_uniforms(self, refuse_large_arrays):
        with pytest.raises(AssertionError, match=r"random\[8388608, 4\]"):
            phase_povm._shot_uniforms(1, 0, 1 << 23)

    def test_sample_grid_floor_is_enforced(self):
        state = number_phase_state(1, 0.0)
        with pytest.raises(ValueError, match="256"):
            sample_local_phases(state, 5, seed=1, grid_size=128)

    def test_sample_set_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError, match="pi"):
            SampleSet(np.array([0.0, 4.0]), shots=2, seed=0)


class TestEstimator:
    def test_requires_matching_shot_counts(self):
        a = SampleSet(np.zeros(3), shots=3, seed=0)
        b = SampleSet(np.zeros(4), shots=4, seed=0)
        with pytest.raises(ValueError, match="equal"):
            estimate_relative_dispersion(a, b)

    def test_bootstrap_and_jackknife_agree_on_scale(self):
        state = split_fock_state(3, 0.0, 0.5)
        s1, s2 = sample_local_phases(state, 4000, seed=13)
        boot = estimate_relative_dispersion(s1, s2)
        jack = estimate_relative_dispersion(s1, s2, method="jackknife")
        assert boot.d2_hat == jack.d2_hat
        assert 0.5 < boot.std_error / jack.std_error < 2.0

    def test_bootstrap_is_deterministic_given_sample_seeds(self):
        state = number_phase_state(2, 0.0)
        s1, s2 = sample_local_phases(state, 500, seed=17)
        a = estimate_relative_dispersion(s1, s2)
        b = estimate_relative_dispersion(s1, s2)
        assert a == b

    def test_explicit_estimator_seed_changes_only_the_error_stream(self):
        state = number_phase_state(2, 0.0)
        s1, s2 = sample_local_phases(state, 500, seed=17)
        a = estimate_relative_dispersion(s1, s2, seed=1)
        b = estimate_relative_dispersion(s1, s2, seed=2)
        assert a.d2_hat == b.d2_hat
        assert a.std_error != b.std_error

    def test_unknown_method_rejected(self):
        s = SampleSet(np.zeros(4), shots=4, seed=0)
        with pytest.raises(ValueError, match="method"):
            estimate_relative_dispersion(s, s, method="parametric")

    @pytest.mark.parametrize("args,message", [
        pytest.param({"method": "parametric"}, "method 'parametric' ", id="method"),
        pytest.param({"method": None}, "method None ", id="method=None"),
        pytest.param({"resamples": 1}, "resamples 1: ", id="resamples=1"),
        pytest.param({"resamples": 2.5}, r"resamples 2\.5: ", id="resamples=2.5"),
        pytest.param({"resamples": 200.0}, r"resamples 200\.0: ", id="resamples=200.0"),
        pytest.param({"resamples": True}, "resamples True: ", id="resamples=True"),
        pytest.param({"seed": -1}, "seed -1: ", id="seed=-1"),
        pytest.param({"seed": 1.5}, r"seed 1\.5: ", id="seed=1.5"),
        pytest.param({"seed": (1, 2)}, r"seed \(1, 2\): ", id="seed=tuple"),
    ])
    def test_bad_argument_is_named_before_the_phase_factors(self, args, message):
        # at 2e5 shots the phase factors alone take 3.2 MB
        shots = 200_000
        s = SampleSet(np.zeros(shots), shots=shots, seed=0)

        def refused():
            with pytest.raises(ValueError, match=f"^{message}"):
                estimate_relative_dispersion(s, s, **args)

        peak = traced_peak(refused)
        assert peak < shots

    def test_jackknife_takes_no_resamples_or_seed(self):
        s1, s2 = sample_local_phases(number_phase_state(2, 0.0), 50, seed=3)
        est = estimate_relative_dispersion(s1, s2, method="jackknife", resamples=0, seed=-1)
        assert est == estimate_relative_dispersion(s1, s2, method="jackknife")

    def test_bootstrap_takes_numpy_integers(self):
        s1, s2 = sample_local_phases(number_phase_state(2, 0.0), 50, seed=3)
        a = estimate_relative_dispersion(s1, s2, resamples=np.int64(30), seed=np.uint32(4))
        assert a == estimate_relative_dispersion(s1, s2, resamples=30, seed=4)

    def test_peak_memory_is_the_phase_factors_and_two_workers_indices(self, monkeypatch):
        # the phase factors (16 bytes a shot), formed a block at a time, and per worker
        # its draw indices (8 bytes a shot) and one leaf; one index draw and the
        # block temporaries pass through. A gather buffer a shot per worker, or the
        # phase factors formed in one piece, each break the bound.
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        shots = 600_000
        s1, s2 = sample_local_phases(number_phase_state(3, 0.0), shots, seed=9)
        peak = traced_peak(lambda: estimate_relative_dispersion(s1, s2, resamples=6))
        leaf = 16 * phase_povm.BOOTSTRAP_LEAF
        slack = 8 * phase_povm.DRAW_CHUNK + (1 << 20)
        assert peak < 16 * shots + 2 * (8 * shots + leaf) + slack

    def test_small_sample_bias_is_minus_d2_over_shots(self):
        # uniform relative phase: plug-in estimate averages to 1 - 1/n
        vac = number_phase_state(0, 0.0)
        n = 50
        values = []
        for k in range(400):
            s1, s2 = sample_local_phases(vac, n, seed=1000 + k)
            z = np.exp(1j * (s1.phis - s2.phis))
            values.append(1.0 - abs(z.mean()) ** 2)
        assert np.mean(values) == pytest.approx(1.0 - 1.0 / n, abs=5e-3)


    @pytest.mark.parametrize("block", [None, 1 << 10])
    @pytest.mark.parametrize("shots", [2, 3, 1001, 2 * phase_povm.SHOT_BLOCK + 77])
    def test_jackknife_keeps_the_whole_array_bits(self, monkeypatch, shots, block):
        s1, s2 = sample_local_phases(number_phase_state(3, 0.4), shots, seed=12)
        if block is not None:
            monkeypatch.setattr(phase_povm, "SHOT_BLOCK", block)
        est = estimate_relative_dispersion(s1, s2, method="jackknife")
        assert est.std_error > 0
        assert np.float64(est.std_error).tobytes() == np.float64(oracle_jackknife_std(s1, s2)).tobytes()

    def test_jackknife_peak_memory_is_the_phase_factors_and_one_float_array(self):
        # the phase factors (16 bytes a shot) and the leave-one-out dispersions (8),
        # squared in place; only block temporaries pass through. The whole-array recipe
        # held the leave-one-out means, their moduli and the deviations besides.
        shots = 600_000
        s1, s2 = sample_local_phases(number_phase_state(3, 0.0), shots, seed=9)
        peak = traced_peak(lambda: estimate_relative_dispersion(s1, s2, method="jackknife"))
        assert peak < 24 * shots + 4 * 16 * phase_povm.SHOT_BLOCK


class TestCsvWriters:
    def test_samples_csv_layout(self, tmp_path):
        state = number_phase_state(2, 0.0)
        s1, s2 = sample_local_phases(state, 3, seed=4)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s1, s2)
        lines = path.read_text().splitlines()
        assert lines[0] == "shot_index,phi1,phi2"
        assert len(lines) == 4
        idx, phi1, phi2 = lines[1].split(",")
        assert idx == "0"
        assert float(phi1) == s1.phis[0]
        assert float(phi2) == s2.phis[0]

    def test_samples_csv_carries_batch_offsets(self, tmp_path):
        state = number_phase_state(2, 0.0)
        s1, s2 = sample_local_phases(state, 2, seed=4, start_shot=10)
        path = tmp_path / "batch.csv"
        write_samples_csv(path, s1, s2)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[0] == "10"

    def test_samples_csv_writer_peaks_at_a_chunk(self, tmp_path):
        # the shot index is formed a chunk at a time, as the angle cells are: no column
        # of 8 bytes a shot beside the sample sets
        shots = 100_000
        phis = np.random.default_rng(8).uniform(-math.pi, math.pi, (2, shots))
        s1, s2 = (SampleSet(p, shots=shots, seed=1, start_shot=10**9) for p in phis)
        path = tmp_path / "samples.csv"
        peak = traced_peak(lambda: write_samples_csv(path, s1, s2))
        assert path.read_text().splitlines()[-1].startswith(f"{10**9 + shots - 1},")
        assert peak < 400 * phase_povm.CSV_CHUNK_ROWS

    def test_density_csv_roundtrip(self, tmp_path):
        density = relative_phase_density(number_phase_state(3, 0.2))
        path = tmp_path / "density.csv"
        write_density_csv(path, density)
        rows = path.read_text().splitlines()
        assert rows[0] == "phi,p"
        data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        np.testing.assert_array_equal(data[:, 0], density.phis)
        np.testing.assert_array_equal(data[:, 1], density.values)


class TestThreadedBootstrap:
    """The resamples run on a helper thread beside ``alongside``; the result must not show it."""

    @pytest.fixture
    def odd_samples(self):
        return sample_local_phases(split_fock_state(4, 0.3, 0.5), 5003, seed=29)

    @pytest.fixture
    def failing_helper_take(self, monkeypatch):
        """Make np.take raise on every thread but the main one."""
        take = np.take

        def failing_on_helper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return take(*args, **kwargs)

        monkeypatch.setattr(phase_povm.np, "take", failing_on_helper)

    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("draw_chunk", [phase_povm.DRAW_CHUNK, 1000])
    def test_equals_the_serial_loop(self, monkeypatch, odd_samples, helpers, draw_chunk):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
        monkeypatch.setattr(phase_povm, "DRAW_CHUNK", draw_chunk)
        s1, s2 = odd_samples
        calls = []
        for seed in (None, 5):
            est = estimate_relative_dispersion(
                s1, s2, resamples=37, seed=seed, alongside=lambda: calls.append(1)
            )
            assert est.std_error == oracle_bootstrap_std(s1, s2, 37, seed)
            assert est.resamples == 37
        assert calls == [1, 1]

    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("alongside", [None, lambda: time.sleep(0.01)],
                             ids=["nothing alongside", "alongside"])
    @pytest.mark.parametrize("shots,leaf", [
        pytest.param(2 * phase_povm.BOOTSTRAP_LEAF + 5, None, id="two leaves and more"),
        pytest.param(5003, 64, id="smallest leaf"),
    ])
    def test_values_equal_the_full_gather_oracle(self, monkeypatch, helpers, alongside, shots,
                                                 leaf):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
        if leaf is not None:
            monkeypatch.setattr(phase_povm, "BOOTSTRAP_LEAF", leaf)
        z = np.exp(1j * np.random.default_rng(shots).uniform(-math.pi, math.pi, shots))
        got = phase_povm._bootstrap_values(z, np.random.default_rng(3), 7, alongside)
        want = oracle_bootstrap_values(z, np.random.default_rng(3), 7)
        assert got.tobytes() == want.tobytes()

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Every draw index must be claimed once and stored once: a lost update
        # or a race on the shared counter would change the error bar.
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 4)
        monkeypatch.setattr(phase_povm, "DRAW_CHUNK", 64)
        s1, s2 = sample_local_phases(number_phase_state(2, 0.0), 301, seed=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = estimate_relative_dispersion(s1, s2, resamples=400)
        finally:
            sys.setswitchinterval(interval)
        assert est.std_error == oracle_bootstrap_std(s1, s2, 400)

    def test_estimate_over_the_array_limit_raises_before_resampling(self, monkeypatch,
                                                                   odd_samples):
        monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 16 * 5003 - 1)
        calls = []
        with pytest.raises(ArraySizeError, match=r"^5,003 shots: .* needs 80,048 bytes"):
            estimate_relative_dispersion(*odd_samples, alongside=lambda: calls.append(1))
        assert calls == []

    def test_switch_interval_is_short_during_the_write_and_restored(self, monkeypatch,
                                                                    odd_samples):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        before = sys.getswitchinterval()
        seen = []
        estimate_relative_dispersion(
            *odd_samples, resamples=37, alongside=lambda: seen.append(sys.getswitchinterval())
        )
        assert seen == [pytest.approx(min(before, phase_povm.OVERLAP_SWITCH_INTERVAL))]
        assert sys.getswitchinterval() == before

    def test_switch_interval_is_restored_after_a_helper_failure(self, monkeypatch, odd_samples,
                                                                failing_helper_take):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        before = sys.getswitchinterval()
        with pytest.raises(RuntimeError, match="helper failed"):
            # The helper fails while the writer runs under the short interval.
            estimate_relative_dispersion(*odd_samples, resamples=37,
                                         alongside=lambda: time.sleep(0.05))
        assert sys.getswitchinterval() == before

    @pytest.mark.parametrize("helpers,method,alongside", [
        (0, "bootstrap", lambda: None),
        (1, "bootstrap", None),
        (1, "jackknife", lambda: None),
    ], ids=["no helper", "nothing alongside", "jackknife"])
    def test_switch_interval_is_left_alone_without_an_overlap(self, monkeypatch, odd_samples,
                                                              helpers, method, alongside):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
        calls = []
        monkeypatch.setattr(sys, "setswitchinterval", calls.append)
        estimate_relative_dispersion(*odd_samples, method=method, resamples=37, alongside=alongside)
        assert calls == []

    def test_interleaved_overlaps_on_two_threads_restore_the_process_interval(self):
        # A enters, B enters, A exits, B exits: B's overlap still runs short after A's
        # exit, and B's exit restores the interval found before A's entry, not A's short one.
        before = sys.getswitchinterval()
        assert before > phase_povm.OVERLAP_SWITCH_INTERVAL
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with phase_povm._short_switch_interval():
                a_in.set()
                assert b_in.wait(10.0)
            a_out.set()

        def second():
            assert a_in.wait(10.0)
            with phase_povm._short_switch_interval():
                b_in.set()
                assert a_out.wait(10.0)
                seen["after the first exit"] = sys.getswitchinterval()

        threads = [threading.Thread(target=f) for f in (first, second)]
        try:
            for t in threads:
                t.start()
        finally:
            for t in threads:
                t.join(20.0)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(before)
        assert seen == {"after the first exit": pytest.approx(phase_povm.OVERLAP_SWITCH_INTERVAL)}
        assert interval == before

    def test_overlaps_on_more_threads_than_cores_restore_the_process_interval(self):
        # Every overlap must read the short interval inside, whichever others run, and the
        # last exit must restore the interval found before the first: a lost update of the
        # count would restore it early or never.
        before = sys.getswitchinterval()
        assert before > phase_povm.OVERLAP_SWITCH_INTERVAL
        readings = []

        def overlaps():
            for _ in range(300):
                with phase_povm._short_switch_interval():
                    readings.append(sys.getswitchinterval())

        threads = [threading.Thread(target=overlaps) for _ in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            after = sys.getswitchinterval()
        finally:
            sys.setswitchinterval(before)
        assert not any(t.is_alive() for t in threads)
        assert len(readings) == 8 * 300
        assert max(readings) == pytest.approx(phase_povm.OVERLAP_SWITCH_INTERVAL)
        assert after == before and phase_povm._overlaps == 0

    def test_alongside_runs_once_for_the_jackknife(self, odd_samples):
        calls = []
        est = estimate_relative_dispersion(
            *odd_samples, method="jackknife", alongside=lambda: calls.append(1)
        )
        assert calls == [1]
        assert est.resamples == 0

    def test_helper_failure_raises_in_the_caller(self, monkeypatch, odd_samples,
                                                 failing_helper_take):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            estimate_relative_dispersion(*odd_samples, resamples=37)
        assert threading.active_count() == threads

    def test_alongside_failure_stops_the_helper_and_raises(self, monkeypatch, odd_samples):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        s1, s2 = odd_samples
        z = np.exp(1j * (s1.phis - s2.phis))
        joining = threading.Event()

        class JoinSignallingThread(threading.Thread):
            def join(self, timeout=None):
                joining.set()  # the caller has stopped the work and now waits for the helper
                super().join(timeout)

        class CountingRng:
            draws = 0

            def integers(self, *args):
                self.draws += 1
                if self.draws == 2:  # whatever the scheduling, the helper's second draw
                    joining.wait(10.0)  # returns only once the caller has failed
                return np.random.default_rng(0).integers(*args)

        monkeypatch.setattr(phase_povm.threading, "Thread", JoinSignallingThread)

        def failing_writer():
            raise OSError("disk full")

        rng = CountingRng()
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        with pytest.raises(OSError, match="disk full"):
            phase_povm._bootstrap_values(z, rng, 10_000, failing_writer)
        assert threading.active_count() == threads
        assert sys.getswitchinterval() == interval
        assert joining.is_set()
        assert rng.draws <= 2  # the helper stopped after its current resample

    @pytest.mark.parametrize("chunk_rows", [phase_povm.CSV_CHUNK_ROWS, 7])
    def test_chunked_csv_writer_keeps_the_row_bytes(self, monkeypatch, tmp_path, chunk_rows):
        monkeypatch.setattr(phase_povm, "CSV_CHUNK_ROWS", chunk_rows)
        s1, s2 = sample_local_phases(number_phase_state(2, 0.0), 50, seed=4, start_shot=998)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, s1, s2)
        assert path.read_text() == oracle_samples_csv(s1, s2)


# Sizes for the pairwise-sum leaves: every n up to 300, each side of the default leaf
# cap and of powers of two, and the sample benchmark's 10^6 shots.
PAIRWISE_SIZES = sorted({
    *range(1, 301),
    *(phase_povm.BOOTSTRAP_LEAF + d for d in (-1, 0, 1)),
    *((1 << k) + d for k in range(9, 21) for d in (-1, 1)),
    999_999,
    1_000_000,
})


class TestPairwiseSum:
    """The walker's leaf-by-leaf sum has the bits of one sum of all its values: a resample's
    full gather, or the view sums' neighbor products.

    It relies on numpy's pairwise-sum tree; a numpy whose tree differs fails here.
    """

    @pytest.mark.parametrize("leaf", [None, 64, 100])
    def test_sum_and_mean_equal_the_full_gather(self, leaf):
        cap = phase_povm.BOOTSTRAP_LEAF if leaf is None else leaf
        rng = np.random.default_rng(2024)
        sizes = PAIRWISE_SIZES if leaf is None else [n for n in PAIRWISE_SIZES if n < 5000]
        for n in sizes:
            z = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
            gathered = z[rng.integers(0, n, n)]
            total = fock._pairwise_sum(n, lambda lo, hi: np.add.reduce(gathered[lo:hi]), cap)
            assert total.tobytes() == np.add.reduce(gathered).tobytes(), n
            # np.mean divides its sum by an intp count, as the bootstrap does
            assert (total / np.intp(n)).tobytes() == np.mean(gathered).tobytes(), n

    def test_leaves_are_at_most_the_cap_and_cover_every_shot(self):
        leaves = []
        fock._pairwise_sum(1_000_000, lambda lo, hi: leaves.append((lo, hi)) or 0j,
                           phase_povm.BOOTSTRAP_LEAF)
        assert leaves[0][0] == 0 and leaves[-1][1] == 1_000_000
        assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
        assert max(hi - lo for lo, hi in leaves) <= phase_povm.BOOTSTRAP_LEAF
        assert len(leaves) == 4

    def test_sums_carried_together_equal_their_own_sums(self):
        # a leaf may return several sums in one array, as the view sums' leaves do
        rng = np.random.default_rng(7)
        for n in (1, 2, 1 << 14, (1 << 14) + 1, 100_003):
            z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))

            def leaf_sum(lo, hi):
                return np.array([np.add.reduce(z[0, lo:hi]), np.add.reduce(z[1, lo:hi])])

            total = fock._pairwise_sum(n, leaf_sum, 1 << 14)
            want = np.array([np.add.reduce(z[0]), np.add.reduce(z[1])])
            assert total.tobytes() == want.tobytes(), n

    def test_refuses_a_cap_below_the_node_numpy_sums_unsplit(self):
        z = np.exp(1j * np.random.default_rng(8).uniform(-math.pi, math.pi, 1000))
        for cap in (1, 7, 63):
            with pytest.raises(ValueError, match=f"leaf cap {cap} "):
                fock._pairwise_sum(len(z), lambda lo, hi: np.add.reduce(z[lo:hi]), cap)
        total = fock._pairwise_sum(len(z), lambda lo, hi: np.add.reduce(z[lo:hi]), 64)
        assert total.tobytes() == np.add.reduce(z).tobytes()


@given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(0, 8))
@settings(max_examples=40)
def test_density_always_normalized_and_nonnegative(seed, cutoff):
    rng = np.random.default_rng(seed)
    state = rand_pure(rng, cutoff)
    density = relative_phase_density(state)
    assert density.values.min() >= 0.0
    assert density.integrate() == pytest.approx(1.0, abs=1e-10)
    assert abs(density.moment(1)) <= 1.0 + 1e-12


@given(x=st.floats(-50.0, 50.0, allow_nan=False))
def test_wrap_angle_lands_in_principal_interval(x):
    w = float(wrap_angle(x))
    assert -math.pi <= w < math.pi
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)
