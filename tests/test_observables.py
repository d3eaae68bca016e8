import json
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npsteer import (
    PureTwoModeState,
    TruncationBiasWarning,
    mixture_from_sector_amplitudes,
    number_phase_state,
    observable_report,
    split_fock_state,
    two_mode_squeezed_state,
)
from npsteer.fock import gaussian_distribution, poissonian_distribution, thermal_distribution
from npsteer.observables import (
    REPORT_FIELDS,
    dispersions,
    exp_phase_relative,
    exp_phase_single,
    hz_moments,
    number_moments,
    quadrature_sum_variance,
)

from npsteer import fock, observables
from conftest import traced_peak
from oracles import (
    GRID_CASES,
    csv_row,
    flat_mixture,
    joined,
    mixture_sectors,
    oracle_exp_phase_single,
    oracle_grid_moments_in_place,
    oracle_ladder_moments,
    oracle_moments,
    oracle_scaled_view,
    oracle_view_sums,
    oracle_weighted_view,
    rand_mixture,
    rand_product,
    rand_pure,
    rand_single,
    raw_sectors,
    single_mode_moments,
)


def split_fock_exp_phase(n: int) -> float:
    """Closed-form <E> of a balanced split Fock state, by direct summation."""
    return sum(
        math.sqrt(math.comb(n, m) * math.comb(n, m - 1)) for m in range(1, n + 1)
    ) / 2.0**n


class TestNumberMoments:
    def test_fixed_total_state_has_zero_total_variance(self):
        nm = number_moments(number_phase_state(5, 0.0))
        assert nm.n_mean == pytest.approx(5.0, abs=1e-12)
        assert nm.n_var == pytest.approx(0.0, abs=1e-20)

    def test_squeezed_state_total_variance(self):
        r = 0.8
        nm = number_moments(two_mode_squeezed_state(r))
        assert nm.n_var == pytest.approx(math.sinh(2 * r) ** 2, abs=1e-6)

    def test_thermal_mixture_total_variance(self):
        mix = flat_mixture(thermal_distribution(1.0))
        nm = number_moments(mix)
        assert nm.n_var == pytest.approx(2.0, abs=1e-8)

    def test_mixture_per_mode_variance_uses_law_of_total_variance(self, rng):
        mix = rand_mixture(rng, max_total=8, n_sectors=5)
        nm = number_moments(mix)
        want = oracle_moments(mix)
        assert nm.n1_var == pytest.approx(want["n1_var"], abs=1e-12)
        assert nm.n2_var == pytest.approx(want["n2_var"], abs=1e-12)


@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_products_formed_in_place_keep_the_bits(case):
    state = GRID_CASES[case]()
    for mode in (1, 2):
        assert exp_phase_single(state, mode) == oracle_exp_phase_single(state.coeffs, mode)
    assert observables._ladder_moments(state) == oracle_ladder_moments(state.coeffs)


@pytest.mark.parametrize("case", GRID_CASES)
def test_lowering_sums_keep_the_bits_of_the_in_place_grid_products(case):
    # mode 2 was formed on the transposed grid, in an F-ordered array of products; the
    # lowering sum forms it C-ordered, which holds the same products in the same memory order
    state = GRID_CASES[case]()
    got = (exp_phase_single(state, 1), exp_phase_single(state, 2),
           *observables._ladder_moments(state))
    assert list(map(repr, got)) == list(map(repr, oracle_grid_moments_in_place(state.coeffs)))


class TestExpPhase:
    @pytest.mark.parametrize("n,phi", [(1, 0.0), (3, 0.0), (7, 1.1), (20, -2.0)])
    def test_number_phase_state_value(self, n, phi):
        e = exp_phase_relative(number_phase_state(n, phi))
        want = np.exp(1j * phi) * n / (n + 1)
        assert e == pytest.approx(want, abs=1e-12)

    def test_squeezed_state_has_no_relative_phase_coherence(self):
        assert exp_phase_relative(two_mode_squeezed_state(1.0)) == 0j

    def test_balanced_split_pair_value(self):
        e = exp_phase_relative(split_fock_state(2, 0.0, 0.5))
        assert e == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_vacuum_single_mode_coherence_vanishes(self):
        vac = number_phase_state(0, 0.0)
        assert exp_phase_single(vac, 1) == 0j
        assert exp_phase_single(vac, 2) == 0j

    def test_sector_mixture_single_mode_coherence_is_exactly_zero(self, rng):
        mix = rand_mixture(rng, max_total=6, n_sectors=4)
        assert exp_phase_single(mix, 1) == 0j
        assert exp_phase_single(mix, 2) == 0j

    def test_mode_index_validated(self):
        with pytest.raises(ValueError, match="mode"):
            exp_phase_single(number_phase_state(1, 0.0), 3)

    def test_poissonian_mixture_matches_weighted_sector_values(self):
        dist = poissonian_distribution(5.0)
        mix = flat_mixture(dist)
        want = sum(p * n / (n + 1) for n, p in zip(dist.support.tolist(), dist.masses.tolist()))
        assert exp_phase_relative(mix) == pytest.approx(want, abs=1e-12)

    def test_mixture_value_matches_density_matrix_oracle(self, rng):
        mix = flat_mixture(thermal_distribution(1.0), "split_fock", 0.4, 0.5)
        want = oracle_moments(mix)["e_rel"]
        assert exp_phase_relative(mix) == pytest.approx(want, abs=1e-12)

    def test_product_state_factorizes(self, rng):
        state = rand_product(rng, 6)
        e = exp_phase_relative(state)
        e1 = exp_phase_single(state, 1)
        e2 = exp_phase_single(state, 2)
        assert e == pytest.approx(e1 * np.conj(e2), abs=1e-12)


class TestDispersions:
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_number_phase_state_closed_form(self, n):
        d = dispersions(number_phase_state(n, 0.0))
        assert d.d2_rel == pytest.approx((2 * n + 1) / (n + 1) ** 2, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_balanced_split_closed_form(self, n):
        d = dispersions(split_fock_state(n, 0.0, 0.5))
        assert d.d2_rel == pytest.approx(1.0 - split_fock_exp_phase(n) ** 2, abs=1e-13)

    def test_squeezed_state_dispersion_is_maximal(self):
        assert dispersions(two_mode_squeezed_state(1.0)).d2_rel == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dispersion_composition_on_product_states(self, rng):
        for _ in range(20):
            state = rand_product(rng, 7)
            d = dispersions(state)
            composed = d.d2_1 + d.d2_2 - d.d2_1 * d.d2_2
            assert d.d2_rel == pytest.approx(composed, abs=1e-12)


class TestHZMoments:
    def test_number_phase_pair_value(self):
        hz = hz_moments(number_phase_state(2, 0.0))
        assert hz.adagb == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_balanced_split_closed_forms(self, n):
        hz = hz_moments(split_fock_state(n, 0.0, 0.5))
        assert hz.na == pytest.approx(n / 2.0, abs=1e-12)
        assert hz.nb == pytest.approx(n / 2.0, abs=1e-12)
        assert abs(hz.adagb) ** 2 == pytest.approx(n**2 / 4.0, rel=1e-12)
        assert hz.nanb == pytest.approx(n * (n - 1) / 4.0, abs=1e-12)

    def test_mixture_moments_match_density_matrix_oracle(self, rng):
        mix = rand_mixture(rng, max_total=8, n_sectors=5)
        hz = hz_moments(mix)
        want = oracle_moments(mix)
        assert hz.adagb == pytest.approx(want["adagb"], abs=1e-12)
        assert hz.nanb == pytest.approx(want["nanb"], abs=1e-12)
        assert hz.na == pytest.approx(want["na"], abs=1e-12)
        assert hz.nb == pytest.approx(want["nb"], abs=1e-12)


class TestQuadratureSum:
    def test_vacuum_value(self):
        assert quadrature_sum_variance(number_phase_state(0, 0.0)) == pytest.approx(
            2.0, abs=1e-14
        )

    @pytest.mark.parametrize("r", [0.3, 0.8, 1.2])
    def test_squeezed_state_closed_form(self, r):
        state = two_mode_squeezed_state(r)
        assert quadrature_sum_variance(state) == pytest.approx(
            2.0 * math.exp(-2.0 * r), abs=1e-6
        )

    def test_single_photon_pair_matches_dense_oracle(self):
        state = number_phase_state(1, 0.0)
        with pytest.warns(TruncationBiasWarning):
            value = quadrature_sum_variance(state)
        assert value == pytest.approx(oracle_moments(state)["quad_sum"], abs=1e-12)
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_edge_mass_triggers_warning(self):
        with pytest.warns(TruncationBiasWarning, match="edge"):
            quadrature_sum_variance(number_phase_state(3, 0.0))

    def test_well_truncated_state_does_not_warn(self, recwarn):
        state = two_mode_squeezed_state(0.5, tail_tol=1e-10)
        quadrature_sum_variance(state)
        assert not [w for w in recwarn if issubclass(w.category, TruncationBiasWarning)]

    def test_mixture_value_matches_density_matrix_oracle(self, rng):
        mix = rand_mixture(rng, max_total=7, n_sectors=4)
        got = quadrature_sum_variance(mix)
        assert got == pytest.approx(oracle_moments(mix)["quad_sum"], abs=1e-12)


class TestSingleModeMoments:
    def test_fock_level(self):
        amps = np.zeros(6, dtype=complex)
        amps[4] = 1.0
        mean, var, d2 = single_mode_moments(amps)
        assert (mean, var, d2) == (4.0, 0.0, 1.0)

    def test_norm_validated(self):
        with pytest.raises(ValueError, match="norm"):
            single_mode_moments(np.array([1.0, 1.0], dtype=complex))

    def test_matches_two_mode_reduction(self, rng):
        amps = rand_single(rng, 8)
        state_grid = np.zeros((8, 8), dtype=complex)
        state_grid[:, 0] = amps
        two_mode = PureTwoModeState.normalized(state_grid)
        mean, var, d2 = single_mode_moments(amps)
        nm = number_moments(two_mode)
        assert mean == pytest.approx(nm.n_mean, abs=1e-12)
        assert var == pytest.approx(nm.n1_var, abs=1e-12)
        assert d2 == pytest.approx(dispersions(two_mode).d2_1, abs=1e-12)


class TestObservableReport:
    def test_json_keys_match_frozen_field_order(self):
        report = observable_report(number_phase_state(2, 0.0))
        assert list(report.to_json_dict()) == list(REPORT_FIELDS)

    def test_csv_row_is_reparsable_and_aligned(self):
        report = observable_report(number_phase_state(2, 0.3))
        row = csv_row(report)
        assert len(row) == len(REPORT_FIELDS)
        values = dict(zip(REPORT_FIELDS, (float(x) for x in row)))
        assert values["d2_rel"] == pytest.approx(5.0 / 9.0, abs=1e-14)

    def test_report_field_order_snapshot(self):
        assert REPORT_FIELDS == (
            "n_mean", "n_var", "n1_var", "n2_var",
            "e_rel_re", "e_rel_im", "e1_re", "e1_im", "e2_re", "e2_im",
            "d2_rel", "d2_1", "d2_2",
            "hz_adagb_re", "hz_adagb_im", "hz_nanb", "hz_na", "hz_nb",
            "quad_sum",
        )

    def test_json_roundtrips(self):
        report = observable_report(split_fock_state(3, 0.2, 0.5))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["n_mean"] == pytest.approx(3.0, abs=1e-12)

    def test_dispersion_consistency_invariant(self, rng):
        for _ in range(10):
            report = observable_report(rand_pure(rng, 9))
            assert report.d2_rel == pytest.approx(
                1.0 - abs(report.e_rel) ** 2, abs=1e-14
            )
            assert report.d2_1 == pytest.approx(1.0 - abs(report.e1) ** 2, abs=1e-14)
            assert report.d2_2 == pytest.approx(1.0 - abs(report.e2) ** 2, abs=1e-14)

    @pytest.mark.parametrize("make", [
        lambda rng: two_mode_squeezed_state(0.5),
        lambda rng: two_mode_squeezed_state(2.0),
        lambda rng: rand_pure(rng, 9),
        lambda rng: number_phase_state(7, 0.4),
        lambda rng: split_fock_state(301, -0.2, 0.3),
        lambda rng: rand_mixture(rng, max_total=40, n_sectors=9),
        lambda rng: mixture_from_sector_amplitudes(
            gaussian_distribution(400.0, 10.0), lambda totals: fock._number_phase_amps(totals, 0.3)
        ),
    ], ids=["tmss_r0.5", "tmss_r2", "grid", "number_phase", "split_fock", "mixture",
            "gaussian_mixture"])
    def test_fields_equal_the_standalone_functions_bit_for_bit(self, rng, make):
        state = make(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationBiasWarning)
            report = observable_report(state)
            quad = quadrature_sum_variance(state)
        nm, hz, disp = number_moments(state), hz_moments(state), dispersions(state)
        want = {
            **nm._asdict(), "e_rel": exp_phase_relative(state),
            "e1": exp_phase_single(state, 1), "e2": exp_phase_single(state, 2),
            **disp._asdict(), **{f"hz_{k}": v for k, v in hz._asdict().items()}, "quad_sum": quad,
        }
        got = {k: getattr(report, k) for k in want}
        assert {k: (complex(v).real.hex(), complex(v).imag.hex()) for k, v in got.items()} == {
            k: (complex(v).real.hex(), complex(v).imag.hex()) for k, v in want.items()
        }

    @pytest.mark.parametrize("moments", [observable_report, quadrature_sum_variance])
    def test_edge_warning_points_at_the_caller(self, moments):
        with pytest.warns(TruncationBiasWarning) as record:
            moments(number_phase_state(3, 0.0))
        assert [w.filename for w in record] == [__file__]


@given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(1, 9))
@settings(max_examples=60)
def test_random_state_moment_bounds(seed, cutoff):
    rng = np.random.default_rng(seed)
    state = rand_pure(rng, cutoff)
    assert abs(exp_phase_relative(state)) <= 1.0 + 1e-12
    assert abs(exp_phase_single(state, 1)) <= 1.0 + 1e-12
    d = dispersions(state)
    assert 0.0 <= d.d2_rel <= 1.0
    nm = number_moments(state)
    assert nm.n_var >= -1e-12
    assert nm.n1_var >= -1e-12


@given(seed=st.integers(0, 2**32 - 1), phase=st.floats(-math.pi, math.pi))
@settings(max_examples=40)
def test_global_phase_invariance(seed, phase):
    rng = np.random.default_rng(seed)
    base = rand_pure(rng, 5)
    from npsteer import PureTwoModeState

    rotated = PureTwoModeState(base.coeffs * np.exp(1j * phase))
    a = observable_report(base)
    b = observable_report(rotated)
    assert a.e_rel == pytest.approx(b.e_rel, abs=1e-13)
    assert a.n_var == pytest.approx(b.n_var, abs=1e-12)
    assert a.quad_sum == pytest.approx(b.quad_sum, abs=1e-11)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_mixture_dispersion_never_below_best_sector(seed):
    # mixing cannot create phase coherence: |<E>| of the mixture is at most
    # the weighted average of per-sector |<E>|, so D^2 is at least the
    # weighted average of per-sector dispersions minus convexity slack
    rng = np.random.default_rng(seed)
    mix = rand_mixture(rng, max_total=7, n_sectors=3)
    e_mix = abs(exp_phase_relative(mix))
    weighted = sum(
        w * abs(exp_phase_relative(PureTwoModeState.from_sector(n, amps)))
        for n, w, amps in mixture_sectors(mix)
    )
    assert e_mix <= weighted + 1e-12


# The view sums scale a mixture's amplitudes by their roots a leaf of the pairwise tree at a
# time; the sums over the scaled copy that the view used to hold are the oracle, compared by the
# repr of every value. The leaf caps start at 64, the smallest the tree walker accepts.
VIEW_BLOCKS = [64, 65, 100, observables.VIEW_BLOCK]


@given(seed=st.integers(0, 2**32 - 1),
       totals=st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True).map(sorted))
@settings(max_examples=80)
def test_view_sums_of_raw_sectors_keep_the_scaled_copy_bits(seed, totals):
    """Zero-weight and all-zero sectors, single entries, signed zeros, and leaf caps from 64
    pairs (sectors split by leaf edges) to longer than the view."""
    amps, starts, totals, weights = raw_sectors(seed, totals)
    view = fock._weighted_view(amps, starts, totals, weights)
    want = oracle_weighted_view(amps, starts, totals, weights)
    for name in ("starts", "totals", "first_m"):
        assert np.array_equal(getattr(view, name), getattr(want, name))
    size = len(view.amps)
    assert view.scaled(0, size).tobytes() == want.amps.tobytes()
    state = SimpleNamespace(sector_view=view, cutoff=int(totals[-1]))
    for block in VIEW_BLOCKS:
        with mock.patch.object(observables, "VIEW_BLOCK", block):
            got = observables._view_sums(state)
        assert repr(got) == repr(oracle_view_sums(want, state.cutoff)), block


def _mixture_with_zero_weights():
    dist = fock.NumberDistribution([0, 2, 5, 9, 40], [0.3, 0.2, 0.0, 0.5, 0.0])
    amps = {n: rand_single(np.random.default_rng(n), n + 1) for n in (0, 2, 5, 9, 40)}
    return mixture_from_sector_amplitudes(dist, joined(lambda n: amps[n]))


VIEW_STATES = {
    "zero-weight mixture": _mixture_with_zero_weights,
    "random mixture": lambda: rand_mixture(np.random.default_rng(3), max_total=60, n_sectors=12),
    "gaussian(400, 40) mixture": lambda: flat_mixture(gaussian_distribution(400.0, 40.0)),
    "split_fock poissonian mixture": lambda: flat_mixture(
        poissonian_distribution(30.0), "split_fock", -0.4, 0.3),
    "number_phase n=7": lambda: number_phase_state(7, -1.1),
    "split_fock n=301": lambda: split_fock_state(301, -0.2, 0.3),
    "tmss r=0.5 (diagonal)": lambda: two_mode_squeezed_state(0.5),
    "tmss r=2 (diagonal)": lambda: two_mode_squeezed_state(2.0),
    **{f"grid {case}": GRID_CASES[case] for case in ("random-D2", "random-D37")},
}


@pytest.mark.parametrize("block", [64, observables.VIEW_BLOCK])
@pytest.mark.parametrize("case", VIEW_STATES)
def test_view_sums_keep_the_scaled_copy_bits(case, block, monkeypatch):
    """Mixtures and pure states of each kind: fixed-total, diagonal and grid."""
    state = VIEW_STATES[case]()
    monkeypatch.setattr(observables, "VIEW_BLOCK", block)
    got = observables._view_sums(state)
    assert repr(got) == repr(oracle_view_sums(oracle_scaled_view(state), state.cutoff))


def _ending_in_one_pair(total: int) -> np.ndarray:
    """Sector amplitudes that are all but nil before their last pair, so that the view sums take
    that pair's product bits: numpy (2.4, x86-64) multiplies it in place in a one-element array
    with other rounding than in a longer one."""
    return np.concatenate((np.full(total - 1, 1e-30), [0.13 - 0.13j, 0.64 + 0.1j]))


def _mixture(totals: list[int]):
    dist = fock.NumberDistribution(totals, [1.0 / len(totals)] * len(totals))
    return mixture_from_sector_amplitudes(dist, joined(_ending_in_one_pair))


EDGE_VIEWS = {
    "two entries, pure": lambda block: PureTwoModeState.from_sector(1, _ending_in_one_pair(1)),
    "two entries, mixture": lambda block: _mixture([1]),
    # 2 * block + 1 pairs: fixed blocks of ``block`` pairs would leave the last pair alone
    "one pair past a block edge, pure": lambda block: PureTwoModeState.from_sector(
        2 * block + 1, _ending_in_one_pair(2 * block + 1)),
    "one pair past a block edge, mixture": lambda block: _mixture([20, 2 * block - 20]),
}


@pytest.mark.parametrize("block", VIEW_BLOCKS)
@pytest.mark.parametrize("case", EDGE_VIEWS)
def test_view_sums_of_one_pair_and_past_a_block_edge_keep_the_bits(case, block, monkeypatch):
    """Views whose last pair a block of its own would hold alone: a leaf of the pairwise tree
    is one pair only when the whole view is, and the oracle then multiplies that pair alone too."""
    state = EDGE_VIEWS[case](block)
    monkeypatch.setattr(observables, "VIEW_BLOCK", block)
    got = observables._view_sums(state)
    assert repr(got) == repr(oracle_view_sums(oracle_scaled_view(state), state.cutoff))


def test_mixture_view_reads_its_amplitudes_in_place():
    mix = flat_mixture(gaussian_distribution(400.0, 40.0))
    view = mix.sector_view
    assert np.shares_memory(view.amps, mix.amps) and view.starts is mix.starts
    assert view.roots.tobytes() == np.sqrt(mix.weights()).tobytes()
    dropped = _mixture_with_zero_weights().sector_view  # a copy of the kept sectors alone
    assert dropped.totals.tolist() == [0, 2, 9] and not dropped.amps.flags.writeable


def test_view_sums_scale_each_amplitude_once():
    # each leaf of the pairwise tree scales its entries and the next one: at most size + leaves
    # entries a report, where scaling |amps|^2 and the pairs in passes of their own makes 2 size
    mix = flat_mixture(gaussian_distribution(400.0, 40.0))
    size = len(mix.amps)
    leaves = []
    fock._pairwise_sum(size - 1, lambda lo, hi: leaves.append(hi - lo) or 0j,
                       observables.VIEW_BLOCK)
    with mock.patch.object(fock.SectorView, "scaled", autospec=True,
                           side_effect=fock.SectorView.scaled) as scaled:
        observables._view_sums(mix)
    formed = sum(hi - lo for _, lo, hi in (c.args for c in scaled.call_args_list))
    assert len(leaves) > 1 and formed <= size + len(leaves)


def test_mixture_report_holds_no_scaled_copy():
    # |amps|^2, the two levels and one float temporary (32 bytes an entry), and one leaf's
    # arrays; the scaled copy of the amplitudes (16 bytes an entry) breaks the bound
    mix = flat_mixture(gaussian_distribution(400.0, 40.0))
    size = len(mix.amps)
    peak = traced_peak(lambda: observable_report(mix))
    assert peak < 32 * size + 2 * 16 * observables.VIEW_BLOCK + (1 << 18)
