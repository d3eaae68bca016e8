"""Acceptance gate: one test per release criterion.

Each test carries the full tolerance budget it must meet; run with -v to get
a one-line pass/fail verdict per criterion.
"""
import json
import math
import time

import numpy as np
import pytest

from npsteer import (
    PureTwoModeState,
    SectorState,
    boundary_curves,
    dispersions,
    exp_phase_relative,
    exp_phase_single,
    gaussian_distribution,
    hz_criteria,
    hz_moments,
    joint_local_phase_density,
    mixture_over_sectors,
    np_entanglement,
    np_steering,
    number_moments,
    number_phase_state,
    observable_report,
    poissonian_distribution,
    quadrature_sum_variance,
    relative_phase_density,
    single_mode_ur_check,
    split_fock_state,
    thermal_distribution,
    two_mode_squeezed_state,
)
from npsteer.cli import main as cli_main

from oracles import (
    oracle_moments, rand_mixture, rand_product, rand_pure, relative_marginal_from_joint,
    single_mode_moments,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::npsteer.observables.TruncationBiasWarning"
)


def test_criterion_01_flat_pair_states_closed_forms_and_verdicts():
    for n in range(0, 51):
        phi = 0.3 * n
        state = number_phase_state(n, phi)
        report = observable_report(state)
        e_want = np.exp(1j * phi) * n / (n + 1.0)
        d2_want = (2.0 * n + 1.0) / (n + 1.0) ** 2
        assert abs(report.e_rel - e_want) <= 1e-12
        assert abs(report.d2_rel - d2_want) <= 1e-12
        ent, steer = np_entanglement(report), np_steering(report)
        if n == 0:
            assert not ent.violated and not steer.violated
        else:
            assert ent.violated and steer.violated


def test_criterion_02_balanced_splitting_moments_and_verdicts():
    for n in range(1, 31):
        report = observable_report(split_fock_state(n, 0.0, 0.5))
        e_want = sum(
            math.sqrt(math.comb(n, m) * math.comb(n, m - 1))
            for m in range(1, n + 1)
        ) / 2.0**n
        assert abs(report.d2_rel - (1.0 - e_want**2)) <= 1e-12
        assert abs(report.hz_na - n / 2.0) <= 1e-12
        assert abs(report.hz_nb - n / 2.0) <= 1e-12
        assert abs(abs(report.hz_adagb) ** 2 - n * n / 4.0) <= 1e-12
        assert abs(report.hz_nanb - n * (n - 1) / 4.0) <= 1e-12
        hz = hz_criteria(report)
        assert hz.ent.violated
        assert not hz.steer_a_by_b.violated
        assert not hz.steer_b_by_a.violated
        assert np_steering(report).violated


def test_criterion_03_squeezed_states_with_automatic_truncation():
    for r in (0.25, 0.5, 1.0, 1.5):
        state = two_mode_squeezed_state(r)
        report = observable_report(state)
        assert abs(report.n_var - math.sinh(2.0 * r) ** 2) <= 1e-6
        assert abs(report.d2_rel - 1.0) <= 1e-10
        assert not np_entanglement(report).violated
        assert not np_steering(report).violated
        assert abs(report.quad_sum - 2.0 * math.exp(-2.0 * r)) <= 1e-6


def test_criterion_04_poissonian_dephasing_dispersion():
    for mean in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        mix = mixture_over_sectors(
            poissonian_distribution(mean), lambda n: number_phase_state(n, 0.0)
        )
        report = observable_report(mix)
        e_want = (mean - 1.0 + math.exp(-mean)) / mean
        assert abs(report.d2_rel - (1.0 - e_want**2)) <= 1e-8
        assert not np_entanglement(report).violated
        assert not np_steering(report).violated


def test_criterion_05_thermal_dephasing_moments():
    for mean in (0.5, 1.0, 2.0, 5.0):
        mix = mixture_over_sectors(
            thermal_distribution(mean), lambda n: number_phase_state(n, 0.0)
        )
        report = observable_report(mix)
        assert abs(report.n_var - mean * (mean + 1.0)) <= 1e-8
        e_want = 1.0 - math.log(mean + 1.0) / mean
        assert abs(report.e_rel.real - e_want) <= 1e-8
        assert abs(report.e_rel.imag) <= 1e-12
        assert not np_entanglement(report).violated
        assert not np_steering(report).violated


def test_criterion_06_gaussian_noise_thresholds_at_large_mean():
    mean = 400.0

    def report_at(std: float):
        mix = mixture_over_sectors(
            gaussian_distribution(mean, std), lambda n: number_phase_state(n, 0.0)
        )
        return observable_report(mix)

    def crossing_n_var(criterion, lo: float, hi: float) -> float:
        assert criterion(report_at(lo)).margin > 0.0
        assert criterion(report_at(hi)).margin < 0.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if criterion(report_at(mid)).margin > 0.0:
                lo = mid
            else:
                hi = mid
        root = report_at(0.5 * (lo + hi))
        assert abs(root.d2_rel - 2.0 / mean) <= 0.02 * (2.0 / mean)
        return root.n_var

    ent_n_var = crossing_n_var(np_entanglement, 8.0, 20.0)
    assert abs(ent_n_var - mean / 2.0) <= 0.05 * (mean / 2.0)
    steer_n_var = crossing_n_var(np_steering, 4.0, 10.0)
    assert abs(steer_n_var - mean / 8.0) <= 0.05 * (mean / 8.0)


def test_criterion_07_single_mode_uncertainty_floor():
    grid = np.linspace(1e-4, 1.0, 10_000)
    curve = boundary_curves("UR_FIG1", grid).threshold
    k = int(np.argmin(curve))
    assert abs(curve[k] - 0.75) <= 1e-6
    assert abs(grid[k] - 0.5) <= grid[1] - grid[0]

    rng = np.random.default_rng(715)
    for _ in range(10_000):
        amps = rng.normal(size=21) + 1j * rng.normal(size=21)
        amps /= np.linalg.norm(amps)
        _, n_var, d2 = single_mode_moments(amps)
        v = single_mode_ur_check(n_var, d2)
        assert v.lhs - v.bound >= -1e-10


def test_criterion_08_phase_distribution_consistency_under_a_minute():
    t0 = time.monotonic()
    states = [
        number_phase_state(7, 0.4),
        split_fock_state(6, -0.2, 0.5),
        two_mode_squeezed_state(0.7, cutoff=28),
        mixture_over_sectors(
            poissonian_distribution(3.0), lambda n: number_phase_state(n, 0.1)
        ),
        mixture_over_sectors(
            thermal_distribution(0.5), lambda n: split_fock_state(n, 0.0, 0.5)
        ),
    ]
    for state in states:
        assert state.cutoff <= 30
        density = relative_phase_density(state)
        e_direct = exp_phase_relative(state)
        assert abs(density.moment(1) - e_direct) <= 1e-8
        if isinstance(state, PureTwoModeState):
            joint = joint_local_phase_density(state)
            marginal = relative_marginal_from_joint(joint)
            direct = relative_phase_density(state, grid_size=joint.values.shape[0])
            assert np.max(np.abs(marginal.values - direct.values)) <= 1e-6
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_product_states_stay_unflagged_and_compose():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        state = rand_product(rng, 10)
        report = observable_report(state)
        ent, steer = np_entanglement(report), np_steering(report)
        assert ent.lhs - ent.bound >= -1e-10
        assert steer.lhs - steer.bound >= -1e-10
        composed = report.d2_1 + report.d2_2 - report.d2_1 * report.d2_2
        assert abs(report.d2_rel - composed) <= 1e-12


def test_criterion_10_sampling_accuracy_and_reproducibility(tmp_path):
    t0 = time.monotonic()
    spec = '{"family": "number_phase", "n": 3}'
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--state", spec, "--shots", "1000000", "--seed", "42"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        (tmp_path / "a.csv.est.json").read_bytes()
        == (tmp_path / "b.csv.est.json").read_bytes()
    )
    est = json.loads((tmp_path / "a.csv.est.json").read_text())
    assert abs(est["d2_hat"] - 7.0 / 16.0) <= 5.0 * est["std_error"]
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_dense_operator_oracle_equivalence():
    rng = np.random.default_rng(1111)
    for i in range(100):
        if i % 3 == 2:
            state = rand_mixture(rng, 12, 5)
        else:
            state = rand_pure(rng, int(rng.integers(4, 13)))
        want = oracle_moments(state)
        n_mean, n_var, n1_var, n2_var = number_moments(state)
        assert n_mean == pytest.approx(want["n_mean"], rel=1e-12, abs=1e-12)
        assert n_var == pytest.approx(want["n_var"], rel=1e-12, abs=1e-12)
        assert n1_var == pytest.approx(want["n1_var"], rel=1e-12, abs=1e-12)
        assert n2_var == pytest.approx(want["n2_var"], rel=1e-12, abs=1e-12)
        assert exp_phase_relative(state) == pytest.approx(
            want["e_rel"], rel=1e-12, abs=1e-12
        )
        assert exp_phase_single(state, 1) == pytest.approx(
            want["e1"], rel=1e-12, abs=1e-12
        )
        assert exp_phase_single(state, 2) == pytest.approx(
            want["e2"], rel=1e-12, abs=1e-12
        )
        hz = hz_moments(state)
        assert hz.adagb == pytest.approx(want["adagb"], rel=1e-12, abs=1e-12)
        assert hz.nanb == pytest.approx(want["nanb"], rel=1e-12, abs=1e-12)
        assert hz.na == pytest.approx(want["na"], rel=1e-12, abs=1e-12)
        assert hz.nb == pytest.approx(want["nb"], rel=1e-12, abs=1e-12)
        assert quadrature_sum_variance(state) == pytest.approx(
            want["quad_sum"], rel=1e-12, abs=1e-12
        )
