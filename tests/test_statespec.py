import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npsteer import (
    PureTwoModeState,
    SectorMixture,
    number_phase_state,
    parse_state_spec,
    split_fock_state,
    two_mode_squeezed_state,
)
from npsteer import fock, statespec
from npsteer.fock import (
    ArraySizeError,
    gaussian_distribution,
    mixture_from_sector_amplitudes,
    poissonian_distribution,
)
from npsteer.statespec import SWEEP_KEYS, StateSpec, StateSpecError, load_state_spec

from oracles import mixture_sectors, oracle_sector_amplitudes


class TestParsing:
    def test_number_phase_round_trip(self):
        spec = parse_state_spec('{"family": "number_phase", "n": 3, "phi": 0.5}')
        assert spec.family == "number_phase"
        state = spec.build()
        want = number_phase_state(3, 0.5)
        assert np.allclose(state.coeffs, want.coeffs)

    def test_split_fock_defaults(self):
        spec = parse_state_spec('{"family": "split_fock", "n": 4}')
        state = spec.build()
        want = split_fock_state(4, 0.0, 0.5)
        assert np.allclose(state.coeffs, want.coeffs)

    def test_tmss_with_fixed_cutoff(self):
        spec = parse_state_spec('{"family": "tmss", "r": 0.5, "cutoff": 40}')
        state = spec.build()
        assert isinstance(state, PureTwoModeState)
        assert state.cutoff == 40

    def test_mixture_with_poissonian_noise(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "poissonian", "mean": 2.0}}'
        )
        state = spec.build()
        assert isinstance(state, SectorMixture)
        dist = poissonian_distribution(2.0)
        got = dict(zip(state.totals().tolist(), state.weights()))
        for n, p in zip(dist.support, dist.masses):
            assert got.get(int(n), 0.0) == pytest.approx(float(p), abs=1e-15)

    def test_point_noise_gives_single_sector(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "split_fock",'
            ' "transmissivity": 0.3, "noise": {"kind": "point", "n": 5}}'
        )
        state = spec.build()
        assert state.totals().tolist() == [5]
        assert state.weights().tolist() == [1.0]

    def test_file_loading(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"family": "number_phase", "n": 1}')
        spec = load_state_spec(str(path))
        assert spec.family == "number_phase"

    def test_inline_text_detected_by_leading_brace(self):
        spec = load_state_spec('  {"family": "number_phase", "n": 1}')
        assert spec.family == "number_phase"

    def test_missing_file_reported(self):
        with pytest.raises(StateSpecError, match="cannot read"):
            load_state_spec("/nonexistent/state.json")


class TestValidation:
    def test_unknown_family_lists_known_ones(self):
        with pytest.raises(StateSpecError) as err:
            parse_state_spec('{"family": "coherent"}')
        for name in ("number_phase", "split_fock", "tmss", "mixture"):
            assert name in str(err.value)

    def test_unknown_key_lists_allowed_ones(self):
        with pytest.raises(StateSpecError, match="phi"):
            parse_state_spec('{"family": "number_phase", "n": 1, "theta": 0.2}')

    def test_missing_required_key(self):
        with pytest.raises(StateSpecError, match="n"):
            parse_state_spec('{"family": "number_phase"}')

    def test_unknown_noise_kind_lists_kinds(self):
        with pytest.raises(StateSpecError) as err:
            parse_state_spec(
                '{"family": "mixture", "base": "number_phase",'
                ' "noise": {"kind": "uniform", "mean": 1.0}}'
            )
        for name in ("poissonian", "thermal", "gaussian", "point"):
            assert name in str(err.value)

    def test_boolean_not_accepted_as_integer(self):
        with pytest.raises(StateSpecError, match="integer"):
            parse_state_spec('{"family": "number_phase", "n": true}')

    def test_fractional_photon_number_rejected(self):
        with pytest.raises(StateSpecError, match="integer"):
            parse_state_spec('{"family": "number_phase", "n": 2.5}')

    def test_non_finite_parameter_rejected(self):
        with pytest.raises(StateSpecError, match="finite"):
            parse_state_spec('{"family": "tmss", "r": NaN}')

    @pytest.mark.parametrize("key", ["phi", "transmissivity"])
    def test_integer_beyond_the_float_range_names_its_key(self, key):
        text = f'{{"family": "split_fock", "n": 1, "{key}": 1{"0" * 400}}}'
        with pytest.raises(StateSpecError, match=f"key '{key}': int too large to convert to float"):
            parse_state_spec(text)

    def test_transmissivity_requires_split_base(self):
        with pytest.raises(StateSpecError, match="transmissivity"):
            parse_state_spec(
                '{"family": "mixture", "base": "number_phase",'
                ' "transmissivity": 0.4, "noise": {"kind": "point", "n": 2}}'
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(StateSpecError, match="JSON"):
            parse_state_spec('{"family": "number_phase", "n": ')

    def test_top_level_must_be_object(self):
        with pytest.raises(StateSpecError, match="object"):
            parse_state_spec('["number_phase", 1]')


class TestTailTolerance:
    def test_spec_value_overrides_build_argument(self):
        loose = parse_state_spec('{"family": "tmss", "r": 1.0, "tail_tol": 1e-4}')
        strict = parse_state_spec('{"family": "tmss", "r": 1.0}')
        c_loose = loose.build(tail_tol=1e-12).cutoff
        c_strict = strict.build(tail_tol=1e-12).cutoff
        assert c_loose < c_strict

    def test_build_argument_overrides_default(self):
        spec = parse_state_spec('{"family": "tmss", "r": 1.0}')
        assert spec.build(tail_tol=1e-4).cutoff < spec.build().cutoff

    def test_default_matches_explicit_default(self):
        spec = parse_state_spec('{"family": "tmss", "r": 0.8}')
        want = two_mode_squeezed_state(0.8, tail_tol=1e-10)
        assert spec.build().cutoff == want.cutoff


class TestSweepParameters:
    def test_n_updates_photon_number(self):
        spec = parse_state_spec('{"family": "number_phase", "n": 1}')
        state = spec.with_param("N", 4.0).build()
        assert np.allclose(state.coeffs, number_phase_state(4, 0.0).coeffs)

    def test_n_must_land_on_an_integer(self):
        spec = parse_state_spec('{"family": "number_phase", "n": 1}')
        with pytest.raises(StateSpecError, match="integer"):
            spec.with_param("N", 2.5)

    def test_r_updates_squeezing(self):
        spec = parse_state_spec('{"family": "tmss", "r": 0.2}')
        assert spec.with_param("r", 1.0).params["r"] == 1.0

    def test_mean_updates_noise(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "thermal", "mean": 1.0}}'
        )
        out = spec.with_param("mean", 3.0)
        assert out.params["noise"]["mean"] == 3.0
        assert spec.params["noise"]["mean"] == 1.0  # original untouched

    def test_std_rejected_for_noise_without_width(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "poissonian", "mean": 1.0}}'
        )
        with pytest.raises(StateSpecError, match="std"):
            spec.with_param("std", 2.0)

    def test_std_updates_gaussian_noise(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "gaussian", "mean": 50.0, "std": 4.0}}'
        )
        assert spec.with_param("std", 6.0).params["noise"]["std"] == 6.0

    def test_transmissivity_applies_to_split_mixture(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "split_fock",'
            ' "noise": {"kind": "point", "n": 3}}'
        )
        assert spec.with_param("transmissivity", 0.7).params["transmissivity"] == 0.7

    def test_unsweepable_combination_rejected(self):
        spec = parse_state_spec('{"family": "tmss", "r": 0.2}')
        with pytest.raises(StateSpecError, match="sweep"):
            spec.with_param("mean", 3.0)


class TestStateSpecObject:
    def test_direct_construction_validates_family(self):
        with pytest.raises(StateSpecError, match="family"):
            StateSpec("squeezed_cat", {})

    def test_mixture_build_matches_manual_construction(self):
        spec = parse_state_spec(
            '{"family": "mixture", "base": "split_fock", "phi": 0.3,'
            ' "transmissivity": 0.6, "noise": {"kind": "thermal", "mean": 1.5}}'
        )
        state = spec.build()
        for total, _, amps in mixture_sectors(state):
            want = oracle_sector_amplitudes(split_fock_state(total, 0.3, 0.6), total)
            overlap = abs(np.vdot(want, amps))
            assert overlap == pytest.approx(1.0, abs=1e-12)


# One built state per family, and a mixture per noise kind and base.
TRACED_SPECS = [
    {"family": "number_phase", "n": 3, "phi": 0.2},
    {"family": "split_fock", "n": 4, "transmissivity": 0.3},
    {"family": "tmss", "r": 0.5},
    {"family": "mixture", "base": "number_phase", "noise": {"kind": "poissonian", "mean": 3.0}},
    {"family": "mixture", "base": "number_phase", "noise": {"kind": "thermal", "mean": 1.0}},
    {"family": "mixture", "base": "number_phase", "noise": {"kind": "gaussian", "mean": 40.0, "std": 4.0}},
    {"family": "mixture", "base": "split_fock", "noise": {"kind": "point", "n": 5}},
]


@pytest.mark.parametrize("spec", TRACED_SPECS, ids=lambda s: json.dumps(s))
def test_built_states_expose_what_the_tracer_reads(spec):
    """perfbench/tracer.py sizes a built state from ``coeffs`` and ``cutoff`` if it has a
    grid, else from ``len(sectors)`` and the ``amps.nbytes`` of each sector triple's third
    element. For a mixture those are the flat arrays' sizes, read through views."""
    state = parse_state_spec(json.dumps(spec)).build()
    if isinstance(state, PureTwoModeState):
        assert state.coeffs.shape == (state.cutoff + 1, state.cutoff + 1)
        return
    assert len(state.sectors) == len(state.totals())
    assert sum(s.amps.nbytes for _, _, s in state.sectors) == state.amps.nbytes
    for (n, w, s), lo, hi in zip(state.sectors, state.starts[:-1], state.starts[1:]):
        assert np.shares_memory(s.amps, state.amps)
        assert s.amps.tobytes() == state.amps[lo:hi].tobytes()
    assert [(n, w) for n, w, _ in state.sectors] == list(
        zip(state.totals().tolist(), state.weights().tolist())
    )


def edited_spec(spec: dict, var: str, value) -> dict:
    """``spec`` with the key ``var`` sets put to ``value`` as JSON would hold it: a value of N
    within 1e-9 of an integer is that integer, as a sweep rounds it."""
    if var == "N" and math.isfinite(value) and abs(value - round(value)) <= 1e-9:
        value = round(value)
    out = json.loads(json.dumps(spec))
    *parents, key = SWEEP_KEYS[var]
    target = out
    for part in parents:
        target = target.setdefault(part, {})
    target[key] = value
    return out


SWEEP_VALUES = st.one_of(
    st.integers(-5, 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 2.5, -1.0, -0.5, 3 + 1e-10, 3 - 5e-10, 3 + 1e-6, 1e300, -1e300]),
)


@given(spec=st.sampled_from(TRACED_SPECS), var=st.sampled_from(list(SWEEP_KEYS)),
       value=SWEEP_VALUES)
@settings(max_examples=300)
def test_a_sweep_point_is_the_parsed_edited_spec(spec, var, value):
    """``with_param`` gives what ``parse_state_spec`` gives for the edited JSON, or both refuse."""
    edited = json.dumps(edited_spec(spec, var, value))
    try:
        want = parse_state_spec(edited)
    except StateSpecError:
        with pytest.raises(StateSpecError):
            parse_state_spec(json.dumps(spec)).with_param(var, value)
        return
    assert parse_state_spec(json.dumps(spec)).with_param(var, value) == want



class _ReachedAmplitudes(Exception):
    """The build got past every size check to the sector amplitudes."""


def _reach_amplitudes(totals):
    raise _ReachedAmplitudes


@pytest.mark.parametrize("mean,tol", [(3e4, 1e-10), (2e3, 1e-10), (1e5, 0.5)])
def test_early_gaussian_refusal_keeps_the_build_first_outcome(monkeypatch, mean, tol):
    """A spec's wide gaussian mixture is refused from a bound on its sectors before the
    support is built. Near both the early check's boundary and that of the mixture's own
    check, found by bisection on std, the spec exits as building the support first does."""
    monkeypatch.setattr(fock, "_number_phase_amps", lambda totals, phi: _reach_amplitudes(totals))

    def outcome(build) -> str:
        try:
            build()
        except ArraySizeError:
            return "refused"
        except _ReachedAmplitudes:
            return "built"
        raise AssertionError("the build neither refused nor reached the amplitudes")

    def spec_outcome(std: float) -> str:
        spec = {"family": "mixture", "base": "number_phase", "tail_tol": tol,
                "noise": {"kind": "gaussian", "mean": mean, "std": std}}
        return outcome(parse_state_spec(json.dumps(spec)).build)

    def build_first(std: float) -> str:  # the standalone distribution builds at any width
        dist = gaussian_distribution(mean, std, tail_tol=tol)
        return outcome(lambda: mixture_from_sector_amplitudes(dist, _reach_amplitudes))

    def early_outcome(std: float) -> str:  # "built" once the early check lets the support be built
        with monkeypatch.context() as m:
            m.setattr(statespec, "gaussian_distribution",
                      lambda *a, **k: _reach_amplitudes(None))
            return spec_outcome(std)

    def boundary(refused) -> tuple[float, float]:
        lo, hi = 1.0, 1e4
        assert not refused(lo) and refused(hi)
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if refused(mid) else (mid, hi)
        return lo, hi

    early = boundary(lambda std: early_outcome(std) == "refused")
    late = boundary(lambda std: build_first(std) == "refused")
    assert late[1] <= early[1]  # the early bound never refuses a mixture that would build
    for std in (*early, *late):
        assert spec_outcome(std) == build_first(std)


def _mixture_bytes(state) -> tuple[bytes, bytes, bytes]:
    return state.totals().tobytes(), state.weights().tobytes(), state.amps.tobytes()


def _noise_spec(base: str, phi: float, noise: dict) -> StateSpec:
    spec = {"family": "mixture", "base": base, "phi": phi, "noise": noise}
    if base == "split_fock":
        spec["transmissivity"] = 0.3
    return parse_state_spec(json.dumps(spec))


# A noise sweep's two points, (noise, variable, value), for each way their supports can meet.
SUPPORT_CHANGES = {
    "widen": ({"kind": "gaussian", "mean": 400.0, "std": 10.0}, "std", 14.0),
    "narrow": ({"kind": "gaussian", "mean": 400.0, "std": 14.0}, "std", 10.0),
    "shift": ({"kind": "gaussian", "mean": 260.0, "std": 10.0}, "mean", 300.0),  # across N = 300
    "disjoint": ({"kind": "gaussian", "mean": 100.0, "std": 5.0}, "mean", 400.0),
    "shift and widen": ({"kind": "poissonian", "mean": 20.0}, "mean", 80.0),
}


@pytest.mark.parametrize("phi", [0.0, 0.7, -2.3])
@pytest.mark.parametrize("base", ["number_phase", "split_fock"])
@pytest.mark.parametrize("change", SUPPORT_CHANGES)
def test_noise_sweep_point_from_the_previous_state_has_the_standalone_bytes(change, base, phi):
    noise, var, value = SUPPORT_CHANGES[change]
    spec = _noise_spec(base, phi, noise)
    previous = spec.build()
    point = spec.with_param(var, value)
    state = point.build(previous=previous)
    assert _mixture_bytes(state) == _mixture_bytes(point.build())
    old, new = set(previous.totals().tolist()), set(state.totals().tolist())
    shifted = bool(old & new) and min(old) < min(new) and max(old) < max(new)
    assert {
        "widen": old < new,
        "narrow": new < old,
        "shift": shifted,
        "disjoint": not old & new,
        "shift and widen": shifted and len(old) < len(new),
    }[change]


NOISE_RANGES = {"mean": st.floats(20.0, 700.0), "std": st.floats(1.0, 40.0)}


@given(
    base=st.sampled_from(["number_phase", "split_fock"]),
    phi=st.sampled_from([0.0, 1e-3, 0.7, -2.3, 3.1]),
    t=st.floats(0.05, 0.999),
    var=st.sampled_from(sorted(NOISE_RANGES)),
    data=st.data(),
)
@settings(max_examples=40)
def test_noise_sweep_of_mixtures_from_previous_states_has_the_standalone_bytes(
    base, phi, t, var, data
):
    """Each point of a mean or std sweep, built from the state of the point before it,
    equals ``spec.with_param(var, value).build()`` byte for byte."""
    noise = {"kind": "gaussian", **{k: data.draw(r) for k, r in NOISE_RANGES.items()}}
    spec = {"family": "mixture", "base": base, "phi": phi, "noise": noise}
    if base == "split_fock":
        spec["transmissivity"] = t
    spec = parse_state_spec(json.dumps(spec))
    state = spec.build()
    for value in data.draw(st.lists(NOISE_RANGES[var], min_size=1, max_size=3)):
        point = spec.with_param(var, value)
        state = point.build(previous=state)
        assert _mixture_bytes(state) == _mixture_bytes(point.build())
