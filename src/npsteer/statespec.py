"""Parsing and building of state specifications given as JSON.

A spec is a JSON object with a ``family`` key and family-specific fields:

    {"family": "number_phase", "n": 3, "phi": 0.0}
    {"family": "split_fock", "n": 2, "phi": 0.0, "transmissivity": 0.5}
    {"family": "tmss", "r": 1.0, "cutoff": 40, "tail_tol": 1e-10}
    {"family": "mixture", "base": "number_phase", "phi": 0.0,
     "noise": {"kind": "poissonian", "mean": 5.0}, "tail_tol": 1e-10}

``_FAMILIES`` and ``_NOISE`` hold the keys and the builder of each family and noise kind,
and ``SWEEP_KEYS`` the key each sweep variable sets. ``tail_tol`` inside the spec overrides
any value supplied by the caller. Unknown families, keys, and noise kinds are rejected with
the list of known ones.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import fock
from .fock import (
    DEFAULT_TAIL_TOL,
    NumberDistribution,
    State,
    gaussian_distribution,
    mixture_from_sector_amplitudes,
    number_phase_state,
    poissonian_distribution,
    split_fock_state,
    thermal_distribution,
    two_mode_squeezed_state,
)


class StateSpecError(ValueError):
    """A state specification that cannot be parsed or built."""


def _require_keys(obj: dict, allowed: dict, context: str) -> dict:
    """Check key names and coerce values; ``allowed`` maps key -> (coerce, required)."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise StateSpecError(
            f"unknown {context} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    out = {}
    for key, (coerce, required) in allowed.items():
        if key in obj:
            try:
                out[key] = coerce(obj[key])
            except (TypeError, ValueError) as exc:
                raise StateSpecError(f"bad value for {context} key {key!r}: {exc}") from exc
        elif required:
            raise StateSpecError(f"missing required {context} key {key!r}")
    return out


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _as_base(value) -> str:
    if value not in tuple(_MIXTURE_BASES):
        raise ValueError(f"{value!r} is not one of {', '.join(_MIXTURE_BASES)}")
    return value


def _gaussian_noise(q: dict, tol: float) -> NumberDistribution:
    """Gaussian noise for a mixture. A support whose mixture is too large is refused
    before it is built, from a lower bound on the sectors it keeps."""
    mean, std = q["mean"], q["std"]
    sectors = fock._gaussian_kept_sectors(mean, std, tol)
    what = f"gaussian noise mean={mean!r}, std={std!r}: a mixture of at least {sectors:,} sectors"
    fock.require_mixture_sectors(sectors, what)
    return gaussian_distribution(mean, std, tail_tol=tol)


# Each family and noise kind: its keys, as key -> (coerce, required), and its builder, which
# takes the checked keys and the tail tolerance in effect. A builder looks its constructor up
# in this module's globals when called, so a wrapper put there sees every call.
_MEAN = {"mean": (_as_float, True)}
_NOISE = {
    "poissonian": (_MEAN, lambda q, tol: poissonian_distribution(q["mean"], tail_tol=tol)),
    "thermal": (_MEAN, lambda q, tol: thermal_distribution(q["mean"], tail_tol=tol)),
    "gaussian": ({**_MEAN, "std": (_as_float, True)}, _gaussian_noise),
    "point": ({"n": (_as_int, True)}, lambda q, tol: NumberDistribution.point(q["n"])),
}
# The flat sector kernel of each mixture base, given the mixture's keys.
_MIXTURE_BASES = {
    "number_phase": lambda p: lambda totals: fock._number_phase_amps(totals, p.get("phi", 0.0)),
    "split_fock": lambda p: lambda totals: fock._split_fock_amps(
        totals, p.get("phi", 0.0), p.get("transmissivity", 0.5)
    ),
}
_FAMILIES = {
    "number_phase": (
        {"n": (_as_int, True), "phi": (_as_float, False)},
        lambda p, tol: number_phase_state(p["n"], p.get("phi", 0.0)),
    ),
    "split_fock": (
        {"n": (_as_int, True), "phi": (_as_float, False), "transmissivity": (_as_float, False)},
        lambda p, tol: split_fock_state(p["n"], p.get("phi", 0.0), p.get("transmissivity", 0.5)),
    ),
    "tmss": (
        {"r": (_as_float, True), "cutoff": (_as_int, False), "tail_tol": (_as_float, False)},
        lambda p, tol: two_mode_squeezed_state(p["r"], cutoff=p.get("cutoff"), tail_tol=tol),
    ),
    "mixture": (
        {"base": (_as_base, True), "phi": (_as_float, False),
         "transmissivity": (_as_float, False), "noise": (dict, True),
         "tail_tol": (_as_float, False)},
        lambda p, tol, previous=None: mixture_from_sector_amplitudes(
            _NOISE[p["noise"]["kind"]][1](p["noise"], tol), _MIXTURE_BASES[p["base"]](p), previous
        ),
    ),
}
FAMILIES = tuple(_FAMILIES)
NOISE_KINDS = tuple(_NOISE)
# Each sweep variable and the spec key it sets; mean and std set a key of a mixture's noise.
SWEEP_KEYS = {"N": ("n",), "r": ("r",), "mean": ("noise", "mean"), "std": ("noise", "std"),
              "transmissivity": ("transmissivity",)}


@dataclass(frozen=True)
class StateSpec:
    """A validated state specification; ``build`` turns it into a state."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StateSpecError(
                f"unknown family {self.family!r}; known families: {', '.join(FAMILIES)}"
            )

    def with_param(self, name: str, value) -> "StateSpec":
        """Copy of this spec with the key that sweep variable ``name`` sets replaced by
        ``value``, checked as ``parse_state_spec`` checks a spec.

        N within 1e-9 of an integer is rounded to it. A variable whose key this family or
        noise kind does not have is not sweepable.
        """
        *parents, key = SWEEP_KEYS.get(name, (None,))
        obj = {"family": self.family, **self.params}
        target, keys, where = obj, _FAMILIES[self.family][0], f"family {self.family!r}"
        if parents and parents[0] in keys:  # "noise": the key is one of the noise kind's
            target = obj["noise"] = dict(obj["noise"])
            keys, where = _NOISE[target["kind"]][0], f"{target['kind']} noise"
        if key not in keys:
            raise StateSpecError(f"parameter {name!r} is not sweepable for {where}")
        if name == "N" and math.isfinite(value) and abs(value - round(value)) <= 1e-9:
            value = round(value)
        target[key] = value
        return _checked(obj)

    def build(self, tail_tol: float | None = None, previous: State | None = None) -> State:
        """Construct the state; spec-level tail_tol overrides the argument.

        The tolerance in effect must be finite with 0 < tail_tol < 1: a
        tolerance of 1 or more would trim a distribution to nothing.

        ``previous`` is taken by the mixture family alone: the state built from a spec
        that differs from this one in its noise alone. It lends the sectors the two
        supports share (see ``mixture_from_sector_amplitudes``); the bytes are those of
        a build without it.
        """
        tol = self.params.get("tail_tol", tail_tol if tail_tol is not None else DEFAULT_TAIL_TOL)
        if not 0.0 < tol < 1.0:
            raise StateSpecError(f"tail_tol must be finite with 0 < tail_tol < 1, got {tol!r}")
        build = _FAMILIES[self.family][1]
        return build(self.params, tol) if previous is None else build(self.params, tol, previous)


def _checked(obj: dict) -> StateSpec:
    """The spec of a decoded JSON object, its keys checked and its values coerced."""
    family = StateSpec(obj.get("family")).family  # refuses an unknown family
    rest = {k: v for k, v in obj.items() if k != "family"}
    params = _require_keys(rest, _FAMILIES[family][0], f"{family} spec")
    if family == "mixture":
        noise = params["noise"]
        kind = noise.get("kind")
        if kind not in NOISE_KINDS:
            raise StateSpecError(
                f"unknown noise kind {kind!r}; known kinds: {', '.join(NOISE_KINDS)}"
            )
        noise_rest = {k: v for k, v in noise.items() if k != "kind"}
        noise_keys = _require_keys(noise_rest, _NOISE[kind][0], f"{kind} noise")
        params["noise"] = {"kind": kind, **noise_keys}
        if params.get("transmissivity") is not None and params["base"] != "split_fock":
            raise StateSpecError("transmissivity only applies to split_fock-based mixtures")
    return StateSpec(family, params)


def parse_state_spec(text: str) -> StateSpec:
    """Parse a JSON state specification, rejecting unknown structure."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateSpecError(f"state spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise StateSpecError("state spec must be a JSON object")
    return _checked(obj)


def load_state_spec(source: str) -> StateSpec:
    """Load a spec from inline JSON (leading '{') or from a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise StateSpecError(f"cannot read state spec file {source!r}: {exc}") from exc
    return parse_state_spec(text)
