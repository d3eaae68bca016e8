"""Parsing and building of state specifications given as JSON.

A spec is a JSON object with a ``family`` key and family-specific fields:

    {"family": "number_phase", "n": 3, "phi": 0.0}
    {"family": "split_fock", "n": 2, "phi": 0.0, "transmissivity": 0.5}
    {"family": "tmss", "r": 1.0, "cutoff": 40, "tail_tol": 1e-10}
    {"family": "mixture", "base": "number_phase", "phi": 0.0,
     "noise": {"kind": "poissonian", "mean": 5.0}, "tail_tol": 1e-10}

Noise kinds for mixtures: ``poissonian`` (mean), ``thermal`` (mean),
``gaussian`` (mean, std), ``point`` (n). A mixture with base
``split_fock`` also accepts ``transmissivity``. ``tail_tol`` inside the
spec overrides any value supplied by the caller. Unknown families, keys,
and noise kinds are rejected with the list of known ones.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

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

FAMILIES = ("number_phase", "split_fock", "tmss", "mixture")
NOISE_KINDS = ("poissonian", "thermal", "gaussian", "point")
MIXTURE_BASES = ("number_phase", "split_fock")


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


def _as_choice(options):
    def coerce(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {', '.join(options)}")
        return value

    return coerce


_FAMILY_KEYS = {
    "number_phase": {"n": (_as_int, True), "phi": (_as_float, False)},
    "split_fock": {
        "n": (_as_int, True),
        "phi": (_as_float, False),
        "transmissivity": (_as_float, False),
    },
    "tmss": {
        "r": (_as_float, True),
        "cutoff": (_as_int, False),
        "tail_tol": (_as_float, False),
    },
    "mixture": {
        "base": (_as_choice(MIXTURE_BASES), True),
        "phi": (_as_float, False),
        "transmissivity": (_as_float, False),
        "noise": (dict, True),
        "tail_tol": (_as_float, False),
    },
}

_NOISE_KEYS = {
    "poissonian": {"mean": (_as_float, True)},
    "thermal": {"mean": (_as_float, True)},
    "gaussian": {"mean": (_as_float, True), "std": (_as_float, True)},
    "point": {"n": (_as_int, True)},
}


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

    @property
    def tail_tol(self) -> float | None:
        return self.params.get("tail_tol")

    def with_param(self, name: str, value) -> "StateSpec":
        """Copy of this spec with one sweepable parameter replaced.

        Sweepable names: N (number_phase/split_fock), r (tmss),
        transmissivity (split_fock, or mixtures over split_fock sectors),
        mean and std (mixture noise parameters).
        """
        params = dict(self.params)
        if name == "N" and self.family in ("number_phase", "split_fock"):
            n = int(round(value))
            if abs(value - n) > 1e-9:
                raise StateSpecError(f"sweep over N hit non-integer value {value!r}")
            params["n"] = n
        elif name == "r" and self.family == "tmss":
            params["r"] = float(value)
        elif name == "transmissivity" and (
            self.family == "split_fock"
            or (self.family == "mixture" and self.params.get("base") == "split_fock")
        ):
            params["transmissivity"] = float(value)
        elif name in ("mean", "std") and self.family == "mixture":
            noise = dict(params["noise"])
            if name not in _NOISE_KEYS[noise["kind"]]:
                raise StateSpecError(
                    f"noise kind {noise['kind']!r} has no parameter {name!r}"
                )
            noise[name] = float(value)
            params["noise"] = noise
        else:
            raise StateSpecError(
                f"parameter {name!r} is not sweepable for family {self.family!r}"
            )
        return replace(self, params=params)

    def _noise_distribution(self, tail_tol: float) -> NumberDistribution:
        noise = self.params["noise"]
        kind = noise["kind"]
        if kind == "poissonian":
            return poissonian_distribution(noise["mean"], tail_tol=tail_tol)
        if kind == "thermal":
            return thermal_distribution(noise["mean"], tail_tol=tail_tol)
        if kind == "gaussian":
            return gaussian_distribution(noise["mean"], noise["std"], tail_tol=tail_tol)
        return NumberDistribution.point(noise["n"])

    def build(self, tail_tol: float | None = None) -> State:
        """Construct the state; spec-level tail_tol overrides the argument.

        The tolerance in effect must be finite with 0 < tail_tol < 1: a
        tolerance of 1 or more would trim a distribution to nothing.
        """
        tol = self.params.get("tail_tol", tail_tol if tail_tol is not None else DEFAULT_TAIL_TOL)
        if not 0.0 < tol < 1.0:
            raise StateSpecError(f"tail_tol must be finite with 0 < tail_tol < 1, got {tol!r}")
        p = self.params
        if self.family == "number_phase":
            return number_phase_state(p["n"], p.get("phi", 0.0))
        if self.family == "split_fock":
            return split_fock_state(p["n"], p.get("phi", 0.0), p.get("transmissivity", 0.5))
        if self.family == "tmss":
            return two_mode_squeezed_state(p["r"], cutoff=p.get("cutoff"), tail_tol=tol)
        dist = self._noise_distribution(tol)
        phi = p.get("phi", 0.0)
        if p["base"] == "number_phase":
            return mixture_from_sector_amplitudes(
                dist, lambda totals: fock._number_phase_amps(totals, phi)
            )
        t = p.get("transmissivity", 0.5)
        return mixture_from_sector_amplitudes(
            dist, lambda totals: fock._split_fock_amps(totals, phi, t)
        )


def parse_state_spec(text: str) -> StateSpec:
    """Parse a JSON state specification, rejecting unknown structure."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateSpecError(f"state spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise StateSpecError("state spec must be a JSON object")
    family = obj.get("family")
    if family not in FAMILIES:
        raise StateSpecError(
            f"unknown family {family!r}; known families: {', '.join(FAMILIES)}"
        )
    rest = {k: v for k, v in obj.items() if k != "family"}
    params = _require_keys(rest, _FAMILY_KEYS[family], f"{family} spec")
    if family == "mixture":
        noise = params["noise"]
        kind = noise.get("kind")
        if kind not in NOISE_KINDS:
            raise StateSpecError(
                f"unknown noise kind {kind!r}; known kinds: {', '.join(NOISE_KINDS)}"
            )
        noise_rest = {k: v for k, v in noise.items() if k != "kind"}
        params["noise"] = {"kind": kind, **_require_keys(noise_rest, _NOISE_KEYS[kind], f"{kind} noise")}
        if params.get("transmissivity") is not None and params["base"] != "split_fock":
            raise StateSpecError("transmissivity only applies to split_fock-based mixtures")
    return StateSpec(family, params)


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
