"""Spans around calls into npsteer's public functions, and the layer metrics derived from them.

Tracing replaces module-level names (``npsteer.cli.observable_report``,
``npsteer.observables.hz_moments``, ...) with wrappers for the duration of a
traced cycle and puts the originals back afterwards; nothing in the package
changes. A function that a module calls through its own globals is wrapped in
that module too, so internal calls (``observable_report`` calling
``number_moments``) are seen.

Spans live in memory as ``[name, start, end, parent, run, call, attrs]`` and
are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager


def _state_attrs(args, state) -> dict:
    """Bytes of the state's arrays and the sectors it holds, computed from array sizes."""
    if hasattr(state, "coeffs"):
        return {"bytes": state.coeffs.nbytes, "sectors": 2 * state.cutoff + 1}
    return {"bytes": sum(s.amps.nbytes for _, _, s in state.sectors), "sectors": len(state.sectors)}


def _density_attrs(args, density) -> dict:
    return {"points": density.grid_size}


def _joint_attrs(args, joint) -> dict:
    return {"cells": joint.grid_size**2}


def _csv_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (owner, attribute, span name, attrs hook). The owner is the namespace the
# caller looks the name up in.
TARGETS = (
    ("npsteer.cli", "main", "cli.main", None),
    ("npsteer.cli", "load_state_spec", "statespec.load_state_spec", None),
    ("npsteer.statespec:StateSpec", "with_param", "statespec.with_param", None),
    ("npsteer.statespec:StateSpec", "build", "statespec.build", _state_attrs),
    ("npsteer.statespec", "number_phase_state", "fock.number_phase_state", None),
    ("npsteer.statespec", "split_fock_state", "fock.split_fock_state", None),
    ("npsteer.statespec", "two_mode_squeezed_state", "fock.two_mode_squeezed_state", None),
    ("npsteer.statespec", "mixture_from_sector_amplitudes", "fock.mixture_from_sector_amplitudes", None),
    ("npsteer.statespec", "gaussian_distribution", "fock.gaussian_distribution", None),
    ("npsteer.statespec", "poissonian_distribution", "fock.poissonian_distribution", None),
    ("npsteer.statespec", "thermal_distribution", "fock.thermal_distribution", None),
    ("npsteer.cli", "observable_report", "observables.observable_report", None),
    ("npsteer.cli", "number_moments", "observables.number_moments", None),
    ("npsteer.observables", "number_moments", "observables.number_moments", None),
    ("npsteer.observables", "exp_phase_relative", "observables.exp_phase_relative", None),
    ("npsteer.observables", "exp_phase_single", "observables.exp_phase_single", None),
    ("npsteer.observables", "dispersions", "observables.dispersions", None),
    ("npsteer.observables", "hz_moments", "observables.hz_moments", None),
    ("npsteer.observables", "quadrature_sum_variance", "observables.quadrature_sum_variance", None),
    ("npsteer.cli", "relative_phase_density", "phase_povm.relative_phase_density", _density_attrs),
    ("npsteer.cli", "sample_local_phases", "phase_povm.sample_local_phases", None),
    ("npsteer.phase_povm", "joint_local_phase_density", "phase_povm.joint_local_phase_density",
     _joint_attrs),
    ("npsteer.cli", "estimate_relative_dispersion", "phase_povm.estimate_relative_dispersion", None),
    ("npsteer.cli", "write_samples_csv", "phase_povm.write_samples_csv", _csv_attrs),
    ("npsteer.cli", "all_verdicts", "criteria.all_verdicts", None),
    ("npsteer.cli", "sampled_np_verdicts", "criteria.sampled_np_verdicts", None),
)

# Seconds per cycle: the self time of the named spans (their duration minus
# that of their traced children). observables.report_s and
# observables.number_moments_s take the whole span instead, moment calls
# included; those spans reach no other layer, so this is the observables
# layer's own time under them.
SELF_TIME = {
    "statespec.parse_s": ("statespec.load_state_spec", "statespec.with_param", "statespec.build"),
    "fock.build_s": ("fock.number_phase_state", "fock.split_fock_state",
                     "fock.two_mode_squeezed_state"),
    "fock.mixture_s": ("fock.mixture_from_sector_amplitudes",),
    "fock.distribution_s": ("fock.gaussian_distribution", "fock.poissonian_distribution",
                            "fock.thermal_distribution"),
    "phase_povm.density_s": ("phase_povm.relative_phase_density",),
    "phase_povm.sample_s": ("phase_povm.sample_local_phases",),
    "phase_povm.joint_density_s": ("phase_povm.joint_local_phase_density",),
    "phase_povm.estimate_s": ("phase_povm.estimate_relative_dispersion",),
    "phase_povm.write_csv_s": ("phase_povm.write_samples_csv",),
    "criteria.verdicts_s": ("criteria.all_verdicts", "criteria.sampled_np_verdicts"),
    "cli.self_s": ("cli.main",),
}
SPAN_TIME = {
    "observables.report_s": "observables.observable_report",
    "observables.number_moments_s": "observables.number_moments",
}
# Calls per cycle; these repeat exactly from cycle to cycle.
CALL_COUNTS = {
    "observables.report_calls": "observables.observable_report",
    "observables.number_moments_calls": "observables.number_moments",
    "observables.exp_phase_relative_calls": "observables.exp_phase_relative",
    "observables.exp_phase_single_calls": "observables.exp_phase_single",
    "observables.hz_moments_calls": "observables.hz_moments",
}
# Sums per cycle of a value recorded on the span; computed, not measured.
ATTR_SUMS = {
    "fock.state_bytes": ("statespec.build", "bytes"),
    "fock.sectors": ("statespec.build", "sectors"),
    "phase_povm.density_points": ("phase_povm.relative_phase_density", "points"),
    "phase_povm.joint_cells": ("phase_povm.joint_local_phase_density", "cells"),
    "phase_povm.csv_bytes": ("phase_povm.write_samples_csv", "bytes"),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder; ``run`` and ``call`` tag the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.call = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs_hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, self.call, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_hook is not None:
                span[6] = attrs_hook(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner_name, attr, span_name, hook in TARGETS:
                owner = _resolve(owner_name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def cycle_counts(self) -> dict[int, dict[str, int]]:
        """Moment call counts of each traced cycle, keyed by run id."""
        counts: dict[int, dict[str, int]] = {}
        for name, _, _, _, run, *_ in self.spans:
            per_run = counts.setdefault(run, dict.fromkeys(CALL_COUNTS, 0))
            for metric, span_name in CALL_COUNTS.items():
                if name == span_name:
                    per_run[metric] += 1
        return counts

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-cycle times and computed sizes over ``cycles`` traced cycles."""
        self_t = self.self_times()
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(t for s, t in zip(self.spans, self_t) if s[0] in names) / cycles
        for metric, name in SPAN_TIME.items():
            out[metric] = sum(s[2] - s[1] for s in self.spans if s[0] == name) / cycles
        for metric, (name, key) in ATTR_SUMS.items():
            out[metric] = sum(s[6][key] for s in self.spans if s[0] == name) / cycles
        return out

    def per_call_ms(self, labels: dict[int, str]) -> dict[str, dict[str, float]]:
        """Median span duration in ms, by call label and span name."""
        durations: dict[str, dict[str, list[float]]] = {}
        for name, start, end, _, _, call, _ in self.spans:
            durations.setdefault(labels[call], {}).setdefault(name, []).append(end - start)
        return {
            label: {name: round(1e3 * statistics.median(ts), 3) for name, ts in sorted(by_name.items())}
            for label, by_name in sorted(durations.items())
        }

    def records(self, t0: float):
        for name, start, end, parent, run, call, attrs in self.spans:
            yield {"name": name, "start": start - t0, "end": end - t0, "parent": parent,
                   "run": run, "call": call, "attrs": attrs}
