"""Number and phase observables on two-mode states.

Moments that conserve the total number are sums within sectors over the
state's ``sector_view``, one code path for grid states and mixtures.
Operators that change the total number couple sectors; only a pure state
spread over several sectors has such coherence, and those moments are
shift-sums over its coefficient grid. No dense operators are built.
"""
from __future__ import annotations

import warnings
from dataclasses import Field, dataclass, fields
from typing import NamedTuple

import numpy as np

from .fock import PureTwoModeState, State

EDGE_MASS_TOL = 1e-8


class TruncationBiasWarning(UserWarning):
    """Mass at the cutoff edge: quadrature moments may be truncation-biased."""


class NumberMoments(NamedTuple):
    n_mean: float
    n_var: float
    n1_var: float
    n2_var: float


class Dispersions(NamedTuple):
    d2_rel: float
    d2_1: float
    d2_2: float


class HZMoments(NamedTuple):
    adagb: complex
    nanb: float
    na: float
    nb: float


def _clip_unit(x: float) -> float:
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise AssertionError(f"dispersion {x!r} escapes [0, 1] beyond rounding")
    return min(max(x, 0.0), 1.0)


def _coherent_grid(state: State) -> np.ndarray | None:
    """The grid of a pure state spread over several sectors, the only states
    with coherence between sectors; None for every other state."""
    if isinstance(state, PureTwoModeState) and len(state.sector_view.starts) > 2:
        return state.coeffs
    return None


def number_moments(state: State) -> NumberMoments:
    """Mean and variance of the total number plus per-mode variances.

    Variances accumulate centered squares in a second pass, so number
    eigenstates report a variance at the 1e-20 level instead of the 1e-14
    cancellation noise of a raw <N^2> - <N>^2 difference.
    """
    view = state.sector_view
    p = np.abs(view.amps) ** 2
    sector_p = np.add.reduceat(p, view.starts[:-1])
    tot1 = float(np.dot(sector_p, view.totals))
    tot_var = float(np.dot(sector_p, (view.totals - tot1) ** 2))
    m, n = view.levels()
    m1, n1 = float(np.dot(p, m)), float(np.dot(p, n))
    m_var, n_var = float(np.dot(p, (m - m1) ** 2)), float(np.dot(p, (n - n1) ** 2))
    return NumberMoments(tot1, tot_var, m_var, n_var)


def exp_phase_relative(state: State) -> complex:
    """Expectation of the relative exponential-of-phase operator E1 E2†.

    E1 E2† maps |m+1>|N-m-1> to |m>|N-m> within sector N, so this is the
    sum of conj(a[m]) a[m+1] over neighbors of each sector.
    """
    return complex(np.sum(state.sector_view.neighbor_products()))


def exp_phase_single(state: State, mode: int) -> complex:
    """Expectation of the single-mode exponential-of-phase operator E_mode.

    E_mode lowers the total number by one, so it vanishes unless the state
    is a pure state spread over several sectors.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    c = _coherent_grid(state)
    if c is None:
        return 0j
    c = c if mode == 1 else c.T
    return complex(np.sum(np.conj(c[:-1, :]) * c[1:, :]))


def _dispersions(e_rel: complex, e1: complex, e2: complex) -> Dispersions:
    return Dispersions(*(_clip_unit(1.0 - abs(e) ** 2) for e in (e_rel, e1, e2)))


def dispersions(state: State) -> Dispersions:
    """Relative and single-mode phase dispersions D^2 = 1 - |<E>|^2."""
    return _dispersions(
        exp_phase_relative(state), exp_phase_single(state, 1), exp_phase_single(state, 2)
    )


def hz_moments(state: State) -> HZMoments:
    """Cross-mode moments <a† b>, <a†a b†b>, <a†a>, <b†b> (a = mode 1)."""
    view = state.sector_view
    p = np.abs(view.amps) ** 2
    m, n = view.levels()
    weights = m[:-1] + 1.0
    weights *= n[:-1]
    pairs = view.neighbor_products()
    pairs *= np.sqrt(weights, out=weights)
    adagb = complex(np.sum(pairs)).conjugate()
    na, nb = float(np.dot(p, m)), float(np.dot(p, n))
    m *= n
    return HZMoments(adagb, float(np.dot(p, m)), na, nb)


def _ladder_moments(state: State) -> tuple[complex, complex, complex]:
    """<a1>, <a2>, <a1 a2>: the quadrature terms that change the total number."""
    c = _coherent_grid(state)
    if c is None:
        return 0j, 0j, 0j
    root = np.sqrt(np.arange(1, len(c), dtype=float))
    a1, a2 = (complex(np.sum(root[:, None] * np.conj(g[:-1, :]) * g[1:, :])) for g in (c, c.T))
    a1a2 = complex(np.sum(root[:, None] * root[None, :] * np.conj(c[:-1, :-1]) * c[1:, 1:]))
    return a1, a2, a1a2


def _warn_on_edge_mass(state: State, edge_tol: float) -> None:
    """Warn when the levels m = cutoff or n = cutoff carry more than edge_tol."""
    m, n = state.sector_view.levels()
    edge = (m == state.cutoff) | (n == state.cutoff)
    if float(np.sum(np.abs(state.sector_view.amps[edge]) ** 2)) > edge_tol:
        message = "state carries mass at the cutoff edge; quadrature moments may be biased"
        warnings.warn(message, TruncationBiasWarning, stacklevel=3)


def _quadrature_sum(n_mean: float, ladder: tuple[complex, complex, complex]) -> float:
    a1, a2, a1a2 = ladder
    return 2.0 * (n_mean + 1.0) - 4.0 * a1a2.real - 2.0 * abs(a1 - a2.conjugate()) ** 2


def quadrature_sum_variance(state: State, edge_tol: float = EDGE_MASS_TOL) -> float:
    """Var(X1 - X2) + Var(P1 + P2) with X = (a + a†)/sqrt(2), P = (a - a†)/(i sqrt(2)).

    That is 2(<N> + 1) - 4 Re<a1 a2> - 2|<a1> - <a2>*|^2: the <a1† a2> and
    <a_j^2> terms cancel between the two variances. A TruncationBiasWarning
    is emitted when the cutoff edge carries more than ``edge_tol`` of
    probability mass; for states whose support ends exactly at the cutoff
    (fixed total number) the warning is conservative.
    """
    _warn_on_edge_mass(state, edge_tol)
    return _quadrature_sum(number_moments(state).n_mean, _ladder_moments(state))


def single_mode_moments(amps: np.ndarray) -> tuple[float, float, float]:
    """(n_mean, n_var, d2) for a normalized single-mode amplitude vector."""
    a = np.asarray(amps, dtype=np.complex128)
    p = np.abs(a) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"amplitudes norm**2 = {total!r}, expected 1")
    n = np.arange(len(a), dtype=float)
    mean = float(np.dot(p, n))
    var = float(np.dot(p, n * n)) - mean * mean
    e = complex(np.sum(np.conj(a[:-1]) * a[1:]))
    return mean, var, _clip_unit(1.0 - abs(e) ** 2)


@dataclass(frozen=True)
class ObservableReport:
    """Flat bundle of every scalar observable the criteria consume."""

    n_mean: float
    n_var: float
    n1_var: float
    n2_var: float
    e_rel: complex
    e1: complex
    e2: complex
    d2_rel: float
    d2_1: float
    d2_2: float
    hz_adagb: complex
    hz_nanb: float
    hz_na: float
    hz_nb: float
    quad_sum: float

    def to_json_dict(self) -> dict:
        """Flat mapping in REPORT_FIELDS order, complex fields split into _re/_im pairs."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            parts = (value.real, value.imag) if _is_complex(f) else (value,)
            out.update(zip(_flat_keys(f), parts))
        return out


def _is_complex(f: Field) -> bool:
    return f.type == "complex"  # annotations are strings here (postponed evaluation)


def _flat_keys(f: Field) -> tuple[str, ...]:
    return (f"{f.name}_re", f"{f.name}_im") if _is_complex(f) else (f.name,)


REPORT_FIELDS = tuple(key for f in fields(ObservableReport) for key in _flat_keys(f))


def observable_report(state: State) -> ObservableReport:
    """Evaluate the full observable bundle for a state, each moment once."""
    nm = number_moments(state)
    e_rel = exp_phase_relative(state)
    e1 = exp_phase_single(state, 1)
    e2 = exp_phase_single(state, 2)
    disp = _dispersions(e_rel, e1, e2)
    hz = hz_moments(state)
    _warn_on_edge_mass(state, EDGE_MASS_TOL)
    quad = _quadrature_sum(nm.n_mean, _ladder_moments(state))
    return ObservableReport(
        n_mean=nm.n_mean, n_var=nm.n_var, n1_var=nm.n1_var, n2_var=nm.n2_var,
        e_rel=e_rel, e1=e1, e2=e2,
        d2_rel=disp.d2_rel, d2_1=disp.d2_1, d2_2=disp.d2_2,
        hz_adagb=hz.adagb, hz_nanb=hz.nanb, hz_na=hz.na, hz_nb=hz.nb,
        quad_sum=quad,
    )
