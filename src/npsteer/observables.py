"""Number and phase observables on two-mode states.

Moments that conserve the total number are sums within sectors over the
state's ``sector_view``, one code path for grid states and mixtures; a
mixture's view holds unit-norm sectors and their roots, and each scaled
amplitude is formed once a report, a leaf of the pairwise sum at a time.
Operators that change the total number couple sectors; only a pure state
spread over several sectors has such coherence, and those moments are
shift-sums over its coefficient grid, which the state takes itself
(``PureTwoModeState.lowering_sum``). No dense operators are built.
"""
from __future__ import annotations

import warnings
from dataclasses import Field, dataclass, fields
from typing import NamedTuple

import numpy as np

from .fock import PureTwoModeState, State, _pairwise_sum

EDGE_MASS_TOL = 1e-8
# The view sums' leaves hold at most this many neighbor pairs (256 KB): each leaf scales
# a mixture's amplitudes by their roots once, for |amps|^2 and the pairs alike.
VIEW_BLOCK = 1 << 14


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


def _is_coherent(state: State) -> bool:
    """True for a pure state spread over several sectors, the only states with
    coherence between sectors."""
    return isinstance(state, PureTwoModeState) and len(state.sector_view.starts) > 2


def _weighted_sum(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> float:
    """Sum of w x, the products formed in ``out``, then added pairwise by np.sum. Not np.dot:
    that hands long vectors to BLAS, whose threads split the sum, so its bits would depend on
    the thread count."""
    return float(np.sum(np.multiply(w, x, out=out)))


def _view_sums(state: State) -> tuple[NumberMoments, complex, HZMoments, float]:
    """Number moments, E1 E2†, cross-mode moments and edge mass, from one pass over the view.

    The pass walks the leaves of np.sum's pairwise tree over the neighbor products
    conj(a[i]) a[i + 1], 0 across sectors, at most VIEW_BLOCK pairs a leaf. A leaf forms its
    amplitudes and the next one once, times their roots for a mixture, writes their moduli
    into |amps|^2, and sums its products plain and weighted by sqrt((m + 1) n) for <a† b>:
    both sums keep the bits of np.sum over the whole products. A leaf is one pair only when
    the view is, as numpy's (2.4, x86-64) complex multiply rounds a one-element array
    otherwise. The other temporaries are updated in place, and each sum keeps the arithmetic
    of a pass of its own."""
    view = state.sector_view
    m, n = view.levels()
    p = np.empty(len(m))
    ends = view.starts[1:-1] - 1  # the pairs that span two sectors

    def leaf_sum(lo: int, hi: int) -> np.ndarray:
        a = view.scaled(lo, hi + 1)
        np.abs(a, out=p[lo : hi + 1])
        pairs = np.conj(a[:-1])
        pairs *= a[1:]
        pairs[ends[np.searchsorted(ends, lo) : np.searchsorted(ends, hi)] - lo] = 0.0
        total = np.add.reduce(pairs)
        pairs *= np.sqrt((m[lo:hi] + 1.0) * n[lo:hi])
        return np.array([total, np.add.reduce(pairs)])

    e_rel, adagb = _pairwise_sum(len(m) - 1, leaf_sum, VIEW_BLOCK)
    np.square(p, out=p)
    sector_p = np.add.reduceat(p, view.starts[:-1])
    dev = np.empty_like(sector_p)
    tot1 = _weighted_sum(sector_p, view.totals, dev)
    np.subtract(view.totals, tot1, out=dev)
    tot_var = _weighted_sum(sector_p, np.square(dev, out=dev), dev)
    edge_mass = float(np.sum(p[(m == state.cutoff) | (n == state.cutoff)]))
    tmp = np.empty_like(p)
    na, nb = _weighted_sum(p, m, tmp), _weighted_sum(p, n, tmp)
    m_var = _weighted_sum(p, np.square(np.subtract(m, na, out=tmp), out=tmp), tmp)
    n_var = _weighted_sum(p, np.square(np.subtract(n, nb, out=tmp), out=tmp), tmp)
    nanb = _weighted_sum(p, np.multiply(m, n, out=tmp), tmp)
    hz = HZMoments(complex(adagb).conjugate(), nanb, na, nb)
    return NumberMoments(tot1, tot_var, m_var, n_var), complex(e_rel), hz, edge_mass


def number_moments(state: State) -> NumberMoments:
    """Mean and variance of the total number plus per-mode variances.

    Variances accumulate centered squares in a second pass, so number
    eigenstates report a variance at the 1e-20 level instead of the 1e-14
    cancellation noise of a raw <N^2> - <N>^2 difference.
    """
    return _view_sums(state)[0]


def exp_phase_relative(state: State) -> complex:
    """Expectation of the relative exponential-of-phase operator E1 E2†.

    E1 E2† maps |m+1>|N-m-1> to |m>|N-m> within sector N, so this is the
    sum of conj(a[m]) a[m+1] over neighbors of each sector.
    """
    return _view_sums(state)[1]


def exp_phase_single(state: State, mode: int) -> complex:
    """Expectation of the single-mode exponential-of-phase operator E_mode.

    E_mode lowers the total number by one, so it vanishes unless the state
    is a pure state spread over several sectors.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if not _is_coherent(state):
        return 0j
    return state.lowering_sum(*((1, 0) if mode == 1 else (0, 1)))


def _dispersions(e_rel: complex, e1: complex, e2: complex) -> Dispersions:
    return Dispersions(*(_clip_unit(1.0 - abs(e) ** 2) for e in (e_rel, e1, e2)))


def dispersions(state: State) -> Dispersions:
    """Relative and single-mode phase dispersions D^2 = 1 - |<E>|^2."""
    return _dispersions(
        exp_phase_relative(state), exp_phase_single(state, 1), exp_phase_single(state, 2)
    )


def hz_moments(state: State) -> HZMoments:
    """Cross-mode moments <a† b>, <a†a b†b>, <a†a>, <b†b> (a = mode 1)."""
    return _view_sums(state)[2]


def _ladder_moments(state: State) -> tuple[complex, complex, complex]:
    """<a1>, <a2>, <a1 a2>: the quadrature terms that change the total number."""
    if not _is_coherent(state):
        return 0j, 0j, 0j
    root = np.sqrt(np.arange(1, state.cutoff + 1, dtype=float))
    return tuple(state.lowering_sum(i, j, root) for i, j in ((1, 0), (0, 1), (1, 1)))


def _warn_on_edge_mass(edge_mass: float) -> None:
    """Warn the public function's caller when the levels m, n = cutoff carry over EDGE_MASS_TOL."""
    if edge_mass > EDGE_MASS_TOL:
        message = "state carries mass at the cutoff edge; quadrature moments may be biased"
        warnings.warn(message, TruncationBiasWarning, stacklevel=3)


def _quadrature_sum(n_mean: float, ladder: tuple[complex, complex, complex]) -> float:
    a1, a2, a1a2 = ladder
    return 2.0 * (n_mean + 1.0) - 4.0 * a1a2.real - 2.0 * abs(a1 - a2.conjugate()) ** 2


def quadrature_sum_variance(state: State) -> float:
    """Var(X1 - X2) + Var(P1 + P2) with X = (a + a†)/sqrt(2), P = (a - a†)/(i sqrt(2)).

    That is 2(<N> + 1) - 4 Re<a1 a2> - 2|<a1> - <a2>*|^2: the <a1† a2> and
    <a_j^2> terms cancel between the two variances. A TruncationBiasWarning
    is emitted when the cutoff edge carries more than ``EDGE_MASS_TOL`` of
    probability mass; for states whose support ends exactly at the cutoff
    (fixed total number) the warning is conservative.
    """
    ladder = _ladder_moments(state)
    nm, _, _, edge_mass = _view_sums(state)
    _warn_on_edge_mass(edge_mass)
    return _quadrature_sum(nm.n_mean, ladder)


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
    """Evaluate the full observable bundle for a state, each moment once: the grid moments
    first, so that their temporaries are freed before the one pass over the sector view."""
    e1, e2 = exp_phase_single(state, 1), exp_phase_single(state, 2)
    ladder = _ladder_moments(state)
    nm, e_rel, hz, edge_mass = _view_sums(state)
    disp = _dispersions(e_rel, e1, e2)
    _warn_on_edge_mass(edge_mass)
    quad = _quadrature_sum(nm.n_mean, ladder)
    return ObservableReport(
        n_mean=nm.n_mean, n_var=nm.n_var, n1_var=nm.n1_var, n2_var=nm.n2_var,
        e_rel=e_rel, e1=e1, e2=e2,
        d2_rel=disp.d2_rel, d2_1=disp.d2_1, d2_2=disp.d2_2,
        hz_adagb=hz.adagb, hz_nanb=hz.nanb, hz_na=hz.na, hz_nb=hz.nb,
        quad_sum=quad,
    )
