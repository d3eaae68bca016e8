"""Entanglement and steering verdicts built from number-phase observables.

Every check is reported as a :class:`CriterionVerdict` carrying the raw
left-hand side, the bound it is compared against, the signed margin
``bound - lhs``, and the boolean verdict, which ``_verdict`` decides from the
margin alone: product criteria (NP_*, NAIVE_*, SM_UR) are violated when the
left-hand side falls *below* the bound by more than a slack (margin > slack),
moment criteria (HZ_*) when it rises *above* it by more (-margin > slack).
Exact verdicts take the slack DEFAULT_TOL * max(1, |lhs|, |bound|), so that no
state on a boundary is decided by rounding at any scale; sampled NP_* verdicts
take z propagated standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .observables import ObservableReport
from .phase_povm import PhaseDensity, linear_phase_variance

DEFAULT_TOL = 1e-12
NAIVE_DISPERSION_LIMIT = 0.1
_NAIVE_ADVISORY = (
    "linearized phase variance is unreliable here (relative dispersion "
    "exceeds {limit}); trust the NP_* verdicts instead"
)

# Each product criterion (Δ²N + s) D² >= s, kept by separable, non-steerable and all one-mode
# states in turn: its shift s, and the boundary curve that solves it for Δ²N.
PRODUCT_CRITERIA = {"NP_ENT": (1.0, "ENT_FIG2"), "NP_STEER": (0.25, "STEER_FIG2"),
                    "SM_UR": (0.25, "UR_FIG1")}
CURVE_IDS = tuple(curve for _, curve in PRODUCT_CRITERIA.values())
_CURVE_SHIFTS = {curve: s for s, curve in PRODUCT_CRITERIA.values()}
# The UR_FIG1 bound s/d2 - s + d2 is least at d2 = sqrt(s), where it equals 2 sqrt(s) - s.
UR_MIN_D2 = math.sqrt(PRODUCT_CRITERIA["SM_UR"][0])
UR_MIN = 2.0 * UR_MIN_D2 - PRODUCT_CRITERIA["SM_UR"][0]


@dataclass(frozen=True)
class CriterionVerdict:
    criterion_id: str
    lhs: float
    bound: float
    margin: float
    violated: bool
    advisory: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.criterion_id,
            "lhs": self.lhs,
            "bound": self.bound,
            "margin": self.margin,
            "violated": self.violated,
        }
        if self.advisory is not None:
            out["advisory"] = self.advisory
        return out


def _verdict(cid, lhs, bound, above=False, slack=None, advisory=None) -> CriterionVerdict:
    """Verdict of lhs against bound: violated once lhs has passed the bound, below it (or
    above it, if ``above``), by more than ``slack``, by default DEFAULT_TOL relative to
    max(1, |lhs|, |bound|), since HZ moments, and their rounding, grow as <N>^2."""
    margin = float(bound - lhs)
    if slack is None:
        slack = DEFAULT_TOL * max(1.0, abs(lhs), abs(bound))
    violated = bool((-margin if above else margin) > slack)
    return CriterionVerdict(cid, float(lhs), float(bound), margin, violated, advisory)


def _product(cid: str, n_var: float, d2: float, d2_slack=None, advisory=None) -> CriterionVerdict:
    """Verdict of product criterion ``cid``: (n_var + s) * d2 >= s, s its shift. A slack
    ``d2_slack`` on the dispersion is one of (n_var + s) * d2_slack on the product."""
    s = PRODUCT_CRITERIA[cid][0]
    slack = None if d2_slack is None else (n_var + s) * d2_slack
    return _verdict(cid, (n_var + s) * d2, s, slack=slack, advisory=advisory)


def np_entanglement(report: ObservableReport) -> CriterionVerdict:
    """Separable states satisfy (total-number variance + 1) * dispersion >= 1."""
    return _product("NP_ENT", report.n_var, report.d2_rel)


def np_steering(report: ObservableReport) -> CriterionVerdict:
    """Non-steerable states satisfy (total-number variance + 1/4) * dispersion >= 1/4."""
    return _product("NP_STEER", report.n_var, report.d2_rel)


class NaiveVerdicts(NamedTuple):
    ent: CriterionVerdict
    steer: CriterionVerdict
    applicable: bool


def naive_criteria(report: ObservableReport, density: PhaseDensity) -> NaiveVerdicts:
    """Additive number/linearized-phase checks, valid only for narrow densities.

    Uses the ordinary variance of the phase difference after re-centering;
    the sums are bounded below by 2 (entanglement) and 1 (steering). When
    the relative dispersion exceeds ``NAIVE_DISPERSION_LIMIT`` the
    linearization has no support and the verdicts carry an advisory.
    """
    lin_var = linear_phase_variance(density)
    lhs = report.n_var + lin_var
    applicable = report.d2_rel <= NAIVE_DISPERSION_LIMIT
    advisory = None if applicable else _NAIVE_ADVISORY.format(limit=NAIVE_DISPERSION_LIMIT)
    return NaiveVerdicts(
        _verdict("NAIVE_ENT", lhs, 2.0, advisory=advisory),
        _verdict("NAIVE_STEER", lhs, 1.0, advisory=advisory),
        applicable,
    )


class HZVerdicts(NamedTuple):
    ent: CriterionVerdict
    steer_a_by_b: CriterionVerdict
    steer_b_by_a: CriterionVerdict


def hz_criteria(report: ObservableReport) -> HZVerdicts:
    """Moment-based checks on |<a^dag b>|^2 against number correlators.

    Separable: |<a^dag b>|^2 <= <n_a n_b>. Steering of A by B (B's outcomes
    predict A's quadratures better than any local model allows):
    |<a^dag b>|^2 <= <n_a n_b> + <n_a>/2, and symmetrically with <n_b>/2.
    Violation means the left-hand side exceeds the bound.
    """
    lhs = abs(report.hz_adagb) ** 2
    return HZVerdicts(
        _verdict("HZ_ENT", lhs, report.hz_nanb, above=True),
        _verdict("HZ_STEER_A_BY_B", lhs, report.hz_nanb + 0.5 * report.hz_na, above=True),
        _verdict("HZ_STEER_B_BY_A", lhs, report.hz_nanb + 0.5 * report.hz_nb, above=True),
    )


def single_mode_ur_check(n_var: float, d2: float) -> CriterionVerdict:
    """Single-mode number-phase uncertainty product; physical states never violate it."""
    return _product("SM_UR", n_var, d2)


class SampledVerdicts(NamedTuple):
    ent: CriterionVerdict
    steer: CriterionVerdict


def sampled_np_verdicts(
    n_var: float, d2_hat: float, d2_se: float, shots: int, z: float = 5.0
) -> SampledVerdicts:
    """NP verdicts from a sampled dispersion, claimed only at z standard errors.

    The number variance is taken as exact; the uncertainty on the product is
    the propagated dispersion error, and violation is claimed only when the
    left-hand side stays below the bound even after adding z of those. The
    claim takes the dispersion error as at least 1/sqrt(shots): the
    delta-method standard error of d2_hat, 2|mu| sqrt(1 - |mu|^2) / sqrt(shots),
    never exceeds it, while a bootstrap over a few shots can read near zero
    and so certify a separable state.
    """
    if d2_se < 0:
        raise ValueError("standard error must be non-negative")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots!r}")
    d2_slack = z * max(d2_se, shots**-0.5)
    advisory = f"sampled: violation requires clearing the bound by {z} standard errors"
    return SampledVerdicts(*(_product(cid, n_var, d2_hat, d2_slack, advisory)
                             for cid in ("NP_ENT", "NP_STEER")))


@dataclass(frozen=True)
class BoundaryCurve:
    """Threshold on the total-number variance (or product sum) versus dispersion."""

    curve_id: str
    d2: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        for name in ("d2", "threshold"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def boundary_curves(which: str, d2_grid: np.ndarray) -> BoundaryCurve:
    """Critical curves as a function of the relative (or single-mode) dispersion: each
    product criterion's (Δ²N + s) D² >= s solved for Δ²N, s/d2 - s.

    ENT_FIG2:   variance below 1/d2 - 1 certifies entanglement.
    STEER_FIG2: variance below 1/(4 d2) - 1/4 certifies steering.
    UR_FIG1:    lower bound 1/(4 d2) - 1/4 + d2 on the variance-plus-dispersion
                sum, minimized at d2 = UR_MIN_D2 = 1/2 where it equals UR_MIN = 3/4.
    """
    if which not in _CURVE_SHIFTS:
        raise ValueError(f"unknown curve {which!r}; use one of {', '.join(CURVE_IDS)}")
    d2 = np.asarray(d2_grid, dtype=float)
    if d2.ndim != 1 or len(d2) == 0:
        raise ValueError("d2 grid must be a non-empty 1-d array")
    if float(d2.min()) <= 0.0 or float(d2.max()) > 1.0:
        raise ValueError("d2 grid must lie inside (0, 1]")
    s = _CURVE_SHIFTS[which]
    with np.errstate(over="ignore"):
        threshold = s / d2 - s + d2 if which == "UR_FIG1" else s / d2 - s
    if not np.isfinite(threshold).all():
        raise ValueError(
            f"d2 = {float(d2.min())!r} is too small: the {which} threshold overflows a float"
        )
    return BoundaryCurve(which, d2, threshold)


def all_verdicts(
    report: ObservableReport, density: PhaseDensity | None = None
) -> list[CriterionVerdict]:
    """Every two-mode verdict this package defines, in reporting order."""
    out = [np_entanglement(report), np_steering(report)]
    if density is not None:
        naive = naive_criteria(report, density)
        out.extend([naive.ent, naive.steer])
    out.extend(hz_criteria(report))
    return out
