"""Entanglement and steering verdicts built from number-phase observables.

Every check is reported as a :class:`CriterionVerdict` carrying the raw
left-hand side, the bound it is compared against, the signed margin
``bound - lhs``, and the boolean verdict. Product criteria (NP_*, NAIVE_*,
SM_UR) are violated when the left-hand side falls *below* the bound;
moment criteria (HZ_*) are violated when it rises *above*. A fixed
tolerance, DEFAULT_TOL, keeps states sitting exactly on a boundary from
flapping.
"""
from __future__ import annotations

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

CURVE_IDS = ("ENT_FIG2", "STEER_FIG2", "UR_FIG1")


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


def _below_bound(cid, lhs, bound, advisory=None) -> CriterionVerdict:
    """Verdict for criteria of the form lhs >= bound (violated below)."""
    violated = bool(lhs < bound - DEFAULT_TOL)
    return CriterionVerdict(cid, float(lhs), float(bound), float(bound - lhs), violated, advisory)


def _above_bound(cid, lhs, bound) -> CriterionVerdict:
    """Verdict for criteria of the form lhs <= bound (violated above)."""
    violated = bool(lhs > bound + DEFAULT_TOL)
    return CriterionVerdict(cid, float(lhs), float(bound), float(bound - lhs), violated)


def np_entanglement(report: ObservableReport) -> CriterionVerdict:
    """Separable states satisfy (total-number variance + 1) * dispersion >= 1."""
    lhs = (report.n_var + 1.0) * report.d2_rel
    return _below_bound("NP_ENT", lhs, 1.0)


def np_steering(report: ObservableReport) -> CriterionVerdict:
    """Non-steerable states satisfy (total-number variance + 1/4) * dispersion >= 1/4."""
    lhs = (report.n_var + 0.25) * report.d2_rel
    return _below_bound("NP_STEER", lhs, 0.25)


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
        _below_bound("NAIVE_ENT", lhs, 2.0, advisory),
        _below_bound("NAIVE_STEER", lhs, 1.0, advisory),
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
        _above_bound("HZ_ENT", lhs, report.hz_nanb),
        _above_bound("HZ_STEER_A_BY_B", lhs, report.hz_nanb + 0.5 * report.hz_na),
        _above_bound("HZ_STEER_B_BY_A", lhs, report.hz_nanb + 0.5 * report.hz_nb),
    )


def single_mode_ur_check(n_var: float, d2: float) -> CriterionVerdict:
    """Single-mode number-phase uncertainty product; physical states never violate it."""
    lhs = (n_var + 0.25) * d2
    return _below_bound("SM_UR", lhs, 0.25)


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
    claim_se = max(d2_se, shots**-0.5)
    advisory = f"sampled: violation requires clearing the bound by {z} standard errors"
    verdicts = []
    for cid, shift, bound in (("NP_ENT", 1.0, 1.0), ("NP_STEER", 0.25, 0.25)):
        lhs, se = (n_var + shift) * d2_hat, (n_var + shift) * claim_se
        violated = bool(lhs + z * se < bound)
        verdicts.append(
            CriterionVerdict(cid, float(lhs), float(bound), float(bound - lhs), violated, advisory)
        )
    return SampledVerdicts(*verdicts)


@dataclass(frozen=True)
class BoundaryCurve:
    """Threshold on the total-number variance (or product sum) versus dispersion."""

    curve_id: str
    d2: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        d2 = np.asarray(self.d2, dtype=float)
        threshold = np.asarray(self.threshold, dtype=float)
        d2.flags.writeable = False
        threshold.flags.writeable = False
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "threshold", threshold)


def boundary_curves(which: str, d2_grid: np.ndarray) -> BoundaryCurve:
    """Critical curves as a function of the relative (or single-mode) dispersion.

    ENT_FIG2:   variance below 1/d2 - 1 certifies entanglement.
    STEER_FIG2: variance below 1/(4 d2) - 1/4 certifies steering.
    UR_FIG1:    lower bound 1/(4 d2) - 1/4 + d2 on the variance-plus-dispersion
                sum, minimized at d2 = 1/2 where it equals 3/4.
    """
    d2 = np.asarray(d2_grid, dtype=float)
    if d2.ndim != 1 or len(d2) == 0:
        raise ValueError("d2 grid must be a non-empty 1-d array")
    if float(d2.min()) <= 0.0 or float(d2.max()) > 1.0:
        raise ValueError("d2 grid must lie inside (0, 1]")
    with np.errstate(over="ignore"):
        if which == "ENT_FIG2":
            threshold = 1.0 / d2 - 1.0
        elif which == "STEER_FIG2":
            threshold = 0.25 / d2 - 0.25
        elif which == "UR_FIG1":
            threshold = 0.25 / d2 - 0.25 + d2
        else:
            raise ValueError(f"unknown curve {which!r}; use one of {', '.join(CURVE_IDS)}")
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
