"""Truncated two-mode Fock-space states and total-number distributions.

Conventions used throughout the package:

* a two-mode pure state is a complex grid ``c[m, n] = <m, n|psi>``
  with ``0 <= m, n <= cutoff``,
* "sector N" is the eigenspace of the total number operator ``N1 + N2``
  with eigenvalue N; every state exposes its sectors as one flat, ragged
  ``SectorView``, the layout all intra-sector observables read,
* every infinite family (squeezed states, noise distributions) is
  truncated at an explicit tail tolerance and renormalized; the kept
  mass fraction is reported so callers can bound the truncation error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

NORM_TOL = 1e-12
OFF_SECTOR_TOL = 1e-14
DEFAULT_TAIL_TOL = 1e-10
# Largest single dense array a state or density may allocate (1 GiB): an
# amplitude grid up to cutoff 8191, a joint phase density up to K = 8192.
MAX_ARRAY_BYTES = 1 << 30

# math.comb stays exact and convertible to float up to roughly this order
_EXACT_BINOM_LIMIT = 300


class TruncationError(Exception):
    """A requested cutoff cannot honor the tail tolerance."""

    def __init__(self, message: str, required_cutoff: int | None = None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


def require_array_bytes(nbytes: int, what: str) -> None:
    """Raise TruncationError, naming ``what`` and ``nbytes``, if one array would exceed MAX_ARRAY_BYTES."""
    if nbytes > MAX_ARRAY_BYTES:
        raise TruncationError(
            f"{what} needs {nbytes:,} bytes, over the {MAX_ARRAY_BYTES:,}-byte limit on one array"
        )


class SectorView(NamedTuple):
    """A state's total-number sectors as one flat, ragged layout.

    Sector s holds ``amps[starts[s]:starts[s + 1]]``, its amplitudes on
    |m>|N - m> for N = ``totals[s]`` and consecutive m from ``first_m[s]``,
    times the root of its weight (1 if pure). Sectors without amplitude are
    left out; N increases from sector to sector.
    """

    amps: np.ndarray
    starts: np.ndarray
    totals: np.ndarray
    first_m: np.ndarray

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupations (m, n) of modes 1 and 2 at every entry, as new float arrays."""
        counts = np.diff(self.starts)
        m = np.arange(len(self.amps), dtype=float)
        m -= np.repeat(self.starts[:-1] - self.first_m, counts)
        n = np.repeat(self.totals.astype(float), counts)
        n -= m
        return m, n

    def neighbor_products(self) -> np.ndarray:
        """conj(amps[i]) * amps[i + 1]: entries m and m + 1 of one sector, 0 across sectors."""
        pairs = np.conj(self.amps[:-1])
        pairs *= self.amps[1:]
        pairs[self.starts[1:-1] - 1] = 0.0
        return pairs


def _weighted_view(
    amps: np.ndarray, starts: np.ndarray, totals: np.ndarray, weights: np.ndarray
) -> SectorView:
    """View of sectors stored flat from m = 0, each scaled by the root of its weight.

    Sectors of zero weight or without amplitude are left out.
    """
    counts = np.diff(starts)
    scaled = amps * np.repeat(np.sqrt(weights), counts)
    kept = (weights > 0.0) & np.logical_or.reduceat(amps != 0, starts[:-1])
    if not kept.all():
        scaled, counts = scaled[np.repeat(kept, counts)], counts[kept]
        starts = np.concatenate(([0], np.cumsum(counts)))
    return SectorView(scaled, starts, totals[kept], np.zeros(len(counts), dtype=np.int64))


class PureTwoModeState:
    """Pure state on the product of two truncated Fock spaces.

    ``coeffs[m, n]`` is the amplitude on ``|m>|n>``. The grid is square,
    unit-norm within ``NORM_TOL`` and read-only. A state built with
    ``from_sector`` lives in one total-number sector: it stores that
    anti-diagonal only and builds the grid the first time ``coeffs`` is read.
    """

    def __init__(self, coeffs: np.ndarray):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
            raise ValueError(f"coefficient grid must be square and non-empty, got shape {c.shape}")
        norm = float(np.sum(np.abs(c) ** 2))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm**2 = {norm!r} deviates from 1 beyond {NORM_TOL}")
        c = c.copy()
        c.flags.writeable = False
        self._coeffs = c
        self._sector = None

    @classmethod
    def normalized(cls, coeffs: np.ndarray) -> "PureTwoModeState":
        """Build a state from an unnormalized grid by rescaling it."""
        c = np.asarray(coeffs, dtype=np.complex128)
        norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero coefficient grid")
        return cls(c / norm)

    @classmethod
    def from_sector(cls, total: int, amps: np.ndarray) -> "PureTwoModeState":
        """The state with amplitudes ``amps[m]`` on |m>|total - m>, normalized here."""
        raw = np.array(amps, dtype=np.complex128)
        state = cls.__new__(cls)
        state._coeffs = None
        state._sector = SectorState(total, raw / math.sqrt(float(np.sum(np.abs(raw) ** 2))))
        state._raw = raw  # the grid is built from these, as a dense construction would
        return state

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            n = self._sector.total
            grid = np.zeros((n + 1, n + 1), dtype=np.complex128)
            grid[np.arange(n + 1), n - np.arange(n + 1)] = self._raw
            self._coeffs = PureTwoModeState.normalized(grid).coeffs
        return self._coeffs

    @property
    def cutoff(self) -> int:
        return len(self._coeffs) - 1 if self._sector is None else self._sector.total

    @cached_property
    def sector_view(self) -> SectorView:
        if self._sector is not None:
            n = self._sector.total
            return _weighted_view(self._sector.amps, np.array([0, n + 1]), np.array([n]), np.ones(1))
        # anti-diagonal N holds c[m, N - m] for max(0, N - k + 1) <= m <= min(N, k - 1)
        k = len(self._coeffs)
        totals = np.arange(2 * k - 1)
        first_m = np.maximum(0, totals - (k - 1))
        counts = np.minimum(totals, k - 1) - first_m + 1
        starts = np.concatenate(([0], np.cumsum(counts)))
        m = np.arange(starts[-1]) - np.repeat(starts[:-1] - first_m, counts)
        amps = self._coeffs[m, np.repeat(totals, counts) - m]
        kept = np.logical_or.reduceat(amps != 0, starts[:-1])
        if not kept.all():
            amps, counts = amps[np.repeat(kept, counts)], counts[kept]
            starts = np.concatenate(([0], np.cumsum(counts)))
        return SectorView(amps, starts, totals[kept], first_m[kept])

    def total_mass(self) -> float:
        return float(np.sum(np.abs(self.sector_view.amps) ** 2))

    def sector_amplitudes(self, total: int) -> np.ndarray:
        """Amplitudes on the anti-diagonal m + n = total, indexed by m in 0..total.

        Entries whose (m, n) fall outside the grid are zero.
        """
        if total < 0:
            raise ValueError("total number must be >= 0")
        amps = np.zeros(total + 1, dtype=np.complex128)
        view = self.sector_view
        for s in np.flatnonzero(view.totals == total):
            m0, lo, hi = view.first_m[s], view.starts[s], view.starts[s + 1]
            amps[m0 : m0 + hi - lo] = view.amps[lo:hi]
        return amps

    def sector_masses(self) -> np.ndarray:
        """Probability mass per total-number sector, index N in 0..2*cutoff."""
        view = self.sector_view
        masses = np.add.reduceat(np.abs(view.amps) ** 2, view.starts[:-1])
        return np.bincount(view.totals, masses, 2 * self.cutoff + 1)


def _number_phase_amps(n: int, phi: float) -> np.ndarray:
    m = np.arange(n + 1)
    return np.exp(1j * phi * m) / math.sqrt(n + 1)


_log_factorial = np.zeros(1)  # ln k! for k = 0, 1, ...; grown on demand, never changed


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n (at least), from one table shared by all callers."""
    global _log_factorial
    have = len(_log_factorial)
    if have <= n:
        more = np.array([math.lgamma(k + 1.0) for k in range(have, n + 1)])
        _log_factorial = np.concatenate((_log_factorial, more))
    return _log_factorial


def _split_fock_amps(n: int, phi: float, transmissivity: float) -> np.ndarray:
    t = transmissivity
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t!r}")
    m = np.arange(n + 1)
    if n <= _EXACT_BINOM_LIMIT:
        binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        with np.errstate(divide="ignore"):
            # 0**0 = 1 handled explicitly so t in {0, 1} stays valid
            tm = np.where(m == 0, 1.0, t ** m.astype(float))
            sm = np.where(n - m == 0, 1.0, (1.0 - t) ** (n - m).astype(float))
        weights = binom * tm * sm
    else:
        log_fact = _log_factorials(n)
        log_binom = log_fact[n] - log_fact[m] - log_fact[n - m]
        if t in (0.0, 1.0):
            weights = np.zeros(n + 1)
            weights[n if t == 1.0 else 0] = 1.0
        else:
            logw = log_binom + m * math.log(t) + (n - m) * math.log1p(-t)
            weights = np.exp(logw)
    weights = weights / weights.sum()
    return np.sqrt(weights) * np.exp(1j * phi * m)


def number_phase_state(n: int, phi: float) -> PureTwoModeState:
    """Fixed total number N with a uniformly weighted relative-phase profile.

    Amplitudes e^{i m phi} / sqrt(N + 1) on |m>|N - m>, cutoff N.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"total number must be a non-negative integer, got {n!r}")
    return PureTwoModeState.from_sector(int(n), _number_phase_amps(int(n), float(phi)))


def split_fock_state(n: int, phi: float, transmissivity: float = 0.5) -> PureTwoModeState:
    """N photons split on a beamsplitter of the given transmissivity.

    Amplitudes sqrt(binom(N, m) t^m (1-t)^(N-m)) e^{i m phi} on |m>|N - m>.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"total number must be a non-negative integer, got {n!r}")
    return PureTwoModeState.from_sector(
        int(n), _split_fock_amps(int(n), float(phi), float(transmissivity))
    )


def tmss_tail_mass(r: float, cutoff: int) -> float:
    """Exact probability mass of a two-mode squeezed state beyond the cutoff."""
    lam = math.tanh(r) ** 2
    if lam == 0.0:
        return 0.0
    return math.exp((cutoff + 1) * math.log(lam))


def select_cutoff(r: float, tail_tol: float) -> int:
    """Smallest cutoff M with squeezed-state tail mass below tail_tol."""
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    lam = math.tanh(r) ** 2
    if lam == 0.0:
        return 0
    if lam == 1.0:
        raise TruncationError(
            f"squeezing r={r!r} is beyond what double precision can truncate: "
            "tanh(r)**2 rounds to 1, so no cutoff bounds the tail"
        )
    m = max(0, math.ceil(math.log(tail_tol) / math.log(lam)) - 1)
    while tmss_tail_mass(r, m) >= tail_tol:
        m += 1
    while m > 0 and tmss_tail_mass(r, m - 1) < tail_tol:
        m -= 1
    return m


def _tmss_weighted_tail(r: float, cutoff: int) -> float:
    """Upper bound on the total-number second-moment error from truncating at cutoff.

    For p_m = (1 - lam) lam^m the discarded sums over m > cutoff have closed
    geometric forms; the bound covers mass, first and second moments of
    N = 2m plus the renormalization feedback.
    """
    lam = math.tanh(r) ** 2
    if lam == 0.0:
        return 0.0
    k = cutoff + 1
    g = lam / (1.0 - lam)  # = sinh(r)**2
    mass = math.exp(k * math.log(lam))
    s1 = 2.0 * mass * (k + g)
    s2 = 4.0 * mass * (k * k + (2 * k + 1) * g + 2 * g * g)
    n_mean = 2.0 * g
    n_sq = 4.0 * (g * g + g * (1 + g))  # <N^2> = 4(<m>^2 + var m)
    return s2 + 2.0 * n_mean * s1 + 3.0 * mass * (n_sq + 1.0)


def two_mode_squeezed_state(
    r: float, cutoff: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> PureTwoModeState:
    """Two-mode squeezed vacuum, amplitudes tanh(r)^m / cosh(r) on |m>|m>.

    With ``cutoff=None`` the cutoff is chosen so that the truncation error
    of the total-number moments (not just the raw mass) stays below
    tail_tol. An explicit cutoff must keep the tail mass below tail_tol,
    otherwise a TruncationError reports the smallest admissible cutoff.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r!r}")
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    if cutoff is None:
        cutoff = select_cutoff(r, tail_tol)
        while _tmss_weighted_tail(r, cutoff) >= tail_tol:
            cutoff += 1
    else:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if tmss_tail_mass(r, cutoff) >= tail_tol:
            required = select_cutoff(r, tail_tol)
            raise TruncationError(
                f"cutoff {cutoff} leaves tail mass {tmss_tail_mass(r, cutoff):.3e} "
                f">= {tail_tol:g}; cutoff >= {required} required",
                required_cutoff=required,
            )
    require_array_bytes(
        16 * (cutoff + 1) ** 2,
        f"squeezing r={r!r} at cutoff {cutoff}: the {cutoff + 1} x {cutoff + 1} amplitude grid",
    )
    m = np.arange(cutoff + 1)
    amps = np.exp(m * math.log(math.tanh(r))) / math.cosh(r) if r > 0 else np.eye(1)[0]
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[m, m] = amps
    return PureTwoModeState.normalized(grid)


@dataclass(frozen=True)
class NumberDistribution:
    """Discrete distribution over total photon number.

    ``probs`` maps N to probability mass; ``mean`` and ``variance`` are
    cached at construction. ``meta['kept_mass']`` reports the fraction of
    the untruncated mass retained before renormalization.
    """

    probs: Mapping[int, float]
    mean: float
    variance: float
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        masses = np.array(list(self.probs.values()), dtype=float)
        if masses.size == 0:
            raise ValueError("distribution needs at least one point of support")
        if np.any(masses < 0):
            raise ValueError("probability masses must be >= 0")
        if not abs(masses.sum() - 1.0) <= NORM_TOL:
            raise ValueError(f"masses sum to {masses.sum()!r}, not 1")

    @classmethod
    def from_probs(
        cls, probs: Mapping[int, float], meta: Mapping[str, object] | None = None
    ) -> "NumberDistribution":
        """Normalize a mapping N -> mass and cache its moments."""
        numbers = np.array(sorted(probs), dtype=np.int64)
        masses = np.array([probs[int(n)] for n in numbers], dtype=float)
        if np.any(masses < 0):
            raise ValueError("probability masses must be >= 0")
        total = masses.sum()
        if total <= 0:
            raise ValueError("total mass must be positive")
        masses = masses / total
        mean = float(np.dot(masses, numbers))
        variance = float(np.dot(masses, (numbers - mean) ** 2))
        return cls(
            probs=dict(zip((int(n) for n in numbers), (float(p) for p in masses))),
            mean=mean,
            variance=variance,
            meta=dict(meta or {}),
        )

    @classmethod
    def point(cls, n: int) -> "NumberDistribution":
        if n < 0 or n != int(n):
            raise ValueError("point support must be a non-negative integer")
        return cls.from_probs({int(n): 1.0}, meta={"kept_mass": 1.0})

    def support(self) -> np.ndarray:
        return np.array(sorted(self.probs), dtype=np.int64)

    def masses(self) -> np.ndarray:
        return np.array([self.probs[int(n)] for n in self.support()], dtype=float)


def _trim_tails(numbers: np.ndarray, raw: np.ndarray, tail_tol: float):
    """Drop outer support whose discarded mass and N^2-weighted mass both
    stay below tail_tol per side. Returns (numbers, masses, kept_fraction)."""
    w2 = raw * numbers.astype(float) ** 2
    budget = 0.5 * tail_tol
    pm = np.concatenate(([0.0], np.cumsum(raw)))
    p2 = np.concatenate(([0.0], np.cumsum(w2)))
    sm = np.concatenate(([0.0], np.cumsum(raw[::-1])))[::-1]
    s2 = np.concatenate(([0.0], np.cumsum(w2[::-1])))[::-1]
    lo = 0
    while lo < len(raw) - 1 and pm[lo + 1] < budget and p2[lo + 1] < budget:
        lo += 1
    hi = len(raw) - 1
    while hi > lo and sm[hi] < budget and s2[hi] < budget:
        hi -= 1
    kept = numbers[lo : hi + 1]
    masses = raw[lo : hi + 1]
    total = raw.sum()
    kept_fraction = float(masses.sum() / total)
    return kept, masses / masses.sum(), kept_fraction


def _distribution_from_raw(numbers, raw, tail_tol, extra_meta=None) -> NumberDistribution:
    numbers, masses, kept = _trim_tails(np.asarray(numbers), np.asarray(raw, dtype=float), tail_tol)
    meta = {"kept_mass": kept}
    if extra_meta:
        meta.update(extra_meta)
    return NumberDistribution.from_probs(
        {int(n): float(p) for n, p in zip(numbers, masses)}, meta=meta
    )


def poissonian_distribution(mean: float, tail_tol: float = DEFAULT_TAIL_TOL) -> NumberDistribution:
    """Poissonian photon-number noise, truncated and renormalized.

    Masses are built by the exact recurrence p(N+1) = p(N) * mean / (N+1)
    outward from the mode, so term ratios are preserved to machine
    precision at any mean.
    """
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean!r}")
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    horizon = int(math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0))
    mode = min(int(mean), horizon)
    raw = np.zeros(horizon + 1)
    raw[mode] = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1))
    for n in range(mode, horizon):
        raw[n + 1] = raw[n] * (mean / (n + 1))
    for n in range(mode, 0, -1):
        raw[n - 1] = raw[n] * (n / mean)
    return _distribution_from_raw(np.arange(horizon + 1), raw, tail_tol)


def thermal_distribution(mean: float, tail_tol: float = DEFAULT_TAIL_TOL) -> NumberDistribution:
    """Thermal (geometric) photon-number noise, truncated and renormalized."""
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean!r}")
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    q = mean / (mean + 1.0)
    # horizon where even the N^2-weighted remainder is negligible next to tail_tol
    horizon = 8
    log_q = math.log(q)
    while horizon * horizon * math.exp((horizon + 1) * log_q) / (1.0 - q) >= tail_tol * 1e-3:
        horizon *= 2
    n = np.arange(horizon + 1)
    raw = np.exp(n * log_q) * (1.0 - q)
    return _distribution_from_raw(n, raw, tail_tol)


def gaussian_distribution(
    mean: float, std: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> NumberDistribution:
    """Gaussian kernel discretized on the non-negative integers.

    meta['regime_violation'] is set when std is not small against the mean
    (the narrow-noise regime assumed by the asymptotic criteria).
    """
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean!r}")
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std!r}")
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    half_width = std * (math.sqrt(2.0 * math.log(1.0 / min(tail_tol, 0.1))) + 6.0) + 4.0
    lo = max(0, int(math.floor(mean - half_width)))
    hi = int(math.ceil(mean + half_width))
    n = np.arange(lo, hi + 1)
    raw = np.exp(-((n - mean) ** 2) / (2.0 * std * std))
    return _distribution_from_raw(
        n, raw, tail_tol, extra_meta={"regime_violation": bool(10.0 * std > mean)}
    )


@dataclass(frozen=True)
class SectorState:
    """Pure state confined to a single total-number sector.

    ``amps[m]`` is the amplitude on |m>|total - m>; unit norm, read-only.
    """

    total: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        if a.ndim != 1 or len(a) != self.total + 1:
            raise ValueError(f"sector {self.total} needs {self.total + 1} amplitudes, got {a.shape}")
        norm = float(np.sum(np.abs(a) ** 2))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"sector state norm**2 = {norm!r} deviates from 1")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    def to_pure_state(self) -> PureTwoModeState:
        return PureTwoModeState.from_sector(self.total, self.amps)


class SectorMixture:
    """Statistical mixture of pure states living in distinct total-number sectors.

    Stored flat: sector s has total ``totals()[s]``, weight ``weights()[s]``
    and unit-norm amplitudes ``amps[starts[s]:starts[s + 1]]`` on
    |m>|N - m>, m = 0..N. Totals strictly increase and the weights sum to
    one. ``SectorMixture(sectors)`` builds these arrays from
    (N, weight, SectorState) triples; ``sectors`` gives the triples back,
    built the first time it is read. All arrays are read-only.
    """

    def __init__(self, sectors: Iterable[tuple[int, float, SectorState]]):
        sectors = tuple(sectors)
        for n, _, state in sectors:
            if state.total != n:
                raise ValueError(f"sector labeled {n} holds a state of total {state.total}")
        counts = [len(state.amps) for _, _, state in sectors]
        self._adopt(
            np.array([n for n, _, _ in sectors], dtype=np.int64),
            np.array([w for _, w, _ in sectors], dtype=float),
            np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            np.concatenate([np.zeros(0, np.complex128)] + [state.amps for _, _, state in sectors]),
        )
        self.__dict__["sectors"] = sectors

    @classmethod
    def _flat(cls, totals, weights, starts, amps) -> "SectorMixture":
        mix = cls.__new__(cls)
        mix._adopt(totals, weights, starts, amps)
        return mix

    def _adopt(self, totals: np.ndarray, weights: np.ndarray, starts: np.ndarray, amps: np.ndarray):
        """Check the flat arrays (NaN-safe) and keep them, read-only."""
        if len(totals) == 0:
            raise ValueError("mixture needs at least one sector")
        if np.any(totals[1:] <= totals[:-1]):
            raise ValueError("sector labels must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("sector weights must be >= 0")
        if not abs(weights.sum() - 1.0) <= NORM_TOL:
            raise ValueError(f"sector weights sum to {weights.sum()!r}, not 1")
        counts = np.diff(starts)
        wrong = np.flatnonzero(counts != totals + 1)
        if len(wrong):
            n = int(totals[wrong[0]])
            raise ValueError(f"sector {n} needs {n + 1} amplitudes, got {int(counts[wrong[0]])}")
        norms = np.add.reduceat(np.abs(amps) ** 2, starts[:-1])
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
        if len(off):
            raise ValueError(f"sector state norm**2 = {float(norms[off[0]])!r} deviates from 1")
        for a in (totals, weights, starts, amps):
            a.flags.writeable = False
        self._totals, self._weights, self.starts, self.amps = totals, weights, starts, amps

    @property
    def cutoff(self) -> int:
        return int(self._totals[-1])

    def totals(self) -> np.ndarray:
        return self._totals

    def weights(self) -> np.ndarray:
        return self._weights

    def distribution(self) -> NumberDistribution:
        return NumberDistribution.from_probs(dict(zip(self._totals.tolist(), self._weights.tolist())))

    @cached_property
    def sectors(self) -> tuple[tuple[int, float, SectorState], ...]:
        bounds = zip(self.starts[:-1].tolist(), self.starts[1:].tolist())
        return tuple(
            (n, w, SectorState(n, self.amps[lo:hi]))
            for n, w, (lo, hi) in zip(self._totals.tolist(), self._weights.tolist(), bounds)
        )

    def iter_sectors(self) -> Iterator[tuple[int, float, SectorState]]:
        return iter(self.sectors)

    @cached_property
    def sector_view(self) -> SectorView:
        return _weighted_view(self.amps, self.starts, self._totals, self._weights)


def mixture_from_sector_amplitudes(
    dist: NumberDistribution, amps_builder: Callable[[int], np.ndarray]
) -> SectorMixture:
    """Mix the sector states ``amps_builder(N)`` with weights from ``dist``.

    ``amps_builder(N)`` returns the N + 1 amplitudes on |m>|N - m>, which
    are normalized here and written into one flat array.
    """
    totals = dist.support()
    starts = np.concatenate(([0], np.cumsum(totals + 1)))
    require_array_bytes(
        16 * int(starts[-1]), f"a mixture of {len(totals)} sectors up to N = {int(totals[-1])}"
    )
    amps = np.empty(starts[-1], dtype=np.complex128)
    for n, lo, hi in zip(totals.tolist(), starts[:-1].tolist(), starts[1:].tolist()):
        a = np.asarray(amps_builder(n), dtype=np.complex128)
        if a.shape != (n + 1,):
            raise ValueError(f"sector {n} needs {n + 1} amplitudes, got {a.shape}")
        np.divide(a, math.sqrt(float(np.sum(np.abs(a) ** 2))), out=amps[lo:hi])
    return SectorMixture._flat(totals, dist.masses(), starts, amps)


def mixture_over_sectors(
    dist: NumberDistribution, sector_builder: Callable[[int], PureTwoModeState]
) -> SectorMixture:
    """Mix ``sector_builder(N)`` outputs with weights from ``dist``.

    Each built state must be confined to its sector: off-sector mass at or
    above OFF_SECTOR_TOL raises a ValueError identifying the offending N.
    """

    def sector_amps(n: int) -> np.ndarray:
        state = sector_builder(n)
        amps = state.sector_amplitudes(n)
        off_mass = abs(state.total_mass() - float(np.sum(np.abs(amps) ** 2)))
        if off_mass >= OFF_SECTOR_TOL:
            raise ValueError(
                f"builder output for sector {n} has off-sector mass {off_mass:.3e} "
                f">= {OFF_SECTOR_TOL:g}"
            )
        return amps

    return mixture_from_sector_amplitudes(dist, sector_amps)


State = PureTwoModeState | SectorMixture
