"""Brute-force oracles used only by the test suite.

Each oracle rebuilds an expectation value the slow, obviously-correct way:
dense operators assembled with Kronecker products, density matrices for
mixtures, direct polynomial sums for phase densities. States are embedded
in a grid padded by two extra levels so that quadratic ladder products act
without truncation artifacts; for the shift-sum moments the padding is a
no-op.
"""
import math

import numpy as np

from npsteer import (
    PureTwoModeState,
    SectorMixture,
    mixture_from_sector_amplitudes,
    two_mode_squeezed_state,
)
from npsteer import fock
from npsteer.fock import (
    NORM_TOL, NumberDistribution, SectorView, _tmss_weighted_tail, select_cutoff,
)
from npsteer.observables import HZMoments, NumberMoments, _clip_unit
from npsteer.phase_povm import JointPhaseDensity, PhaseDensity, _write_csv

TWO_PI = 2.0 * math.pi


def shift_op(dim: int) -> np.ndarray:
    """One-sided shift |n><n+1| (the normalized ladder operator)."""
    s = np.zeros((dim, dim))
    s[np.arange(dim - 1), np.arange(1, dim)] = 1.0
    return s


def lower_op(dim: int) -> np.ndarray:
    """Annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a


def _padded_vec(coeffs: np.ndarray, dim: int) -> np.ndarray:
    grid = np.zeros((dim, dim), dtype=np.complex128)
    k = coeffs.shape[0]
    grid[:k, :k] = coeffs
    return grid.ravel()


def mixture_sectors(mix: SectorMixture) -> list[tuple[int, float, np.ndarray]]:
    """(N, weight, amplitudes on |m>|N - m>) of each sector, read from the flat arrays."""
    bounds = zip(mix.starts[:-1].tolist(), mix.starts[1:].tolist())
    labels = zip(mix.totals().tolist(), mix.weights().tolist())
    return [(n, w, mix.amps[lo:hi]) for (n, w), (lo, hi) in zip(labels, bounds)]


def oracle_sector_amplitudes(state: PureTwoModeState, total: int) -> np.ndarray:
    """The grid's anti-diagonal m + n = total, indexed by m in 0..total; zero off the grid."""
    c = state.coeffs
    amps = np.zeros(total + 1, dtype=np.complex128)
    m = np.arange(max(0, total - len(c) + 1), min(total, len(c) - 1) + 1)
    amps[m] = c[m, total - m]
    return amps


def oracle_sector_masses(state: PureTwoModeState) -> np.ndarray:
    """Mass of each total-number sector N = 0..2 cutoff, summed from the grid."""
    c = state.coeffs
    m, n = np.indices(c.shape)
    return np.bincount((m + n).ravel(), (np.abs(c) ** 2).ravel(), 2 * len(c) - 1)


def flat_mixture(dist: NumberDistribution, base: str = "number_phase", phi: float = 0.0,
                 transmissivity: float = 0.5) -> SectorMixture:
    """``base`` states (number_phase or split_fock) mixed over ``dist``, built as
    ``StateSpec.build`` builds a mixture: in one flat pass."""
    if base == "number_phase":
        return mixture_from_sector_amplitudes(dist, lambda totals: fock._number_phase_amps(totals, phi))
    return mixture_from_sector_amplitudes(
        dist, lambda totals: fock._split_fock_amps(totals, phi, transmissivity)
    )


def dense_rho(state, pad: int = 2) -> tuple[np.ndarray, int]:
    """Density matrix of the state on a padded two-mode grid."""
    dim = state.cutoff + 1 + pad
    if isinstance(state, PureTwoModeState):
        v = _padded_vec(state.coeffs, dim)
        return np.outer(v, v.conj()), dim
    rho = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for n, w, amps in mixture_sectors(state):
        v = _padded_vec(PureTwoModeState.from_sector(n, amps).coeffs, dim)
        rho += w * np.outer(v, v.conj())
    return rho, dim


def oracle_moments(state, pad: int = 2) -> dict:
    """Every moment the package computes, from dense operators."""
    rho, dim = dense_rho(state, pad)
    eye = np.eye(dim)
    s = shift_op(dim)
    a = lower_op(dim)
    e1 = np.kron(s, eye)
    e2 = np.kron(eye, s)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    n1 = a1.conj().T @ a1
    n2 = a2.conj().T @ a2
    ntot = n1 + n2

    def ev(op):
        return complex(np.trace(rho @ op))

    n_mean = ev(ntot).real
    n_var = ev(ntot @ ntot).real - n_mean**2
    na = ev(n1).real
    nb = ev(n2).real
    n1_var = ev(n1 @ n1).real - na**2
    n2_var = ev(n2 @ n2).real - nb**2

    sq2 = math.sqrt(2.0)
    x1 = (a1 + a1.conj().T) / sq2
    x2 = (a2 + a2.conj().T) / sq2
    p1 = (a1 - a1.conj().T) / (1j * sq2)
    p2 = (a2 - a2.conj().T) / (1j * sq2)
    mx = x1 - x2
    mp = p1 + p2
    quad = (
        ev(mx @ mx).real
        - ev(mx).real ** 2
        + ev(mp @ mp).real
        - ev(mp).real ** 2
    )

    return {
        "e_rel": ev(e1 @ e2.conj().T),
        "e1": ev(e1),
        "e2": ev(e2),
        "adagb": ev(a1.conj().T @ a2),
        "nanb": ev(n1 @ n2).real,
        "na": na,
        "nb": nb,
        "n_mean": n_mean,
        "n_var": n_var,
        "n1_var": n1_var,
        "n2_var": n2_var,
        "quad_sum": quad,
    }


def oracle_relative_density(state, phi: float) -> float:
    """Direct polynomial evaluation of the relative-phase density at one angle."""
    total_max = 2 * state.cutoff if isinstance(state, PureTwoModeState) else state.cutoff
    acc = 0.0
    for total in range(total_max + 1):
        if isinstance(state, PureTwoModeState):
            amps = oracle_sector_amplitudes(state, total)
            weight = 1.0
        else:
            match = [(w, a) for n, w, a in mixture_sectors(state) if n == total]
            if not match:
                continue
            weight, amps = match[0]
        z = 0j
        for m, amp in enumerate(amps):
            z += amp * complex(math.cos(m * phi), -math.sin(m * phi))
        acc += weight * abs(z) ** 2
    return acc / TWO_PI


def oracle_summed_profiles(amps: np.ndarray, starts: np.ndarray, grid_size: int) -> np.ndarray:
    """Summed sector profiles as the per-sector loop made them: one length-K FFT per sector."""
    acc = np.zeros(grid_size)
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        m = np.arange(hi - lo)
        signed = amps[lo:hi] * np.where(m % 2 == 0, 1.0, -1.0)
        acc += np.abs(np.fft.fft(signed, n=grid_size)) ** 2
    return acc


def oracle_density_loop(state, grid_size: int) -> np.ndarray:
    """Relative-density values as the per-sector loop made them: one FFT per sector of the
    scaled view (``oracle_scaled_view``)."""
    view = oracle_scaled_view(state)
    return oracle_summed_profiles(view.amps, view.starts, grid_size) / TWO_PI


# The sector view as it was before a mixture's view read its amplitudes in place: a new array
# of the amplitudes, each times the root of its sector's weight; and the view sums over it.


def oracle_weighted_view(amps: np.ndarray, starts: np.ndarray, totals: np.ndarray,
                         weights: np.ndarray) -> SectorView:
    """View of sectors stored flat from m = 0, each scaled by the root of its weight into one
    new array; sectors of zero weight or without amplitude are left out."""
    counts = np.diff(starts)
    scaled = amps * np.repeat(np.sqrt(weights), counts)
    kept = (weights > 0.0) & np.logical_or.reduceat(amps != 0, starts[:-1])
    if not kept.all():
        scaled, counts = scaled[np.repeat(kept, counts)], counts[kept]
        starts = np.concatenate(([0], np.cumsum(counts)))
    return SectorView(scaled, starts, totals[kept], np.zeros(len(counts), dtype=np.int64))


def oracle_scaled_view(state) -> SectorView:
    """The state's scaled sector view: a mixture's and a single sector's made by
    ``oracle_weighted_view`` (a single sector at weight 1), a grid's or a diagonal's as it is."""
    if isinstance(state, SectorMixture):
        return oracle_weighted_view(state.amps, state.starts, state.totals(), state.weights())
    if state._sector is not None:
        k = state.cutoff + 1
        return oracle_weighted_view(state._sector, np.array([0, k]), np.array([k - 1]),
                                    np.ones(1))
    return state.sector_view


def oracle_view_sums(view: SectorView, cutoff: int):
    """``observables._view_sums`` over a scaled view, every product formed whole: |amps|^2 in one
    ``np.abs``, the neighbor products in one conjugate of the view."""
    def weighted_sum(w, x, out):
        return float(np.sum(np.multiply(w, x, out=out)))

    p = np.abs(view.amps)
    np.square(p, out=p)
    sector_p = np.add.reduceat(p, view.starts[:-1])
    dev = np.empty_like(sector_p)
    tot1 = weighted_sum(sector_p, view.totals, dev)
    np.subtract(view.totals, tot1, out=dev)
    tot_var = weighted_sum(sector_p, np.square(dev, out=dev), dev)
    m, n = view.levels()
    edge_mass = float(np.sum(p[(m == cutoff) | (n == cutoff)]))
    tmp = np.empty_like(p)
    na, nb = weighted_sum(p, m, tmp), weighted_sum(p, n, tmp)
    m_var = weighted_sum(p, np.square(np.subtract(m, na, out=tmp), out=tmp), tmp)
    n_var = weighted_sum(p, np.square(np.subtract(n, nb, out=tmp), out=tmp), tmp)
    nanb = weighted_sum(p, np.multiply(m, n, out=tmp), tmp)
    roots = np.sqrt((m[:-1] + 1.0) * n[:-1])
    pairs = np.conj(view.amps[:-1])
    pairs *= view.amps[1:]
    pairs[view.starts[1:-1] - 1] = 0.0
    e_rel = complex(np.sum(pairs))
    pairs *= roots
    hz = HZMoments(complex(np.sum(pairs)).conjugate(), nanb, na, nb)
    return NumberMoments(tot1, tot_var, m_var, n_var), e_rel, hz, edge_mass


def oracle_joint_values(state: PureTwoModeState, grid_size: int) -> np.ndarray:
    """Joint-density values as the two-dimensional transform made them: one ``fft2`` of the
    sign-flipped grid at K x K, its modulus squared and scaled, then clipped into a new array."""
    m = np.arange(state.cutoff + 1)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    signed = state.coeffs * sign[:, None] * sign[None, :]
    values = np.abs(np.fft.fft2(signed, s=(grid_size, grid_size)))
    values **= 2
    values /= TWO_PI**2
    return np.clip(values, 0.0, None)


def oracle_joint_density(state: PureTwoModeState, phi1: float, phi2: float) -> float:
    """Direct evaluation of the joint local-phase density at one angle pair."""
    k = state.cutoff + 1
    e1 = np.exp(-1j * phi1 * np.arange(k))
    e2 = np.exp(-1j * phi2 * np.arange(k))
    amp = e1 @ state.coeffs @ e2
    return float(abs(amp) ** 2) / TWO_PI**2


def rand_single(rng: np.random.Generator, levels: int) -> np.ndarray:
    """Random normalized single-mode amplitude vector."""
    v = rng.normal(size=levels) + 1j * rng.normal(size=levels)
    return v / np.linalg.norm(v)


def rand_pure(rng: np.random.Generator, cutoff: int) -> PureTwoModeState:
    c = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(
        size=(cutoff + 1, cutoff + 1)
    )
    return PureTwoModeState.normalized(c)


def rand_product(rng: np.random.Generator, cutoff: int) -> PureTwoModeState:
    u = rand_single(rng, cutoff + 1)
    v = rand_single(rng, cutoff + 1)
    return PureTwoModeState.normalized(np.outer(u, v))


def rand_mixture(rng: np.random.Generator, max_total: int, n_sectors: int) -> SectorMixture:
    totals = sorted(rng.choice(max_total + 1, size=min(n_sectors, max_total + 1), replace=False))
    weights = rng.random(len(totals)) + 0.1
    weights /= weights.sum()
    dist = NumberDistribution(totals, weights)
    amps = {int(n): rand_single(rng, int(n) + 1) for n in totals}
    return mixture_from_sector_amplitudes(dist, joined(lambda n: amps[n]))


def joined(sector_amps):
    """A flat builder from a per-sector one: ``sector_amps(N)`` for each N, concatenated."""
    return lambda totals: np.concatenate([sector_amps(n) for n in totals.tolist()])


def oracle_number_phase_amps(n: int, phi: float) -> np.ndarray:
    """One sector's number-phase amplitudes, as the per-sector builder formed them."""
    m = np.arange(n + 1)
    return np.exp(1j * phi * m) / math.sqrt(n + 1)


def oracle_split_fock_amps(n: int, phi: float, transmissivity: float) -> np.ndarray:
    """One sector's split-Fock amplitudes, as the per-sector builder formed them."""
    t = transmissivity
    m = np.arange(n + 1)
    if n <= 300:
        binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        with np.errstate(divide="ignore"):
            tm = np.where(m == 0, 1.0, t ** m.astype(float))
            sm = np.where(n - m == 0, 1.0, (1.0 - t) ** (n - m).astype(float))
        weights = binom * tm * sm
    else:
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        log_binom = log_fact[n] - log_fact[m] - log_fact[n - m]
        if t in (0.0, 1.0):
            weights = np.zeros(n + 1)
            weights[n if t == 1.0 else 0] = 1.0
        else:
            logw = log_binom + m * math.log(t) + (n - m) * math.log1p(-t)
            weights = np.exp(logw)
    weights = weights / weights.sum()
    return np.sqrt(weights) * np.exp(1j * phi * m)


def oracle_mixture(dist: NumberDistribution, sector_amps) -> SectorMixture:
    """The mixture as the per-sector constructor built it: one ``sector_amps(N)`` call and one
    normalization per sector, written into a preallocated flat array."""
    totals = dist.support
    starts = np.concatenate(([0], np.cumsum(totals + 1)))
    amps = np.empty(starts[-1], dtype=np.complex128)
    for n, lo, hi in zip(totals.tolist(), starts[:-1].tolist(), starts[1:].tolist()):
        a = np.asarray(sector_amps(n), dtype=np.complex128)
        if a.shape != (n + 1,):
            raise ValueError(f"sector {n} needs {n + 1} amplitudes, got {a.shape}")
        np.divide(a, math.sqrt(float(np.sum(np.abs(a) ** 2))), out=amps[lo:hi])
    return SectorMixture(totals, dist.masses, amps)


def oracle_trim_tails(numbers: np.ndarray, raw: np.ndarray, tail_tol: float):
    """The noise-support trim as the loop over the tails made it: all four running sums
    formed first, then the cut walked inward from each end one point at a time."""
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
    kept_fraction = float(masses.sum() / raw.sum())
    return kept, masses / masses.sum(), kept_fraction


def oracle_bootstrap_values(z: np.ndarray, rng: np.random.Generator, resamples: int) -> np.ndarray:
    """The resampled dispersions of phase factors ``z``, as one full gather a resample forms them.

    One ``rng.integers(0, n, n)`` draw per resample, all its values gathered
    at once and averaged by ``np.mean``.
    """
    n = len(z)
    vals = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, n, n)
        vals[i] = 1.0 - abs(complex(z[idx].mean())) ** 2
    return vals


def oracle_bootstrap_std(samples1, samples2, resamples: int, seed: int | None = None) -> float:
    """Bootstrap standard error of the dispersion estimate, one resample after another.

    The serial loop the estimator ran before its resamples moved to a helper
    thread: the same PCG64 stream, seeded the same way, one full gather per
    resample (``oracle_bootstrap_values``).
    """
    n = samples1.shots
    z = np.exp(1j * (samples1.phis - samples2.phis))
    if seed is None:
        ss = np.random.SeedSequence((samples1.seed, samples2.seed, n, 0xD157))
    else:
        ss = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(ss))
    return float(oracle_bootstrap_values(z, rng, resamples).std(ddof=1))


def oracle_jackknife_std(samples1, samples2) -> float:
    """Jackknife standard error of the dispersion estimate, each step one whole-array expression.

    The recipe the estimator ran before it formed the leave-one-out dispersions a
    block at a time: the leave-one-out means, their moduli and the deviations each
    a shot long.
    """
    n = samples1.shots
    z = np.exp(1j * (samples1.phis - samples2.phis))
    loo = (complex(z.sum()) - z) / (n - 1)
    d2_loo = 1.0 - np.abs(loo) ** 2
    return math.sqrt((n - 1) / n * float(np.sum((d2_loo - d2_loo.mean()) ** 2)))


def oracle_groups(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(label, indices of that label) for each distinct label, cut where the sorted labels change."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [(int(labels[group[0]]), group) for group in np.split(order, cuts)]


def oracle_samples_csv(samples1, samples2) -> str:
    """The sample CSV text as the per-row f-string writer produced it."""
    start = samples1.start_shot
    rows = zip(samples1.phis.tolist(), samples2.phis.tolist())
    return "shot_index,phi1,phi2\n" + "".join(
        f"{start + i},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)
    )


def csv_row(report) -> list[str]:
    """A report's fields as CSV cells in REPORT_FIELDS order, each the repr of a float."""
    return [repr(float(x)) for x in report.to_json_dict().values()]


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


def relative_marginal_from_joint(joint: JointPhaseDensity) -> PhaseDensity:
    """Integrate the joint density along phi2 at fixed difference phi1 - phi2."""
    k = joint.grid_size
    j = np.arange(k)
    rows = (j[None, :] + j[:, None] - k // 2) % k  # rows[d, j] = index of phi1 = delta_d + phi_j
    values = joint.values[rows, j[None, :]].sum(axis=1) * joint.spacing
    return PhaseDensity(values)


def write_density_csv(path, density: PhaseDensity) -> None:
    """Write a phase density as CSV rows (phi, p), through the package's CSV writer."""
    _write_csv(path, "phi,p", (density.phis, density.values))


# The grid-state expressions as they were before each product was formed once in place, and
# the grid states they are checked on: squeezed states and random complex grids of side D.


def _random_grid_state(k: int) -> PureTwoModeState:
    rng = np.random.default_rng(k)
    return PureTwoModeState.normalized(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))


GRID_CASES = {
    "tmss-r0.5": lambda: two_mode_squeezed_state(0.5),
    "tmss-r2": lambda: two_mode_squeezed_state(2.0),
    **{f"random-D{k}": (lambda k=k: _random_grid_state(k)) for k in (1, 2, 37, 300)},
}


def oracle_exp_phase_single(c: np.ndarray, mode: int) -> complex:
    """<E_mode> of a grid state: one fresh conjugate, one fresh product."""
    c = c if mode == 1 else c.T
    return complex(np.sum(np.conj(c[:-1, :]) * c[1:, :]))


def oracle_ladder_moments(c: np.ndarray) -> tuple[complex, complex, complex]:
    """<a1>, <a2>, <a1 a2> of a grid state, each product formed in a chain of fresh arrays."""
    root = np.sqrt(np.arange(1, len(c), dtype=float))
    a1, a2 = (complex(np.sum(root[:, None] * np.conj(g[:-1, :]) * g[1:, :])) for g in (c, c.T))
    a1a2 = complex(np.sum(root[:, None] * root[None, :] * np.conj(c[:-1, :-1]) * c[1:, 1:]))
    return a1, a2, a1a2


def oracle_normalized_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """The grid ``PureTwoModeState.normalized`` kept: divided into a fresh grid, then copied."""
    c = np.asarray(coeffs, dtype=np.complex128)
    norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return (c / norm).copy()


def oracle_grid_view(c: np.ndarray) -> SectorView:
    """A grid state's sector view, gathered with a 2-D (m, N - m) fancy index."""
    k = len(c)
    totals = np.arange(2 * k - 1)
    first_m = np.maximum(0, totals - (k - 1))
    counts = np.minimum(totals, k - 1) - first_m + 1
    starts = np.concatenate(([0], np.cumsum(counts)))
    m = np.arange(starts[-1]) - np.repeat(starts[:-1] - first_m, counts)
    amps = c[m, np.repeat(totals, counts) - m]
    kept = np.logical_or.reduceat(amps != 0, starts[:-1])
    if not kept.all():
        amps, counts = amps[np.repeat(kept, counts)], counts[kept]
        starts = np.concatenate(([0], np.cumsum(counts)))
    return SectorView(amps, starts, totals[kept], first_m[kept])


# The squeezed state as it was built before it stored its diagonal: the amplitudes on a zero
# grid, normalized in place with the norm and its check summed over the grid; its grid moments
# formed in place, mode 2 through the transposed grid; its cutoff found by a scan.


def oracle_squeezed_grid(r: float, cutoff: int) -> np.ndarray:
    """The normalized grid of ``two_mode_squeezed_state(r, cutoff)``, built densely."""
    m = np.arange(cutoff + 1)
    amps = np.exp(m * math.log(math.tanh(r))) / math.cosh(r) if r > 0 else (m == 0) * 1.0
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    grid[m, m] = amps
    p = np.abs(grid)
    norm = math.sqrt(float(np.sum(np.square(p, out=p))))
    grid /= norm
    p = np.abs(grid, out=p)
    assert abs(float(np.sum(np.square(p, out=p))) - 1.0) <= NORM_TOL
    return grid


def oracle_grid_moments_in_place(c: np.ndarray) -> tuple[complex, ...]:
    """E1, E2, <a1>, <a2>, <a1 a2> of a grid, each product formed in place in one array."""

    def weighted_sum(weight, lower, upper) -> complex:
        terms = np.conj(lower)
        if weight is not None:
            terms *= weight
        terms *= upper
        return complex(np.sum(terms))

    root = np.sqrt(np.arange(1, len(c), dtype=float))
    e1, e2 = (weighted_sum(None, g[:-1, :], g[1:, :]) for g in (c, c.T))
    a1, a2 = (weighted_sum(root[:, None], g[:-1, :], g[1:, :]) for g in (c, c.T))
    return e1, e2, a1, a2, weighted_sum(root[:, None] * root[None, :], c[:-1, :-1], c[1:, 1:])


def oracle_tmss_cutoff_scan(r: float, tail_tol: float) -> int:
    """The automatic squeezed-state cutoff, raised one step at a time from select_cutoff."""
    cutoff = select_cutoff(r, tail_tol)
    while _tmss_weighted_tail(r, cutoff) >= tail_tol:
        cutoff += 1
    return cutoff


def raw_sectors(seed: int, totals: list[int]):
    """Flat sectors from m = 0 for ``totals`` (increasing), as ``fock._weighted_view`` takes them:
    (amps, starts, totals, weights). Drawn from ``seed``: a sector may have zero weight, no
    amplitude, or zeros of either sign among its amplitudes; the first is always kept."""
    rng = np.random.default_rng(seed)
    totals = np.asarray(totals, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(totals + 1)))
    amps = rng.normal(size=starts[-1]) + 1j * rng.normal(size=starts[-1])
    zeros = rng.random(starts[-1]) < 0.2
    for part in (amps.real, amps.imag):
        part[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    weights = rng.random(len(totals)) + 0.05
    kind = rng.integers(0, 3, len(totals))  # 0: kept, 1: zero weight, 2: no amplitude
    kind[0] = 0
    amps[~np.repeat(kind != 2, totals + 1)] = 0.0
    amps[starts[0]] = 0.5 - 0.25j
    weights[kind == 1] = 0.0
    return amps, starts, totals, weights / weights.sum()
