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

from npsteer import NumberDistribution, PureTwoModeState, SectorMixture, mixture_from_sector_amplitudes

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


def dense_rho(state, pad: int = 2) -> tuple[np.ndarray, int]:
    """Density matrix of the state on a padded two-mode grid."""
    dim = state.cutoff + 1 + pad
    if isinstance(state, PureTwoModeState):
        v = _padded_vec(state.coeffs, dim)
        return np.outer(v, v.conj()), dim
    rho = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for _, w, sector in state.iter_sectors():
        v = _padded_vec(sector.to_pure_state().coeffs, dim)
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
            amps = state.sector_amplitudes(total)
            weight = 1.0
        else:
            match = [(w, sec) for n, w, sec in state.iter_sectors() if n == total]
            if not match:
                continue
            weight, sector = match[0]
            amps = sector.amps
        z = 0j
        for m, amp in enumerate(amps):
            z += amp * complex(math.cos(m * phi), -math.sin(m * phi))
        acc += weight * abs(z) ** 2
    return acc / TWO_PI


def oracle_density_loop(state, grid_size: int) -> np.ndarray:
    """Relative-density values as the per-sector loop made them: one FFT per sector of the view."""
    view = state.sector_view
    acc = np.zeros(grid_size)
    for lo, hi in zip(view.starts[:-1].tolist(), view.starts[1:].tolist()):
        amps = view.amps[lo:hi]
        m = np.arange(len(amps))
        signed = amps * np.where(m % 2 == 0, 1.0, -1.0)
        acc += np.abs(np.fft.fft(signed, n=grid_size)) ** 2
    return acc / TWO_PI


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
    dist = NumberDistribution.from_probs(
        {int(n): float(w) for n, w in zip(totals, weights)}
    )
    amps = {int(n): rand_single(rng, int(n) + 1) for n in totals}
    return mixture_from_sector_amplitudes(dist, lambda n: amps[n])


def oracle_bootstrap_std(samples1, samples2, resamples: int, seed: int | None = None) -> float:
    """Bootstrap standard error of the dispersion estimate, one resample after another.

    The serial loop the estimator ran before its resamples moved to a helper
    thread: the same PCG64 stream, seeded the same way, one
    ``rng.integers(0, n, n)`` draw per resample.
    """
    n = samples1.shots
    z = np.exp(1j * (samples1.phis - samples2.phis))
    if seed is None:
        ss = np.random.SeedSequence((samples1.seed, samples2.seed, n, 0xD157))
    else:
        ss = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(ss))
    vals = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, n, n)
        vals[i] = 1.0 - abs(complex(z[idx].mean())) ** 2
    return float(vals.std(ddof=1))


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
