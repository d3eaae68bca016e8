"""Phase-difference POVM densities, Monte-Carlo sampling, and estimators.

Densities live on K uniformly spaced angles in [-pi, pi). Because every
density here is a trigonometric polynomial of degree at most the cutoff,
the rectangle (= periodic trapezoidal) rule is exact once K exceeds the
Nyquist bound 2 * (cutoff + 1); constructors enforce that bound.

Sampling uses counter-based Philox streams: shot i consumes exactly the
four uniforms of counter block ``start_shot + i``, so parallel batches
split by ``start_shot`` reproduce the sequential stream exactly.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fock import PureTwoModeState, State, require_array_bytes

TWO_PI = 2.0 * math.pi
DENSITY_NORM_TOL = 1e-8
NEGATIVE_CLIP_TOL = -1e-14
MIN_GRID = 64
MIN_SAMPLING_GRID = 256
DEFAULT_BOOTSTRAP_RESAMPLES = 200
# A helper thread must win the GIL back from the work run beside it (the CSV
# writer beside the bootstrap, the observable report beside the relative
# density) after every numpy call. Few, large index draws (a 2 MB temporary
# each) and short formatting chunks (each one C call under the GIL, under a
# millisecond) let the bootstrap keep up. So does a short switch interval: the
# process-wide interval is lowered only while that work runs beside a helper,
# and restored as soon as it ends.
DRAW_CHUNK = 1 << 18  # bootstrap indices drawn per rng.integers call
CSV_CHUNK_ROWS = 1 << 8  # rows formatted per write
OVERLAP_SWITCH_INTERVAL = 1e-4  # seconds
MASS_ROW_BLOCK = 64  # joint-density rows turned into cell masses at a time
# Sector profiles are transformed a block of (sector, angle) cells at a time:
# 32 sectors at K = 4096, about 3 MB of transform and power, and fewer sectors
# per block at larger K, so the block never grows with the grid.
DENSITY_BLOCK_CELLS = 1 << 17
SHARED_DENSITY_BLOCKS = 3  # fewest shared blocks that pay for a helper thread (measured, 2 cores)


def nyquist_minimum(cutoff: int) -> int:
    """Smallest grid size that integrates degree-(cutoff+1) moments exactly."""
    return 2 * (cutoff + 1)


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length()


def default_grid_size(cutoff: int, floor: int = MIN_GRID) -> int:
    return max(floor, _next_pow2(4 * (cutoff + 1)))


def _validate_grid(grid_size: int, cutoff: int, floor: int = MIN_GRID) -> int:
    k = int(grid_size)
    minimum = max(floor, nyquist_minimum(cutoff))
    if k < minimum or k % 2:
        raise ValueError(
            f"grid size {grid_size} invalid: need an even K >= {minimum} "
            f"(floor {floor}, Nyquist bound {nyquist_minimum(cutoff)} at cutoff {cutoff})"
        )
    return k


def phase_grid(grid_size: int) -> np.ndarray:
    return -math.pi + TWO_PI * np.arange(grid_size) / grid_size


def wrap_angle(x: np.ndarray | float):
    """Map angles into the principal interval [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class _GridDensity:
    """Density values, held read-only, on the canonical grid ``phis`` of their length."""

    values: np.ndarray

    def _adopt(self, values: np.ndarray, what: str) -> None:
        """Keep ``values`` clipped of float-level negatives, read-only; refuse larger ones."""
        if float(values.min()) < NEGATIVE_CLIP_TOL:
            raise ValueError(f"{what} has negative values below {NEGATIVE_CLIP_TOL}")
        values = np.clip(values, 0.0, None)  # a new array, owned here
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def phis(self) -> np.ndarray:
        phis = phase_grid(len(self.values))
        phis.flags.writeable = False
        return phis

    @property
    def grid_size(self) -> int:
        return len(self.values)

    @property
    def spacing(self) -> float:
        return TWO_PI / len(self.values)


@dataclass(frozen=True)
class PhaseDensity(_GridDensity):
    """Probability density of one angle on the canonical uniform grid."""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < 2:
            raise ValueError("values must be a 1-d array of at least 2 points")
        self._adopt(values, "density")
        total = self.integrate()
        if not abs(total - 1.0) <= DENSITY_NORM_TOL:  # NaN-safe
            raise ValueError(f"density integrates to {total!r}, not 1")

    def integrate(self) -> float:
        return float(self.values.sum()) * self.spacing

    def moment(self, order: int = 1) -> complex:
        """Trigonometric moment <e^{i order phi}> under the density."""
        return complex(np.sum(np.exp(1j * order * self.phis) * self.values) * self.spacing)


@dataclass(frozen=True)
class JointPhaseDensity(_GridDensity):
    """Joint density of the two local angles on a K x K canonical grid."""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be a K x K array, got shape {values.shape}")
        self._adopt(values, "joint density")

    def integrate(self) -> float:
        return float(self.values.sum()) * self.spacing**2


def _summed_profiles(
    amps: np.ndarray, starts: np.ndarray, grid_size: int, alongside: Callable | None = None
) -> np.ndarray:
    """sum_s |sum_m a_{s,m} e^{-i m phi}|^2 on the canonical grid, via FFT.

    Sector s holds ``amps[starts[s]:starts[s + 1]]``, m counted from 0. The
    sectors are transformed a block of rows at a time, one FFT per block,
    and their profiles added one by one in sector order, so the sum has the
    bits of a loop that transforms and adds each sector on its own. The block
    is allocated once at width K and transformed at that length, with no
    ``n=`` padding. Each block rewrites and sign-flips only its first
    ``len(cols)`` columns (the longest sector): past them the flip would write
    -0.0 into the tail, which must stay the +0.0 that a length-K transform
    pads a short row with. A density of SHARED_DENSITY_BLOCKS blocks or more
    is shared with ``_helper_count()`` helper threads, DENSITY_BLOCK_CELLS split
    among the workers: each transforms its next block in its own buffers, then
    waits its turn to add its rows, in sector order, so the bits stay the same.
    A smaller density runs the same loop on the calling thread alone.
    ``alongside()``, if given, runs on the calling thread before it joins the
    loop: beside the helpers when the density is shared, else first.
    """
    k = grid_size
    lengths = np.diff(starts)
    n = len(lengths)
    rows = max(1, min(n, DENSITY_BLOCK_CELLS // k))
    require_array_bytes(16 * rows * k, f"grid size K={k}: the transform of {rows} sector(s)")
    cols = np.arange(int(lengths.max()))
    helpers = _helper_count()
    shared_rows = DENSITY_BLOCK_CELLS // ((1 + helpers) * k)
    if helpers > 0 and shared_rows > 0 and n > (SHARED_DENSITY_BLOCKS - 1) * shared_rows:
        rows = shared_rows
    else:
        helpers = 0
    acc = np.zeros(k)

    def transform(first: int, pad: np.ndarray, power: np.ndarray) -> np.ndarray:
        r = min(rows, n - first)
        head = pad[:r, : len(cols)]
        head[...] = 0.0
        # one scatter a block: the mask's cells run in the amplitudes' order
        head[cols < lengths[first : first + r, None]] = amps[starts[first] : starts[first + r]]
        odd = head[:, 1::2]
        np.negative(odd, out=odd)  # (-1)^m moves the grid origin from 0 to -pi
        np.abs(np.fft.fft(pad[:r], axis=1), out=power[:r])
        power[:r] **= 2
        return power[:r]

    def buffers():
        return np.zeros((rows, k), dtype=np.complex128), np.empty((rows, k))

    team = _Team(helpers)
    claimed = added = 0

    def work(pad: np.ndarray, power: np.ndarray) -> None:
        nonlocal acc, claimed, added
        while True:
            with team.turn:
                block, claimed = claimed, claimed + 1
            if team.stopped or block * rows >= n:
                return
            profiles = transform(block * rows, pad, power)
            with team.turn:
                team.turn.wait_for(lambda: added == block or team.stopped)
                if team.stopped:
                    return
                for row in profiles:
                    acc += row  # not power.sum(axis=0): that would reorder the sum
                added += 1
                team.turn.notify_all()

    team.run(work, buffers, alongside)
    return acc


def relative_phase_density(
    state: State, grid_size: int | None = None, alongside: Callable[[], object] | None = None
) -> PhaseDensity:
    """Density of the phase difference under the number-resolved phase POVM.

    Built sector by sector: p(phi) = (1/2pi) sum_N w_N |sum_m a_{N,m} e^{-i m phi}|^2,
    with w_N = 1 and a_{N,m} = c[m, N - m] for a pure state.

    ``alongside``, if given, is called once on the calling thread, after the
    grid and the transform block are checked and the sector view is built:
    while a helper thread transforms sector blocks when the density is shared
    with one (more than one CPU, SHARED_DENSITY_BLOCKS blocks or more), else
    before the blocks are transformed. The density does not depend on it; its
    exception, or a helper's, is raised here once every helper has stopped.
    The CLI computes the observable report this way.
    """
    cutoff = state.cutoff
    k = default_grid_size(cutoff) if grid_size is None else _validate_grid(grid_size, cutoff)
    view = state.sector_view
    values = _summed_profiles(view.amps, view.starts, k, alongside)  # sized before the grid
    return PhaseDensity(values / TWO_PI)


def joint_local_phase_density(
    state: PureTwoModeState, grid_size: int | None = None
) -> JointPhaseDensity:
    """Joint density of the two local phases for a pure grid state.

    p(phi1, phi2) = |sum_{m,n} c[m,n] e^{-i(m phi1 + n phi2)}|^2 / (2 pi)^2.
    """
    if not isinstance(state, PureTwoModeState):
        raise ValueError("joint local phase density is defined for pure grid states")
    cutoff = state.cutoff
    k = default_grid_size(cutoff) if grid_size is None else _validate_grid(grid_size, cutoff)
    require_array_bytes(16 * k * k, f"grid size K={k}: the K x K joint phase density")
    m = np.arange(cutoff + 1)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    signed = state.coeffs * sign[:, None] * sign[None, :]
    values = np.abs(np.fft.fft2(signed, s=(k, k)))  # the K x K complex transform is freed here
    values **= 2
    values /= TWO_PI**2
    return JointPhaseDensity(values)


class DispersionEstimate(NamedTuple):
    d2_hat: float
    std_error: float
    shots: int
    method: str
    resamples: int


@dataclass(frozen=True)
class SampleSet:
    """Angles measured in one mode, with the stream coordinates that made them."""

    phis: np.ndarray
    shots: int
    seed: int
    start_shot: int = 0

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        if phis.shape != (self.shots,):
            raise ValueError(f"expected {self.shots} angles, got shape {phis.shape}")
        if len(phis) and (phis.min() < -math.pi or phis.max() >= math.pi):
            raise ValueError("angles must lie in [-pi, pi)")
        phis = phis.copy()
        phis.flags.writeable = False
        object.__setattr__(self, "phis", phis)


def _shot_uniforms(seed: int, start_shot: int, shots: int) -> np.ndarray:
    """Uniforms for shots [start_shot, start_shot + shots), 4 per shot.

    Philox emits exactly four doubles per counter block, so block i is shot i
    regardless of how the run is batched.
    """
    bitgen = np.random.Philox(key=seed, counter=start_shot)
    return np.random.Generator(bitgen).random((shots, 4))


def _padded_cdf(masses: np.ndarray) -> np.ndarray:
    out = np.empty(len(masses) + 1)
    out[0] = 0.0
    np.cumsum(masses, out=out[1:])
    return out


def _invert_cells(cdf: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and intra-cell fraction for uniforms against a padded CDF."""
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(cdf) - 2)
    width = cdf[idx + 1] - cdf[idx]
    frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.5)
    return idx, np.clip(frac, 0.0, 1.0 - 1e-12)


def _cells_to_angles(phis: np.ndarray, spacing: float, idx: np.ndarray, frac: np.ndarray):
    return wrap_angle(phis[idx] + (frac - 0.5) * spacing)


def _groups(labels: np.ndarray):
    """(label, indices of that label) for each distinct label, in increasing label order."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    for group in np.split(order, cuts):
        yield int(labels[group[0]]), group


def _sample_pure(state: PureTwoModeState, grid_size, seed, start_shot, shots):
    joint = joint_local_phase_density(state, grid_size)
    # Drawn only now, so that the uniforms do not add to the transform's peak.
    u = _shot_uniforms(seed, start_shot, shots)
    u1, u2 = u[:, 0], u[:, 1]
    h2 = joint.spacing**2
    # Cell masses are values * h2, formed a block of rows at a time rather than
    # as a second K x K array; the per-row sums are the same.
    row_mass = np.concatenate(
        [(joint.values[lo : lo + MASS_ROW_BLOCK] * h2).sum(axis=1)
         for lo in range(0, joint.grid_size, MASS_ROW_BLOCK)]
    )
    idx1, frac1 = _invert_cells(_padded_cdf(row_mass), u1)
    phi1 = _cells_to_angles(joint.phis, joint.spacing, idx1, frac1)
    phi2 = np.empty_like(phi1)
    for row, group in _groups(idx1):
        col_cdf = _padded_cdf(joint.values[row] * h2 / row_mass[row])
        idx2, frac2 = _invert_cells(col_cdf, u2[group])
        phi2[group] = _cells_to_angles(joint.phis, joint.spacing, idx2, frac2)
    return phi1, phi2


def _sample_sector(amps: np.ndarray, u_delta, u_sum, grid_size):
    """Sample the sector state with amplitudes ``amps[m]`` on |m>|N - m>.

    Within a sector the joint density depends on the angles only through
    their difference, p(phi1, phi2) = q(phi1 - phi2) / 2pi with q the
    relative density, so the difference is drawn by inverse CDF of q and
    the second angle independently uniform; (delta + phi2, phi2) then has
    exactly the sector's joint law.
    """
    if grid_size is None:
        grid_size = default_grid_size(len(amps) - 1, floor=MIN_SAMPLING_GRID)
    profile = _summed_profiles(amps, np.array([0, len(amps)]), grid_size)
    masses = profile / profile.sum()
    phis = phase_grid(grid_size)
    idx, frac = _invert_cells(_padded_cdf(masses), u_delta)
    delta = _cells_to_angles(phis, TWO_PI / grid_size, idx, frac)
    phi2 = -math.pi + u_sum * TWO_PI
    return wrap_angle(delta + phi2), phi2


def sample_local_phases(
    state: State,
    shots: int,
    seed: int,
    grid_size: int | None = None,
    start_shot: int = 0,
) -> tuple[SampleSet, SampleSet]:
    """Draw (phi1, phi2) pairs from the joint local-phase density.

    Pure states are sampled by inverse CDF on the joint grid, marginal in
    phi1 then conditional in phi2; mixtures first draw a sector from the
    weights. Fixed seed gives identical output; batches taken with
    ``start_shot`` partition the sequential run exactly.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= seed < 1 << 128:  # the key range of the Philox stream
        raise ValueError(f"--seed {seed}: the seed must be a non-negative integer below 2**128")
    if start_shot < 0:
        raise ValueError("start_shot must be a non-negative integer")
    # The largest per-shot array is the uniforms, four doubles a shot.
    require_array_bytes(32 * shots, f"--shots {shots}: the {shots:,} x 4 shot uniforms")
    if grid_size is not None:
        grid_size = _validate_grid(grid_size, state.cutoff, floor=MIN_SAMPLING_GRID)
    if isinstance(state, PureTwoModeState):
        k = grid_size if grid_size is not None else default_grid_size(
            state.cutoff, floor=MIN_SAMPLING_GRID
        )
        phi1, phi2 = _sample_pure(state, k, seed, start_shot, shots)
    else:
        u = _shot_uniforms(seed, start_shot, shots)
        sector_idx, _ = _invert_cells(_padded_cdf(state.weights()), u[:, 0])
        phi1 = np.empty(shots)
        phi2 = np.empty(shots)
        for s, group in _groups(sector_idx):
            amps = state.amps[state.starts[s] : state.starts[s + 1]]
            phi1[group], phi2[group] = _sample_sector(amps, u[group, 1], u[group, 2], grid_size)
    return (
        SampleSet(phi1, shots, seed, start_shot),
        SampleSet(phi2, shots, seed, start_shot),
    )


def _helper_count() -> int:
    """Helper threads for the bootstrap and the relative density: one on more than one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 1 if (cpus or 1) > 1 else 0


@contextlib.contextmanager
def _short_switch_interval():
    """Hand the GIL over within OVERLAP_SWITCH_INTERVAL; restore the caller's interval after.

    Entered only while ``alongside()`` runs beside a helper thread: the CSV
    writer beside the bootstrap, or the observable report beside the
    relative density. The interval is process-wide: two such overlaps on
    different threads of one process can restore in the wrong order and
    leave the short interval in place.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, OVERLAP_SWITCH_INTERVAL))
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class _Team:
    """The calling thread and ``helpers`` helper threads, each running ``work(*buffers())``.

    The caller allocates every worker's buffers: a helper's own would come from a
    per-thread glibc arena and raise the peak resident size. A failure sets ``stopped``
    and wakes ``turn``'s waiters; ``run`` joins every helper and re-raises a helper's error.
    """

    def __init__(self, helpers: int):
        self.helpers, self.stopped = helpers, False
        self.turn = threading.Condition(threading.Lock())

    def stop(self) -> None:
        self.stopped = True
        with self.turn:
            self.turn.notify_all()

    def run(self, work: Callable, buffers: Callable, alongside: Callable | None = None) -> None:
        errors: list[BaseException] = []

        def helper(*args) -> None:
            try:
                work(*args)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
                self.stop()

        threads = [threading.Thread(target=helper, args=buffers()) for _ in range(self.helpers)]
        for t in threads:
            t.start()
        try:
            if alongside is not None:  # a short switch interval hands the GIL to a helper quickly
                with _short_switch_interval() if threads else contextlib.nullcontext():
                    alongside()
            work(*buffers())
        except BaseException:
            self.stop()
            raise
        finally:
            for t in threads:
                t.join()
        if errors:
            raise errors[0]


def _bootstrap_values(z: np.ndarray, rng: np.random.Generator, resamples: int, alongside):
    """The resampled dispersions, in draw order, with ``alongside()`` run on the calling thread.

    Each resample's indices are drawn under one lock, in resample order, from
    ``rng``, and its value is stored at its draw index, so the values are the
    same whichever thread gathers them. The draws, the gather and the mean
    release the GIL, so a helper thread resamples while ``alongside()`` (the
    CSV writer) runs, then the calling thread joins in.
    """
    n = len(z)
    vals = np.empty(resamples)
    team = _Team(_helper_count())
    next_draw = 0

    def work(idx: np.ndarray, buf: np.ndarray) -> None:
        nonlocal next_draw
        while True:
            with team.turn:
                i = next_draw
                if team.stopped or i >= resamples:
                    return
                next_draw = i + 1
                for lo in range(0, n, DRAW_CHUNK):
                    hi = min(n, lo + DRAW_CHUNK)
                    idx[lo:hi] = rng.integers(0, n, hi - lo)
            np.take(z, idx, out=buf, mode="clip")  # indices are in range: clip changes nothing
            vals[i] = 1.0 - abs(complex(buf.mean())) ** 2

    def buffers():
        return np.empty(n, dtype=np.intp), np.empty(n, dtype=z.dtype)

    team.run(work, buffers, alongside)
    return vals


def estimate_relative_dispersion(
    samples1: SampleSet,
    samples2: SampleSet,
    method: str = "bootstrap",
    resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    seed: int | None = None,
    alongside: Callable[[], object] | None = None,
) -> DispersionEstimate:
    """Plug-in estimate of the relative phase dispersion with a resampling error bar.

    d2_hat = 1 - |mean e^{i(phi1 - phi2)}|^2. The plug-in estimator carries a
    bias of about -d2/shots (so -1/shots for a flat density); the standard
    error comes from a nonparametric bootstrap (default) or the jackknife.
    The bootstrap stream is derived deterministically from the sample seeds
    unless an explicit seed is given. ``alongside``, if given, is called once
    on the calling thread while the bootstrap resamples on a helper thread
    (when more than one CPU is available); the result does not depend on it.
    """
    if samples1.shots != samples2.shots:
        raise ValueError("sample sets must have equal shot counts")
    n = samples1.shots
    if n < 2:
        raise ValueError("need at least 2 shots to estimate a dispersion")
    # The phase factors, and each bootstrap worker's gather buffer beside its
    # 8-byte draw indices, hold one complex number a shot.
    require_array_bytes(16 * n, f"{n:,} shots: the phase factors and each bootstrap gather buffer")
    z = np.exp(1j * (samples1.phis - samples2.phis))
    d2_hat = 1.0 - abs(complex(z.mean())) ** 2
    if method == "bootstrap":
        if resamples < 2:
            raise ValueError("bootstrap needs at least 2 resamples")
        if seed is None:
            ss = np.random.SeedSequence((samples1.seed, samples2.seed, n, 0xD157))
        else:
            ss = np.random.SeedSequence(seed)
        rng = np.random.Generator(np.random.PCG64(ss))
        err = float(_bootstrap_values(z, rng, resamples, alongside).std(ddof=1))
    elif method == "jackknife":
        if alongside is not None:
            alongside()
        total = complex(z.sum())
        loo = (total - z) / (n - 1)
        d2_loo = 1.0 - np.abs(loo) ** 2
        err = math.sqrt((n - 1) / n * float(np.sum((d2_loo - d2_loo.mean()) ** 2)))
        resamples = 0
    else:
        raise ValueError(f"unknown method {method!r}; use 'bootstrap' or 'jackknife'")
    return DispersionEstimate(float(d2_hat), err, n, method, resamples)


def linear_phase_variance(density: PhaseDensity) -> float:
    """Ordinary variance of the angle after re-centering at the circular mean.

    The deviation delta = wrap(phi - mu) is treated as a real variable on
    [-pi, pi); a flat density gives pi^2 / 3. The integrand is not
    band-limited, so this carries an O(h^2) grid error, unlike the
    trigonometric moments.
    """
    m1 = density.moment(1)
    mu = math.atan2(m1.imag, m1.real) if abs(m1) > 1e-15 else 0.0
    delta = wrap_angle(density.phis - mu)
    h = density.spacing
    mean = float(np.sum(delta * density.values)) * h
    second = float(np.sum(delta * delta * density.values)) * h
    return second - mean * mean


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows, each cell the repr of its Python value.

    Rows are formatted a chunk at a time, so no column becomes one long list.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            cells = [map(repr, col[lo : lo + CSV_CHUNK_ROWS].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_samples_csv(path, samples1: SampleSet, samples2: SampleSet) -> None:
    """Write paired samples as CSV rows (shot_index, phi1, phi2)."""
    if samples1.shots != samples2.shots or samples1.start_shot != samples2.start_shot:
        raise ValueError("sample sets must be aligned")
    start = samples1.start_shot
    shot_index = np.arange(start, start + samples1.shots)
    _write_csv(path, "shot_index,phi1,phi2", (shot_index, samples1.phis, samples2.phis))
