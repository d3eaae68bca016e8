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
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

NORM_TOL = 1e-12
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


class ArraySizeError(TruncationError):
    """One array would exceed MAX_ARRAY_BYTES; raised before it is allocated."""


def require_array_bytes(nbytes: int, what: str, at_least: bool = False) -> None:
    """Raise ArraySizeError, naming ``what`` and ``nbytes``, if they exceed MAX_ARRAY_BYTES.

    ``at_least`` says that ``nbytes`` is a lower bound on what ``what`` needs.
    """
    if nbytes > MAX_ARRAY_BYTES:
        raise ArraySizeError(
            f"{what} needs {'at least ' if at_least else ''}{nbytes:,} bytes, "
            f"over the {MAX_ARRAY_BYTES:,}-byte limit on one array"
        )


def _int64_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array: an int64 array itself, else a converted copy.

    Values that are not integers raise ValueError, naming ``what``.
    """
    a = np.asarray(values)
    if a.dtype != np.int64:
        with np.errstate(invalid="ignore"):
            b = a.astype(np.int64) if a.dtype.kind in "biuf" else None
        if b is None or not np.array_equal(a, b):
            raise ValueError(f"{what} must be integers, got {a!r}")
        a = b
    return a


# The argument checks of the public builders: NaN-safe, each error names the argument. A finite
# value too large to build passes them, and the size or tail checks refuse it.
def _count(value, name: str) -> int:
    """``value``, a finite, non-negative and integral photon count, as an int."""
    if not (0 <= value < math.inf and value % 1 == 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _require_positive(value: float, name: str) -> None:
    """Refuse ``value`` unless it is a positive finite real."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_squeezing(r: float) -> None:
    """Refuse a NaN or negative squeezing ``r``; r = inf is left to the cutoff search."""
    if not r >= 0:
        raise ValueError(f"r must be >= 0, got {r!r}")


class SectorView(NamedTuple):
    """A state's total-number sectors as one flat, ragged layout.

    Sector s holds ``amps[starts[s]:starts[s + 1]]``, its amplitudes on
    |m>|N - m> for N = ``totals[s]`` and consecutive m from ``first_m[s]``.
    A pure state's view has no ``roots``. A mixture's view reads its
    unit-norm sector states in place and holds ``roots[s]``, the root of
    sector s's weight: the state's amplitudes are ``amps`` times their roots
    (see ``scaled``). Sectors without amplitude or weight are left out (for
    a mixture, in a copy of the others); N increases from sector to sector.
    """

    amps: np.ndarray
    starts: np.ndarray
    totals: np.ndarray
    first_m: np.ndarray
    roots: np.ndarray | None = None

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupations (m, n) of modes 1 and 2 at every entry, as new float arrays."""
        counts = np.diff(self.starts)
        m = np.arange(len(self.amps), dtype=float)
        m -= np.repeat(self.starts[:-1] - self.first_m, counts)
        n = np.repeat(self.totals.astype(float), counts)
        n -= m
        return m, n

    def scaled(self, lo: int, hi: int) -> np.ndarray:
        """``amps[lo:hi]``, each entry times its sector's root, as the products fl(a * root)
        in a new array; without roots, the slice of ``amps`` itself."""
        if self.roots is None:
            return self.amps[lo:hi]
        first = int(np.searchsorted(self.starts, lo, side="right")) - 1
        last = int(np.searchsorted(self.starts, hi))
        counts = np.diff(np.clip(self.starts[first : last + 1], lo, hi))
        return self.amps[lo:hi] * np.repeat(self.roots[first:last], counts)


def _weighted_view(
    amps: np.ndarray, starts: np.ndarray, totals: np.ndarray, weights: np.ndarray
) -> SectorView:
    """View of sectors stored flat from m = 0, with the roots of their weights.

    It reads ``amps`` in place. Only when a sector of zero weight or without
    amplitude has to be left out are the kept sectors copied.
    """
    counts, roots = np.diff(starts), np.sqrt(weights)
    kept = (weights > 0.0) & np.logical_or.reduceat(amps != 0, starts[:-1])
    if not kept.all():
        amps, counts, roots = amps[np.repeat(kept, counts)], counts[kept], roots[kept]
        amps.flags.writeable = False
        starts = np.concatenate(([0], np.cumsum(counts)))
    return SectorView(amps, starts, totals[kept], np.zeros(len(counts), dtype=np.int64), roots)


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm**2 = {norm!r} deviates from 1 beyond {NORM_TOL}")


def _diagonal_sum(terms: np.ndarray):
    """np.sum of a zero-filled n x n array holding the n ``terms`` down its diagonal.

    A diagonal grid's products form such an array, all other entries +0.0; summed as
    the whole array, the pairwise tree, and so every bit of the sum, is the grid's.
    """
    dense = np.zeros((len(terms), len(terms)), dtype=terms.dtype)
    np.fill_diagonal(dense, terms)
    return np.sum(dense)


def _pairwise_sum(n: int, leaf_sum: Callable[[int, int], np.ndarray], cap: int, lo: int = 0):
    """``np.add.reduce`` of n complex values, from ``leaf_sum(lo, hi)`` of its tree's nodes.

    numpy sums n complex values, 2n doubles, as a tree: a node of m doubles
    splits at m//2 - (m//2) % 8 doubles, down to nodes of at most 128 doubles,
    each summed in eight accumulators. Split the same way down to nodes of at
    most ``cap`` values (all of which numpy splits the same way), each summed
    by ``leaf_sum`` with ``np.add.reduce``, and add the halves in tree order:
    the sum has the bits of one ``np.add.reduce`` of all n values. A leaf may
    return an array of such sums, each carried through the same tree.
    """
    if cap < 64:
        raise ValueError(f"leaf cap {cap} is below 64 values, the node numpy sums unsplit")
    if n <= cap:
        return leaf_sum(lo, lo + n)
    half = (n - n % 8) // 2
    left = _pairwise_sum(half, leaf_sum, cap, lo)
    return left + _pairwise_sum(n - half, leaf_sum, cap, lo + half)


def _anti_diagonals(k: int, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """first_m and length of each anti-diagonal N in ``totals`` of a k x k grid.

    Anti-diagonal N holds c[m, N - m] for max(0, N - k + 1) <= m <= min(N, k - 1).
    """
    first_m = np.maximum(0, totals - (k - 1))
    return first_m, np.minimum(totals, k - 1) - first_m + 1


class PureTwoModeState:
    """Pure state on the product of two truncated Fock spaces.

    ``coeffs[m, n]`` is the amplitude on ``|m>|n>``. The grid is square,
    unit-norm within ``NORM_TOL`` and read-only. Two kinds of state store
    less and build the grid the first time ``coeffs`` is read: a state built
    with ``from_sector`` lives in one total-number sector and stores that
    anti-diagonal; a squeezed state stores its diagonal, and forms its sector
    view and every ``lowering_sum`` from it with the bits of its grid's.
    """

    def __init__(self, coeffs: np.ndarray):
        self._adopt(np.array(coeffs, dtype=np.complex128, order="C"))  # the caller keeps theirs

    def _adopt(self, c: np.ndarray, p: np.ndarray | None = None) -> None:
        """Keep ``c``, a grid no caller holds, read-only once its shape and norm check out.

        |c|^2 is formed in ``p``, a float buffer of c's shape, if one is given.
        """
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] == 0:
            raise ValueError(f"coefficient grid must be square and non-empty, got shape {c.shape}")
        p = np.abs(c, out=p)
        _check_norm(float(np.sum(np.square(p, out=p))))
        c = np.ascontiguousarray(c)  # a copy only for a grid not in C order
        c.flags.writeable = False
        self._coeffs, self._sector, self._diagonal, self._cutoff = c, None, None, len(c) - 1

    @classmethod
    def normalized(cls, coeffs: np.ndarray) -> "PureTwoModeState":
        """Build a state from an unnormalized grid by rescaling it."""
        return cls._normalized_in_place(np.array(coeffs, dtype=np.complex128))

    @classmethod
    def _normalized_in_place(cls, c: np.ndarray) -> "PureTwoModeState":
        """``normalized`` for a complex grid no caller holds: rescaled and kept, not copied."""
        p = np.abs(c)
        norm = math.sqrt(float(np.sum(np.square(p, out=p))))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero coefficient grid")
        c /= norm
        state = cls.__new__(cls)
        state._adopt(c, p)
        return state

    @classmethod
    def from_sector(cls, total: int, amps: np.ndarray) -> "PureTwoModeState":
        """The state with amplitudes ``amps[m]`` on |m>|total - m>, m = 0..total, normalized."""
        raw = np.array(amps, dtype=np.complex128)
        if raw.shape != (total + 1,):
            raise ValueError(f"sector {total} needs {total + 1} amplitudes, got {raw.shape}")
        with np.errstate(all="ignore"):
            sector = raw / math.sqrt(float(np.sum(np.abs(raw) ** 2)))
        _check_norm(float(np.sum(np.abs(sector) ** 2)))  # NaN for a zero or non-finite norm
        sector.flags.writeable = False
        state = cls.__new__(cls)
        state._coeffs, state._sector, state._diagonal, state._cutoff = None, sector, None, total
        state._raw = raw  # the grid is built from these, as a dense construction would
        return state

    @classmethod
    def _from_diagonal(cls, amps: np.ndarray) -> "PureTwoModeState":
        """The state with amplitudes ``amps[m]`` on |m>|m>, normalized as ``normalized`` does
        its grid: the norm and its check are that grid's sums, taken by ``_diagonal_sum``."""
        d = np.array(amps, dtype=np.complex128)
        p = np.abs(d)
        norm = math.sqrt(float(_diagonal_sum(np.square(p, out=p))))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero coefficient grid")
        d /= norm
        _check_norm(float(_diagonal_sum(np.square(np.abs(d, out=p), out=p))))
        d.flags.writeable = False
        state = cls.__new__(cls)
        state._coeffs, state._sector, state._diagonal, state._cutoff = None, None, d, len(d) - 1
        return state

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            k = self._cutoff + 1
            grid = np.zeros((k, k), dtype=np.complex128)
            if self._diagonal is not None:
                np.fill_diagonal(grid, self._diagonal)
                grid.flags.writeable = False
                self._coeffs = grid
            else:
                grid[np.arange(k), k - 1 - np.arange(k)] = self._raw
                self._coeffs = PureTwoModeState._normalized_in_place(grid).coeffs
        return self._coeffs

    @property
    def cutoff(self) -> int:
        return self._cutoff

    @cached_property
    def sector_view(self) -> SectorView:
        k = self._cutoff + 1
        if self._sector is not None:
            first_m = np.zeros(1, dtype=np.int64)
            return SectorView(self._sector, np.array([0, k]), np.array([k - 1]), first_m)
        if self._diagonal is not None:
            # c[m, m] is entry m - first_m of sector 2m, the only nonzero one there
            m = np.flatnonzero(self._diagonal)
            first_m, counts = _anti_diagonals(k, 2 * m)
            starts = np.concatenate(([0], np.cumsum(counts)))
            amps = np.zeros(starts[-1], dtype=np.complex128)
            amps[starts[:-1] + m - first_m] = self._diagonal[m]
            return SectorView(amps, starts, 2 * m, first_m)
        totals = np.arange(2 * k - 1)
        first_m, counts = _anti_diagonals(k, totals)
        starts = np.concatenate(([0], np.cumsum(counts)))
        # c[m, N - m] lies at N + m (k - 1) in the flat grid, and m = i - starts[s] + first_m[s]
        flat = np.arange(starts[-1]) * (k - 1)
        flat += np.repeat(totals - (starts[:-1] - first_m) * (k - 1), counts)
        amps = self._coeffs.ravel()[flat]
        kept = np.logical_or.reduceat(amps != 0, starts[:-1])
        if not kept.all():
            amps, counts = amps[np.repeat(kept, counts)], counts[kept]
            starts = np.concatenate(([0], np.cumsum(counts)))
        return SectorView(amps, starts, totals[kept], first_m[kept])

    def lowering_sum(self, i: int, j: int, weight: np.ndarray | None = None) -> complex:
        """Sum over the grid of conj(c[m, n]) w c[m + i, n + j], for i, j in {0, 1}, not both 0.

        w = weight[m]^i weight[n]^j, or 1 without a weight: <E1^i E2^j>, or <a1^i a2^j>
        for weight[m] = sqrt(m + 1). The products form one C-ordered (K - i) x (K - j)
        array, K = cutoff + 1, summed by np.sum.
        """
        k = self._cutoff + 1
        if self._diagonal is not None:
            if i != j:  # then no product is nonzero, and a sum of +0.0 is +0.0
                return 0j
            d = self._diagonal
            terms = np.conj(d[: k - i])
            if weight is not None:
                terms *= weight[: k - i] * weight[: k - i]
            terms *= d[i:]
            return complex(_diagonal_sum(terms))
        c = self.coeffs
        terms = np.conj(c[: k - i, : k - j])
        if weight is not None:
            rows, cols = weight[: k - i, None], weight[None, : k - j]
            terms *= rows * cols if i and j else rows if i else cols
        terms *= c[i:, j:]
        return complex(np.sum(terms))


def _sector_starts(totals: np.ndarray) -> np.ndarray:
    """Offsets of the sectors N in ``totals`` laid out flat, N + 1 entries each."""
    return np.concatenate(([0], np.cumsum(totals + 1)))


def _flat_layout(totals: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``_sector_starts(totals)`` of increasing totals, once they are found to start at 0 or
    more and ``amps`` to hold N + 1 entries a sector. The count is taken in Python ints: the
    int64 sums of the starts wrap around for totals near 2^63 / len(totals)."""
    if totals[0] < 0:
        raise ValueError(f"sector totals must be >= 0, got {int(totals[0])}")
    need = sum(totals.tolist()) + len(totals)
    if amps.shape != (need,):
        first, last = int(totals[0]), int(totals[-1])
        raise ValueError(f"sectors {first}..{last} need {need} amplitudes in all, got {amps.shape}")
    return _sector_starts(totals)


def _joined(table: np.ndarray, totals: np.ndarray, out=None) -> np.ndarray:
    """``table[:N + 1]`` for each sector N in ``totals``, concatenated: table[m] at each."""
    return np.concatenate([table[: n + 1] for n in totals.tolist()], out=out)


def _joined_reversed(table: np.ndarray, totals: np.ndarray, out=None) -> np.ndarray:
    """``table[N::-1]`` for each sector N in ``totals``, concatenated: table[N - m] at each."""
    return np.concatenate([table[n::-1] for n in totals.tolist()], out=out)


def _sector_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each sector's slice of ``values``, pairwise as np.sum adds one sector alone."""
    bounds = zip(starts[:-1].tolist(), starts[1:].tolist())
    return np.fromiter((np.add.reduce(values[lo:hi]) for lo, hi in bounds), float, len(starts) - 1)


def _phase_table(phi: float, n_max: int) -> np.ndarray:
    """e^{i phi m} for m = 0..n_max; every phase factor of a build is read from this table."""
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.exp(1j * phi * np.arange(n_max + 1))
    if not np.isfinite(table).all():
        raise ValueError(
            f"phi = {phi!r} makes the phase factor e^(i phi m) non-finite for m <= {n_max}"
        )
    return table


# The flat kernels below take increasing sector totals and return the amplitudes of every
# sector, m = 0..N each, concatenated. Each factor that depends on m or N - m alone is formed
# once, on a table over 0..max N, and joined per sector; the kernels then work in place. On a
# flat build every temporary is as large as the mixture, and each fresh one costs page faults.


def _number_phase_amps(totals: np.ndarray, phi: float) -> np.ndarray:
    """Amplitudes e^{i phi m} / sqrt(N + 1) of the sectors N in ``totals``."""
    amps = _joined(_phase_table(phi, int(totals[-1])), totals)
    amps /= np.repeat(np.sqrt(totals + 1.0), totals + 1)
    return amps


_log_factorial = np.zeros(1)  # ln k! for k = 0, 1, ...; grown on demand, never changed


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n (at least), from one table shared by all callers."""
    global _log_factorial
    have = len(_log_factorial)
    if have <= n:
        more = np.fromiter((math.lgamma(k + 1.0) for k in range(have, n + 1)), float, n + 1 - have)
        _log_factorial = np.concatenate((_log_factorial, more))
    return _log_factorial


_binomial = np.ones(1)  # binom(N, m) for N = 0, 1, ..., row N from N(N+1)/2; grown on demand


def _binomials(totals: np.ndarray) -> np.ndarray:
    """binom(N, m), m = 0..N, of each sector N in ``totals``: floats of math.comb, concatenated."""
    global _binomial
    have, n_max = math.isqrt(2 * len(_binomial)), int(totals[-1])  # rows in the table
    if have <= n_max:
        more = [math.comb(n, m) for n in range(have, n_max + 1) for m in range(n + 1)]
        _binomial = np.concatenate((_binomial, np.array(more, dtype=float)))
    return np.concatenate([_binomial[n * (n + 1) // 2 :][: n + 1] for n in totals.tolist()])


def _split_fock_amps(totals: np.ndarray, phi: float, transmissivity: float) -> np.ndarray:
    """Amplitudes sqrt(binom(N, m) t^m (1-t)^(N-m)) e^{i phi m} of the sectors N in ``totals``.

    Sectors up to N = 300 take exact binomials, larger ones log-factorials.
    """
    t = transmissivity
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t!r}")
    n_max = int(totals[-1])
    counts = totals + 1
    levels = np.arange(n_max + 1, dtype=float)
    weights = np.empty(int(counts.sum()))
    exact = int(np.searchsorted(totals, _EXACT_BINOM_LIMIT, side="right"))
    cut = int(counts[:exact].sum())  # entries [:cut] belong to the exact sectors
    if exact:
        small = totals[:exact]
        binom = _binomials(small)
        with np.errstate(divide="ignore"):
            # 0**0 = 1 handled explicitly so t in {0, 1} stays valid
            t_pow = np.where(levels == 0, 1.0, t**levels)
            s_pow = np.where(levels == 0, 1.0, (1.0 - t) ** levels)
        binom *= _joined(t_pow, small)
        np.multiply(binom, _joined_reversed(s_pow, small), out=weights[:cut])
    if cut < len(weights):
        large, logw = totals[exact:], weights[cut:]
        if t in (0.0, 1.0):
            logw[:] = (_joined_reversed if t == 1.0 else _joined)(levels, large) == 0
        else:
            # ln binom(N, m) + m ln t + (N - m) ln(1 - t), added in that order
            log_fact = _log_factorials(n_max)
            term = _joined(log_fact, large)
            np.subtract(np.repeat(log_fact[large], counts[exact:]), term, out=logw)
            logw -= _joined_reversed(log_fact, large, out=term)
            logw += _joined(levels * math.log(t), large, out=term)
            logw += _joined_reversed(levels * math.log1p(-t), large, out=term)
            np.exp(logw, out=logw)
    weights /= np.repeat(_sector_sums(weights, _sector_starts(totals)), counts)
    np.sqrt(weights, out=weights)
    amps = _joined(_phase_table(phi, n_max), totals)
    return np.multiply(weights, amps, out=amps)


def _fixed_total_state(n: int, amps_kernel: Callable[[np.ndarray], np.ndarray]) -> PureTwoModeState:
    """The one-sector state of total ``n`` whose amplitudes ``amps_kernel`` builds."""
    n = _count(n, "n")
    require_array_bytes(16 * (n + 1), f"n={n}: a sector of {n + 1:,} amplitudes")
    return PureTwoModeState.from_sector(n, amps_kernel(np.array([n])))


def number_phase_state(n: int, phi: float) -> PureTwoModeState:
    """Fixed total number N with a uniformly weighted relative-phase profile.

    Amplitudes e^{i m phi} / sqrt(N + 1) on |m>|N - m>, cutoff N.
    """
    return _fixed_total_state(n, lambda totals: _number_phase_amps(totals, float(phi)))


def split_fock_state(n: int, phi: float, transmissivity: float = 0.5) -> PureTwoModeState:
    """N photons split on a beamsplitter of the given transmissivity.

    Amplitudes sqrt(binom(N, m) t^m (1-t)^(N-m)) e^{i m phi} on |m>|N - m>.
    """
    return _fixed_total_state(
        n, lambda totals: _split_fock_amps(totals, float(phi), float(transmissivity))
    )


def tmss_tail_mass(r: float, cutoff: int) -> float:
    """Exact probability mass of a two-mode squeezed state beyond the cutoff."""
    _require_squeezing(r)
    lam = math.tanh(r) ** 2
    if lam == 0.0:
        return 0.0
    return math.exp((cutoff + 1) * math.log(lam))


def select_cutoff(r: float, tail_tol: float) -> int:
    """Smallest cutoff M with squeezed-state tail mass below tail_tol."""
    _require_squeezing(r)
    _require_positive(tail_tol, "tail_tol")
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


def _tmss_moment_cutoff(r: float, tail_tol: float) -> int:
    """Smallest cutoff from ``select_cutoff(r, tail_tol)`` on whose weighted tail is below
    tail_tol: a doubling search for a cutoff that meets it, then a bisection.

    The bound is lam^k P(k) with k = cutoff + 1, g = lam / (1 - lam) and
    P(k) = 4k^2 + 16gk + 40g^2 + 16g + 3. As 1 / lam = 1 + 1 / g, lam P(k + 1) < P(k)
    comes down to 4k^2 + 8gk + 24g^2 + 12g + 3 > 0, true for every k: the bound falls
    with every step of the cutoff, by a factor below 1 - (1 - lam) / 2. That outweighs
    the rounding of its few operations while 1 - lam is far above 1e-15 (r below about
    15), so the search returns the cutoff a scan step by step would.
    """
    lo = select_cutoff(r, tail_tol)
    if _tmss_weighted_tail(r, lo) < tail_tol:
        return lo
    step = 1
    while _tmss_weighted_tail(r, lo + step) >= tail_tol:
        lo += step
        step *= 2
    hi = lo + step  # the bound is >= tail_tol at lo, below it at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _tmss_weighted_tail(r, mid) < tail_tol else (mid, hi)
    return hi


def two_mode_squeezed_state(
    r: float, cutoff: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> PureTwoModeState:
    """Two-mode squeezed vacuum, amplitudes tanh(r)^m / cosh(r) on |m>|m>.

    With ``cutoff=None`` the cutoff is chosen so that the truncation error
    of the total-number moments (not just the raw mass) stays below
    tail_tol. An explicit cutoff must keep the tail mass below tail_tol,
    otherwise a TruncationError reports the smallest admissible cutoff.
    The state stores its cutoff + 1 diagonal amplitudes; its grid is built
    only when ``coeffs`` is read, yet it is held to the grid's size limit,
    since its sums span arrays of the grid's length.
    """
    _require_squeezing(r)
    _require_positive(tail_tol, "tail_tol")
    if cutoff is None:
        cutoff = _tmss_moment_cutoff(r, tail_tol)
    else:
        cutoff = _count(cutoff, "cutoff")
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
    amps = np.exp(m * math.log(math.tanh(r))) / math.cosh(r) if r > 0 else (m == 0) * 1.0
    return PureTwoModeState._from_diagonal(amps)  # at r = 0 the vacuum |0>|0>


class NumberDistribution:
    """Discrete distribution over total photon number, as two read-only arrays.

    ``support`` holds the numbers N, int64, non-negative and strictly
    increasing; ``masses`` their probabilities, floats >= 0 that sum to 1
    within NORM_TOL. The constructor checks both (NaN-safe) and keeps them,
    frozen; an array of the right dtype is kept, not copied.
    ``meta['kept_mass']`` reports the fraction of the untruncated mass
    retained before renormalization.
    """

    def __init__(self, support, masses, meta: Mapping[str, object] | None = None):
        support = _int64_array(support, "support")
        masses = np.asarray(masses, dtype=float)
        if support.ndim != 1 or support.shape != masses.shape or len(support) == 0:
            raise ValueError(
                f"support and masses must be equal-length non-empty 1-d arrays, "
                f"got shapes {support.shape} and {masses.shape}"
            )
        if support[0] < 0 or np.any(support[1:] <= support[:-1]):
            raise ValueError("support must be non-negative and strictly increasing")
        if not np.all(masses >= 0.0):
            raise ValueError("probability masses must be >= 0")
        if not abs(masses.sum() - 1.0) <= NORM_TOL:
            raise ValueError(f"masses sum to {masses.sum()!r}, not 1")
        for a in (support, masses):
            a.flags.writeable = False
        self.support, self.masses, self.meta = support, masses, dict(meta or {})

    @classmethod
    def point(cls, n: int) -> "NumberDistribution":
        return cls([_count(n, "n")], [1.0], meta={"kept_mass": 1.0})

    # np.sum adds pairwise; np.dot would leave the order of the sum to the BLAS threads
    @property
    def mean(self) -> float:
        return float(np.sum(self.masses * self.support))

    @property
    def variance(self) -> float:
        return float(np.sum(self.masses * (self.support - self.mean) ** 2))


def _trim_tails(numbers: np.ndarray, raw: np.ndarray, tail_tol: float):
    """Drop outer support whose discarded mass and N^2-weighted mass both
    stay below tail_tol per side. Returns (numbers, masses, kept_fraction),
    the kept masses as they are in ``raw``.

    The masses are non-negative, so the running sums from either end never
    decrease: each cut is one search, over one running sum alive at a time.
    """
    w2 = numbers.astype(float)
    np.square(w2, out=w2)
    w2 *= raw

    def below(x):  # how many leading entries of the running sum of x lie below the budget
        return int(np.searchsorted(np.cumsum(x), 0.5 * tail_tol, side="left"))

    last = len(raw) - 1
    lo = min(last, below(raw), below(w2))
    hi = last - min(last - lo, below(raw[::-1]), below(w2[::-1]))
    masses = raw[lo : hi + 1]
    return numbers[lo : hi + 1], masses, float(masses.sum() / raw.sum())


def _distribution_from_raw(numbers, raw, tail_tol, what, extra_meta=None) -> NumberDistribution:
    numbers, masses, kept = _trim_tails(np.asarray(numbers), np.asarray(raw, dtype=float), tail_tol)
    if not (kept > 0.0 and math.isfinite(kept)):  # NaN-safe
        raise TruncationError(
            f"{what}: tail_tol={tail_tol!r} keeps N = {int(numbers[0])}..{int(numbers[-1])}, "
            f"whose mass fraction is {kept!r}; a smaller tail_tol keeps more of the support"
        )
    masses = masses / masses.sum()
    masses /= masses.sum()  # again: the mixtures' weights, and so the outputs, carry its rounding
    return NumberDistribution(numbers, masses, {"kept_mass": kept, **(extra_meta or {})})


def poissonian_distribution(mean: float, tail_tol: float = DEFAULT_TAIL_TOL) -> NumberDistribution:
    """Poissonian photon-number noise, truncated and renormalized.

    Masses are built by the exact recurrence p(N+1) = p(N) * mean / (N+1)
    outward from the mode, so term ratios are preserved to machine
    precision at any mean.
    """
    _require_positive(mean, "mean")
    _require_positive(tail_tol, "tail_tol")
    horizon = int(math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0))
    what = f"poissonian noise mean={mean!r}"
    require_array_bytes(8 * (horizon + 1), f"{what}: the masses for N = 0..{horizon}")
    mode = min(int(mean), horizon)
    raw = np.zeros(horizon + 1)
    raw[mode] = math.exp(mode * math.log(mean) - mean - math.lgamma(mode + 1))
    for n in range(mode, horizon):
        raw[n + 1] = raw[n] * (mean / (n + 1))
    for n in range(mode, 0, -1):
        raw[n - 1] = raw[n] * (n / mean)
    return _distribution_from_raw(np.arange(horizon + 1), raw, tail_tol, what)


def thermal_distribution(mean: float, tail_tol: float = DEFAULT_TAIL_TOL) -> NumberDistribution:
    """Thermal (geometric) photon-number noise, truncated and renormalized."""
    _require_positive(mean, "mean")
    _require_positive(tail_tol, "tail_tol")
    q = mean / (mean + 1.0)
    if q == 1.0:
        raise TruncationError(f"thermal noise mean={mean!r} is beyond double precision")
    # horizon where even the N^2-weighted remainder is negligible next to tail_tol
    horizon = 8
    log_q = math.log(q)
    while horizon * horizon * math.exp((horizon + 1) * log_q) / (1.0 - q) >= tail_tol * 1e-3:
        horizon *= 2
    what = f"thermal noise mean={mean!r}"
    require_array_bytes(8 * (horizon + 1), f"{what}: the masses for N = 0..{horizon}")
    n = np.arange(horizon + 1)
    raw = np.exp(n * log_q) * (1.0 - q)
    return _distribution_from_raw(n, raw, tail_tol, what)


def gaussian_distribution(
    mean: float, std: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> NumberDistribution:
    """Gaussian kernel discretized on the non-negative integers.

    meta['regime_violation'] is set when std is not small against the mean
    (the narrow-noise regime assumed by the asymptotic criteria).
    """
    _require_positive(mean, "mean")
    _require_positive(std, "std")
    _require_positive(tail_tol, "tail_tol")
    half_width = std * (math.sqrt(2.0 * math.log(1.0 / min(tail_tol, 0.1))) + 6.0) + 4.0
    what = f"gaussian noise mean={mean!r}, std={std!r}"
    if not math.isfinite(mean + half_width):
        raise ArraySizeError(
            f"{what}: the support, {half_width:.3g} either side of the mean, reaches "
            "beyond the largest float, so no array can hold its masses"
        )
    lo = max(0, int(math.floor(mean - half_width)))
    hi = int(math.ceil(mean + half_width))
    require_array_bytes(8 * (hi - lo + 1), f"{what}: the masses for N = {lo}..{hi}")
    n = np.arange(lo, hi + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.exp(-((n - mean) ** 2) / (2.0 * std * std))
    if not raw.sum() > 0.0:  # NaN-safe: 2 std**2 underflows to 0, or every mass to 0
        raise ValueError(
            f"std = {std!r} is too small: the gaussian kernel about mean {mean!r} "
            "has no finite positive mass on the integers"
        )
    return _distribution_from_raw(
        n, raw, tail_tol, what, extra_meta={"regime_violation": bool(10.0 * std > mean)}
    )


def _gaussian_kept_sectors(mean: float, std: float, tail_tol: float) -> int:
    """A lower bound on the support ``gaussian_distribution`` keeps, found without building it.

    The trim keeps every N whose raw mass exp(-(N - mean)^2 / (2 std^2)) reaches
    tail_tol / 2, since the running sum of either tail through N holds that mass: the
    integers within std sqrt(2 ln(2 / tail_tol)) of the mean, less one a side for rounding.
    Arguments that ``gaussian_distribution`` refuses give 0.
    """
    if not (mean > 0 and std > 0 and 0 < tail_tol < 1):
        return 0
    reach = std * math.sqrt(2.0 * math.log(2.0 / tail_tol))
    width = mean + reach - max(0.0, mean - reach) - 2.0  # inf for a std near the float limit
    return int(min(max(width, 0.0), 2.0**62))


def require_mixture_sectors(sectors: int, what: str) -> None:
    """Refuse a mixture of ``sectors`` distinct totals before its support is walked.

    Its stored amplitudes, and the largest temporary of its build, take 16 bytes an entry,
    and k distinct totals hold at least k (k + 1) / 2 entries.
    """
    require_array_bytes(16 * (sectors * (sectors + 1) // 2), what, at_least=True)


class _SectorSlice(NamedTuple):
    """One sector's amplitudes, a view into the mixture's flat ``amps``."""

    amps: np.ndarray


class SectorMixture:
    """Statistical mixture of pure states living in distinct total-number sectors.

    Stored flat: sector s has total ``totals()[s]``, weight ``weights()[s]``
    and unit-norm amplitudes ``amps[starts[s]:starts[s + 1]]`` on
    |m>|N - m>, m = 0..N; ``starts`` is derived from the totals. Totals
    strictly increase from 0 or more and the weights sum to one. The
    constructor takes array-likes, as int64 totals (other values raise
    ValueError), float weights and complex128 amplitudes. It checks them
    (NaN-safe) and keeps them read-only: an array that already has its
    dtype is kept and frozen, not copied.
    """

    def __init__(self, totals, weights, amps):
        totals = _int64_array(totals, "totals")
        weights, amps = np.asarray(weights, dtype=float), np.asarray(amps, dtype=np.complex128)
        if len(totals) == 0:
            raise ValueError("mixture needs at least one sector")
        k = len(totals)
        if len(weights) != k:
            raise ValueError(f"{k} sectors need {k} weights, got {len(weights)}")
        if np.any(totals[1:] <= totals[:-1]):
            raise ValueError("sector labels must be strictly increasing")
        starts = _flat_layout(totals, amps)
        if np.any(weights < 0):
            raise ValueError("sector weights must be >= 0")
        if not abs(weights.sum() - 1.0) <= NORM_TOL:
            raise ValueError(f"sector weights sum to {weights.sum()!r}, not 1")
        mass = np.abs(amps)
        norms = np.add.reduceat(np.square(mass, out=mass), starts[:-1])
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

    @cached_property
    def sectors(self) -> tuple[tuple[int, float, _SectorSlice], ...]:
        """(N, weight, x) per sector, ``x.amps`` a view of ``amps``. Only perfbench/tracer.py reads
        it, to size a built mixture by ``len(sectors)`` and each ``x.amps.nbytes``."""
        bounds = zip(self.starts[:-1].tolist(), self.starts[1:].tolist())
        return tuple(
            (n, w, _SectorSlice(self.amps[lo:hi]))
            for n, w, (lo, hi) in zip(self._totals.tolist(), self._weights.tolist(), bounds)
        )

    @cached_property
    def sector_view(self) -> SectorView:
        return _weighted_view(self.amps, self.starts, self._totals, self._weights)


def _normalized_sectors(
    totals: np.ndarray, amps_builder: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """The amplitudes ``amps_builder`` returns for ``totals``, each sector normalized alone."""
    amps = np.asarray(amps_builder(totals), dtype=np.complex128)
    starts = _flat_layout(totals, amps)
    if not amps.flags.writeable:
        amps = amps.copy()
    mass = np.abs(amps)
    roots = np.sqrt(_sector_sums(np.square(mass, out=mass), starts))
    del mass
    amps /= np.repeat(roots, totals + 1)
    return amps


def mixture_from_sector_amplitudes(
    dist: NumberDistribution,
    amps_builder: Callable[[np.ndarray], np.ndarray],
    previous: SectorMixture | None = None,
) -> SectorMixture:
    """Mix the sector states ``amps_builder`` returns with weights from ``dist``.

    ``amps_builder(totals)`` gets the support of ``dist`` (increasing) and
    returns, concatenated, the N + 1 amplitudes on |m>|N - m> of each sector
    N in it. Each sector is normalized here, with the arithmetic of np.sum on
    that sector alone. The returned array becomes the mixture's storage and
    is normalized in place (a read-only one is copied first), so a builder
    returns a new array.

    ``previous``, a mixture built by the same ``amps_builder`` for another
    distribution, lends the sectors the two supports share: they are copied,
    and only the others are built and normalized. A sector's amplitudes are
    elementwise in m and N and normalized alone, so they have the same bytes
    whichever sectors were built beside them, and so does the mixture.
    """
    totals = dist.support
    what = f"a mixture of {len(totals)} sectors up to N = {totals[-1]}"
    # The bound refuses a wide support before the exact count builds one Python int a sector.
    k = len(totals)
    require_mixture_sectors(k, what)
    require_array_bytes(16 * (sum(totals.tolist()) + k), what)
    if previous is not None:
        old = previous.totals()
        at = np.minimum(np.searchsorted(old, totals), len(old) - 1)
        shared = old[at] == totals
    if previous is None or not shared.any():
        return SectorMixture(totals, dist.masses, _normalized_sectors(totals, amps_builder))
    fresh = totals[~shared]
    built = _normalized_sectors(fresh, amps_builder) if len(fresh) else None
    # Runs of sectors that are all built here, or all shared and consecutive in `previous` too:
    # each run is one slice of `built` or of previous.amps.
    cuts = np.flatnonzero(
        (shared[1:] != shared[:-1]) | (shared[1:] & (at[1:] != at[:-1] + 1))
    ) + 1
    starts = _sector_starts(totals).tolist()
    pieces, used = [], 0
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), k]):
        size = starts[hi] - starts[lo]
        if shared[lo]:
            first = int(previous.starts[at[lo]])
            pieces.append(previous.amps[first : first + size])
        else:
            pieces.append(built[used : used + size])
            used += size
    return SectorMixture(totals, dist.masses, np.concatenate(pieces))


State = PureTwoModeState | SectorMixture
