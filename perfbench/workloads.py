"""Benchmark workloads for npsteer and the checks on every output they produce.

A workload is a cycle of command-line calls, each run in process through
``npsteer.cli.main(argv)`` by one closed-loop client: the next call starts
only after the previous one returned and its output was checked. The seed
fixes the order of the calls within each cycle and the ``--seed`` of every
``sample`` call; the program sees only the generated arguments.

Each check returns a list of problems; an empty list means the output is
correct. Tolerances are those of ``tests/test_acceptance.py``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Verdict lines `npsteer eval` prints for {"family": "number_phase", "n": 2},
# as the README shows them (advisories cut off).
README_N2_VERDICTS = (
    "NP_ENT           VIOLATED      lhs=0.555555555556  bound=1  margin=0.444444444444",
    "NP_STEER         VIOLATED      lhs=0.138888888889  bound=0.25  margin=0.111111111111",
    "NAIVE_ENT        VIOLATED      lhs=0.956803565469  bound=2  margin=1.04319643453",
    "NAIVE_STEER      VIOLATED      lhs=0.956803565469  bound=1  margin=0.0431964345313",
    "HZ_ENT           VIOLATED      lhs=0.888888888889  bound=0.333333333333  margin=-0.555555555556",
    "HZ_STEER_A_BY_B  VIOLATED      lhs=0.888888888889  bound=0.833333333333  margin=-0.0555555555556",
    "HZ_STEER_B_BY_A  VIOLATED      lhs=0.888888888889  bound=0.833333333333  margin=-0.0555555555556",
)
VERDICT_IDS = tuple(line.split()[0] for line in README_N2_VERDICTS)
SWEEP_HEADER = (
    "parameter,n_var,d2_rel,np_ent_margin,np_steer_margin,naive_ent_margin,"
    "naive_steer_margin,naive_applicable,hz_ent_margin,hz_steer_a_by_b_margin,"
    "hz_steer_b_by_a_margin"
)
SAMPLE_SHOTS = 1_000_000
WARMUP_SHOTS = 10_000  # the warm-up takes the same code path at a hundredth of the cost

GAUSS400 = {"kind": "gaussian", "mean": 400.0, "std": 10.0}
GAUSS400_MIXTURE = {"family": "mixture", "base": "number_phase", "noise": GAUSS400}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and how to judge its output."""

    label: str
    argv: tuple[str, ...]
    work: int  # states evaluated, sweep points written, or shots written
    check: Callable[[str], list[str]]  # stdout -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    min_calls: int  # calls a measured run makes at least, whatever its length
    make_cycle: Callable[[random.Random, Path, bool], list[Call]]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _gaussian_mixture_d2(mean: float, std: float) -> float:
    """Exact D^2 of a number_phase mixture over gaussian-weighted sectors.

    Computed here from the closed form E_N = N/(N+1), independently of npsteer;
    the tails beyond 40 std carry no mass at double precision.
    """
    ns = range(max(0, math.floor(mean - 40 * std)), math.ceil(mean + 40 * std) + 1)
    w = [math.exp(-((n - mean) ** 2) / (2.0 * std * std)) for n in ns]
    e = sum(wi * n / (n + 1.0) for wi, n in zip(w, ns)) / sum(w)
    return 1.0 - e * e


# --------------------------------------------------------------------------- eval


def _split_eval_output(stdout: str) -> tuple[list[str], dict]:
    cut = stdout.index("\n{")
    return stdout[:cut].splitlines(), json.loads(stdout[cut + 1 :])


def _eval_check(spec: dict, closed_form) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        try:
            lines, payload = _split_eval_output(stdout)
        except ValueError as exc:
            return [f"eval output is not verdict lines plus JSON: {exc}"]
        problems = []
        if payload.get("spec") != spec:
            problems.append(f"spec echo {payload.get('spec')!r} != {spec!r}")
        verdicts = payload.get("verdicts", [])
        if tuple(v.get("id") for v in verdicts) != VERDICT_IDS:
            problems.append(f"verdict ids {[v.get('id') for v in verdicts]}")
        if [line.split()[0] for line in lines if line.strip()] != list(VERDICT_IDS):
            problems.append("verdict lines do not list the seven criteria in order")
        report = payload.get("report", {})
        numbers = list(report.values()) + [
            v.get(k) for v in verdicts for k in ("lhs", "bound", "margin")
        ]
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
            return problems + ["non-finite or missing number in the payload"]
        for v in verdicts:
            if not _close(v["margin"], v["bound"] - v["lhs"], 1e-12 * max(1.0, abs(v["lhs"]))):
                problems.append(f"{v['id']} margin is not bound - lhs")
        for key in ("d2_rel", "d2_1", "d2_2"):
            if not 0.0 <= report.get(key, -1.0) <= 1.0:
                problems.append(f"{key} = {report.get(key)!r} outside [0, 1]")
        return problems + closed_form(report, lines)

    return check


def _number_phase_forms(n: int):
    def forms(r: dict, lines: list[str]) -> list[str]:
        problems = []
        if not _close(r["n_var"], 0.0, 1e-12):
            problems.append(f"number_phase n={n}: n_var {r['n_var']!r} != 0")
        d2 = 1.0 - (n / (n + 1.0)) ** 2
        if not _close(r["d2_rel"], d2, 1e-12):
            problems.append(f"number_phase n={n}: d2_rel {r['d2_rel']!r} != {d2!r}")
        if n == 2:
            shown = [line.split("  [")[0] for line in lines]
            if tuple(shown) != README_N2_VERDICTS:
                problems.append("number_phase n=2 verdict lines differ from the README")
        return problems

    return forms


def _split_fock_forms(n: int):
    e = sum(math.sqrt(math.comb(n, m) * math.comb(n, m - 1)) for m in range(1, n + 1)) / 2.0**n

    def forms(r: dict, lines: list[str]) -> list[str]:
        want = {
            "n_var": 0.0,
            "d2_rel": 1.0 - e * e,
            "hz_na": n / 2.0,
            "hz_nb": n / 2.0,
            "hz_nanb": n * (n - 1) / 4.0,
        }
        return [
            f"split_fock n={n}: {k} {r[k]!r} != {w!r}"
            for k, w in want.items()
            if not _close(r[k], w, 1e-12 * max(1.0, abs(w)))
        ]

    return forms


def _tmss_forms(r_sq: float):
    def forms(r: dict, lines: list[str]) -> list[str]:
        problems = []
        n_mean = 2.0 * math.sinh(r_sq) ** 2
        if not _close(r["n_mean"], n_mean, 1e-6):
            problems.append(f"tmss r={r_sq}: n_mean {r['n_mean']!r} != {n_mean!r}")
        if not _close(r["d2_rel"], 1.0, 1e-10):
            problems.append(f"tmss r={r_sq}: d2_rel {r['d2_rel']!r} != 1")
        return problems

    return forms


def _noise_forms(mean: float, var: float, d2: float | None = None):
    def forms(r: dict, lines: list[str]) -> list[str]:
        problems = []
        for key, want in (("n_mean", mean), ("n_var", var)):
            if not _close(r[key], want, 1e-8 * want):
                problems.append(f"mixture: {key} {r[key]!r} != {want!r}")
        if d2 is not None and not _close(r["d2_rel"], d2, 1e-8):
            problems.append(f"mixture: d2_rel {r['d2_rel']!r} != {d2!r}")
        return problems

    return forms


# The grid-state and report path. Every kind of state the CLI accepts, at sizes
# where the dense grid (number_phase n=1000, a 1001^2 grid), the gammaln branch
# (split_fock n=400) and the per-sector loops (two mixtures, ~170 and ~100
# sectors) each cost milliseconds, so a sector-native core shows here.
# Sampling, bootstrap and CSV writing do no work.
EVAL_SPECS = (
    ({"family": "number_phase", "n": 2}, _number_phase_forms(2)),
    ({"family": "split_fock", "n": 400}, _split_fock_forms(400)),
    ({"family": "number_phase", "n": 1000}, _number_phase_forms(1000)),
    ({"family": "tmss", "r": 2.0}, _tmss_forms(2.0)),
    (GAUSS400_MIXTURE, _noise_forms(400.0, 100.0, _gaussian_mixture_d2(400.0, 10.0))),
    (
        {"family": "mixture", "base": "split_fock", "noise": {"kind": "poissonian", "mean": 50.0}},
        _noise_forms(50.0, 50.0),
    ),
)


def _label(spec: dict) -> str:
    if spec["family"] == "mixture":
        noise = spec["noise"]
        return f"mixture-{spec['base']}-{noise['kind']}{noise['mean']:g}"
    if spec["family"] == "tmss":
        return f"tmss-r{spec['r']:g}"
    return f"{spec['family']}-n{spec['n']}"


def _eval_cycle(rng: random.Random, tmp: Path, warm: bool) -> list[Call]:
    calls = [
        Call(_label(spec), ("eval", "--state", json.dumps(spec)), 1, _eval_check(spec, forms))
        for spec, forms in EVAL_SPECS
    ]
    rng.shuffle(calls)
    return calls


# -------------------------------------------------------------------------- sweep


def _read_sweep(path: Path, rows: int) -> tuple[list[list[float]], list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [], [f"{path.name}: header {lines[:1]!r}"]
    if len(lines) != rows + 1:
        return [], [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    try:
        table = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return [], [f"{path.name}: {exc}"]
    if any(len(row) != 11 or not all(map(math.isfinite, row)) for row in table):
        return [], [f"{path.name}: a row is short or holds a non-finite value"]
    return table, []


def _sweep_check(path: Path, lo: float, step: float, rows: int, extra) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        if stdout != f"wrote {rows} sweep rows to {path}\n":
            return [f"sweep stdout {stdout!r}"]
        table, problems = _read_sweep(path, rows)
        if problems:
            return problems
        for i, row in enumerate(table):
            if not _close(row[0], lo + step * i, 1e-9):
                problems.append(f"{path.name}: row {i} parameter {row[0]!r}")
        return problems + extra(table)

    return check


def _std_sweep_extra(table: list[list[float]]) -> list[str]:
    """Acceptance criterion 06: the NP_ENT margin changes sign between std 8 and 20."""
    by_std = {round(row[0]): row for row in table}
    problems = []
    if not by_std[8][3] > 0.0:
        problems.append(f"NP_ENT margin at std 8 is {by_std[8][3]!r}, expected > 0")
    if not by_std[20][3] < 0.0:
        problems.append(f"NP_ENT margin at std 20 is {by_std[20][3]!r}, expected < 0")
    for std, row in by_std.items():
        if not _close(row[1], std * std, 1e-6 * std * std):
            problems.append(f"n_var {row[1]!r} at std {std}")
    return problems


def _transmissivity_sweep_extra(table: list[list[float]]) -> list[str]:
    """The noise is fixed, and t and 1 - t are mirror images of one another."""
    problems = [f"n_var {row[1]!r} at t={row[0]}" for row in table if not _close(row[1], 100.0, 1e-6)]
    for row, mirror in zip(table, reversed(table)):
        if not _close(row[2], mirror[2], 1e-9):
            problems.append(f"d2_rel at t={row[0]} and t={mirror[0]} differ")
    return problems


# The mixture path at scale, as acceptance criterion 06 and
# scripts/noise_robustness.py use it: every point builds a ~170-sector
# mixture (~14k sectors per std sweep) and runs the per-sector loops of the
# observables and of relative_phase_density. No dense grid is involved. The
# warm-up cycle sweeps two points per call, the ones the checks need.
SWEEPS = (
    ("sweep-std", GAUSS400_MIXTURE, "std", (1.0, 40.0, 1.0), (8.0, 20.0, 12.0), _std_sweep_extra),
    ("sweep-transmissivity", {**GAUSS400_MIXTURE, "base": "split_fock"}, "transmissivity",
     (0.05, 0.95, 0.05), (0.05, 0.95, 0.9), _transmissivity_sweep_extra),
)


def _sweep_cycle(rng: random.Random, tmp: Path, warm: bool) -> list[Call]:
    calls = []
    for label, spec, var, full, short, extra in SWEEPS:
        lo, hi, step = short if warm else full
        rows = math.floor((hi - lo) / step + 1e-9) + 1
        out = tmp / f"{label}.csv"
        argv = ("sweep", "--state", json.dumps(spec), "--sweep", f"{var}:{lo:g}:{hi:g}:{step:g}",
                "--out", str(out))
        calls.append(Call(label, argv, rows, _sweep_check(out, lo, step, rows, extra)))
    rng.shuffle(calls)
    return calls


# ------------------------------------------------------------------------- sample


def _sample_check(path: Path, shots: int, seed: int, d2_exact: float) -> Callable[[str], list[str]]:
    est_path = Path(str(path) + ".est.json")

    def check(stdout: str) -> list[str]:
        problems = []
        if f"wrote {shots} samples to {path}, estimate to {est_path}\n" not in stdout:
            problems.append("sample stdout lacks the 'wrote ...' line")
        with open(path, "rb") as fh:
            head = fh.readline()
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b""))
        if head != b"shot_index,phi1,phi2\n" or rows != shots:
            problems.append(f"{path.name}: header {head!r} and {rows} rows, expected {shots}")
        est = json.loads(est_path.read_text())
        if (est.get("shots"), est.get("seed"), est.get("method")) != (shots, seed, "bootstrap"):
            problems.append(f"estimate records shots/seed/method {est.get('shots')}/{est.get('seed')}"
                            f"/{est.get('method')}")
        d2_hat, se = est.get("d2_hat"), est.get("std_error")
        if not (isinstance(se, float) and se > 0.0 and abs(d2_hat - d2_exact) <= 5.0 * se):
            problems.append(f"d2_hat {d2_hat!r} +/- {se!r} is not within 5 SE of {d2_exact!r}")
        return problems

    return check


# Where phase_povm simulates instead of analysing: the K x K joint density
# (tmss r=2), the per-sector sampler (the gaussian mixture) and acceptance
# criterion 10 (number_phase n=3), each followed by the bootstrap estimate and
# the CSV writer. The report and density layers are nearly idle.
SAMPLE_SPECS = (
    ({"family": "number_phase", "n": 3}, 7.0 / 16.0),
    ({"family": "tmss", "r": 2.0}, 1.0),
    (GAUSS400_MIXTURE, _gaussian_mixture_d2(400.0, 10.0)),
)


def _sample_cycle(rng: random.Random, tmp: Path, warm: bool) -> list[Call]:
    shots = WARMUP_SHOTS if warm else SAMPLE_SHOTS
    calls = []
    for spec, d2 in SAMPLE_SPECS:
        label = _label(spec)
        seed = rng.randrange(2**32)
        out = tmp / f"{label}.csv"
        argv = ("sample", "--state", json.dumps(spec), "--shots", str(shots), "--seed", str(seed),
                "--out", str(out))
        calls.append(Call(label, argv, shots, _sample_check(out, shots, seed, d2)))
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval_mix", 200, _eval_cycle),  # leaves at least ten calls beyond p95
        Workload("sweep_dephasing", len(SWEEPS), _sweep_cycle),
        Workload("sample_1e6", len(SAMPLE_SPECS), _sample_cycle),
    )
}
