"""Command-line front end.

Subcommands:

    eval    evaluate all observables and criterion verdicts on one state
    sweep   evaluate verdict margins along a parameter range
    sample  draw local-phase samples and estimate the dispersion
    curves  emit the boundary curves for the two figures

Exit codes: 0 success (verdict content never changes it), 1 an --assert
expectation failed, 2 malformed input (spec, flags, empty range), 3 the
requested truncation is unattainable.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .criteria import (
    CURVE_IDS, UR_MIN, UR_MIN_D2, CriterionVerdict, all_verdicts, boundary_curves,
    sampled_np_verdicts,
)
from .fock import DEFAULT_TAIL_TOL, MAX_ARRAY_BYTES, ArraySizeError, State, TruncationError
from .observables import ObservableReport, number_moments, observable_report
from .phase_povm import (
    estimate_relative_dispersion,
    relative_phase_density,
    sample_local_phases,
    write_samples_csv,
)
from .statespec import SWEEP_KEYS, StateSpec, StateSpecError, load_state_spec

DEFAULT_SHOTS = 10_000
DEFAULT_SEED = 0
DEFAULT_Z = 5.0
DEFAULT_CURVE_RANGE = "d2:0.005:1.0:0.005"
# The most characters a CSV cell and its comma or newline take: a float's repr has 24 at most.
_CELL_BYTES = 25

# d2, the threshold of each curve of CURVE_IDS in its order, and the UR minimum and its d2
CURVE_COLUMNS = (
    "d2",
    "ent_threshold",
    "steer_threshold",
    "ur_sum_bound",
    "ur_flat_reference",
    "ur_min_d2",
)

SWEEP_COLUMNS = (
    "parameter",
    "n_var",
    "d2_rel",
    "np_ent_margin",
    "np_steer_margin",
    "naive_ent_margin",
    "naive_steer_margin",
    "naive_applicable",
    "hz_ent_margin",
    "hz_steer_a_by_b_margin",
    "hz_steer_b_by_a_margin",
)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict_line(v: CriterionVerdict) -> str:
    word = "VIOLATED" if v.violated else "not violated"
    if _color_enabled():
        word = f"\x1b[31m{word}\x1b[0m" if v.violated else f"\x1b[32m{word}\x1b[0m"
    line = (
        f"{v.criterion_id:<16} {word:<12}  lhs={v.lhs:.12g}  bound={v.bound:.12g}  "
        f"margin={v.margin:.12g}"
    )
    if v.advisory:
        line += f"  [{v.advisory}]"
    return line


def _parse_range(
    text: str, expected_var: tuple[str, ...], columns: tuple[str, ...]
) -> tuple[str, np.ndarray]:
    """The variable and the points of range ``text``, one CSV line of ``columns`` a point.

    The point count is sized before any array: both its values and the CSV text of its
    lines, which is joined into one string, must keep within MAX_ARRAY_BYTES.
    """
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"range must look like var:lo:hi:step, got {text!r}")
    var = parts[0]
    if var not in expected_var:
        raise ValueError(
            f"unknown sweep variable {var!r}; expected one of {', '.join(expected_var)}"
        )
    try:
        lo, hi, step = (float(p) for p in parts[1:])
    except ValueError as exc:
        raise ValueError(f"non-numeric range bound in {text!r}: {exc}") from exc
    for name, bound in (("lo", lo), ("hi", hi), ("step", step)):
        if not math.isfinite(bound):
            raise ValueError(f"range {name} must be finite, got {bound!r} in {text!r}")
    if step <= 0:
        raise ValueError(f"range step must be > 0, got {step!r}")
    span = (hi - lo) / step + 1e-9  # overflows to inf when the count is beyond a float
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count < 1:
        raise ValueError(f"range {text!r} contains no points")
    for nbytes, of in ((8, "values"), (_CELL_BYTES * len(columns), "CSV lines")):
        if nbytes * count > MAX_ARRAY_BYTES:
            many = f"{count:.3g}" if math.isfinite(count) else f"over {sys.float_info.max:.3g}"
            raise ArraySizeError(
                f"range {text!r} holds {many} points, whose {of} need more than the "
                f"{MAX_ARRAY_BYTES:,}-byte limit on one array"
            )
    values = lo + step * np.arange(count)
    return var, values


def _parse_assert(text: str) -> dict[str, bool]:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"assert item {item!r} must look like ID=violated|ok")
        cid, _, want = item.partition("=")
        want = want.strip().lower()
        if want not in ("violated", "ok", "not_violated"):
            raise ValueError(f"assert value for {cid!r} must be 'violated' or 'ok'")
        out[cid.strip()] = want == "violated"
    if not out:
        raise ValueError("empty --assert expression")
    return out


def _check_asserts(spec: str | None, verdicts: list[CriterionVerdict]) -> int:
    if spec is None:
        return 0
    wanted = _parse_assert(spec)
    by_id = {v.criterion_id: v for v in verdicts}
    unknown = sorted(set(wanted) - set(by_id))
    if unknown:
        raise ValueError(
            f"--assert names unknown criteria {', '.join(unknown)}; "
            f"this run produced {', '.join(by_id)}"
        )
    failures = [
        f"{cid}: expected {'violated' if want else 'ok'}, got "
        f"{'violated' if by_id[cid].violated else 'ok'}"
        for cid, want in wanted.items()
        if by_id[cid].violated is not want
    ]
    if failures:
        for line in failures:
            print(f"ASSERT FAILED  {line}")
        return 1
    print(f"ASSERT OK  ({len(wanted)} expectation(s) matched)")
    return 0


def _load_spec(args: argparse.Namespace) -> StateSpec:
    if args.tail_tol is not None and not 0.0 < args.tail_tol < 1.0:
        raise ValueError(
            f"--tail-tol must be finite with 0 < tail_tol < 1, got {args.tail_tol!r}"
        )
    return load_state_spec(args.state)


def _spec_echo(spec: StateSpec) -> dict:
    return {"family": spec.family, **spec.params}


def _evaluate(
    state: State, args: argparse.Namespace
) -> tuple[ObservableReport, list[CriterionVerdict]]:
    """The state's observable report and, from it and the relative phase density, the verdicts.

    The report is computed on this thread while the density's helper thread, if it
    has one, transforms sector blocks.
    """
    reports = []
    density = relative_phase_density(
        state, args.grid, alongside=lambda: reports.append(observable_report(state))
    )
    return reports[0], all_verdicts(reports[0], density)


def _columns(report: ObservableReport, verdicts: list[CriterionVerdict]) -> dict:
    """The report fields, then the margin and flag of each verdict, by column name."""
    values = report.to_json_dict()
    for v in verdicts:
        values[f"{v.criterion_id.lower()}_margin"] = v.margin
        values[f"{v.criterion_id.lower()}_violated"] = v.violated
    return values


def _cell(x) -> str:
    return str(int(x)) if isinstance(x, bool) else repr(float(x))


def _line(columns, row) -> str:
    """One CSV line: the row's value under every column name."""
    return ",".join(_cell(row[c]) for c in columns)


def _table(columns, lines) -> str:
    """CSV text: the header, then the lines."""
    return "\n".join([",".join(columns), *lines]) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


@contextlib.contextmanager
def _writable(*paths: str | None):
    """Check that every output path given can be written before the work starts.

    Opening for append creates a missing file and leaves an existing one as it
    is; the files created here are removed again if the work fails. A path of
    None (output to stdout) is skipped; an empty one cannot be written.
    """
    created = []
    try:
        for path in (p for p in paths if p is not None):
            existed = os.path.exists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def cmd_eval(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    with _writable(args.out):
        report, verdicts = _evaluate(spec.build(args.tail_tol), args)
        for v in verdicts:
            print(_verdict_line(v))
        if args.format == "json":
            payload = {
                "spec": _spec_echo(spec),
                "report": report.to_json_dict(),
                "verdicts": [v.to_json_dict() for v in verdicts],
            }
            text = json.dumps(payload, indent=2) + "\n"
        else:
            values = _columns(report, verdicts)
            text = _table(tuple(values), [_line(values, values)])
        if args.out is not None:
            _write(args.out, text)
        else:
            print(text, end="")
    return _check_asserts(args.assert_spec, verdicts)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    var, values = _parse_range(args.sweep, tuple(SWEEP_KEYS), SWEEP_COLUMNS)
    # A noise sweep changes the weights alone: each point's mixture takes the sectors it
    # shares with the point before it from that point's state.
    noise = SWEEP_KEYS[var][0] == "noise"
    lines, state = [], None
    with _writable(args.out):
        for value in values.tolist():
            try:
                point = spec.with_param(var, value)
            except StateSpecError as exc:
                raise ValueError(str(exc)) from exc  # a bad range value, not a bad spec
            state = point.build(args.tail_tol, state)
            report, verdicts = _evaluate(state, args)
            if not noise:
                state = None
            naive_ok = next(v.advisory is None for v in verdicts if v.criterion_id == "NAIVE_ENT")
            row = {"parameter": value, "naive_applicable": naive_ok, **_columns(report, verdicts)}
            lines.append(_line(SWEEP_COLUMNS, row))
        _write(args.out, _table(SWEEP_COLUMNS, lines))
    print(f"wrote {len(lines)} sweep rows to {args.out}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.shots < 2:
        raise ValueError("--shots must be >= 2")
    if not (math.isfinite(args.z) and args.z >= 0.0):
        raise ValueError(f"--z must be finite and >= 0, got {args.z!r}")
    spec = _load_spec(args)
    est_path = args.out + ".est.json"
    with _writable(args.out, est_path):
        state = spec.build(args.tail_tol)
        s1, s2 = sample_local_phases(state, args.shots, args.seed, grid_size=args.grid)
        # The CSV is written on this thread while the bootstrap resamples on a helper.
        est = estimate_relative_dispersion(
            s1, s2, alongside=lambda: write_samples_csv(args.out, s1, s2)
        )
        n_mean, n_var, _, _ = number_moments(state)
        verdicts = list(sampled_np_verdicts(n_var, est.d2_hat, est.std_error, est.shots, z=args.z))
        print(
            f"d2_hat = {est.d2_hat:.6g} +/- {est.std_error:.3g} "
            f"({est.method}, {est.shots} shots)"
        )
        for v in verdicts:
            print(_verdict_line(v))
        payload = {
            "spec": _spec_echo(spec),
            "shots": args.shots,
            "seed": args.seed,
            "z": args.z,
            "d2_hat": est.d2_hat,
            "std_error": est.std_error,
            "method": est.method,
            "resamples": est.resamples,
            "n_mean": float(n_mean),
            "n_var": float(n_var),
            "verdicts": [v.to_json_dict() for v in verdicts],
        }
        _write(est_path, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.shots} samples to {args.out}, estimate to {est_path}")
    return _check_asserts(args.assert_spec, verdicts)


def cmd_curves(args: argparse.Namespace) -> int:
    _, values = _parse_range(
        DEFAULT_CURVE_RANGE if args.sweep is None else args.sweep, ("d2",), CURVE_COLUMNS
    )
    with _writable(args.out):
        thresholds = [boundary_curves(cid, values).threshold.tolist() for cid in CURVE_IDS]
        lines = [
            ",".join(map(_cell, (d2, *t, UR_MIN, UR_MIN_D2)))
            for d2, *t in zip(values.tolist(), *thresholds)
        ]
        _write(args.out, _table(CURVE_COLUMNS, lines))
    print(f"wrote {len(lines)} curve rows to {args.out}")
    return 0


# Every flag, by name, with its argparse keywords
_FLAGS = {
    "--state": dict(help="state spec: JSON file path or inline JSON object"),
    "--out": dict(help="output file path"),
    "--format": dict(choices=("csv", "json"), default="json", help="payload format (default json)"),
    "--shots": dict(type=int, default=DEFAULT_SHOTS,
                    help=f"number of sampling shots (default {DEFAULT_SHOTS})"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help=f"sampling seed (default {DEFAULT_SEED})"),
    "--grid": dict(type=int, default=None, help="phase-grid size K (default: automatic per state)"),
    "--tail-tol": dict(type=float, default=None,
                       help=f"truncation tail tolerance (default {DEFAULT_TAIL_TOL}; "
                            "spec file wins)"),
    "--sweep": dict(default=None,
                    help=f"range var:lo:hi:step (sweep: {'|'.join(SWEEP_KEYS)}; curves: d2)"),
    "--z": dict(type=float, default=DEFAULT_Z,
                help=f"z-score for sampled verdicts (default {DEFAULT_Z})"),
    "--assert": dict(dest="assert_spec", default=None,
                     help="comma list ID=violated|ok; exit 1 on mismatch"),
}

# Each command: its function, its help, and the flags it reads; a flag marked "!" is required.
_COMMANDS = {
    "eval": (cmd_eval, "evaluate observables and criteria on one state",
             "--state! --out --format --grid --tail-tol --assert"),
    "sweep": (cmd_sweep, "tabulate criterion margins along a parameter range",
              "--state! --sweep! --out! --grid --tail-tol"),
    "sample": (cmd_sample, "simulate local phase measurements and estimate the dispersion",
               "--state! --out! --shots --seed --grid --tail-tol --z --assert"),
    "curves": (cmd_curves, "emit boundary-curve data for plotting", "--out! --sweep"),
}


@functools.cache  # built on the first call, then shared by every later one in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npsteer",
        description="Number-phase entanglement and steering calculator for two bosonic modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags.split():
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **_FLAGS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except StateSpecError as exc:
        print(f"error: bad state spec: {exc}", file=sys.stderr)
        return 2
    except ArraySizeError as exc:
        print(f"error: array too large: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"error: truncation unattainable: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
