#!/usr/bin/env python3
"""Tabulate boundary curves and per-family trajectories for plotting.

Writes one CSV per dataset into an output directory:

    curves.csv         criterion boundaries over the dispersion axis
    flat_pair.csv      fixed-total flat-phase states, N = 0..n_max
    split_fock.csv     balanced splitting states, N = 1..n_max
    tmss.csv           two-mode squeezed states along the squeezing axis
    poissonian.csv     Poissonian dephasing mixtures along the mean
    thermal.csv        thermal dephasing mixtures along the mean

Each trajectory row carries the point's dispersion, number variance, and
criterion margins, so the files drop straight onto the boundary plot.
"""
from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

from npsteer import (
    boundary_curves,
    np_entanglement,
    np_steering,
    number_phase_state,
    observable_report,
    parse_state_spec,
    split_fock_state,
    two_mode_squeezed_state,
)

TRAJECTORY_COLUMNS = ("parameter", "d2_rel", "n_var", "np_ent_margin", "np_steer_margin")


@dataclass(frozen=True)
class FigureConfig:
    out_dir: str
    n_max: int = 50
    r_max: float = 2.0
    r_step: float = 0.05
    mean_max: float = 20.0
    mean_step: float = 0.25
    d2_step: float = 0.002


def write_rows(path: str, columns: tuple[str, ...], rows: list[list[float]]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(repr(float(x)) for x in row) + "\n" for row in rows)
    print(f"wrote {len(rows):4d} rows to {path}")


def trajectory_row(parameter: float, state) -> list[float]:
    report = observable_report(state)
    return [
        parameter,
        report.d2_rel,
        report.n_var,
        np_entanglement(report).margin,
        np_steering(report).margin,
    ]


def dephased_state(kind: str, mean: float):
    """Flat-phase states mixed over ``kind`` number noise, built as ``npsteer eval`` builds them."""
    spec = {"family": "mixture", "base": "number_phase", "noise": {"kind": kind, "mean": mean}}
    return parse_state_spec(json.dumps(spec)).build()


def emit_curves(config: FigureConfig) -> None:
    grid = np.arange(config.d2_step, 1.0 + config.d2_step / 2, config.d2_step)
    ent = boundary_curves("ENT_FIG2", grid).threshold
    steer = boundary_curves("STEER_FIG2", grid).threshold
    ur = boundary_curves("UR_FIG1", grid).threshold
    rows = [
        [d2, e, s, u] for d2, e, s, u in zip(grid.tolist(), ent, steer, ur)
    ]
    write_rows(
        os.path.join(config.out_dir, "curves.csv"),
        ("d2", "ent_threshold", "steer_threshold", "ur_sum_bound"),
        rows,
    )


def emit_trajectories(config: FigureConfig) -> None:
    rows = [
        trajectory_row(n, number_phase_state(n, 0.0)) for n in range(config.n_max + 1)
    ]
    write_rows(os.path.join(config.out_dir, "flat_pair.csv"), TRAJECTORY_COLUMNS, rows)

    rows = [
        trajectory_row(n, split_fock_state(n, 0.0, 0.5))
        for n in range(1, config.n_max + 1)
    ]
    write_rows(os.path.join(config.out_dir, "split_fock.csv"), TRAJECTORY_COLUMNS, rows)

    r_values = np.arange(config.r_step, config.r_max, config.r_step)
    rows = [trajectory_row(r, two_mode_squeezed_state(r)) for r in r_values.tolist()]
    write_rows(os.path.join(config.out_dir, "tmss.csv"), TRAJECTORY_COLUMNS, rows)

    mean_values = np.arange(config.mean_step, config.mean_max, config.mean_step)
    for name in ("poissonian", "thermal"):
        rows = [trajectory_row(mean, dephased_state(name, mean)) for mean in mean_values.tolist()]
        write_rows(os.path.join(config.out_dir, f"{name}.csv"), TRAJECTORY_COLUMNS, rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figure_data", help="output directory")
    parser.add_argument("--n-max", type=int, default=50, help="largest photon number")
    args = parser.parse_args(argv)
    config = FigureConfig(out_dir=args.out_dir, n_max=args.n_max)
    os.makedirs(config.out_dir, exist_ok=True)
    emit_curves(config)
    emit_trajectories(config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
