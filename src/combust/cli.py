"""Config parsing, CSV emission, and the `combust` command-line interface."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from combust import analysis
from combust.discretization import Grid
from combust.mncp import MNCP, NCP, SolverOptions
from combust.model import BASE_PARAMS, DimensionalParams, DimensionlessParams, Scales, nondimensionalize
from combust.timestepper import RunConfig, StepFailed, TimeSeries, run

DEFAULT_RECORD_TIMES = (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)

_GRID_KEYS = {"domain_length", "m_subintervals", "time_step", "t_end", "record_times", "method"}
_SOLVER_KEYS = {
    "tol", "max_iter", "sigma_c", "eta_armijo", "nu_backtrack", "eps_interior", "max_restore",
}
_DIMLESS_KEYS = {"pe_t", "beta", "e_act", "theta0", "u"}
_DIMENSIONAL_KEYS = {
    "t_res", "c_m", "c_g", "lambda_th", "q_r", "u_inj", "e_r", "k_p",
    "r_gas", "pressure", "rho_f_res", "x_star", "t_star", "dt_star",
}
_ALL_KEYS = _GRID_KEYS | _SOLVER_KEYS | _DIMLESS_KEYS | _DIMENSIONAL_KEYS


class ConfigError(ValueError):
    """Configuration file problem, annotated with the offending line."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _parse_pairs(path):
    """Yield (line_number, key, raw_value) from a key = value file with # comments."""
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _to_float(value, key, lineno):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"cannot parse number {value!r} for key {key}", lineno) from None


def _to_int(value, key, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"cannot parse integer {value!r} for key {key}", lineno) from None


def parse_config(path) -> RunConfig:
    """Parse a key = value configuration file into a RunConfig.

    An empty file yields the default base-case setup.  The dimensionless
    parameter block and the dimensional block are mutually exclusive; a
    dimensional block is converted through nondimensionalize().
    """
    entries = {}
    lines = {}
    for lineno, key, value in _parse_pairs(path):
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[key] = value
        lines[key] = lineno

    dimless_used = sorted(_DIMLESS_KEYS & entries.keys())
    dim_used = sorted(_DIMENSIONAL_KEYS & entries.keys())
    if dimless_used and dim_used:
        raise ConfigError(
            f"dimensionless keys {dimless_used} and dimensional keys {dim_used} "
            "are mutually exclusive",
            lines[dim_used[0]],
        )

    if dim_used:
        missing = sorted(_DIMENSIONAL_KEYS - entries.keys())
        if missing:
            raise ConfigError(f"dimensional block incomplete, missing {missing}", lines[dim_used[0]])
        fvals = {k: _to_float(entries[k], k, lines[k]) for k in _DIMENSIONAL_KEYS}
        dim = DimensionalParams(
            t_res=fvals["t_res"], c_m=fvals["c_m"], c_g=fvals["c_g"],
            lambda_th=fvals["lambda_th"], q_r=fvals["q_r"], u_inj=fvals["u_inj"],
            e_r=fvals["e_r"], k_p=fvals["k_p"], r_gas=fvals["r_gas"],
            pressure=fvals["pressure"], rho_f_res=fvals["rho_f_res"],
        )
        scales = Scales(x_star=fvals["x_star"], t_star=fvals["t_star"], dt_star=fvals["dt_star"])
        params = nondimensionalize(dim, scales)
    elif dimless_used:
        params = DimensionlessParams(
            pe_t=_to_float(entries.get("pe_t", BASE_PARAMS.pe_t), "pe_t", lines.get("pe_t", 0)),
            beta=_to_float(entries.get("beta", BASE_PARAMS.beta), "beta", lines.get("beta", 0)),
            e_act=_to_float(entries.get("e_act", BASE_PARAMS.e_act), "e_act", lines.get("e_act", 0)),
            theta0=_to_float(entries.get("theta0", BASE_PARAMS.theta0), "theta0", lines.get("theta0", 0)),
            u=_to_float(entries.get("u", BASE_PARAMS.u), "u", lines.get("u", 0)),
        )
    else:
        params = BASE_PARAMS

    length = _to_float(entries.get("domain_length", "0.05"), "domain_length", lines.get("domain_length", 0))
    m = _to_int(entries.get("m_subintervals", "50"), "m_subintervals", lines.get("m_subintervals", 0))
    k = _to_float(entries.get("time_step", "1e-5"), "time_step", lines.get("time_step", 0))
    t_end = _to_float(entries.get("t_end", "0.01"), "t_end", lines.get("t_end", 0))
    n_steps = int(round(t_end / k))

    if "record_times" in entries:
        lineno = lines["record_times"]
        record_times = tuple(
            _to_float(tok.strip(), "record_times", lineno)
            for tok in entries["record_times"].split(",") if tok.strip()
        )
    else:
        record_times = DEFAULT_RECORD_TIMES

    method = entries.get("method", MNCP).lower()
    if method not in (MNCP, NCP):
        raise ConfigError(f"method must be 'mncp' or 'ncp', got {method!r}", lines.get("method", 0))

    opts = SolverOptions(
        tol=_to_float(entries.get("tol", "1e-8"), "tol", lines.get("tol", 0)),
        max_iter=_to_int(entries.get("max_iter", "200"), "max_iter", lines.get("max_iter", 0)),
        sigma_c=_to_float(entries.get("sigma_c", "0.5"), "sigma_c", lines.get("sigma_c", 0)),
        eta_armijo=_to_float(entries.get("eta_armijo", "0.1"), "eta_armijo", lines.get("eta_armijo", 0)),
        nu_backtrack=_to_float(entries.get("nu_backtrack", "0.8"), "nu_backtrack", lines.get("nu_backtrack", 0)),
        eps_interior=_to_float(entries.get("eps_interior", "1e-6"), "eps_interior", lines.get("eps_interior", 0)),
        max_restore=_to_int(entries.get("max_restore", "60"), "max_restore", lines.get("max_restore", 0)),
    )

    grid = Grid(length=length, m=m, k=k, n_steps=n_steps)
    return RunConfig(grid=grid, params=params, method=method, solver_opts=opts,
                     record_times=record_times)


def emit_profiles(ts: TimeSeries, grid: Grid, path) -> None:
    """Write snapshot profiles as CSV rows (time, x, theta, eta), boundary node included."""
    x = grid.x_nodes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "x", "theta", "eta"])
        for t_snap, state in ts.snapshots:
            writer.writerow([repr(float(t_snap)), repr(float(x[0])),
                             repr(float(state.theta_b)), repr(float(state.eta_b))])
            for i in range(grid.m):
                writer.writerow([repr(float(t_snap)), repr(float(x[i + 1])),
                                 repr(float(state.theta[i])), repr(float(state.eta[i]))])


def emit_diff(report: analysis.DiffReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "theta_max", "theta_l2", "eta_max", "eta_l2"])
        for row in report.rows:
            writer.writerow([repr(row.time), repr(row.theta_max), repr(row.theta_l2),
                             repr(row.eta_max), repr(row.eta_l2)])


def emit_error_table(table: analysis.ErrorTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E_h", "E_h2", "E_h4", "ratio1", "ratio2", "variable"])
        for row in table.rows:
            writer.writerow([repr(row.time), repr(row.e_h), repr(row.e_h2), repr(row.e_h4),
                             repr(row.ratio1), repr(row.ratio2), row.variable])


def emit_bench(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "wall_time", "iter", "bl_t", "s_evals", "js_evals", "method"])
        for row in rows:
            writer.writerow([repr(row.time), repr(row.wall_time), row.iterations,
                             repr(row.last_step), row.s_evals, row.js_evals, row.method])


def emit_plot_script(csv_paths, path) -> None:
    """Write a gnuplot script drawing profile panels and error-vs-time curves.

    CSV files are classified by their header line: profile files start with
    'time,x', error tables with 't,E_h'.
    """
    profiles = []
    errors = []
    for csv_path in csv_paths:
        try:
            header = Path(csv_path).read_text().splitlines()[0]
        except (OSError, IndexError):
            header = ""
        if header.startswith("t,E_h"):
            errors.append(csv_path)
        else:
            profiles.append(csv_path)

    lines = [
        "# gnuplot script",
        "set datafile separator ','",
        "set key top left",
    ]
    for csv_path in profiles:
        lines += [
            f"# profiles from {csv_path}",
            "set multiplot layout 2,1",
            "set xlabel 'x'",
            "set ylabel 'theta'",
            f"plot '{csv_path}' using 2:3 with points pt 7 ps 0.4 title 'theta'",
            "set ylabel 'eta'",
            f"plot '{csv_path}' using 2:4 with points pt 7 ps 0.4 title 'eta'",
            "unset multiplot",
            "pause -1",
        ]
    for csv_path in errors:
        lines += [
            f"# relative errors from {csv_path}",
            "set xlabel 't'",
            "set ylabel 'E'",
            f"plot '{csv_path}' using 1:2 with linespoints title 'E_h', \\",
            f"     '{csv_path}' using 1:3 with linespoints title 'E_h/2', \\",
            f"     '{csv_path}' using 1:4 with linespoints title 'E_h/4'",
            "pause -1",
        ]
    Path(path).write_text("\n".join(lines) + "\n")


def _load_config(args) -> RunConfig:
    if args.config is not None:
        config = parse_config(args.config)
    else:
        grid = Grid(length=0.05, m=50, k=1e-5, n_steps=1000)
        config = RunConfig(grid=grid, params=BASE_PARAMS, record_times=DEFAULT_RECORD_TIMES)
    if args.method is not None:
        config = replace(config, method=args.method)
    if args.m is not None:
        config = replace(config, grid=replace(config.grid, m=args.m))
    if args.tend is not None:
        n_steps = int(round(args.tend / config.grid.k))
        config = replace(config, grid=replace(config.grid, n_steps=n_steps))
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="combust",
                                     description="Combustion front solver and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "time-march one configuration and write profile CSV"),
        ("compare", "diff the two methods on one configuration"),
        ("refine", "mesh-refinement relative-error study"),
        ("bench", "per-snapshot iteration statistics for both methods"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--method", choices=[MNCP, NCP], default=None)
        p.add_argument("--m", type=int, default=None, help="override interior node count")
        p.add_argument("--tend", type=float, default=None, help="override final time")
        p.add_argument("--plot-script", default=None, help="also emit a gnuplot script here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"combust: configuration error: {err}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            ts = run(config)
            emit_profiles(ts, config.grid, args.out)
        elif args.command == "compare":
            report = analysis.compare_methods(config)
            emit_diff(report, args.out)
        elif args.command == "refine":
            times = tuple(t for t in config.record_times if t > 0.0)
            table = analysis.refine_errors(config, times)
            emit_error_table(table, args.out)
        elif args.command == "bench":
            rows = analysis.bench([config])
            emit_bench(rows, args.out)
    except StepFailed as err:
        kind = type(err.cause).__name__
        print(f"combust: solver failure ({kind}) at time step {err.time_index}: {err.reason}",
              file=sys.stderr)
        return 2

    if args.plot_script is not None:
        emit_plot_script([args.out], args.plot_script)
    return 0


if __name__ == "__main__":
    sys.exit(main())
