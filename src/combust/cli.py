"""Config parsing, CSV emission, and the `combust` command-line interface."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from combust import analysis
from combust.discretization import ETA_B, THETA_B, Grid
from combust.mncp import MNCP, NCP, SolverOptions
from combust.model import BASE_PARAMS, DimensionalParams, DimensionlessParams, Scales, nondimensionalize
from combust.timestepper import RunConfig, StepFailed, TimeSeries, nearest_step, run

DEFAULT_RECORD_TIMES = (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)


class ConfigError(ValueError):
    """Configuration file problem, annotated with the offending line."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _to_float(value, key, lineno):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"cannot parse number {value!r} for key {key}", lineno) from None
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
    return number


def _to_int(value, key, lineno):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"cannot parse integer {value!r} for key {key}", lineno) from None


def _to_times(value, key, lineno):
    return tuple(_to_float(tok.strip(), key, lineno) for tok in value.split(",") if tok.strip())


def _to_method(value, key, lineno):
    method = value.lower()
    if method not in (MNCP, NCP):
        raise ConfigError(f"method must be 'mncp' or 'ncp', got {method!r}", lineno)
    return method


# Every key and its converter: the grid keys, then the fields of the solver
# options and of the two parameter blocks, an int field taking _to_int.
_CONVERTERS = {
    "domain_length": _to_float,
    "m_subintervals": _to_int,
    "time_step": _to_float,
    "t_end": _to_float,
    "record_times": _to_times,
    "method": _to_method,
} | {
    f.name: _to_int if f.type in (int, "int") else _to_float
    for cls in (SolverOptions, DimensionlessParams, DimensionalParams, Scales)
    for f in fields(cls)
}


def _given(values, cls) -> dict:
    """The entries of values that name fields of cls."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def _read_config(path):
    """Convert a key = value file with # comments, line by line in file order.

    Returns (values, lines): the converted value and the line of each key.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[key] = _CONVERTERS[key](value, key, lineno)
        lines[key] = lineno
    return values, lines


def _build_config(values, lines) -> RunConfig:
    """Build the RunConfig from converted values; a missing key keeps the base case.

    The dimensionless parameter block and the dimensional block are mutually
    exclusive; a dimensional block is converted through nondimensionalize().
    """
    dimless = _given(values, DimensionlessParams)
    dim = _given(values, DimensionalParams)
    scales = _given(values, Scales)
    dim_used = sorted(dim.keys() | scales.keys())
    if dim_used:
        line = min(lines.get(key, 0) for key in dim_used)
        if dimless:
            raise ConfigError(
                f"dimensionless keys {sorted(dimless)} and dimensional keys {dim_used} "
                "are mutually exclusive",
                line,
            )
        missing = sorted(f.name for f in fields(DimensionalParams) + fields(Scales) if f.name not in values)
        if missing:
            raise ConfigError(f"dimensional block incomplete, missing {missing}", line)
        params = nondimensionalize(DimensionalParams(**dim), Scales(**scales))
    else:
        params = replace(BASE_PARAMS, **dimless)

    k = values.get("time_step", 1e-5)
    t_end = values.get("t_end", 0.01)
    # Above 2**53 steps, float64 step indices are not exact and nearest_step
    # cannot place times; such a run would not end in any case.
    if k > 0.0 and t_end / k > 2.0**53:
        raise ConfigError(f"t_end / time_step = {t_end / k:.3g} exceeds 2**53 steps",
                          lines.get("t_end", lines.get("time_step", 0)))
    # Grid rejects k <= 0, so n_steps must not divide by it first.
    grid = Grid(length=values.get("domain_length", 0.05), m=values.get("m_subintervals", 50),
                k=k, n_steps=nearest_step(t_end, k) if k > 0.0 else 0)
    return RunConfig(grid=grid, params=params, method=values.get("method", MNCP),
                     solver_opts=SolverOptions(**_given(values, SolverOptions)),
                     record_times=values.get("record_times", DEFAULT_RECORD_TIMES))


def parse_config(path) -> RunConfig:
    """Parse a key = value configuration file into a RunConfig.

    An empty file yields the default base-case setup.
    """
    return _build_config(*_read_config(path))


def _write_csv(path, header, rows) -> None:
    """Write the header line and then the rows; an unwritable path raises OSError."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_profiles(ts: TimeSeries, grid: Grid, path) -> None:
    """Write snapshot profiles as CSV rows (time, x, theta, eta), boundary node included."""
    x = grid.x_nodes()
    _write_csv(path, ["time", "x", "theta", "eta"], (
        [repr(float(t_snap)), repr(float(x_i)), repr(float(theta)), repr(float(eta))]
        for t_snap, state in ts.snapshots
        for x_i, theta, eta in zip(x, np.r_[THETA_B, state.theta], np.r_[ETA_B, state.eta])
    ))


def emit_bench(rows, path) -> None:
    _write_csv(path, ["t", "wall_time", "iter", "bl_t", "s_evals", "js_evals", "method"], (
        [repr(t_snap), repr(report.wall_time), report.iterations,
         repr(report.last_step), report.s_evals, report.js_evals, method]
        for t_snap, method, report in rows
    ))


def emit_plot_script(command, csv_path, path) -> None:
    """Write a gnuplot script for the CSV of `run` (profile panels) or `refine` (E_h curves)."""
    lines = [
        "# gnuplot script",
        "set datafile separator ','",
        "set key top left",
    ]
    if command == "run":
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
    else:
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
    """The --config file's values with --method, --m and --tend put in, each flag's
    text converted as its key's line in the file would be, then one build."""
    values, lines = _read_config(args.config) if args.config is not None else ({}, {})
    for key, flag in (("method", args.method), ("m_subintervals", args.m), ("t_end", args.tend)):
        if flag is not None:
            values[key] = _CONVERTERS[key](flag, key, 0)
            lines.pop(key, None)
    return _build_config(values, lines)


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
        p.add_argument("--method", default=None, help="override method (mncp or ncp)")
        p.add_argument("--m", default=None, help="override interior node count")
        p.add_argument("--tend", default=None, help="override final time")
        if name in ("run", "refine"):
            p.add_argument("--plot-script", default=None, help="also emit a gnuplot script here")
    return parser


def _output_problem(out, plot_script, config):
    """Why the output paths cannot be written, or None; checked before the
    computation so that it fails at once, not after the run, and before
    an output could replace the configuration the run was read from."""
    if plot_script is not None and Path(plot_script).resolve() == Path(out).resolve():
        return f"--out and --plot-script name the same file {out}"
    for path, flag in ((out, "--out"), (plot_script, "--plot-script")):
        if path is None:
            continue
        if config is not None and Path(path).resolve() == Path(config).resolve():
            return f"{flag} names the --config file {config}"
        if Path(path).is_dir():
            return f"{path} is a directory"
        if not Path(path).parent.is_dir():
            return f"directory {Path(path).parent} does not exist"
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 0 after --help and 2 on a usage error; 2 is kept
        # for solver failures, so a usage error exits 1.
        return 0 if exit_.code == 0 else 1
    try:
        config = _load_config(args)
    except (ConfigError, OSError, ValueError, OverflowError) as err:
        print(f"combust: configuration error: {err}", file=sys.stderr)
        return 1
    problem = _output_problem(args.out, getattr(args, "plot_script", None), args.config)
    if problem is not None:
        print(f"combust: cannot write output: {problem}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            peclet = config.params.u * config.grid.h * config.params.pe_t
            if peclet > 2.0:
                print(f"combust: warning: cell Peclet number u h Pe_t = {peclet:.3g} exceeds 2; "
                      "the centred convection difference may oscillate", file=sys.stderr)
            ts = run(config)
            emit_profiles(ts, config.grid, args.out)
        elif args.command == "compare":
            _write_csv(args.out, ["time", "theta_max", "theta_l2", "eta_max", "eta_l2"],
                       analysis.compare_methods(config))
        elif args.command == "refine":
            times = tuple(t for t in config.record_times if t > 0.0)
            _write_csv(args.out, ["t", "E_h", "E_h2", "E_h4", "ratio1", "ratio2", "variable"],
                       analysis.refine_errors(config, times))
        elif args.command == "bench":
            emit_bench(analysis.bench(config), args.out)
        if getattr(args, "plot_script", None) is not None:
            emit_plot_script(args.command, args.out, args.plot_script)
    except StepFailed as err:
        print(f"combust: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"combust: cannot write output: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"combust: out of memory: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
