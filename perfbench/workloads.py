"""Workload definitions, seeded config-file generation and the output check.

Every workload is the paper's base case (BASE_PARAMS, domain length 0.05,
k = 1e-5, t_end = 0.01, so 1000 Crank-Nicolson steps) at one grid size and
method.  The seed varies only how the config file is written: key order,
comments, blank lines, spacing and equivalent spellings of the same numbers.
Every spelling parses to the same doubles, so the solver sees the same
problem for every seed, the stored reference applies and counts repeat.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Max-abs tolerance on the final (theta, eta).  Legitimate solver changes
# (tol 1e-8 vs 1e-10, MNCP vs NCP) move the final state by <= 6e-8.
REF_TOL = 1e-6

WORKLOADS = {
    # Why each workload is here is in README.md.
    "base_m50": {"method": "mncp", "m": 50},
    "fine_m400": {"method": "mncp", "m": 400},
    "ncp_m400": {"method": "ncp", "m": 400},
}

LENGTH = 0.05
TIME_STEP = 1e-5
T_END = 0.01
N_STEPS = 1000

# Equivalent decimal spellings: each list parses to one double.
_SPELLINGS = {
    "domain_length": ["0.05", "5e-2", "0.050", "5.0E-02"],
    "time_step": ["1e-5", "0.00001", "1.0e-05", "10e-6"],
    "t_end": ["0.01", "1e-2", "0.010", "10e-3"],
    "pe_t": ["1406", "1406.0", "1.406e3"],
    "beta": ["7.44e10", "74400000000", "7.44E+10"],
    "e_act": ["93.8", "9.38e1", "93.80"],
    "theta0": ["3.67", "367e-2", "3.670"],
    "u": ["3.76", "0.376e1", "3.760"],
    "tol": ["1e-8", "1.0e-08", "0.00000001"],
}
_RECORD_TIMES = "0.0, 0.002, 0.004, 0.006, 0.008, 0.01"
_COMMENTS = ["# generated benchmark case", "# base parameters", "#", "# k = 1e-5, t = 0.01"]


def config_text(name: str, seed: int) -> str:
    """Config file for workload `name`, laid out according to `seed`."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")

    def pick(key):
        return rng.choice(_SPELLINGS[key])

    entries = [
        ("domain_length", pick("domain_length")),
        ("m_subintervals", rng.choice(["{}", " {}", "0{}"]).format(spec["m"])),
        ("time_step", pick("time_step")),
        ("t_end", pick("t_end")),
        ("method", rng.choice([str.lower, str.upper, str.capitalize])(spec["method"])),
    ]
    # Any subset of the dimensionless block; omitted keys default to BASE_PARAMS.
    for key in ("pe_t", "beta", "e_act", "theta0", "u"):
        if rng.random() < 0.5:
            entries.append((key, pick(key)))
    if rng.random() < 0.5:
        entries.append(("tol", pick("tol")))
    # t_end must stay a record time: the check reads the final snapshot.
    if rng.random() < 0.5:
        entries.append(("record_times", _RECORD_TIMES))
    rng.shuffle(entries)

    lines = []
    for key, value in entries:
        if rng.random() < 0.3:
            lines.append(rng.choice(_COMMENTS))
        if rng.random() < 0.2:
            lines.append("")
        sep = rng.choice(["=", " = ", "  =  ", "= "])
        tail = rng.choice(["", "", "  # " + key])
        lines.append(f"{key}{sep}{value}{tail}")
    return "\n".join(lines) + "\n"


def expected_problem_errors(config, spec, base_params, solver_options) -> list:
    """Differences between a parsed RunConfig and the workload's problem."""
    grid = config.grid
    want = {
        "grid.length": (grid.length, LENGTH),
        "grid.m": (grid.m, spec["m"]),
        "grid.k": (grid.k, TIME_STEP),
        "grid.n_steps": (grid.n_steps, N_STEPS),
        "method": (config.method, spec["method"]),
        "params": (config.params, base_params),
        "solver_opts": (config.solver_opts, solver_options),
    }
    errors = [f"{key}: got {got!r}, want {exp!r}" for key, (got, exp) in want.items() if got != exp]
    if not any(abs(t - T_END) < 0.5 * TIME_STEP for t in config.record_times):
        errors.append(f"record_times {config.record_times!r} miss t_end = {T_END}")
    return errors


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_final_state(theta, eta, ref) -> list:
    """Problems with a final (theta, eta): physical bounds, and the distance to
    the reference state `ref` unless it is None."""
    import numpy as np

    errors = []
    if not np.all(theta >= 0.0):
        errors.append(f"theta < 0: min {float(np.min(theta)):.3e}")
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        errors.append(f"eta outside [0, 1]: range [{float(np.min(eta))!r}, {float(np.max(eta))!r}]")
    if ref is None:
        return errors
    ref_theta = np.asarray(ref["theta"])
    ref_eta = np.asarray(ref["eta"])
    if theta.shape != ref_theta.shape or eta.shape != ref_eta.shape:
        return errors + [f"shape {theta.shape}/{eta.shape}, reference {ref_theta.shape}/{ref_eta.shape}"]
    d_theta = float(np.max(np.abs(theta - ref_theta)))
    d_eta = float(np.max(np.abs(eta - ref_eta)))
    # Written so that NaN fails every comparison.
    if not d_theta <= REF_TOL:
        errors.append(f"max|theta - ref| = {d_theta:.3e} > {REF_TOL:g}")
    if not d_eta <= REF_TOL:
        errors.append(f"max|eta - ref| = {d_eta:.3e} > {REF_TOL:g}")
    return errors
