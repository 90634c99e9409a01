"""Benchmark of the combust solver, driven from outside through its public API.

    python3 perfbench/run.py --workload base_m50 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 it reports the end-to-end
metrics (time to solution, per-step latency, set-up time, peak memory); with
--trace 1 it reports per-layer spans, counts and the tracing overhead.  It
checks every run's final state against perfbench/reference.json.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; `attempted` counts requested time steps and `failed`
those not completed or whose run failed the check.  The same record, with
the run's metadata and raw samples, is written under .perfbench/results/.

Everything runs in this one process and thread, except the set-up probes:
an import is cold only once per process, so set-up is timed in fresh
interpreters (setup_probe.py), one after the other.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 9      # cold set-ups per run; setup_s is their median
WARMUP_STEPS = 100    # one short untimed run before timing
MIN_REPEATS = 3       # full runs per timed phase, however short --seconds is
STEP = ("combust.timestepper", "step")

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
]

MODEL_FUNCS = ("phi", "phi_dtheta", "phi_deta", "flux", "flux_d")
PER_LAYER = (
    [(f"model.{f}.calls", "count") for f in MODEL_FUNCS]
    + [
        ("discretization.residual.calls", "count"),
        ("discretization.residual.s", "s"),
        ("discretization.residual.us_per_call", "us"),
        ("discretization.jacobian.calls", "count"),
        ("discretization.jacobian.s", "s"),
        ("discretization.assemble_LD.s", "s"),
        ("discretization.assemble_LDQ.s", "s"),
        ("bandmat.solve.calls", "count"),
        ("bandmat.solve.s", "s"),
        ("bandmat.solve.us_per_call", "us"),
        ("bandmat.matvec.s", "s"),
        ("bandmat.scale_rows.s", "s"),
        ("mncp.solve.s", "s"),
        ("mncp.solve.self_s", "s"),
        ("mncp.direction.calls", "count"),
        ("mncp.direction.s", "s"),
        ("mncp.direction.self_s", "s"),
        ("mncp.line_search.s", "s"),
        ("mncp.line_search.self_s", "s"),
        ("mncp.line_search.residual_calls", "count"),
        ("mncp.line_search.accept_ratio", "ratio"),
        ("mncp.restore_feasibility.calls", "count"),
        ("mncp.restore_feasibility.s", "s"),
        ("mncp.restore_feasibility.residual_calls", "count"),
        ("mncp.iterations", "count"),
        ("mncp.iters_per_step.mean", "iter/step"),
        ("mncp.iters_per_step.max", "iter/step"),
        ("mncp.s_evals", "count"),
        ("mncp.js_evals", "count"),
        ("timestepper.step.calls", "count"),
        ("timestepper.step.self_s", "s"),
        ("cli.parse_config.s", "s"),
        ("setup.import_s", "s"),
        ("setup.deps_import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)
UNITS = dict(END_TO_END + PER_LAYER)
COUNT_NAMES = [name for name, unit in PER_LAYER if unit in ("count", "iter/step")]


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, or the wrong one)."""


@dataclass
class Repeat:
    """One full timestepper.run."""

    run_s: float       # wall time corrected to the reference speed (speed.py)
    raw_run_s: float   # wall time as measured
    failed: int        # requested steps not completed, or all if the check failed
    step_s: list = field(default_factory=list)   # corrected time of each step (untraced)
    per_step: list = field(default_factory=list)  # StepStats of completed steps (traced)
    tracer: object = None
    scale: float = 1.0  # run_s / raw_run_s, applied to the tracer's times


def import_combust():
    if not (SRC / "combust" / "__init__.py").is_file():
        raise SetupError(f"no combust package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import combust

    if Path(combust.__file__).resolve().parent != SRC / "combust":
        raise SetupError(f"imported combust from {combust.__file__}, not from {SRC}")


def setup_probes(config_path):
    """Cold set-ups in fresh interpreters, one at a time, speed-corrected."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if out.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.splitlines()[-1])
        if Path(probe["combust_file"]).resolve().parent != SRC / "combust":
            raise SetupError(f"set-up probe imported {probe['combust_file']}")
        f = speed.factor(probe["kernel_s"])
        probe.update(import_s=probe["raw_import_s"] * f, parse_s=probe["raw_parse_s"] * f,
                     assemble_s=probe["raw_assemble_s"] * f)
        probes.append(probe)
    return probes


def checked_run(config, reference, wrappers, on_start):
    """timestepper.run under `wrappers`; returns (TimeSeries, failed steps)."""
    from combust.timestepper import StepFailed, run

    n_steps = config.grid.n_steps
    gc.collect()
    with spans.patched(wrappers):
        on_start()
        try:
            ts = run(config)
            failed = 0
        except StepFailed as err:
            ts = err.partial
            failed = n_steps - len(ts.per_step)
            print(f"step failure: {err}", file=sys.stderr)
    if failed == 0:
        _, final = ts.snapshots[-1]
        if final.n != n_steps:
            errors = [f"last snapshot is step {final.n}, not {n_steps}"]
        else:
            errors = workloads.check_final_state(final.theta, final.eta, reference)
        if errors:
            print("wrong output: " + "; ".join(errors), file=sys.stderr)
            failed = n_steps
    return ts, failed


def timed_run(config, reference, tracer=None):
    """One run, speed-corrected; with a tracer, every trace point is wrapped too.

    The speed samples are taken outside every span, and the tracer's times
    are scaled by the run's overall correction.
    """
    cal = speed.CalibratedSteps()
    wrappers = (spans.traced(tracer) if tracer else []) + [(STEP, cal.wrap)]
    ts, failed = checked_run(config, reference, wrappers, on_start=cal.start)
    cal.close_block()
    run_s, raw_run_s = cal.run_s(), cal.raw_run_s()
    rep = Repeat(run_s=run_s, raw_run_s=raw_run_s, failed=failed, scale=run_s / raw_run_s)
    if tracer is None:
        # Only a compact array is kept, so that peak_rss_mb does not grow with the repeat count.
        rep.step_s = np.array(cal.corrected_step_s())
    else:
        rep.tracer, rep.per_step = tracer, ts.per_step
    return rep


def repeat_for(seconds, make_one, minimum=MIN_REPEATS):
    """Run make_one() until `seconds` have passed and at least `minimum` times."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(make_one())
    return out


def end_to_end_metrics(repeats, probes):
    """Medians over repeats; step latency is taken from the per-step profile:
    step i's latency is its median over the repeats, and p50/p99 are taken
    over the steps of that profile, so a one-off stall of the machine in one
    repeat does not read as a slow step."""
    longest = max(len(r.step_s) for r in repeats)   # all equal unless a step failed
    profile = list(1e3 * np.median([r.step_s for r in repeats if len(r.step_s) == longest], axis=0))
    return {
        "run_s": statistics.median(r.run_s for r in repeats),
        "setup_s": statistics.median(p["import_s"] + p["parse_s"] + p["assemble_s"] for p in probes),
        "step_ms.p50": statistics.median(profile),
        "step_ms.p99": statistics.quantiles(profile, n=100)[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rep: Repeat):
    """Per-layer metrics of one traced run, times corrected like run_s."""
    tr = rep.tracer
    iters = [s.iterations for s in rep.per_step]

    def calls(name):
        return tr.calls.get(name, 0)

    def total(name):
        return tr.total.get(name, 0.0) * rep.scale

    def self_time(name):
        return tr.self_time(name) * rep.scale

    def residual_calls_in(parent):
        return tr.by_parent.get((parent, "discretization.residual"), 0)

    ls_res = residual_calls_in("mncp.line_search")
    m = {f"model.{f}.calls": calls(f"model.{f}") for f in MODEL_FUNCS}
    m.update({
        "discretization.residual.calls": calls("discretization.residual"),
        "discretization.residual.s": total("discretization.residual"),
        "discretization.residual.us_per_call":
            1e6 * total("discretization.residual") / max(calls("discretization.residual"), 1),
        "discretization.jacobian.calls": calls("discretization.jacobian"),
        "discretization.jacobian.s": total("discretization.jacobian"),
        "discretization.assemble_LD.s": total("discretization.assemble_LD"),
        "discretization.assemble_LDQ.s": total("discretization.assemble_LDQ"),
        "bandmat.solve.calls": calls("bandmat.solve"),
        "bandmat.solve.s": total("bandmat.solve"),
        "bandmat.solve.us_per_call": 1e6 * total("bandmat.solve") / max(calls("bandmat.solve"), 1),
        "bandmat.matvec.s": total("bandmat.matvec"),
        "bandmat.scale_rows.s": total("bandmat.scale_rows"),
        "mncp.solve.s": total("mncp.solve"),
        "mncp.solve.self_s": self_time("mncp.solve"),
        "mncp.direction.calls": calls("mncp.direction"),
        "mncp.direction.s": total("mncp.direction"),
        "mncp.direction.self_s": self_time("mncp.direction"),
        "mncp.line_search.s": total("mncp.line_search"),
        "mncp.line_search.self_s": self_time("mncp.line_search"),
        "mncp.line_search.residual_calls": ls_res,
        "mncp.line_search.accept_ratio": sum(iters) / max(ls_res, 1),
        "mncp.restore_feasibility.calls": calls("mncp.restore_feasibility"),
        "mncp.restore_feasibility.s": total("mncp.restore_feasibility"),
        "mncp.restore_feasibility.residual_calls":
            residual_calls_in("mncp.restore_feasibility"),
        "mncp.iterations": sum(iters),
        "mncp.iters_per_step.mean": statistics.fmean(iters) if iters else 0.0,
        "mncp.iters_per_step.max": max(iters, default=0),
        "mncp.s_evals": sum(s.s_evals for s in rep.per_step),
        "mncp.js_evals": sum(s.js_evals for s in rep.per_step),
        "timestepper.step.calls": calls("timestepper.step"),
        "timestepper.step.self_s": self_time("timestepper.step"),
    })
    return m


def cross_check(m, completed_steps):
    """Trace counts that must agree with the program's own StepStats counters."""
    pairs = [
        ("discretization.residual.calls", "mncp.s_evals"),
        ("discretization.jacobian.calls", "mncp.js_evals"),
        ("mncp.js_evals", "mncp.iterations"),
    ]
    errors = [f"{a} = {m[a]} != {b} = {m[b]}" for a, b in pairs if m[a] != m[b]]
    if m["timestepper.step.calls"] != completed_steps:
        errors.append(f"timestepper.step.calls = {m['timestepper.step.calls']} "
                      f"!= completed steps {completed_steps}")
    return errors


def traced_metrics(plain, runs, probes):
    """Per-layer metrics: medians of times, counts that must repeat exactly."""
    per_run = [layer_metrics(r) for r in runs]
    errors = []
    for i, m in enumerate(per_run):
        errors += [f"traced run {i}: {e}" for e in cross_check(m, len(runs[i].per_step))]
    for name in COUNT_NAMES:
        values = {m[name] for m in per_run}
        if len(values) > 1:
            errors.append(f"{name} differs between traced runs: {sorted(values)}")
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    for name in COUNT_NAMES:
        out[name] = per_run[0][name]
    out["cli.parse_config.s"] = statistics.median(p["parse_s"] for p in probes)
    out["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    out["setup.deps_import_s"] = statistics.median(p["raw_deps_s"] for p in probes)
    out["trace.overhead_s"] = (statistics.median(r.run_s for r in runs)
                               - statistics.median(r.run_s for r in plain))
    return out, errors


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args):
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "combust").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "pinning": {v: os.environ.get(v) for v in PIN_VARS},
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def bench(workload, seed, seconds, trace, steps=workloads.N_STEPS):
    """Measure one workload.  Returns (result record, raw samples).

    `steps` below the workload's 1000 is for the self-test: the run is cut
    short and only the physical bounds of the final state are checked.
    """
    import_combust()
    from combust.cli import parse_config
    from combust.mncp import SolverOptions
    from combust.model import BASE_PARAMS
    from combust.timestepper import run

    spec = workloads.WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    config_path = WORK / f"{workload}-seed{seed}.cfg"
    config_path.write_text(workloads.config_text(workload, seed))
    config = parse_config(config_path)
    errors = workloads.expected_problem_errors(config, spec, BASE_PARAMS, SolverOptions())
    if errors:
        raise SetupError(f"{config_path} does not parse to workload {workload}: {errors}")
    reference = workloads.load_reference()[workload]
    if steps != workloads.N_STEPS:
        config = replace(config, grid=replace(config.grid, n_steps=steps))
        reference = None

    probes = setup_probes(config_path)
    warm = replace(config, grid=replace(config.grid, n_steps=min(WARMUP_STEPS, steps)),
                   record_times=())
    with spans.patched([(STEP, speed.CalibratedSteps().wrap)]):
        run(warm)

    if trace:
        plain = repeat_for(seconds / 2, lambda: timed_run(config, reference), minimum=2)
        runs = repeat_for(seconds / 2, lambda: timed_run(config, reference, spans.Tracer()),
                          minimum=2)
        metrics, errors = traced_metrics(plain, runs, probes)
        runs = plain + runs
    else:
        runs = repeat_for(seconds, lambda: timed_run(config, reference))
        metrics, errors = end_to_end_metrics(runs, probes), []
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    attempted = steps * len(runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    samples = {"run_s": [r.run_s for r in runs], "raw_run_s": [r.raw_run_s for r in runs],
               "traced": [r.tracer is not None for r in runs],
               "probes": probes, "failed_frac": failed / attempted}
    return result, samples


def report(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} steps)")


def run_all(args):
    """Every workload in turn, each in its own process so memory figures stay apart."""
    results = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise SetupError(f"workload {name} exited with {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        result, samples = bench(args.workload, args.seed, args.seconds, args.trace)
        meta = metadata(args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "samples": samples, **result}
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("meta: " + json.dumps(meta))
    report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
