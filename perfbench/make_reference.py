"""Write reference.json: each workload's final (theta, eta) from the program as it is.

    python3 perfbench/make_reference.py

The stored reference was made at the commit that added this benchmark.
Regenerate it only for a change that is meant to alter the solution, and
say so in that change.
"""

import json

import run
import workloads


def main():
    run.import_combust()
    from combust.cli import parse_config
    from combust.timestepper import run as time_march

    out = {}
    for name in workloads.WORKLOADS:
        path = run.WORK / f"{name}-reference.cfg"
        run.WORK.mkdir(exist_ok=True)
        path.write_text(workloads.config_text(name, 0))
        t_final, final = time_march(parse_config(path)).snapshots[-1]
        errors = workloads.check_final_state(final.theta, final.eta, None)
        if final.n != workloads.N_STEPS or errors:
            raise SystemExit(f"{name}: no valid final state at step {final.n}: {errors}")
        out[name] = {"t": t_final, "theta": final.theta.tolist(), "eta": final.eta.tolist()}
    out["source"] = {"git_commit": run.git_commit()}
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=0) + "\n")


if __name__ == "__main__":
    main()
