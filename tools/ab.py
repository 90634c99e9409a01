"""A/B comparison of the benchmark between two commits.

    python3 tools/ab.py PARENT CHANGE --pairs 10 --seconds 20

Run from inside the repository.  Each commit is exported with `git archive`
into a fresh directory, so neither side reads bytecode or results that a
working tree has left behind.  Each pair runs
`perfbench/run.py --workload all --trace 0` once from each copy, in
alternating order (the parent first in even pairs, the change first in odd
ones), with PYTHONDONTWRITEBYTECODE=1 and the pair's own seed.  Any run
that is not `correct` stops the comparison with exit code 1.

For every workload and end-to-end metric of BENCHMARK.json it prints the
parent's and the change's median with their quartiles, the change of the
median in percent and the number of pairs in which the change was better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


class RunFailed(RuntimeError):
    """A benchmark run exited with an error or was not correct."""


def export(commit: str, dest: Path) -> Path:
    """Write the files of commit into the new directory dest, as `git archive` gives them."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(copy: Path, seed: int, seconds: float) -> dict:
    """The final JSON record of one `--workload all` run from the checkout copy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RunFailed(f"{copy.name} seed {seed} exited with {out.returncode}:\n{out.stderr}")
    return check_correct(json.loads(out.stdout.splitlines()[-1]), f"{copy.name} seed {seed}")


def check_correct(result: dict, label: str) -> dict:
    """result itself, if the run was correct; otherwise RunFailed."""
    if not result["correct"]:
        raise RunFailed(f"{label} is not correct: {result['failed']} of "
                        f"{result['attempted']} steps failed or missed the reference")
    return result


def summarize(parent: list, change: list, better: dict) -> list:
    """One row per metric of the runs' records: (name, parent median, parent
    quartiles, change median, change quartiles, change in %, wins).

    parent[i] and change[i] are the records of pair i.  better maps a metric
    name without its workload prefix (run_s) to "lower" or "higher"; only
    those metrics are summarized.  A win is a pair in which the change's
    value is strictly better than the parent's.
    """
    rows = []
    for name in parent[0]["metrics"]:
        direction = better.get(name.split(".", 1)[1])
        if direction is None:
            continue
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (y - x) < 0.0 for x, y in zip(a, b))
        med_a, med_b = statistics.median(a), statistics.median(b)
        rows.append((name, med_a, _quartiles(a), med_b, _quartiles(b),
                     100.0 * (med_b - med_a) / med_a, wins))
    return rows


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def format_rows(rows, pairs: int) -> str:
    return "\n".join(
        f"{name}: {med_a:.6g} [{qa[0]:.6g}, {qa[1]:.6g}] -> {med_b:.6g} [{qb[0]:.6g}, {qb[1]:.6g}]"
        f"  {pct:+.1f}%  change better in {wins}/{pairs}"
        for name, med_a, qa, med_b, qb, pct, wins in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--workdir", help="where the copies go (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        copies = [export(args.parent, Path(tmp) / "parent"), export(args.change, Path(tmp) / "change")]
        better = {m["name"]: m["better"]
                  for m in json.loads((copies[1] / "BENCHMARK.json").read_text())["end_to_end"]}
        results = ([], [])
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    results[side].append(bench(copies[side], seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr, flush=True)
        except RunFailed as err:
            print(f"ab: {err}", file=sys.stderr)
            return 1
    print(f"{args.parent} -> {args.change}: medians [quartiles], {args.pairs} pairs of "
          f"{args.seconds:g} s runs, seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(format_rows(summarize(*results, better), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
