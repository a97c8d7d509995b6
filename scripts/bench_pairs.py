#!/usr/bin/env python3
"""Run perfbench/run.py in two checkouts in alternating pairs and summarise each side.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload http-flaky-400 --pairs 10 --pr N
    python3 scripts/bench_pairs.py PARENT CHANGE --workload mock-4000,http-cold-400 \
        --pairs 10 --pr N

``--workload`` takes one workload or a comma-separated list; the workloads run
in turn, each with all its pairs. Each pair runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once in each checkout, with T the
``run_seconds`` that BENCHMARK.json declares, one right after the other. Which checkout
goes first alternates from pair to pair, so a drift in the host's speed falls
on both sides. The last line a run prints is its result (see
perfbench/run.py); a run that prints none, or exits non-zero, is a failed run,
and its pair is left out of the summary.

``BENCH_<pr>_before.json`` (PARENT) and ``BENCH_<pr>_after.json`` (CHANGE)
get one entry, keyed ``"<workload> --seed S"``, that holds the pair count,
the failed runs and, for each end-to-end metric, every run's value, the
median, the quartiles, their distance (``iqr``) and the wins: the pairs in
which that side was strictly better, in the direction BENCHMARK.json gives.
The CHANGE side also records ``median_gap``, how far its median is better than
PARENT's, ``claim_holds``: whether a gain may be claimed, that is, it won at
least nine tenths of the pairs and ``median_gap`` exceeds PARENT's ``iqr``, and
``regression``, from the metric's ``bound`` in BENCHMARK.json: ``worse`` if its
median is worse than PARENT's by more than bound x PARENT's median; else
``unresolved`` if PARENT's ``iqr`` exceeds bound x its median, unless every
CHANGE run beats every PARENT run; else ``ok``. Each end-to-end metric also gets one
console line per workload with the CHANGE side's wins, ``median_gap``,
``claim_holds`` and ``regression``.
Each workload gets its own entry. Entries for other workloads or seeds already
in the files are kept, so one pair of files can carry several.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def result_of(stdout: str) -> dict | None:
    """The result object on the last non-empty line of a run's stdout, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and result.get("correct") is True else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``checkout``; its result, or None if it printed none."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    result = result_of(done.stdout) if done.returncode == 0 else None
    if result is None:
        print(f"{checkout}: no result (exit {done.returncode}): {done.stderr[-2000:]}",
              file=sys.stderr)
    return result


def _spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[tuple[dict | None, dict | None]], better: dict[str, str],
              bounds: dict[str, float]) -> tuple[dict, dict]:
    """The before and after summaries of (before result, after result) pairs.

    ``better`` maps each metric to "lower" or "higher", ``bounds`` to its
    regression bound. A pair with a failed run on either side is counted in
    ``failed_runs`` and otherwise left out. The after side's metrics also get
    ``median_gap``, ``claim_holds`` and ``regression`` (see the module
    docstring); ties count as wins for neither side.
    """
    whole = [(b, a) for b, a in pairs if b is not None and a is not None]
    sides = []
    for side in (0, 1):
        failed = sum(pair[side] is None for pair in pairs)
        metrics = {}
        for name, direction in better.items():
            if not whole or name not in whole[0][side]["metrics"]:
                continue
            runs = [pair[side]["metrics"][name]["value"] for pair in whole]
            others = [pair[1 - side]["metrics"][name]["value"] for pair in whole]
            sign = -1 if direction == "lower" else 1
            metrics[name] = {
                "unit": whole[0][side]["metrics"][name]["unit"],
                **_spread(runs),
                "wins": sum(sign * (mine - theirs) > 0 for mine, theirs in zip(runs, others)),
                "runs": runs,
            }
        sides.append({"pairs": len(whole), "failed_runs": failed,
                      "failed_operations": sum(pair[side]["failed"] for pair in whole),
                      "metrics": metrics})
    before, after = sides
    for name, mine in after["metrics"].items():
        theirs = before["metrics"][name]
        gap = (theirs["median"] - mine["median"] if better[name] == "lower"
               else mine["median"] - theirs["median"])
        mine["median_gap"] = gap
        mine["claim_holds"] = mine["wins"] * 10 >= 9 * len(whole) and gap > theirs["iqr"]
        allowed = bounds[name] * abs(theirs["median"])
        sign = -1 if better[name] == "lower" else 1
        if gap < -allowed:
            mine["regression"] = "worse"
        elif theirs["iqr"] > allowed and not all(
                sign * (a - b) > 0 for a in mine["runs"] for b in theirs["runs"]):
            mine["regression"] = "unresolved"
        else:
            mine["regression"] = "ok"
    return before, after


def _merge(path: Path, machine: dict, key: str, entry: dict) -> None:
    """Write ``entry`` under ``key`` in the JSON file at ``path``, keeping its other entries."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data["machine"] = machine
    data.setdefault("results", {})[key] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def workload_list(arg: str) -> list[str]:
    """The workloads a ``--workload`` value names: one, or a comma-separated list."""
    names = [name.strip() for name in arg.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"expected distinct workloads, comma-separated: {arg!r}")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as 'before'")
    parser.add_argument("change", type=Path, help="checkout measured as 'after'")
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="a workload, or a comma-separated list run in turn")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--pr", required=True, help="names the files BENCH_<pr>_*.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path.cwd(), help="directory of the files")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    checkouts = (args.parent.resolve(), args.change.resolve())
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed, seconds)
            pairs.append(tuple(pair))
            values = [p["metrics"]["study_s"]["value"] if p else None for p in pair]
            print(f"{workload} pair {i + 1}/{args.pairs}: study_s before {values[0]} "
                  f"after {values[1]}", flush=True)

        command = (f"python3 perfbench/run.py --workload {workload} --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0")
        key = f"{workload} --seed {args.seed}"
        summaries = summarise(pairs, better, bounds)
        for name, checkout, summary in zip(("before", "after"), checkouts, summaries):
            _merge(args.out / f"BENCH_{args.pr}_{name}.json", machine, key,
                   {"checkout": checkout.name, "command": command, **summary})
        before, after = summaries
        for name, metric in after["metrics"].items():
            print(f"{workload} {name}: change won {metric['wins']}/{after['pairs']} pairs, "
                  f"median gap {metric['median_gap']:g} {metric['unit']}, claim holds: "
                  f"{metric['claim_holds']}; {metric['regression']} (median {metric['median']:g} "
                  f"against {before['metrics'][name]['median']:g}, bound {bounds[name]:g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
