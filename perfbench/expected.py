#!/usr/bin/env python3
"""Record the output hashes of the mock study in expected.json.

For each example count and seed, this writes the seeded corpus, runs the
scripted study on the in-process mock oracle in a fresh process, checks its
labels and counters as run.py does, and stores the sha256 of table.csv,
sweep.csv, triplets.jsonl and model.json. run.py then fails any study whose
outputs differ from the hashes listed for its size and seed, HTTP studies
included. Record only from a commit whose outputs are known to be right.

Run from the root of a ragtrim checkout:

    python3 perfbench/expected.py --sizes 400,4000 --seeds 1-20,42
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def seed_list(text: str) -> list[int]:
    """'1-3,42' -> [1, 2, 3, 42]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="400,4000")
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-20,42")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8")) if run.EXPECTED.exists() else {}
    work = root / ".perfbench_work" / "expected"
    for size in (int(size) for size in args.sizes.split(",")):
        workload = run.Workload(size=size, http=False, fault_rate=0.0)
        for seed in args.seeds:
            if work.exists():
                shutil.rmtree(work)
            corpus_dir, _, _ = run.set_up(src, work, workload, seed)
            result = run.run_study(src, work / "study", workload, seed, corpus_dir, None,
                                   trace=False)
            errors = run.check_study(result, False, run.plan_labels(corpus_dir))
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            expected.setdefault(str(size), {})[str(seed)] = result["hashes"]
            print(f"size {size}, seed {seed}: {result['hashes']}", flush=True)
    expected = {size: dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
                for size, by_seed in expected.items()}
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
