"""The scripted study's outputs, pinned to the hashes the benchmark checks."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("table.csv", "sweep.csv", "triplets.jsonl", "model.json")


def test_study_outputs_match_the_benchmark_hashes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--size", "400", "--seed", "42", "--out-dir", str(tmp_path)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["400"]["42"]
    actual = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    assert actual == {name: expected[name] for name in PINNED}
