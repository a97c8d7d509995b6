#!/usr/bin/env python3
"""Benchmark of the scripted ragtrim study: wall time, generator bill and answer quality.

Run from the root of a ragtrim checkout:

    python3 perfbench/run.py --workload mock-4000 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 20 --trace 1

Workloads (why each exists is in BENCHMARK.json):
  mock-4000       the study at 4,000 examples with the in-process mock oracle
  http-cold-400   the study at 400 examples through HttpGeneratorClient against a
                  localhost stub (2 ms service time), one fresh cache per study
  http-flaky-400  as http-cold-400, but the stub fails the first attempt of a
                  seeded 1% of distinct prompts with a 503 or a dropped connection

Set-up (timed as ``setup_s``, repeated and reported as a median) writes the
seeded corpus and, for HTTP, starts the stub and waits until it answers.
Then studies run one after another, each in a fresh process, until the next
one would overrun ``--seconds``; at least one runs. Load is closed-loop: one
caller waits for each generator reply. With ``--trace 1`` every untraced
study is followed by a traced one, and the per-layer metrics come from the
traced studies; end-to-end metrics always come from untraced ones.

Before any number is printed, the outputs are checked: annotation labels
equal the corpus plan; table.csv, sweep.csv, triplets.jsonl and model.json
hash the same in every study and, for HTTP, in a mock study of the same size
and seed; those hashes equal the ones expected.json lists for the size and
seed (record more with expected.py); and the generator counters reconcile
with what the stub saw. If a check fails the benchmark
prints the failures on stderr and exits 1 without a result line. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from study import HASHED_OUTPUTS, SCRIPT, load_script  # noqa: E402
from stub import SERVICE_MS  # noqa: E402
from tracing import LAYERS  # noqa: E402

# Output hashes of the mock study per example count and seed; HTTP studies must match them too.
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
STUDY_TIMEOUT_S = 150.0
STUB_START_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    size: int
    http: bool
    fault_rate: float


WORKLOADS = {
    "mock-4000": Workload(size=4000, http=False, fault_rate=0.0),
    "http-cold-400": Workload(size=400, http=True, fault_rate=0.0),
    "http-flaky-400": Workload(size=400, http=True, fault_rate=0.01),
}

MOCK = "study_s on mock-4000"
HTTP = "study_s on http-cold-400 and http-flaky-400"
STAGES = "the stage split of study_s on every workload"
MOVES = {  # per-layer metric -> the end-to-end metric and workload it should move
    "metrics.score_s": MOCK,
    "metrics.score_calls": MOCK,
    "metrics.judge_s": MOCK,
    "predictor.train_s": MOCK,
    "predictor.sgd_steps": MOCK,
    "predictor.sgd_step_us": MOCK,
    "predictor.predict_calls": MOCK,
    "predictor.predict_us": MOCK,
    "features.extract_calls": MOCK,
    "features.extract_s": MOCK,
    "compress.calls": MOCK,
    "compress.s": MOCK,
    "compress.only_doc_s": MOCK,
    "data.load_s": MOCK,
    "generation.lookups": HTTP + "; on mock-4000, the mock's evidence matching",
    "generation.s": HTTP + "; on mock-4000, the mock's evidence matching",
    "generation.p50_ms": HTTP,
    "generation.p99_ms": HTTP,
    "generation.hit_share": "backend_requests and billed_prompt_tokens everywhere; " + HTTP,
    "generation.retries": "study_s and failed_share on http-flaky-400",
    "generation.backoff_s": "study_s and failed_share on http-flaky-400",
    "annotate.probes": STAGES,
    "annotate.probes_per_example": STAGES,
    "pipeline.annotate_s": STAGES,
    "pipeline.run_s": STAGES,
    "pipeline.sweep_s": STAGES,
    "pipeline.eval_predictor_s": STAGES,
    **{f"{layer}.self_s": HTTP if layer == "generation" else MOCK for layer in LAYERS},
    "trace.unattributed_s": "none: study time outside every layer span",
    "trace.overhead_s": "none: traced minus untraced study_s",
    "trace.spans": "none: spans recorded per traced study",
    "failed_share": "failed on http-flaky-400",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, or a study failed."""


class Stub:
    """The generator stub process; see stub.py."""

    def __init__(self, src: Path, corpus_dir: Path, seed: int, fault_rate: float, log: Path):
        self._log = log.open("w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--src", str(src),
             "--corpus-dir", str(corpus_dir), "--seed", str(seed),
             "--fault-rate", str(fault_rate)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        timer = threading.Timer(STUB_START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchmarkError(f"generator stub did not start; see {log}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        try:
            self.stats()
        except OSError as exc:
            self.stop()
            raise BenchmarkError(f"generator stub does not answer: {exc}") from exc

    def _call(self, method: str, path: str) -> dict:
        data = b"" if method == "POST" else None
        request = urllib.request.Request(self.url + path, data=data, method=method)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def set_up(src: Path, work: Path, workload: Workload, seed: int):
    """Write the corpus and start the stub, SETUP_REPEATS times; keep the last stub."""
    from ragtrim.synth import CorpusSpec, make_synthetic_corpus

    depth_weights = load_script().DEPTH_WEIGHTS
    corpus_dir = work / "corpus"
    times, stub = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if stub is not None:
                stub.stop()
                stub = None
            start = time.perf_counter()
            corpus = make_synthetic_corpus(
                CorpusSpec(size=workload.size, depth_weights=depth_weights), seed=seed
            )
            corpus.write(corpus_dir)
            if workload.http:
                stub = Stub(src, corpus_dir, seed, workload.fault_rate, work / "stub.log")
            times.append(time.perf_counter() - start)
    except BaseException:
        if stub is not None:
            stub.stop()
        raise
    return corpus_dir, stub, times


def run_study(src: Path, out: Path, workload: Workload, seed: int, corpus_dir: Path,
              stub: Stub | None, trace: bool) -> dict:
    """One study in a fresh process, over HTTP to ``stub`` when given, else on the mock;
    returns its result with peak RSS and stub counters."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    command = [sys.executable, str(HERE / "study.py"), "--src", str(src),
               "--size", str(workload.size), "--seed", str(seed),
               "--corpus-dir", str(corpus_dir), "--out-dir", str(out)]
    if stub is not None:
        stub.reset()
        command += ["--endpoint", stub.url + "/"]
    if trace:
        command.append("--trace")
    with (out / "stderr.log").open("w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(STUDY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (out / "stderr.log").read_text(encoding="utf-8")[-2000:]
        raise BenchmarkError(f"study in {out} exited with {proc.returncode}:\n{tail}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    result["stub"] = stub.stats() if stub is not None else None
    result["out"] = str(out)
    return result


def totals(result: dict) -> dict:
    """Generation counters summed over the study's clients."""
    keys = ("lookups", "backend_requests", "billed_tokens", "failed", "client_calls",
            "client_cache_hits", "retries", "backoff_s")
    return {key: sum(meter[key] for meter in result["generation"]) for key in keys}


def check_study(result: dict, http: bool, plan: dict[str, object]) -> list[str]:
    """Correctness and counter reconciliation for one study."""
    errors = []
    where = result["out"]
    labels = {}
    with open(Path(where) / "triplets.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            labels[row["example_id"]] = row["label"]
    if labels != plan:
        wrong = sum(1 for key in plan if labels.get(key) != plan[key])
        errors.append(f"{where}: {wrong} of {len(plan)} triplet labels differ from the corpus plan")
    t = totals(result)
    if t["lookups"] != t["client_calls"]:
        errors.append(f"{where}: {t['lookups']} lookups, clients counted {t['client_calls']} calls")
    if http:
        stub = result["stub"]
        misses = t["client_calls"] - t["client_cache_hits"] - t["failed"]
        if stub["requests"] != misses:
            errors.append(f"{where}: stub served {stub['requests']}, clients missed {misses}")
        if stub["requests"] != t["backend_requests"]:
            errors.append(
                f"{where}: stub served {stub['requests']}, meters saw {t['backend_requests']}"
            )
        if stub["faults"] != t["retries"]:
            errors.append(
                f"{where}: stub injected {stub['faults']} faults, clients retried {t['retries']}"
            )
        if stub["prompt_tokens"] != t["billed_tokens"]:
            errors.append(
                f"{where}: stub billed {stub['prompt_tokens']} tokens, meters {t['billed_tokens']}"
            )
    elif t["retries"] or t["client_cache_hits"]:
        errors.append(f"{where}: the mock reported retries or cache hits")
    return errors


def per_layer(traced: list[dict], untraced: list[dict], size: int) -> dict:
    """Per-layer metrics: medians over the traced studies, plus tracing overhead."""
    rows = []
    for result in traced:
        t = totals(result)
        annotate = [m for m in result["generation"] if m["stage"] == "annotate"]
        probes = sum(m["lookups"] for m in annotate)
        row = dict(result["trace"])
        row.update({
            "generation.hit_share": (t["lookups"] - t["backend_requests"]) / t["lookups"],
            "generation.retries": t["retries"],
            "generation.backoff_s": t["backoff_s"],
            "annotate.probes": probes,
            "annotate.probes_per_example": probes / size,
            "failed_share": t["failed"] / t["lookups"],
        })
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r["study_s"] for r in traced)
        - statistics.median(r["study_s"] for r in untraced)
    )
    return metrics


def run_record(root: Path, src: Path, name: str, args, workload: Workload) -> dict:
    import numpy
    import requests

    digest = hashlib.sha256()
    for path in sorted((src / "ragtrim").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                   text=True, check=False)
            commit = found.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": workload.size,
        "stub_service_ms": SERVICE_MS if workload.http else None,
        "stub_fault_rate": workload.fault_rate if workload.http else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "hashes_checked_against": (
            EXPECTED.name if expected_hashes(workload, args.seed) else "the run's own studies"
        ),
    }


def measure(src: Path, work: Path, workload: Workload, args):
    """Set up, then run studies until the next would overrun --seconds; the HTTP
    workloads end with an untimed mock study of the same corpus as reference."""
    untraced, traced, reference = [], [], None
    corpus_dir, stub, setup_times = set_up(src, work, workload, args.seed)
    try:
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            index = len(untraced)
            untraced.append(run_study(src, work / f"study{index}", workload, args.seed,
                                      corpus_dir, stub, trace=False))
            if args.trace:
                traced.append(run_study(src, work / f"traced{index}", workload, args.seed,
                                        corpus_dir, stub, trace=True))
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
        if workload.http:
            reference = run_study(src, work / "mock_reference", workload, args.seed,
                                  corpus_dir, None, trace=False)
    finally:
        if stub is not None:
            stub.stop()
    return corpus_dir, setup_times, untraced, traced, reference


def expected_hashes(workload: Workload, seed: int) -> dict[str, str] | None:
    """The output hashes expected.json lists for this example count and seed, if any."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return expected.get(str(workload.size), {}).get(str(seed))


def plan_labels(corpus_dir: Path) -> dict[str, object]:
    """Example id -> the label the corpus plan intends."""
    plan = {}
    with open(corpus_dir / "plan.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            plan[row["example_id"]] = row["label"]
    return plan


def check_run(corpus_dir: Path, workload: Workload, seed: int, studies: list[dict],
              reference: dict | None) -> list[str]:
    """Every study's checks, then equal output hashes: across the run's studies and the
    HTTP workloads' mock reference, and to expected.json where it lists the seed."""
    plan = plan_labels(corpus_dir)
    errors = []
    for result in studies:
        errors += check_study(result, workload.http, plan)
    if reference is not None:
        errors += check_study(reference, False, plan)
    want = expected_hashes(workload, seed)
    source = f"{EXPECTED.name} (size {workload.size}, seed {seed})"
    if want is None:
        first = reference or studies[0]
        want, source = first["hashes"], first["out"]
    for result in studies + ([reference] if reference is not None else []):
        for name in HASHED_OUTPUTS:
            # triplets.jsonl names the generator; over HTTP that is the stub's URL,
            # whose port changes from run to run. Its labels are checked above.
            if name == "triplets.jsonl" and workload.http and result is not reference:
                continue
            if result["hashes"][name] != want[name]:
                errors.append(f"{result['out']}: {name} sha256 {result['hashes'][name]} "
                              f"differs from {want[name]} in {source}")
    return errors


def declared_metrics(root: Path) -> tuple[list[str], list[str], dict[str, str]]:
    """End-to-end names, per-layer names and every metric's unit, as BENCHMARK.json
    declares them."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    if set(per_layer) != set(MOVES):
        raise BenchmarkError("BENCHMARK.json's per_layer and MOVES in run.py name other metrics")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    return end_to_end, per_layer, units


def bench(root: Path, src: Path, name: str, args) -> int:
    """Measure, check and report one workload; returns the exit code."""
    workload = WORKLOADS[name]
    end_to_end_names, per_layer_names, units = declared_metrics(root)
    work = root / ".perfbench_work" / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    record = run_record(root, src, name, args, workload)
    print("run record: " + json.dumps(record, sort_keys=True))
    (work / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    corpus_dir, setup_times, untraced, traced, reference = measure(src, work, workload, args)
    studies = untraced + traced
    errors = check_run(corpus_dir, workload, args.seed, studies, reference)
    if errors:
        print(f"{name}: correctness check failed; no metrics reported:", file=sys.stderr)
        for error in errors:
            print("  " + error, file=sys.stderr)
        return 1

    median = statistics.median
    sums = [totals(r) for r in untraced]
    if workload.http:
        backend = [r["stub"]["requests"] for r in untraced]
        billed = [r["stub"]["prompt_tokens"] for r in untraced]
    else:
        backend = [t["backend_requests"] for t in sums]
        billed = [t["billed_tokens"] for t in sums]
    end_to_end = {
        "study_s": median(r["study_s"] for r in untraced),
        "setup_s": median(setup_times),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        "backend_requests": median(backend),
        "billed_prompt_tokens": median(billed),
        "failed_share": median(t["failed"] / t["lookups"] for t in sums),
        "adaptive_em": median(r["adaptive"]["em"] for r in untraced),
        "adaptive_tokens": median(r["adaptive"]["mean_tokens"] for r in untraced),
    }
    missing = set(end_to_end_names) - set(end_to_end)
    if missing:
        raise BenchmarkError(f"BENCHMARK.json declares unknown end-to-end metrics {missing}")
    traced_note = f", {len(traced)} traced" if traced else ""
    print(f"{name}, seed {args.seed}: {len(untraced)} untraced studies{traced_note}; "
          f"set-up repeated {SETUP_REPEATS} times")
    # failed_share is 0 in a healthy run, so it is declared per-layer and gated
    # through "failed" in the result line; it is still shown with the end-to-end ones.
    for metric in [*end_to_end_names, "failed_share"]:
        print(f"  {metric:<28} {end_to_end[metric]:>14.4f} {units[metric]}")
    if args.trace:
        layers = per_layer(traced, untraced, workload.size)
        for metric in per_layer_names:
            print(f"  {metric:<28} {layers[metric]:>14.4f} {units[metric]:<6} "
                  f"moves {MOVES[metric]}")
        metrics = {metric: layers[metric] for metric in per_layer_names}
    else:
        metrics = {metric: end_to_end[metric] for metric in end_to_end_names}

    print(json.dumps({
        "correct": True,
        "attempted": sum(totals(r)["lookups"] for r in studies),
        "failed": sum(totals(r)["failed"] for r in studies),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A stopped benchmark still stops its stub and study processes (see the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "ragtrim" / "__init__.py").is_file() or not SCRIPT.is_file():
        print(f"error: no ragtrim sources under {src} or no {SCRIPT.name}; "
              "run from a ragtrim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            status = max(status, bench(root, src, name, args))
        except BenchmarkError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
