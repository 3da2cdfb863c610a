"""Benchmark entry point: one workload, or all of them, with metrics and checks.

    python3 perfbench/run.py --workload verdict_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program under test is the checkout's
``src/bellswap``, imported straight from source. Each run starts fresh
interpreters: several that only set up (for ``setup_s``), beside a pinned
reference sampler, and one worker that sets up, warms up, runs the timed
passes and checks every output.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. Every run also
writes a result file, with provenance, under ``.perfbench_out/``. The exit
status is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def provenance(seed: int, numpy_version: str) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*argv):
            return subprocess.run(
                ["git", "-C", str(ROOT), *argv], capture_output=True, text=True, timeout=30
            ).stdout.strip()

        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "machine": platform.machine(),
    }


def start_worker(args, workdir: Path, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return when it was spawned and its result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    spawned = time.monotonic()
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


def setup_times(args, workdir: Path, deadline: float) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, at reference speed.

    Each probe runs from spawning the interpreter to inputs ready (start-up,
    imports, input generation) beside the pinned reference sampler, and its
    wall time is scaled like an item run's.
    """
    references: list[tuple[float, float]] = []
    spans = []
    with worker.pinned_sampler(workdir, references):
        for _ in range(SETUP_PROBES):
            spawned, result = start_worker(args, workdir, ["--setup-only"], deadline)
            spans.append((spawned, result["ready_at"]))
    times = [t for t, _ in references]
    durations = [d for _, d in references]
    return [(end - start) * worker.speed_factor(times, durations, start, end) for start, end in spans]


def end_to_end(result: dict, setup_s: float) -> dict:
    latency = result["latency"]
    return {
        "setup_s": setup_s,
        "wall_s": latency["wall_s"],
        "items_per_s": latency["items_per_s"],
        "p50_ms": latency["p50_ms"],
        "tail_ms": latency["tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": len(result["failures"]) / result["attempted"],
    }


def per_layer(result: dict) -> dict:
    """Flatten the traced run into the per-layer metric names of BENCHMARK.json."""
    trace, kinds = result["trace"], result["kinds_per_pass"]
    out: dict[str, float] = {}
    layers = trace["pass"]["layers"]
    for prefix, phase in (("", layers), ("setup.", trace["setup"]["layers"])):
        for name in trace["wrapped"]:
            row = phase.get(name, {"calls": 0.0, "self_s": 0.0})
            out[f"{prefix}{name}.calls"] = row["calls"]
            out[f"{prefix}{name}.self_s"] = row["self_s"]
    search = trace["search_per_pass"]
    search_s = sum(layers.get(name, {}).get("incl_s", 0.0) for name in tracing.SEARCHES)
    candidates = search.get("candidates", 0)
    out["search.candidates_decided"] = candidates
    out["search.survivors"] = search.get("survivors", 0)
    out["search.survivor_ratio"] = out["search.survivors"] / candidates if candidates else 0.0
    out["search.candidates_per_s"] = candidates / search_s if search_s else 0.0
    for kind in ("inconsistent", "not_robust", "alarm"):
        out[f"verdict.kind.{kind}"] = kinds.get(kind, 0.0)
    # every span sits inside a bench.item span, so its inclusive time is the
    # traced pass and its self time is what no wrapped function covers
    item = layers["bench.item"]
    out["trace.wall_s"] = item["incl_s"]
    out["trace.untraced_wall_s"] = trace["untraced_wall_s"]
    out["trace.overhead_s"] = item["incl_s"] - trace["untraced_wall_s"]
    out["trace.overhead_ratio"] = trace["overhead_ratio"]
    out["trace.unwrapped_s"] = item["self_s"]
    out["trace.wrapped_self_s"] = sum(layers[name]["self_s"] for name in trace["wrapped"] if name in layers)
    return out


def run_one(args, spec: dict) -> dict:
    """Measure one workload; return the result record (also written to disk)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = setup_times(args, workdir, deadline)
        extra = ["--spans", str(OUT / f"{tag}-spans.json")] if args.trace else []
        result = start_worker(args, workdir, extra, deadline)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = end_to_end(result, statistics.median(setups))
    if args.trace:
        metrics.update(per_layer(result))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, result["numpy"]),
        "setup_samples_s": setups,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
        "absent": [m["name"] for m in wanted if m["name"] not in metrics],
        "worker": result,
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    record["line"] = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    return record


def report(record: dict, spec: dict) -> None:
    """Human-readable lines: every end-to-end metric with its unit."""
    latency = record["worker"]["latency"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  passes {record['worker']['passes']} x {record['worker']['items_per_pass']} items")
    for name, entry in record["metrics"].items():
        if name in {m["name"] for m in spec["end_to_end"]} or name == "error_rate":
            print(f"  {name:<14} {entry['value']:.6g} {entry['unit']}")
    print(f"  tail_ms is p{latency['tail_percentile']:.1f} of {latency['tail_samples']} items"
          f" ({latency['tail_beyond']} beyond it)")
    if record["trace"]:
        m = record["metrics"]
        print(f"  traced wall {m['trace.wall_s']['value']:.6g} s/pass = wrapped self"
              f" {m['trace.wrapped_self_s']['value']:.6g} s + unwrapped"
              f" {m['trace.unwrapped_s']['value']:.6g} s; overhead"
              f" {m['trace.overhead_s']['value']:.6g} s/pass raw, traced/untraced"
              f" {m['trace.overhead_ratio']['value']:.4g} at reference speed")
    for failure in record["worker"]["failures"][:5]:
        print(f"  FAILED {failure.splitlines()[0]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bellswap" / "__init__.py").is_file():
        print(f"error: no bellswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    lines = []
    for name in selected:
        record = run_one(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        report(record, spec)
        lines.append(record["line"])
    if args.workload == "all":
        print(json.dumps({name: line for name, line in zip(selected, lines)}))
    else:
        print(json.dumps(lines[0]))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
