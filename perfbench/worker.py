"""One workload in one fresh interpreter: set up, run passes, check, trace.

Started by ``run.py``; prints one JSON object on its last stdout line.
With ``--setup-only`` it stops once the inputs are ready, so the parent
can time set-up from a fresh interpreter several times per run.

A pass runs every item of the workload once, sequentially, in a closed
loop with one client. Passes repeat until the next one would end past the
time budget; at least one pass always runs. An item's latency is the
wall-clock time of its ``run`` call; a pass's time is the sum of its item
latencies.
With ``--trace 1`` the budget is split: untraced passes first, then the
wrappers go in, the set-up is repeated once traced, and traced passes run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


# A shared machine's speed drifts by 10-30% within seconds. A fixed
# reference task, independent of bellswap, measures that speed: a sampler
# process shares one CPU with the timed process and times the task in CPU
# time about every REF_EVERY_S. Each timed interval's wall-clock time is
# scaled by REF_NOMINAL_S over the median reference time within
# REF_WINDOW_S of it (at least the nearest three). Scaled timings are thus
# wall seconds on a machine where the reference task takes REF_NOMINAL_S.
# They include the sampler's share of the CPU (about 5%) and any time the
# timed code spends blocked or waiting for other processes; raw wall times
# stay in the result file. References timed between items on the worker
# itself, or only before and after a long item, or on the other CPU,
# tracked the speed worse.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.1
REF_WINDOW_S = 0.25
_CUBE = (np.arange(4096) % 7 - 3).astype(np.int8).reshape(8, 8, 8, 8)


def reference_task() -> float:
    """Fixed interpreter and small-array numpy work; returns its CPU time."""
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(7000):
        acc += i * i
        table[i & 127] = acc
    for _ in range(80):
        (np.where(_CUBE > 0, _CUBE, -_CUBE) * _CUBE).any(axis=(1, 2))
    return time.thread_time() - t0


def reference_sampler(path: str, cpu: int) -> None:
    """Pinned to ``cpu``: time the reference task until killed."""
    os.sched_setaffinity(0, {cpu})
    with open(path, "w") as out:
        while True:
            start = time.monotonic()
            duration = reference_task()
            out.write(f"{(start + time.monotonic()) / 2} {duration}\n")
            out.flush()
            time.sleep(REF_EVERY_S)


@contextlib.contextmanager
def pinned_sampler(workdir: Path, references: list):
    """Share one CPU with a reference sampler; fill ``references`` on exit.

    Child processes started inside inherit the pinning. ``references``
    gets (monotonic time, reference seconds) pairs.
    """
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    path = workdir / "reference-samples.txt"
    workdir.mkdir(parents=True, exist_ok=True)
    os.sched_setaffinity(0, {cpu})
    sampler = subprocess.Popen(
        [sys.executable, __file__, "--reference-sampler", str(path), "--cpu", str(cpu)]
    )
    try:
        time.sleep(0.5)  # the sampler starts up and takes its first samples
        yield
        time.sleep(3 * REF_EVERY_S)
    finally:
        sampler.terminate()
        sampler.wait()
        os.sched_setaffinity(0, affinity)
    with open(path) as lines:
        references += [tuple(map(float, line.split())) for line in lines if line.endswith("\n")]


def speed_factor(times: list[float], durations: list[float], start: float, end: float) -> float:
    """REF_NOMINAL_S over the median reference duration around [start, end]."""
    lo = bisect.bisect_left(times, start - REF_WINDOW_S)
    hi = bisect.bisect_right(times, end + REF_WINDOW_S)
    while hi - lo < 3 and (lo > 0 or hi < len(times)):
        if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
            lo -= 1
        else:
            hi += 1
    return REF_NOMINAL_S / statistics.median(durations[lo:hi])


def run_passes(workload, items, budget: float, sampler_dir=None, recorder=None) -> dict:
    """Passes over ``items`` within ``budget`` seconds (at least one).

    With ``sampler_dir`` the passes run beside the pinned sampler, which
    writes its samples there, and each run also gets its wall time at
    reference speed (``scaled``).
    """
    references: list[tuple[float, float]] = []
    scaled = sampler_dir is not None
    with pinned_sampler(sampler_dir, references) if scaled else contextlib.nullcontext():
        passes = _timed_passes(workload, items, budget, recorder)
    if scaled:
        times = [t for t, _ in references]
        durations = [d for _, d in references]
        passes["scaled"] = [
            [wall * speed_factor(times, durations, t0, t0 + wall) for t0, wall in item_runs]
            for item_runs in passes["runs"]
        ]
        passes["reference_ms"] = 1000 * statistics.median(durations)
    passes["latencies"] = [[wall for _, wall in item_runs] for item_runs in passes.pop("runs")]
    return passes


def _timed_passes(workload, items, budget, recorder) -> dict:
    runs: list[list[tuple[float, float]]] = [[] for _ in items]
    pass_times: list[float] = []
    kinds: Counter = Counter()
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_time = 0.0
        if recorder:
            recorder.item = -1
            pass_span = recorder.open("bench.pass")
        for index, item in enumerate(items):
            argument = workload.prepare(item)
            if recorder:
                recorder.item = index
                item_span = recorder.open("bench.item")
                recorder.active = True
            t0 = time.monotonic()
            try:
                output = workload.run(argument)
                error = None
            except Exception:
                output, error = None, traceback.format_exc(limit=3)
            wall = time.monotonic() - t0
            if recorder:
                recorder.active = False
                recorder.close(item_span)
            if error is None:
                kind, error = workload.check(item, output)
                if kind:
                    kinds[kind] += 1
            attempted += 1
            if error is not None:
                failures.append(f"{item.label}: {error}")
            runs[index].append((t0, wall))
            pass_time += wall
        if recorder:
            recorder.close(pass_span)
        pass_times.append(pass_time)
        if time.perf_counter() - started + (time.perf_counter() - pass_start) > budget:
            break
    return {
        "runs": runs,
        "pass_times": pass_times,
        "kinds": kinds,
        "failures": failures,
        "attempted": attempted,
    }


def latency_summary(passes: dict) -> dict:
    """Per-item medians across passes, at reference speed; their sum and tail.

    Taking each item's median across passes first keeps a burst of load
    from elsewhere on the machine, which slows every item it overlaps,
    out of the figures as long as it covers fewer than half of the passes.
    ``wall_s`` is the sum of the per-item medians: the time of one pass
    over the fixed inputs. The tail is the highest percentile of the
    per-item medians with at least ten samples beyond it; with ten or
    fewer samples it is the maximum.
    """
    per_item = [statistics.median(runs) for runs in passes["scaled"]]
    ordered = sorted(per_item)
    count = len(ordered)
    beyond = 10 if count > 10 else 0
    wall = sum(per_item)
    return {
        "wall_s": wall,
        "items_per_s": count / wall,
        "p50_ms": 1000 * statistics.median(ordered),
        "tail_ms": 1000 * ordered[count - 1 - beyond],
        "tail_percentile": 100.0 * (count - beyond) / count,
        "tail_samples": count,
        "tail_beyond": beyond,
        "raw_wall_s": statistics.median(passes["pass_times"]),
        "reference_ms": passes["reference_ms"],
    }


def layer_summary(recorder, phase: str, passes: int, items: int, groups=None) -> dict:
    """calls per item, self and inclusive seconds per pass, for one phase."""
    summary = recorder.summarize(phase, groups)
    layers = {
        name: {"calls": calls / (passes * items), "self_s": self_s / passes, "incl_s": incl / passes}
        for name, (calls, self_s, incl) in summary["totals"].items()
    }
    out = {"layers": layers}
    if summary["groups"]:
        sizes = Counter(groups.values())
        out["groups"] = {
            group: {
                name: {
                    "calls_per_item": calls / (passes * sizes[group]),
                    "self_ms_per_item": 1000 * self_s / (passes * sizes[group]),
                    "incl_ms_per_item": 1000 * incl / (passes * sizes[group]),
                }
                for name, (calls, self_s, incl) in rows.items()
            }
            for group, rows in summary["groups"].items()
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference-sampler", metavar="PATH", help="run only the pinned sampler")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if args.reference_sampler:
        reference_sampler(args.reference_sampler, args.cpu)
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    import bellswap
    from workloads import WORKLOADS

    if Path(bellswap.__file__).resolve().parent != ROOT / "src" / "bellswap":
        raise SystemExit(f"imported bellswap from {bellswap.__file__}, not from this checkout")
    imported_at = time.monotonic()
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup = {"imported_at": imported_at, "ready_at": time.monotonic()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    warmup_items = workload.warmup_items()
    warmup = run_passes(workload, warmup_items, 0.0) if warmup_items else None
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(workload, workload.items, budget, sampler_dir=workdir)
    result = {
        **setup,
        "numpy": np.__version__,
        "items_per_pass": len(workload.items),
        "passes": len(untraced["pass_times"]),
        "pass_times": untraced["pass_times"],
        "latency": latency_summary(untraced),
        "latencies": untraced["latencies"],
        "kinds_per_pass": {k: v / len(untraced["pass_times"]) for k, v in untraced["kinds"].items()},
        "attempted": untraced["attempted"] + (warmup["attempted"] if warmup else 0),
        "failures": (warmup["failures"] if warmup else []) + untraced["failures"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extra": workload.extra,
    }
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        wrapped = tracing.install(recorder)
        recorder.phase = "setup"
        recorder.active = True
        setup_span = recorder.open("bench.setup")
        type(workload)(args.seed, workdir)
        recorder.close(setup_span)
        recorder.active = False
        recorder.phase = "pass"
        # beside the sampler too, so traced and untraced passes compare
        traced = run_passes(workload, workload.items, args.seconds - budget, workdir, recorder)
        result["failures"] += traced["failures"]
        result["attempted"] += traced["attempted"]
        groups = {index: item.group for index, item in enumerate(workload.items)}
        npasses = len(traced["pass_times"])
        result["trace"] = {
            "wrapped": wrapped,
            "passes": npasses,
            "untraced_wall_s": sum(untraced["pass_times"]) / len(untraced["pass_times"]),
            # both at reference speed, so the machine's drift between the
            # untraced and the traced passes stays out of the ratio
            "overhead_ratio": latency_summary(traced)["wall_s"] / result["latency"]["wall_s"],
            "pass": layer_summary(recorder, "pass", npasses, len(workload.items), groups),
            "setup": layer_summary(recorder, "setup", 1, 1),
            "search_per_pass": {
                key: value / npasses for key, value in recorder.search_counts["pass"].items()
            },
            "spans": len(recorder.spans),
        }
        if args.spans:
            recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
