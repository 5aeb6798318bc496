"""freqfilter benchmark: one command, closed loop, one workload per child process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-c6 --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn. Each workload runs in its own
child process under a fixed address-space cap, so running out of memory is a
failed operation (MemoryError) rather than a kill. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ADDRESS_SPACE_CAP = 4 * 1024**3
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"
NAMES = ("train-c6", "metr-infer", "long-window")
MB = 1024.0 * 1024.0
BLAS_THREADS = 1

# End-to-end metrics of an untraced run: (name, unit). Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("eval_windows_per_s", "windows/s"),
    ("baseline_windows_per_s", "windows/s"),
    ("mae_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
)

# Figures only some workloads have; printed in the report, and traced as per-layer metrics.
REPORT_ONLY = (
    ("train_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("load_csv_mb_per_s", "MB/s"),
    ("save_csv_mb_per_s", "MB/s"),
    ("predict_rows_per_s", "rows/s"),
    ("score_rows_per_s", "rows/s"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_", "adaptive"),
        "address_space_cap_gib": ADDRESS_SPACE_CAP / 1024**3,
    }


# --------------------------------------------------------------------------- child


@dataclass
class Record:
    name: str
    kind: str
    seconds: float
    work: dict


@dataclass
class Pass:
    records: list[Record]
    wall: float
    layers: dict | None = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _rate(records: list[Record], kind: str, key: str, scale: float = 1.0) -> float:
    """Work completed over time spent by the operations of one kind.

    Each operation contributes the median of its work and the median of its
    time over all its calls in the run, so one slow call moves the figure
    little. A failed call completes no work, but its time counts.
    """
    calls = defaultdict(list)
    for r in records:
        if r.kind == kind:
            calls[r.name].append(r)
    work = sum(statistics.median(r.work.get(key, 0) for r in rs) for rs in calls.values())
    seconds = sum(statistics.median(r.seconds for r in rs) for rs in calls.values())
    return work / scale / seconds if seconds > 0 else math.nan


def summarize(records: list[Record]) -> dict[str, float]:
    train = [r.seconds for r in records if r.kind == "train"]
    return {
        "eval_windows_per_s": _rate(records, "eval", "windows"),
        "baseline_windows_per_s": _rate(records, "baseline", "windows"),
        "train_s": statistics.median(train) if train else math.nan,
        "train_samples_per_s": _rate(records, "train", "samples"),
        "load_csv_mb_per_s": _rate(records, "load", "bytes", MB),
        "save_csv_mb_per_s": _rate(records, "save", "bytes", MB),
        "predict_rows_per_s": _rate(records, "predict", "rows"),
        "score_rows_per_s": _rate(records, "score", "rows"),
    }


def run_pass(wl, outcome: Outcome, tracer=None) -> Pass:
    """One pass over the workload's operations, one at a time; a traced pass also traces a set-up."""
    from workloads import CheckFailed

    records = []
    if tracer is not None:
        tracer.install()
        span = tracer.open("op.setup")
        try:
            wl.setup()
        finally:
            tracer.close(span)
    start = time.perf_counter()
    try:
        for op in wl.ops():
            outcome.attempted += 1
            span = tracer.open(f"op.{op.name}") if tracer is not None else None
            t0 = time.perf_counter()
            work = {}
            try:
                work = op.fn()
            except CheckFailed as exc:
                outcome.problems.append(f"{op.name}: {exc}")
            except Exception as exc:  # a failed operation completes no work
                outcome.failed += 1
                outcome.failures[op.name] = f"{type(exc).__name__}: {exc}"[:200]
            seconds = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
                if op.kind in ("predict", "score"):
                    key = "cli.predict.rows" if op.kind == "predict" else "cli.evaluate_forecast.rows"
                    tracer.counts[key] += work.get("rows", 0)
            records.append(Record(op.name, op.kind, seconds, work))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(records, time.perf_counter() - start, tracer.layer_metrics() if tracer else None)


def measure(args, wl) -> int:
    from tracer import PER_LAYER, Tracer
    from workloads import CheckFailed

    outcome = Outcome()
    # Set up several times and keep the median; cheap set-ups repeat for at least two seconds.
    setup_times = []
    while len(setup_times) < wl.setup_repeats or (sum(setup_times) < 2.0 and len(setup_times) < 1000):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    try:
        wl.prepare()
    except CheckFailed as exc:
        outcome.problems.append(f"prepare: {exc}")

    # Closed loop of whole passes; another pass starts while at least half of one
    # still fits in the budget. With tracing, untraced and traced passes
    # alternate and each kind runs at least once.
    untraced: list[Pass] = []
    traced: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        longest = max((p.wall for p in untraced + traced), default=0.0)
        have_all = untraced and (traced or not args.trace)
        if have_all and time.perf_counter() - t_start + longest / 2 > args.seconds:
            break
        if args.trace and len(traced) < len(untraced):
            tracer = Tracer()
            traced.append(run_pass(wl, outcome, tracer))
            spans_path = Path.cwd() / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with spans_path.open("w" if len(traced) == 1 else "a") as fh:
                for rec in tracer.span_records(len(traced)):
                    fh.write(json.dumps(rec) + "\n")
        else:
            untraced.append(run_pass(wl, outcome))

    records = [r for p in untraced for r in p.records]
    summary = summarize(records)
    summary["setup_s"] = statistics.median(setup_times)
    summary["mae_ratio"] = wl.mae_ratio
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["ops_ok_frac"] = (outcome.attempted - outcome.failed) / outcome.attempted

    if args.trace:
        layers = {name: statistics.median(p.layers[name] for p in traced) for name, _ in PER_LAYER}
        untraced_wall = statistics.median(p.wall for p in untraced)
        layers["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced_wall
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / untraced_wall
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    print(f"== {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(setup_times)} set-ups")
    for name, unit in END_TO_END + REPORT_ONLY:
        if not math.isnan(summary[name]):
            print(f"  {name:24s} {summary[name]:14.6g} {unit}")
    print(f"  {'ops_failed_frac':24s} {outcome.failed / outcome.attempted:14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for name in dict.fromkeys(r.name for r in records):
        times = [r.seconds for r in records if r.name == name]
        print(f"  op {name:38s} median {statistics.median(times):9.4f} s over {len(times)}")
    for name, why in outcome.failures.items():
        print(f"  failed: {name}: {why}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  machine: {json.dumps(machine_info())}")

    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 3
    result = {"correct": not outcome.problems, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_child(args) -> int:
    # Import the package from this checkout's source tree only.
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import freqfilter

    if Path(freqfilter.__file__).resolve().parent != (src / "freqfilter").resolve():
        print(f"freqfilter imported from {freqfilter.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = Path.cwd() / OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload](args.seed, workdir, args.toy))
    finally:
        shutil.rmtree(workdir)


# --------------------------------------------------------------------------- parent


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_workload(args, workload: str) -> dict | None:
    # One BLAS thread (within the nproc cap): with two, small matmuls ran twice
    # as slow whenever the other core was busy, which made runs unsteady.
    threads = str(min(BLAS_THREADS, nproc()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    # Fix glibc malloc at the state its adaptive policy reaches after freeing a
    # 32 MiB block. Left adaptive, whether mid-sized arrays reuse the heap or
    # get fresh pages each call depends on allocation history, and cheap calls
    # ran either 0.55 or 0.95 ms from one run to the next.
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 * 1024**2), MALLOC_TRIM_THRESHOLD_=str(64 * 1024**2))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, preexec_fn=_limit_address_space)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the harness smoke test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "freqfilter" / "__init__.py").is_file():
        print("run from the root of a freqfilter checkout (src/freqfilter not found)", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args)

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(args, name)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
