"""qdiscord benchmark.

    python3 bench/run.py --workload mc-random --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload bounds-curves --seed 1 --seconds 1 --trace 1 --smoke

Runs repetitions of one workload, each in a fresh worker process (see
worker.py), until --seconds are used up, with at least MIN_REPS of them.
Every repetition works on the same inputs, made from --seed, so the digests
of its CSV/JSON outputs must agree across repetitions; a digest that differs
counts as a failed operation, as does every output the oracle checks reject.

Other tenants of the shared host slow it by up to about 3x, in spells from under
a second to minutes, so every time below is normalized to the quiet host
with the host-speed track of hostspeed.py, sampled all through each
untraced repetition's timed section; set-up time is divided by the
repetition's median slowdown.  The raw medians and the slowdown go to the
record.  Workers run with one BLAS thread (THREAD_ENV defaults to 1).

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      median over repetitions of worker start to inputs ready
  wall_s       median over repetitions of the timed section
  call_ms_p50  median over inputs of the unit-call latency, where each
               input's latency is its median over repetitions
  call_ms_p99  99th percentile over inputs of the same
  peak_rss_mb  median over repetitions of the worker's peak RSS
Taking each input's median before the percentile keeps a burst of load from
other processes on the host, which slows every call it overlaps, out of the
tail: pooled over repetitions, p99 spread several times wider from run to run.
With --trace 1 the repetitions alternate untraced and traced, and the line
reports the per-layer metrics of tracer.py (medians over traced
repetitions) plus trace.overhead_frac.  --smoke shrinks every workload to
about ten items.

The full record of a run (every repetition, digests, failures, provenance)
is written to bench/results/.  Exit code 2 means the qdiscord sources were
not found next to the benchmark; 1 means a worker died.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("mc-random", "single-state", "bounds-curves")
MIN_REPS = {0: 3, 1: 2}  # by --trace: a traced run needs one repetition of each kind
HARD_LIMIT_S = 170  # a run must end within 180 s
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one BLAS thread: the workloads' matrices are 4x4, and a second thread only
# spins against the load generator for the host's two cores
WORKER_ENV = {**{k: "1" for k in THREAD_ENV}, **os.environ}
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def git_commit(root):
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def run_worker(cfg, deadline):
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=WORKER_ENV,
            timeout=max(deadline - spawn, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {HARD_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready") - spawn
    rep["duration_s"] = time.monotonic() - spawn
    rep["traced"] = cfg["trace"]
    return rep


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps):
    plain = [r for r in reps if not r["traced"]]
    # every repetition runs the same inputs in the same order, so latency i
    # of each repetition belongs to the same input; a crashed repetition
    # has none and falls back to its whole wall time
    rows = [r["latencies_ms"] for r in plain if r["latencies_ms"]]
    per_input = [statistics.median(col) for col in zip(*rows)] or [
        statistics.median(r["wall_s"] for r in plain) * 1e3
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "call_ms_p50": statistics.median(per_input),
        "call_ms_p99": percentile(per_input, 99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def raw_times(reps):
    """Medians of the times before normalization, for the record."""
    plain = [r for r in reps if not r["traced"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "slowdown": statistics.median(r["slowdown"] for r in plain),
    }


def per_layer(reps):
    traced = [r["trace"] for r in reps if r["traced"]]
    out = {
        name: statistics.median(t[name] for t in traced)
        for name in metric_units()
        if name != "trace.overhead_frac"
    }
    wall = {
        flag: statistics.median(r["raw_wall_s"] for r in reps if r["traced"] == flag)
        for flag in (0, 1)
    }
    out["trace.overhead_frac"] = wall[1] / wall[0] - 1.0
    return out


def digest_mismatches(reps):
    ref = reps[0]["digests"]
    bad = 0
    for rep in reps[1:]:
        names = set(ref) | set(rep["digests"])
        bad += sum(ref.get(n) != rep["digests"].get(n) for n in names)
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="about ten items per workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdiscord" / "__init__.py").is_file():
        print(f"error: no qdiscord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps = []
    try:
        while True:
            cfg = {
                "root": str(ROOT),
                "workload": args.workload,
                "seed": args.seed,
                "smoke": args.smoke,
                "trace": args.trace * (len(reps) % 2),
                "spans_path": str(RESULTS / f"spans-{tag}-rep{len(reps)}.json"),
            }
            reps.append(run_worker(cfg, deadline))
            typical = statistics.median(r["duration_s"] for r in reps)
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS[args.trace] and elapsed + typical > args.seconds:
                break
            if elapsed + typical > HARD_LIMIT_S:
                break
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps) + digest_mismatches(reps)
    if args.trace:
        units, values = metric_units(), per_layer(reps)
    else:
        units, values = E2E_UNITS, end_to_end(reps)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": {
            **reps[0]["provenance"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(ROOT),
            "thread_env": {k: WORKER_ENV.get(k) for k in THREAD_ENV},
            "input_digest": reps[0]["input_digest"],
        },
        "repetitions": [
            {k: v for k, v in r.items() if k != "provenance"} for r in reps
        ],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw_times": raw_times(reps) if not args.trace else None,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    n_plain = sum(not r["traced"] for r in reps)
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions "
          f"({n_plain} untraced), {attempted} ops, {failed} failed")
    for r in reps:
        for msg in r["messages"][:3]:
            print(f"  failure: {msg.strip()}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    for k, v in (record["raw_times"] or {}).items():
        print(f"  raw {k} = {v:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
