"""Seeded benchmark of sonomotion: three workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload desk-train-eval --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, the wall time of
one round of the workload's timed operations, peak RSS) with no wrappers
installed. Every check of the program's outputs runs after the timed work,
so that peak RSS is the program's alone. ``--trace 1`` measures the same
untraced rounds, then one round with every layer wrapped, and reports the
per-layer figures, the stage figures of the untraced rounds and the tracing
overhead (traced round minus the last untraced round). ``--workload all``
runs each workload in its own process and prints a table.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread: set before numpy loads; steadier on a shared machine and
# never more than nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def env_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _setups(wl, ks) -> list[float]:
    """Wall time of each set-up ``k`` in ``ks``."""
    times = []
    for k in ks:
        start = time.perf_counter()
        wl.setup(k)
        times.append(time.perf_counter() - start)
    return times


def _rounds(wl, seconds: float) -> list[dict]:
    """Rounds of the workload's timed operations until ``seconds`` have
    passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
    return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    work = ROOT / ".bench_work"
    ws = work / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    ledger = workloads.Ledger(ws / "program.log")
    wl = workloads.WORKLOADS[name](ws, seed, ledger)
    try:
        # half the set-ups run before the rounds and half after: the host's
        # speed drifts over tens of seconds, so their median spans the run
        half = (wl.setups + 1) // 2
        setup_times = _setups(wl, range(half))
        rounds = _rounds(wl, seconds)
        if trace:
            # the overhead baseline is the last untraced round, run just
            # before the traced one so that both see nearly the same host speed
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = wl.round(len(rounds), tracer)
            finally:
                tracer.uninstall()
        setup_times += _setups(wl, range(half, wl.setups))
        # read before any check runs: the checks share this process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        stages = {k: (statistics.median(r["stage"][k][0] for r in rounds), u)
                  for k, u in workloads.STAGE_METRICS.items()
                  if k in rounds[0]["stage"]}
        checked = list(rounds)
        if trace:
            checked.append(traced)
            baseline = rounds[-1]
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{name}-seed{seed}.jsonl")
            layer = tracing.layer_metrics(tracer.spans, wl.model_root, wl.clips)
            overhead = traced["round_s"] - baseline["round_s"]
            layer["trace.overhead_round_s"] = (overhead, "s")
            layer["trace.overhead_pct"] = (
                100.0 * overhead / baseline["round_s"], "%")
            for k, unit in workloads.STAGE_METRICS.items():
                layer[k] = stages.get(k, (0.0, unit))
            metrics = layer
        for i, result in enumerate(checked):
            wl.check_round(i, result)
        wl.final_checks()
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    return {"round_times": [r["round_s"] for r in rounds],
            "setup_times": setup_times, "stages": stages, "ledger": ledger,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sonomotion" / "cli.py").is_file():
        print(f"benchmark: no sonomotion sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = env_info()
    print("env: " + json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    ledger = result["ledger"]
    print(f"workload {args.workload} seed {args.seed}: rounds "
          + ", ".join(f"{t:.3f}" for t in result["round_times"]) + " s; set-ups "
          + ", ".join(f"{t:.3f}" for t in result["setup_times"]) + " s")
    for k, (v, unit) in result["stages"].items():
        print(f"  {k} = {v:.6g} {unit}")
    for kind in ledger.attempted:
        print(f"  ops {kind}: attempted {ledger.attempted[kind]}, "
              f"failed {ledger.failed[kind]}")
    for msg in ledger.messages:
        print(f"  FAILED {msg}")
    out = {"correct": ledger.checks_failed == 0,
           "attempted": sum(ledger.attempted.values()),
           "failed": sum(ledger.failed.values()),
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in result["metrics"].items()}}
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        totals["correct"] &= res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            totals["metrics"][f"{name}/{k}"] = m
    width = max(len(k) for k in totals["metrics"])
    for k, m in totals["metrics"].items():
        print(f"{k:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
