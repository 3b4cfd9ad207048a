#!/usr/bin/env python3
"""Benchmark of the bregman_kaczmarz package, driven through its public API.

    python3 perfbench/run.py --workload row-sparse --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the package is imported from `src/` of the checkout
that holds this file.  The script first replaces itself with a fresh
interpreter in a fixed environment, so memory and timings do not depend
on the caller's environment.  `--trace 0` measures the end-to-end
metrics with nothing traced: each workload runs a fixed number of
repetitions, scaled by `--seconds` from `run_seconds` of BENCHMARK.json.
`--trace 1` runs repetition 0 twice, untraced and traced, and reports
the per-layer metrics of the traced pass.  Each run
prints a readable report, one `report {...}` JSON line with every metric
and the environment, and as its last line a JSON object with `correct`,
`attempted`, `failed` and the metrics `BENCHMARK.json` lists for the
mode.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
# one BLAS thread (nproc is 2 on the reference box): a single closed loop
# whose timings do not depend on how busy the other core is
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COVERAGE_FLOOR = 0.95    # traced wall time that root spans must cover
# traced wall time left as self time of the outer solve and audit spans,
# i.e. spent in the library outside every wrapped call
UNATTRIBUTED_CEILING = 0.05
# marks the interpreter that runs in the fixed environment
CANONICAL_VAR = "PERFBENCH_CANONICAL"
EXIT_FAILED = 1
EXIT_SETUP = 2


def parse_args(argv, workload_names, default_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=default_seconds,
                   help="run length of a --trace 0 run; repetitions scale with it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def canonical_env():
    """The whole environment of the measuring interpreter."""
    env = {var: BLAS_THREADS for var in BLAS_THREAD_VARS}
    env.update({"LC_ALL": "C", "PYTHONHASHSEED": "0", "PYTHONUTF8": "1",
                CANONICAL_VAR: "1"})
    return env


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": blas["name"], "version": blas["version"]}
    with open("/proc/cpuinfo") as fh:
        cpu = next(line.split(":", 1)[1].strip() for line in fh
                   if line.startswith("model name"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(), "cpu": cpu}


def print_table(title, rows):
    print(title)
    for name, (value, unit, *n) in rows.items():
        count = f"n={n[0]}" if n else ""
        print(f"  {name:<36} {value:<14.6g} {unit:<6} {count}")


def measure(workload, seed, reps, trace, workdir):
    """Run one workload; return (metrics, pass totals, extra report)."""
    import layers
    from tracing import Tracer
    from workloads import end_to_end, run_pass, setups_per_instance

    if not trace:
        result = run_pass(workload, seed, reps, setups_per_instance(reps),
                          workdir)
        if not any(o.rep == 0 for o in result.outcomes):
            return {}, result, {}
        metrics = end_to_end(workload, result)
        print_table("end-to-end (untraced)", metrics)
        return metrics, result, {}

    # one set-up per instance: set-up time is measured untraced, and the
    # split then shows the solves as they run
    untraced = run_pass(workload, seed, reps, 1, workdir)
    tracer = Tracer()
    traced = run_pass(workload, seed, reps, 1, workdir, tracer)
    result = untraced
    result.attempted += traced.attempted
    result.failed += traced.failed
    result.problems += traced.problems
    for u, t in zip(untraced.outcomes, traced.outcomes):
        result.count([] if u == t else [f"traced {t} != untraced {u}"],
                     f"reproduce {u.preset} rep {u.rep}")
    if len(untraced.outcomes) != len(traced.outcomes):
        result.count(["traced and untraced passes ran different operations"],
                     "reproduce")
    metrics = layers.per_layer(tracer, traced, untraced)
    cover = metrics["trace.coverage"][0]
    result.count([] if cover >= COVERAGE_FLOOR else
                 [f"spans cover {cover:.3f} < {COVERAGE_FLOOR}"], "coverage")
    loose = metrics["trace.unattributed_frac"][0]
    result.count([] if loose <= UNATTRIBUTED_CEILING else
                 [f"outer spans keep {loose:.3f} > {UNATTRIBUTED_CEILING} "
                  "as self time"], "unattributed time")
    print_table("per-layer (traced)", metrics)
    shares = layers.split(tracer, traced)
    print("share of traced wall time (self, inclusive)")
    for name, (own, total) in shares.items():
        print(f"  {name:<36} {own:7.1%} {total:7.1%}")
    return metrics, result, {"split": shares}


def run_all(args, names):
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return EXIT_FAILED
        correct &= last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else EXIT_FAILED


def main(argv=None):
    if not (SRC / "bregman_kaczmarz" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return EXIT_SETUP
    argv = sys.argv[1:] if argv is None else argv
    if os.environ.get(CANONICAL_VAR) != "1":
        # relative script path: the checkout's location leaves no trace
        os.chdir(ROOT)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, "perfbench/run.py", *argv],
                  canonical_env())
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    import bregman_kaczmarz
    if SRC not in Path(bregman_kaczmarz.__file__).resolve().parents:
        print(f"error: bregman_kaczmarz imported from {bregman_kaczmarz.__file__}",
              file=sys.stderr)
        return EXIT_SETUP
    from workloads import WORKLOADS, repetitions

    args = parse_args(argv, list(WORKLOADS), spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"== {workload.name}: {workload.kind} (m,n)=({workload.m},{workload.n}) "
          f"sp={workload.sp} presets={','.join(workload.presets)} "
          f"seed={args.seed} trace={args.trace}")

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
        reps = 1 if args.trace else repetitions(workload, args.seconds,
                                                spec["run_seconds"])
        metrics, result, extra = measure(workload, args.seed, reps,
                                         args.trace, Path(workdir))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing:
        print(f"error: no value in the listed unit for {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_FAILED
    print("report " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "reps": reps, "trace": args.trace, "attempted": result.attempted,
        "failed": result.failed, "metrics": {k: list(v) for k, v in metrics.items()},
        "outcomes": [vars(o) for o in result.outcomes], "op_s": result.op_s,
        **extra, "environment": environment()}))
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
