#!/usr/bin/env python3
"""icaprobe benchmark: one workload, timed passes, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload figures --seed 42 --seconds 25 --trace 0

It builds nothing and installs nothing: ``src/`` of the same checkout is
put first on ``sys.path``, and the run stops with exit code 2 when it is
missing.  Inputs come from ``--seed``.  After one set-up measurement in
fresh interpreters, passes of the workload run back to back in this
process until ``--seconds`` is spent, the first of them a warm-up that is
not timed; every pass's outputs are checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from a traced run (see ``tracer.py``) next to an untraced one on
the same inputs, so the tracing overhead is their difference.  The lines before it are for
people: every metric by name and unit, the environment and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5

#: What every CLI process pays before its first solve: the import, the K
#: function on the default order-200 rule, and the order-400 rule the auto
#: backend re-checks each solve on.  The two rule builds are timed apart.
SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import icaprobe
t1 = time.perf_counter()
icaprobe.gaussian_weighted_rule(200)
t2 = time.perf_counter()
icaprobe.build_k(icaprobe.logcosh())
t3 = time.perf_counter()
icaprobe.gaussian_weighted_rule(400)
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "rule_cold_s": (t2 - t1) + (t4 - t3)}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

THREADS_ENV = "ICAPROBE_THREADS"


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int) -> dict:
    """Medians over fresh interpreters: set-up wall time, import, rule builds."""
    walls, parts = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(walls),
        **{k: statistics.median(p[k] for p in parts) for k in parts[0]},
    }


def _check(workload, tally) -> None:
    """Check a pass; outputs too broken to read are one failed operation."""
    try:
        workload.check(tally)
    except (OSError, ValueError, KeyError, IndexError) as err:
        tally.record(False, f"outputs unreadable: {type(err).__name__}: {err}")


def timed_passes(workload, tally, seconds: float, warmup: bool) -> tuple[list, list]:
    """Run passes until the next one would overrun ``seconds``.

    With ``warmup`` the first pass inside the window is a warm-up: it is
    checked but its times are left out.  At least one pass is timed.
    """
    walls, cpus = [], []
    start = time.perf_counter()
    if warmup:
        workload.run_pass(tally)
        _check(workload, tally)
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        workload.run_pass(tally)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        _check(workload, tally)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a checkout without its git history
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def prime_caches() -> None:
    """Fill the rule cache a first pass would otherwise pay for (see setup_s)."""
    import icaprobe

    icaprobe.gaussian_weighted_rule(200)
    icaprobe.gaussian_weighted_rule(400)


def run(workload_name: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, Tally

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup(SETUP_REPEATS)

    workdir = ROOT / ".bench_work" / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir, refs)
        workload.prepare()
        prime_caches()
        tally = Tally()
        walls, cpus = timed_passes(workload, tally, seconds / 2.0 if trace else seconds, True)
        if trace:
            tracer = Tracer()
            with tracer:
                traced, _ = timed_passes(workload, tally, seconds / 2.0, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    pass_s = statistics.median(walls)
    if trace:
        values = layer_metrics(tracer, len(traced))
        values["quadrature.rule_cold_s"] = setup["rule_cold_s"]
        values["trace.pass_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.pass_s"] - pass_s
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        values = {
            "setup_s": setup["setup_s"],
            "pass_s": pass_s,
            "pass_cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    passes = len(walls) + (len(traced) if trace else 0)
    print(f"workload {workload_name} seed {seed}: {passes} timed passes after a warm-up")
    print(f"  set-up medians of {SETUP_REPEATS} interpreters: import {setup['import_s']:.4f} s, "
          f"cold order-200 and order-400 rules {setup['rule_cold_s']:.4f} s")
    print("  untraced pass walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    if trace:
        print("  traced pass walls (s):   " + " ".join(f"{w:.4f}" for w in traced))
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':32s} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for key, value in workload.facts.items():
        print(f"  {key:32s} {value}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    if not (SRC / "icaprobe" / "__init__.py").is_file():
        print(f"error: no icaprobe sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # every commit runs the library's default worker count
    os.environ.pop(THREADS_ENV, None)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import icaprobe

    if Path(icaprobe.__file__).resolve().parent != (SRC / "icaprobe").resolve():
        print(f"error: imported icaprobe from {icaprobe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
