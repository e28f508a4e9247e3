#!/usr/bin/env python3
"""Recompute the stored references of the benchmark's output checks.

    python3 bench/make_references.py

Runs one pass of every workload at seed 42 and writes into
``bench/references.json`` the seed-42 argmax angles, fastICA convergence
count and CSV digests, and the surrogate scan and uniform-mixture J[f0]
values.  The hand-set tolerances already in the file (band argmax
tolerance, J[f0] tolerance and slope ranges) are kept.
"""

import json
import os
import shutil
import sys

import run

SEED = 42


def main() -> int:
    sys.path[:0] = [str(run.SRC)]
    from workloads import WORKLOADS, Tally

    path = run.BENCH_DIR / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    workdir = run.ROOT / ".bench_work" / f"references-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            workdir.mkdir(parents=True)
            workload = cls(SEED, workdir, refs)
            workload.prepare()
            tally = Tally()
            workload.run_pass(tally)
            if tally.failed:
                raise RuntimeError(f"{name}: {tally.problems}")
            obs = workload.observe()
            entry = refs.setdefault(name, {})
            seed_entry = entry.setdefault("seeds", {}).setdefault(str(SEED), {})
            seed_entry["csv_sha256"] = obs["csv_sha256"]
            if name == "surrogate":
                entry["scan_j_f0"] = obs["scan_j_f0"]
                entry["mixture_j_f0"] = obs["mixture_j_f0"]
            else:
                seed_entry["argmax_deg"] = obs["argmax_deg"]
            if "fastica_nonconverged" in obs:
                seed_entry["fastica_nonconverged"] = obs["fastica_nonconverged"]
            shutil.rmtree(workdir)
            print(f"{name}: done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
