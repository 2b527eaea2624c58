"""All measured rounds of one run of one workload, in one interpreter.

Started by run.py.  Everything from the parent's spawn until the inputs are
built counts as set-up.  The worker then times the speed probe's kernel a
few times and prints one line {"setup_s", "ops", "speed_factor"} and,
unless --setup-only, runs rounds of the workload's jobs one after another
while the next round is expected to end within --seconds, printing one line
per round and a last line {"done", "peak_rss_mb", ...}.  With --trace the
first half of the window runs untraced rounds and the second half traced
ones (at least one of each).  A workload in workloads.WARM_UP first runs
one untimed round inside the window.

Every job runs with the speed probe armed (speed.py): its wall and CPU
times exclude the probe's kernel and are reported both as measured
(`raw_wall_s`, `raw_cpu_s`) and in reference seconds (`wall_s`, `cpu_s`).
The garbage collector is emptied before each job, outside the timed region.

    python3 perfbench/worker.py --workload NAME --seed N --t0-ns T \
        --out-dir DIR --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import speed
import tracing
import workloads

# Probe samples right after set-up that rescale it; the first, with cold
# caches, is dropped.
SETUP_PROBES = 8


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="run-", dir=args.out_dir)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        probe = speed.Probe()
        for _ in range(SETUP_PROBES + 1):
            probe.sample()
        _emit({"setup_s": setup_s, "ops": sum(j.ops for j in jobs),
               "speed_factor": speed.factor(probe.wall[1:])})
        if not args.setup_only:
            run_rounds(args, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_rounds(args, jobs):
    probe = speed.Probe()
    tracer = None
    start = time.monotonic()
    if args.workload in workloads.WARM_UP:
        for job in jobs:
            try:
                job.run()
            except (Exception, SystemExit):
                pass                    # it fails again, and counts, below
    while True:
        t0 = time.monotonic()
        _emit(run_round(args, jobs, probe, tracer))
        last = time.monotonic() - t0
        ends = time.monotonic() - start + last
        if args.trace and tracer is None:
            if ends > args.seconds / 2:
                tracer = tracing.Tracer(clock=probe.clock)
                tracing.install(tracer)
        elif ends > args.seconds:
            break
    done = {"done": True,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "probe_samples": len(probe.wall)}
    if tracer is not None:
        done["layers"] = tracing.aggregate(tracer)
        done["spans"] = len(tracer.start)
        tracer.save(os.path.join(args.out_dir, f"spans-{args.workload}.npz"))
    _emit(done)


def run_round(args, jobs, probe, tracer):
    records = []
    for job in jobs:
        block = tracer.span(f"job.{job.name}") if tracer else contextlib.nullcontext()
        error = None
        gc.collect()
        first = len(probe.wall)
        probe.sample()
        w0, c0 = probe.clock(), probe.cpu_clock()
        with probe.armed(), block:
            try:
                out = job.run()
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
        wall, cpu = probe.clock() - w0, probe.cpu_clock() - c0
        probe.sample()
        f_wall, f_cpu = probe.factors(first)
        if error is None:
            try:
                failed, problems = job.check(out)
            except Exception:
                failed, problems = job.ops, [traceback.format_exc(limit=3)]
        else:
            failed, problems = job.ops, [error]
        for p in problems:
            print(f"[{args.workload}] {job.name}: {p}", file=sys.stderr)
        records.append({"job": job.name, "ops": job.ops, "failed": failed,
                        "wall_s": wall * f_wall, "cpu_s": cpu * f_cpu,
                        "raw_wall_s": wall, "raw_cpu_s": cpu,
                        "probe_samples": len(probe.wall) - first,
                        "problems": problems})
    return {"traced": tracer is not None, "jobs": records,
            "ops": sum(r["ops"] for r in records),
            "failed": sum(r["failed"] for r in records)}


if __name__ == "__main__":
    sys.exit(main())
