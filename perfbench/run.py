"""Benchmark entry point for the `earring` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts SETUP_SAMPLES set-up-only interpreters, then one worker (worker.py)
that runs rounds of the workload's jobs one after another while the next
round is expected to end within S seconds; the load is a closed loop with a
single client.  Every job runs on one thread with BLAS pinned to one
thread, and every output is checked.  All times are in reference seconds:
measured seconds rescaled by the speed probe of speed.py, so that the
host's drift in speed cancels; the measured values are in the record.

--trace 0 reports the end-to-end metrics:
  setup_s      spawn -> `import earring` -> inputs built, median over
               SETUP_SAMPLES fresh interpreters
  wall_s       wall time of one round: per job the median over the
               rounds, summed over the jobs
  cpu_s        process CPU time (user + sys) of one round, likewise
  ops_per_s    checked operations of a round per wall_s
  peak_rss_mb  peak resident memory of the worker
--trace 1 runs untraced rounds for the first half of the window and traced
ones for the second, and reports the per-layer metrics of the traced
rounds per round (see tracing.py), the tracing overhead (median traced
minus median untraced round wall time) and the failed-operation fraction.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  A full record with the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import selftest
import speed
from metrics import END_TO_END, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SETUP_SAMPLES = 9
RUN_BUDGET_S = 165.0
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def environment():
    """Machine and library facts stored next to every result."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(d, "level")).strip()
        kind = _read(os.path.join(d, "type")).strip()
        caches[f"L{level} {kind}"] = _read(os.path.join(d, "size")).strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:                     # recorded, never fatal
        blas = {"error": repr(exc)}
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "caches": caches,
            "python": sys.version, "platform": platform.platform(),
            **versions, "blas": blas, "child_thread_env": THREAD_ENV}


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class SetupFailed(RuntimeError):
    pass


def run_child(args, setup_only, timeout):
    """One worker; returns its records: set-up line, rounds, last line."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", str(OUT), "--seconds", str(args.seconds)]
    cmd += ["--trace"] * bool(args.trace) + ["--setup-only"] * setup_only
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(t0)], env=_child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
        stdout = proc.stdout
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        stdout = exc.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    if not records or "setup_s" not in records[0]:
        raise SetupFailed("worker did not finish set-up")
    return records


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure_setup(args):
    """Set-up times of SETUP_SAMPLES fresh interpreters: (raw, reference) s.

    Each is rescaled by the speed factor of probe samples the child takes
    right after its set-up.
    """
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        rec = run_child(args, True, 30.0)[0]
        raw.append(rec["setup_s"])
        ref.append(rec["setup_s"] * rec["speed_factor"])
    return raw, ref


def round_wall(rnd, key="wall_s"):
    return sum(j[key] for j in rnd["jobs"])


def metrics_of(args, setup_ref, rounds, done, attempted, failed):
    plain = [r for r in rounds if not r["traced"]]
    if not args.trace:
        per_job = {}
        for r in plain:
            for j in r["jobs"]:
                per_job.setdefault(j["job"], []).append(j)
        wall = sum(_median([j["wall_s"] for j in js]) for js in per_job.values())
        cpu = sum(_median([j["cpu_s"] for j in js]) for js in per_job.values())
        values = {
            "setup_s": _median(setup_ref),
            "wall_s": wall,
            "cpu_s": cpu,
            "ops_per_s": plain[0]["ops"] / wall,
            "peak_rss_mb": done["peak_rss_mb"],
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    traced = [r for r in rounds if r["traced"]]
    scale = (sum(round_wall(r) for r in traced)
             / sum(round_wall(r, "raw_wall_s") for r in traced))
    out = {}
    for name, layer, stat, unit, _ in per_layer_metrics():
        if layer is not None:
            value = done["layers"].get(layer, {}).get(stat, 0)
            if stat in ("total_s", "self_s"):
                value *= scale / len(traced)
            elif stat != "ok_frac":
                value /= len(traced)
        elif name == "trace.overhead_s":
            value = (_median([round_wall(r) for r in traced])
                     - _median([round_wall(r) for r in plain]))
        else:
            value = failed / attempted
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["moduli-grid", "counting", "compose-classify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "earring" / "__init__.py").is_file():
        print(f"error: no earring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = selftest.run_all()
    if problems:
        print("error: benchmark self-test failed: " + "; ".join(problems),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    try:
        setup_raw, setup_ref = ([], []) if args.trace else measure_setup(args)
        records = run_child(args, False, RUN_BUDGET_S - (time.monotonic() - start))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = [r for r in records if "jobs" in r]
    done = records[-1] if records[-1].get("done") else None
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if done is None or {r["traced"] for r in rounds} != {False, bool(args.trace)}:
        print("error: the worker stopped before its last round", file=sys.stderr)
        return 1

    metrics = metrics_of(args, setup_ref, rounds, done, attempted, failed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "reference": {"nominal_s": speed.REF_NOMINAL_S,
                            "probe_interval_s": speed.PROBE_INTERVAL_S},
              "setup_raw_s": setup_raw, "setup_ref_s": setup_ref,
              "rounds": rounds, "done": done, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
