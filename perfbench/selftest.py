"""Self-tests of the benchmark's own machinery; run.py runs them before
measuring, and they run standalone:

    python3 perfbench/selftest.py

- the output gates fire on corrupted outputs (a changed matrix entry, a
  histogram {1: N^2}, a loop that composes to one component, ...);
- the self-time arithmetic on nested dummy spans with a scripted clock,
  including a recursive call and a call that raises;
- the speed factor's arithmetic, and that the probe's clock leaves the
  kernel's own time out;
- BENCHMARK.json declares exactly the metrics run.py reports.
No `earring` code runs here.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import gates
import speed
import tracing
from metrics import END_TO_END, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def check_gates(problems):
    good = {"exit": 0, "summary": {
        "unknot": 1, "hopf": [2, 2, 2], "pass": True,
        "matrix": [[2, 1, 1], [1, 2, 1], [1, 1, 2]]}}
    _expect(problems, "counts ok", gates.counts(good)[0], 0)
    bad = copy.deepcopy(good)
    bad["summary"]["matrix"][0][2] = 2
    _expect(problems, "counts with one matrix entry changed", gates.counts(bad)[0], 1)
    bad["exit"] = 3
    _expect(problems, "counts with exit code 3", gates.counts(bad)[0], 13)
    _expect(problems, "counts with no summary",
            gates.counts({"exit": 0, "summary": None})[0], 13)

    n = 50
    csv = (2 * n * n, 1e-13, 2e-13)
    grid = {"exit": 0, "summary": {"histogram": {"2": n * n}, "failures": 0,
                                   "min_corner_margin": 0.33, "rows": 2 * n * n}}
    _expect(problems, "sample-moduli ok", gates.sample_moduli(grid, n, 0.19, csv)[0], 0)
    bad = copy.deepcopy(grid)
    bad["summary"]["histogram"] = {"1": n * n}
    _expect(problems, "sample-moduli with histogram {1: N^2}",
            gates.sample_moduli(bad, n, 0.19, csv)[0], n * n)
    bad["summary"]["histogram"] = {"1": 7, "2": n * n - 7}
    _expect(problems, "sample-moduli with 7 one-point fibers",
            gates.sample_moduli(bad, n, 0.19, csv)[0], 7)
    bad = copy.deepcopy(grid)
    bad["summary"]["min_corner_margin"] = 5e-5
    _expect(problems, "sample-moduli with a corner hit",
            gates.sample_moduli(bad, n, 0.19, csv)[0], n * n)
    _expect(problems, "sample-moduli with a bad CSV residual",
            gates.sample_moduli(grid, n, 0.19, (2 * n * n, 1e-6, 0.0))[0], n * n)
    _expect(problems, "sample-moduli with a short CSV",
            gates.sample_moduli(grid, n, 0.19, (10, 0.0, 0.0))[0], n * n)

    loop = {"exit": 0, "summary": {"components": 2, "doubled": True}}
    _expect(problems, "loop ok", gates.compose_loop(loop)[0], 0)
    _expect(problems, "loop with 1 component",
            gates.compose_loop({"exit": 0, "summary": {"components": 1}})[0], 1)
    _expect(problems, "loop with exit code 2",
            gates.compose_loop({"exit": 2, "summary": None})[0], 1)

    arc = {"exit": 0, "summary": {"classifier": {
        "is_homology_fig8": True,
        "counts": {"alpha_minus": [-1, 1], "alpha_plus": [1, 1], "beta": [0, 2]}}}}
    _expect(problems, "arc ok", gates.compose_arc(arc)[0], 0)
    bad = copy.deepcopy(arc)
    bad["summary"]["classifier"]["counts"]["beta"] = [0, 0]
    _expect(problems, "arc with beta (0, 0)", gates.compose_arc(bad)[0], 1)

    m = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    _expect(problems, "pairings ok", gates.pairings(m, copy.deepcopy(m))[0], 0)
    bad = copy.deepcopy(m)
    bad[1][0] = 0
    _expect(problems, "pairings with one entry changed", gates.pairings(m, bad)[0], 1)
    _expect(problems, "bigons ok", gates.bigons(1, 0)[0], 0)
    _expect(problems, "bigons (1, 1)", gates.bigons(1, 1)[0], 1)
    _expect(problems, "algebra with a failed round trip",
            gates.algebra({"mc": True, "round_trip": False})[0], 1)


def check_self_times(problems):
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    # a [0,10] > b [1,4] > c [2,3];  a > d [5,9] > a (recursive) [6,8];
    # a > e [9.5, 9.75] raises
    def a(depth=0):
        if depth:
            tick(2)
            return
        tick(1)
        b()
        tick(1)
        d()
        tick(0.5)
        try:
            e()
        except KeyError:
            pass
        tick(0.25)

    def b():
        tick(1)
        c()
        tick(1)

    def c():
        tick(1)

    def d():
        tick(1)
        a(depth=1)
        tick(1)

    def e():
        tick(0.25)
        raise KeyError("dummy")

    a, b, c, d, e = (tracer.wrap(f, name) for f, name in
                     ((a, "a"), (b, "b"), (c, "c"), (d, "d"), (e, "e")))
    a()
    stats = tracing.aggregate(tracer)
    want = {"a": (2, 10.0, 2.75 + 2.0), "b": (1, 3.0, 2.0), "c": (1, 1.0, 1.0),
            "d": (1, 4.0, 2.0), "e": (1, 0.25, 0.25)}
    for name, (calls, total, own) in want.items():
        s = stats[name]
        _expect(problems, f"span {name} (calls, total_s, self_s)",
                (s["calls"], s["total_s"], s["self_s"]), (calls, total, own))
    _expect(problems, "span e failed", stats["e"]["failed"], 1)
    _expect(problems, "span e ok_frac", stats["e"]["ok_frac"], 0.0)
    _expect(problems, "self times add up to the root span",
            sum(s["self_s"] for s in stats.values()), 10.0)


def check_speed(problems):
    nominal = speed.REF_NOMINAL_S
    _expect(problems, "speed factor of kernel times (nominal, nominal / 2)",
            speed.factor([nominal, nominal / 2]), 1.5)
    probe = speed.Probe()
    c0 = probe.clock()
    probe.sample()
    if probe.clock() - c0 > 0.5 * probe.wall[-1]:
        problems.append("the probe's clock counts the probe's own kernel time")


def check_declared_metrics(problems):
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"BENCHMARK.json unreadable: {exc}")
        return
    _expect(problems, "end_to_end metrics in BENCHMARK.json",
            {m["name"]: m["unit"] for m in declared.get("end_to_end", [])},
            END_TO_END)
    _expect(problems, "per_layer metrics in BENCHMARK.json",
            [(m["name"], m["unit"], m["better"]) for m in declared.get("per_layer", [])],
            [(name, unit, better) for name, _, _, unit, better in per_layer_metrics()])


def run_all():
    problems = []
    check_gates(problems)
    check_self_times(problems)
    check_speed(problems)
    check_declared_metrics(problems)
    return problems


if __name__ == "__main__":
    found = run_all()
    for p in found:
        print("FAIL", p)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
