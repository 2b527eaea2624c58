"""The three workloads: their inputs, jobs and output gates.

A workload function takes the workload seed and a scratch directory, builds
the inputs (curve files, loop family) and returns its jobs.  A job's `run`
is the timed part and calls the `earring` CLI entry point or the public
library functions; its `check` reads the outputs back and applies a gate
from `gates.py` outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from earring import algebra as al
from earring import cli
from earring import correspondence as co
from earring import curves as cv
from earring import pillowcase as pc
from earring import topology as tp

import gates

PI = math.pi

# moduli-grid: the base grid side and the perturbation parameters; s = 0 is
# the closed-form sections mode.
N_GRID = 50
GRID_S = (0.05, 0.1, 0.19, 0.0)

# compose-classify: the paper's fixed arcs and the seeded loop family.
SKEIN_ARCS = {"bottom": ((0, 0), (PI, 0)), "diagonal": ((0, 0), (PI, PI)),
              "right": ((PI, 0), (PI, PI))}
BASIS_ARCS = [((0, 0), (PI, 0)), ((0, 0), (PI, PI)), ((0, 0), (0, PI))]
LOOP_S = (0.05, 0.01)
LOOP_MIN_CORNER_DIST = 0.3


@dataclass
class Job:
    name: str
    ops: int
    run: Callable[[], dict]
    check: Callable[[dict], tuple]


def run_cli(argv):
    """`earring <argv>` in this process; exit code and last stdout line as JSON."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return {"exit": code, "summary": summary}


def _read_csv(path):
    """(data rows, max |F2|, max |F3|) of a sample-moduli CSV."""
    if not os.path.exists(path):
        return 0, math.inf, math.inf
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(data) == 0:
        return 0, math.inf, math.inf
    return len(data), float(np.max(np.abs(data[:, 6]))), \
        float(np.max(np.abs(data[:, 7])))


def moduli_grid(seed, workdir):
    """sample-moduli on the fixed N_GRID x N_GRID base grid; the seed is unused."""
    jobs = []
    for s in GRID_S:
        csv = os.path.join(workdir, f"grid_s{s}.csv")
        argv = ["--s", repr(s), "--grid", str(N_GRID), "sample-moduli", "--out", csv]
        jobs.append(Job(
            f"sample-moduli-s{s}", N_GRID * N_GRID,
            lambda argv=argv: run_cli(argv),
            lambda out, s=s, csv=csv: gates.sample_moduli(
                out, N_GRID, s, _read_csv(csv))))
    return jobs


def counting(seed, workdir):
    """`earring --s 0.05 counts`: fixed arcs; the seed is unused."""
    return [Job("counts", 13, lambda: run_cli(["--s", "0.05", "counts"]),
                gates.counts)]


def loop_family(seed):
    """One circle and one axis-aligned ellipse drawn from the seed.

    Both stay inside gamma in [0.35, pi - 0.35], hence at corner distance at
    least LOOP_MIN_CORNER_DIST (criterion 5); sizes are drawn from narrow
    ranges so that every seed asks for about the same amount of work.
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.45, 0.55)
    center = (rng.uniform(r + 0.35, PI - r - 0.35), rng.uniform(0.0, 2 * PI))
    circle = cv.circle_loop(center, r, n=129)
    ag, at = rng.uniform(0.6, 0.8), rng.uniform(0.4, 0.5)
    g0, t0 = rng.uniform(ag + 0.35, PI - ag - 0.35), rng.uniform(0.0, 2 * PI)
    ang = np.linspace(0.0, 2 * PI, 161)
    ellipse = cv.Curve("loop", np.stack([g0 + ag * np.cos(ang),
                                         t0 + at * np.sin(ang)], axis=-1))
    loops = {"circle": circle, "ellipse": ellipse}
    for name, loop in loops.items():
        d = float(np.min(pc.corner_dist(loop.samples[:, 0], loop.samples[:, 1])))
        if d < LOOP_MIN_CORNER_DIST:
            raise ValueError(f"{name} loop comes within {d:.3f} of a corner")
    return loops


def _write_curve(curve, path):
    with open(path, "w") as f:
        json.dump(curve.to_json(), f)
    return path


def _pairings(basis):
    model = np.zeros((3, 3), dtype=int)
    composed = np.zeros((3, 3), dtype=int)
    for i, a in enumerate(basis):
        f8 = co.model_map_vdelta(a, 0.2).components[0]
        comp = co.compose_curve(a, 0.19)
        for j, b in enumerate(basis):
            model[i, j] = tp.intersection_number(f8, b).algebraic
            composed[i, j] = sum(tp.intersection_number(c, b).algebraic
                                 for c in comp.components)
    # output curves carry no preferred orientation: normalize each row by
    # the sign of its diagonal pairing
    for m in (model, composed):
        m *= np.sign(np.diag(m))[:, None]
    return {"model": model.tolist(), "composed": composed.tolist()}


def _bigons():
    (a_plain, b_fig8), (a_fig8, b_plain) = tp.bigon_panels()
    return {"right": tp.count_bigons(a_plain, b_fig8),
            "middle": tp.count_bigons(a_fig8, b_plain)}


def _algebra():
    dot, circ = al.IDEM_DOT, al.IDEM_CIRC
    t3 = al.TwistedComplex([circ, dot, dot, dot],
                           {(0, 1): "S1", (1, 2): "D1", (2, 3): "S2S1"})
    doubled = al.functor_II(t3)
    reduced = al.reduce(doubled)
    expected = al.TwistedComplex(
        [circ, dot, dot, dot] * 2,
        {(0, 1): "S1", (1, 2): "D1", (2, 3): "S2S1", (0, 4): "D2",
         (4, 5): "S1", (5, 6): "D1", (6, 7): "S2S1", (3, 7): "D1"})
    fig8 = al.TwistedComplex([dot, dot], {(0, 1): "D1+S2S1"})
    return {
        "reduced_matches": reduced.same_as(expected),
        "mc_doubled": al.mc_check(doubled)[0],
        "mc_reduced": al.mc_check(reduced)[0],
        "round_trip_t3": al.curve_to_complex(al.complex_to_curve(t3)).same_as(t3),
        "round_trip_fig8": al.curve_to_complex(al.complex_to_curve(fig8)).same_as(fig8),
    }


def compose_classify(seed, workdir):
    """Skein-arc and loop composes, criterion-7 pairings, bigons, algebra."""
    jobs = []
    for name, (p, q) in SKEIN_ARCS.items():
        path = _write_curve(cv.line_arc(p, q, n=129),
                            os.path.join(workdir, f"arc_{name}.json"))
        argv = ["--s", "0.19", "compose", path,
                "--out", os.path.join(workdir, f"out_{name}")]
        jobs.append(Job(f"compose-arc-{name}", 1,
                        lambda argv=argv: run_cli(argv), gates.compose_arc))
    for name, loop in loop_family(seed).items():
        path = _write_curve(loop, os.path.join(workdir, f"loop_{name}.json"))
        for s in LOOP_S:
            argv = ["--s", repr(s), "compose", path,
                    "--out", os.path.join(workdir, f"out_{name}_{s}")]
            jobs.append(Job(f"compose-loop-{name}-s{s}", 1,
                            lambda argv=argv: run_cli(argv), gates.compose_loop))
    basis = [cv.line_arc(p, q, n=129) for p, q in BASIS_ARCS]
    jobs.append(Job("pairings", 1, lambda: _pairings(basis),
                    lambda out: gates.pairings(out["model"], out["composed"])))
    jobs.append(Job("bigons", 1, _bigons,
                    lambda out: gates.bigons(out["right"], out["middle"])))
    jobs.append(Job("algebra", 1, _algebra, gates.algebra))
    return jobs


# Workloads that run one untimed round before the timed ones, because their
# jobs are slower the first time in a process: in compose-classify the
# pairings job page-faults its heap in (about 440k minor faults on the way
# to a 300 MB peak, none later) and takes 10-20 % longer, bigons up to 50 %
# and the composes 5-10 %.  The other workloads' first rounds are not
# slower, and a counting round would not fit twice in the window.
WARM_UP = {"compose-classify"}

WORKLOADS = {
    "moduli-grid": moduli_grid,
    "counting": counting,
    "compose-classify": compose_classify,
}
