"""Command-line front end: sampling, composing, classifying, algebra, plots.

Exit codes: 0 success, 2 numerical failure, 3 classification mismatch,
4 I/O or parse error.  All commands are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import algebra as al
from . import correspondence as co
from . import curves as cv
from . import moduli as md
from . import topology as tp

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CLASSIFY = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    s: float = 0.19
    delta: float = 0.2
    grid: int = 50
    twist_signs: tuple = (1, 1, 1, 1)
    out: str = "out"

    def validate(self):
        if not (0 <= self.s < math.pi / 4):
            raise ValueError("s must satisfy 0 <= s < pi/4")
        if not (0 < self.delta < math.pi / 4):
            raise ValueError("delta must satisfy 0 < delta < pi/4")
        if type(self.grid) is not int or self.grid < 1:
            raise ValueError("grid must be a positive integer")

    @staticmethod
    def load(path=None, overrides=None):
        data = {}
        if path:
            with open(path) as f:
                data.update(json.load(f))
        for key, val in (overrides or {}).items():
            if val is not None:
                data[key] = val
        unknown = sorted(set(data) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        cfg = RunConfig(**{k: (tuple(v) if k == "twist_signs" else v)
                           for k, v in data.items()})
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# SVG emission: fundamental domain [0, pi] x [0, 2 pi], y inverted


class SvgPlot:
    width = 440
    height = 840
    margin = 30
    step = 0.01         # curve_wrapped's resampling step

    def __init__(self):
        self.body = []

    def _xy(self, g, t):
        """Picture coordinates of (gamma, theta): numbers or arrays."""
        x = self.margin + g / math.pi * (self.width - 2 * self.margin)
        y = self.height - self.margin - t / (2 * math.pi) * (self.height - 2 * self.margin)
        return x, y

    def polyline(self, samples, color, width):
        samples = np.asarray(samples, dtype=float)
        x, y = self._xy(samples[:, 0], samples[:, 1])
        pts = " ".join(map("%.3f,%.3f".__mod__, zip(x.tolist(), y.tolist())))
        self.body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width:.2f}"/>')

    def frame(self):
        x0, y0 = self._xy(0, 0)
        x1, y1 = self._xy(math.pi, 2 * math.pi)
        self.body.append(
            f'<rect x="{min(x0,x1):.3f}" y="{min(y0,y1):.3f}" '
            f'width="{abs(x1-x0):.3f}" height="{abs(y1-y0):.3f}" '
            'fill="none" stroke="#888888" stroke-width="1.00"/>')
        for cg, ct in ((0, 0), (0, math.pi), (math.pi, 0), (math.pi, math.pi),
                       (0, 2 * math.pi), (math.pi, 2 * math.pi)):
            x, y = self._xy(cg, ct)
            r = 5
            self.body.append(
                f'<path d="M {x-r:.3f} {y-r:.3f} L {x+r:.3f} {y+r:.3f} '
                f'M {x-r:.3f} {y+r:.3f} L {x+r:.3f} {y-r:.3f}" '
                'stroke="#000000" stroke-width="1.50"/>')

    def curve_wrapped(self, curve, color, width):
        """Draw a curve by canonical fundamental-domain representatives.

        The polyline is split where the representative jumps across the
        domain boundary.
        """
        canon = cv.to_canonical(curve.resampled(self.step).samples)
        jumps = np.flatnonzero(np.max(np.abs(np.diff(canon, axis=0)), axis=1) > 0.5)
        for run in np.split(canon, jumps + 1):
            if len(run) > 1:
                self.polyline(run, color, width)

    def tostring(self):
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n'
                '<rect width="100%" height="100%" fill="#ffffff"/>\n')
        return head + "\n".join(self.body) + "\n</svg>\n"

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.tostring())


# ---------------------------------------------------------------------------
# Commands


def cmd_sample_moduli(cfg, args):
    G, T = md.sample_grid(cfg.delta, cfg.grid)
    if cfg.s == 0 and args.system == "F":
        # documented circle-fiber mode at s = 0: Re(h a) = 0 cuts a circle
        nus = np.linspace(0, 2 * math.pi, 36, endpoint=False)
        h = np.stack([np.zeros_like(nus), -np.sin(nus), np.cos(nus)], axis=-1)
        f2, f3 = md.eval_F(G[:, None], T[:, None], h, 0.0)
        rows = np.column_stack([np.repeat(G, len(nus)), np.repeat(T, len(nus)),
                                np.tile(h, (len(G), 1)), np.zeros(f2.size),
                                f2.ravel(), f3.ravel()])
        hist = {36: len(G)}
    else:
        if cfg.s == 0:
            pairs = md.sigma_sections(G, T)
        else:
            try:
                h1, h2, _, _ = md.solve_fiber_grid(G, T, cfg.s)
            except md.NoConvergence as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            pairs = (h1, h2)
        counts = np.where(np.linalg.norm(pairs[0] - pairs[1], axis=-1) > 1e-6, 2, 1)
        # one row per distinct fiber point, point-major with the + branch first
        rows = np.stack([np.column_stack([G, T, h, np.full(len(G), cfg.s),
                                          *md.eval_F(G, T, h, cfg.s)])
                         for h in pairs], axis=1)
        rows = rows[np.arange(2)[None, :] < counts[:, None]]
        vals, cnts = np.unique(counts, return_counts=True)
        hist = {int(v): int(c) for v, c in zip(vals, cnts)}

    margin = None
    if cfg.s != 0:
        m0 = np.sin(G) ** 2 + np.sin(T) ** 2
        m1 = md.corner_margin(G, T, pairs[0], cfg.s)
        m2 = md.corner_margin(G, T, pairs[1], cfg.s)
        margin = float(min(np.min(m0), np.min(m1), np.min(m2)))

    path = args.out or (cfg.out + ".csv")
    with open(path, "w") as f:
        f.write("gamma,theta,hx,hy,hz,s,F2,F3\n")
        fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        # in blocks: text and lists for the whole grid at once add 4.6 MB to the peak RSS
        for i in range(0, len(rows), 256):
            f.write("".join(fmt % tuple(row) for row in rows[i:i + 256].tolist()))
    # always 0: a failed grid solve exits 2 above; perfbench's gate reads it
    summary = {"histogram": hist, "min_corner_margin": margin,
               "failures": 0, "rows": len(rows)}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _load_curve(path):
    """The curve in a JSON file, or None after saying why it cannot be read."""
    try:
        with open(path) as f:
            return cv.Curve.from_json(json.load(f))
    except Exception as exc:
        print(f"error: cannot read curve: {exc}", file=sys.stderr)


def _save_curves(prefix, curve, components, color, **extra):
    """SVG picture and JSON record of a command's output curves at prefix."""
    plot = SvgPlot()
    plot.frame()
    plot.curve_wrapped(curve, "#777777", 1.0)
    for comp in components:
        plot.curve_wrapped(comp, color, 2.2)
    plot.save(prefix + ".svg")
    with open(prefix + ".json", "w") as f:
        f.write(json.dumps({"components": [c.to_json() for c in components], **extra}))


def cmd_compose(cfg, args):
    curve = _load_curve(args.curve)
    if curve is None:
        return EXIT_IO
    if cfg.s == 0:
        print(json.dumps({"mode": "s=0", "multiplicity": 2,
                          "components": [curve.to_json(), curve.to_json()]}))
        return EXIT_OK
    try:
        out = co.compose_curve(curve, cfg.s)
    except cv.CurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (co.ContinuationStall, co.NonTransverse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    report = {"components": len(out.components),
              "is_connected": out.is_connected, "s": cfg.s}
    if curve.kind == "arc":
        verdict = tp.classify_homology_fig8(out.components, curve, cfg.s)
        report["classifier"] = verdict
    else:
        report["doubled"] = len(out.components) == 2
    _save_curves(args.out or cfg.out, curve, out.components, "#cc0000", report=report)
    print(json.dumps(report, sort_keys=True, default=str))
    return EXIT_OK


def cmd_model_map(cfg, args):
    curve = _load_curve(args.curve)
    if curve is None:
        return EXIT_IO
    try:
        out = co.model_map_vdelta(curve, cfg.delta, twist_signs=cfg.twist_signs)
    except co.BadDelta as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _save_curves(args.out or cfg.out, curve, out.components, "#0044cc")
    print(json.dumps({"components": len(out.components),
                      "is_connected": out.is_connected}))
    return EXIT_OK


EXPECTED_MATRIX = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def counting_matrix(s=0.05):
    """The pairing matrix assembled from generalized-point counts."""
    p = math.pi
    arcs = [cv.line_arc((0, 0), (p, 0)), cv.line_arc((0, 0), (p, p)),
            cv.line_arc((0, 0), (0, p))]
    partners = [cv.line_arc((0, 0), (p, -2 * p)), cv.line_arc((0, 0), (p, -p)),
                cv.line_arc((0, 0), (2 * p, p))]
    M = np.zeros((3, 3), dtype=int)
    for i in range(3):
        for j in range(3):
            if i == j:
                if i == 1:
                    M[i, j] = co.count_generalized_points(partners[1], arcs[1], s)
                else:
                    M[i, j] = co.count_generalized_points(arcs[i], partners[i], s)
            else:
                M[i, j] = co.count_generalized_points(arcs[i], arcs[j], s)
    return M


def cmd_counts(cfg, args):
    if cfg.s == 0:
        print("error: bad config: counts needs 0 < s < pi/4", file=sys.stderr)
        return EXIT_IO
    try:
        M = counting_matrix(cfg.s)
    except (co.NonTransverse, md.NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # the unknot pair (bottom, diagonal) is M[0][1]; the Hopf pairs are the
    # diagonal entries
    unknot = int(M[0, 1])
    hopfs = [int(M[i, i]) for i in range(3)]
    ok = (unknot == 1 and all(h == 2 for h in hopfs)
          and M.tolist() == EXPECTED_MATRIX)
    print(json.dumps({"unknot": unknot, "hopf": hopfs, "matrix": M.tolist(),
                      "expected": EXPECTED_MATRIX,
                      "pass": bool(ok)}, sort_keys=True))
    return EXIT_OK if ok else EXIT_CLASSIFY


def cmd_taylor(cfg, args):
    if args.points < 1:
        print("error: bad config: taylor needs --points >= 1", file=sys.stderr)
        return EXIT_IO
    rng = np.random.default_rng(args.seed)
    slopes = []
    for _ in range(args.points):
        g, t = rng.uniform(0, 2 * math.pi, 2)
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        ss = np.array([1e-2, 1e-3, 1e-4])
        gaps = np.array([md.taylor_gap(g, t, h, s) for s in ss])
        if np.any(gaps <= 0):
            continue
        slope = np.polyfit(np.log(ss), np.log(gaps), 1)[0]
        slopes.append(float(slope))
    print(json.dumps({"slopes": slopes, "min_slope": min(slopes)}))
    return EXIT_OK if min(slopes) >= 0.9 else EXIT_NUMERICAL


def cmd_corner_gap(cfg, args):
    gap = md.corner_system_gap(cfg.s)
    print(json.dumps({"s": cfg.s, "gap": gap}))
    return EXIT_OK


def _read_complex(path):
    with open(path) as f:
        text = f.read()
    if path.endswith(".json"):
        return al.TwistedComplex.from_json(json.loads(text))
    return al.TwistedComplex.from_text(text)


def cmd_algebra(cfg, args):
    try:
        if args.subcommand == "mul":
            x = al.Element.parse(args.args[0])
            y = al.Element.parse(args.args[1])
            print(str(al.mul_B(x, y)))
            return EXIT_OK
        if args.subcommand == "mc-check":
            cx = _read_complex(args.args[0])
            ok, bad = al.mc_check(cx)
            print(json.dumps({"maurer_cartan": ok,
                              "offending_entry": bad and list(bad)}))
            return EXIT_OK if ok else EXIT_CLASSIFY
        if args.subcommand in ("ii", "reduce"):
            op = al.functor_II if args.subcommand == "ii" else al.reduce
            sys.stdout.write(op(_read_complex(args.args[0])).to_text())
            return EXIT_OK
        if args.subcommand == "to-curve":
            cx = _read_complex(args.args[0])
            curve = al.complex_to_curve(cx)
            out_path = (args.out or cfg.out)
            with open(out_path + ".json", "w") as f:
                json.dump(curve.to_json(), f)
            plot = SvgPlot()
            plot.frame()
            plot.curve_wrapped(curve, "#007700", 2.0)
            plot.save(out_path + ".svg")
            print(json.dumps({"kind": curve.kind, "samples": len(curve)}))
            return EXIT_OK
        if args.subcommand == "from-curve":
            curve = _load_curve(args.args[0])
            if curve is None:
                return EXIT_IO
            cx = al.curve_to_complex(curve)
            sys.stdout.write(cx.to_text())
            return EXIT_OK
    except (al.AlgebraError, al.UnsupportedArrow, al.TopLeftCornerHit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASSIFY
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("error: unknown algebra subcommand", file=sys.stderr)
    return EXIT_IO


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="earring",
        description="Perturbed traceless moduli of the earring tangle and its "
                    "pillowcase correspondence")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--s", type=float, default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--twist-signs", type=int, nargs=4, default=None)
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-moduli")
    p.add_argument("--system", choices=["H", "F"], default="H")
    p.add_argument("--out", default=argparse.SUPPRESS)

    p = sub.add_parser("compose")
    p.add_argument("curve")
    p.add_argument("--out", default=argparse.SUPPRESS)

    p = sub.add_parser("model-map")
    p.add_argument("curve")
    p.add_argument("--out", default=argparse.SUPPRESS)

    sub.add_parser("counts")

    p = sub.add_parser("taylor")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("corner-gap")

    p = sub.add_parser("algebra")
    p.add_argument("subcommand", choices=["mul", "mc-check", "ii", "reduce",
                                          "to-curve", "from-curve"])
    p.add_argument("args", nargs="*")
    p.add_argument("--out", default=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    overrides = {"s": args.s, "delta": args.delta, "grid": args.grid,
                 "out": args.out, "twist_signs": args.twist_signs}
    try:
        cfg = RunConfig.load(args.config, overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_IO

    handlers = {
        "sample-moduli": cmd_sample_moduli,
        "compose": cmd_compose,
        "model-map": cmd_model_map,
        "counts": cmd_counts,
        "taylor": cmd_taylor,
        "corner-gap": cmd_corner_gap,
        "algebra": cmd_algebra,
    }
    try:
        return handlers[args.command](cfg, args)
    except OSError as exc:         # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
