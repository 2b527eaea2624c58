import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from earring import cli
from earring import correspondence as co
from earring import curves as cv


def run(argv):
    return cli.main(argv)


def test_corner_gap_command(capsys):
    assert run(["--s", "0.19", "corner-gap"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap"] == pytest.approx(0.19, abs=1e-6)


def test_taylor_command(capsys):
    assert run(["taylor", "--points", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_slope"] >= 0.9


def test_sample_moduli_histogram(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run(["--s", "0.19", "--grid", "10", "sample-moduli",
                "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["histogram"] == {"2": 100}
    header = out.read_text().splitlines()[0]
    assert header == "gamma,theta,hx,hy,hz,s,F2,F3"


def test_sample_moduli_sections_mode(tmp_path, capsys):
    out = tmp_path / "m0.csv"
    assert run(["--s", "0", "--grid", "6", "sample-moduli", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["histogram"] == {"2": 36}


def test_sample_moduli_circle_mode(tmp_path, capsys):
    out = tmp_path / "mF.csv"
    assert run(["--s", "0", "--grid", "5", "sample-moduli", "--system", "F",
                "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["histogram"] == {"36": 25}
    assert summary["rows"] == 25 * 36


def _csv_by_row_loop(rows):
    """The sample-moduli data lines as the per-value writer wrote them."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("argv", [["--s", "0.19", "--grid", "8", "sample-moduli"],
                                  ["--s", "0", "--grid", "5", "sample-moduli", "--system", "F"],
                                  ["--s", "0", "--grid", "6", "sample-moduli"]])
def test_sample_moduli_csv_equals_row_loop(tmp_path, capsys, argv):
    # %.17g round-trips every float, so the rows read back are the rows written
    out = tmp_path / "m.csv"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert text == "gamma,theta,hx,hy,hz,s,F2,F3\n" + _csv_by_row_loop(rows)


class _RunLoopSvgPlot(cli.SvgPlot):
    """SvgPlot with curve_wrapped's split written as a per-pair loop."""

    def curve_wrapped(self, curve, color, width):
        canon = cv.to_canonical(curve.resampled(self.step).samples)
        runs, cur = [], [canon[0]]
        for prev, nxt in zip(canon[:-1], canon[1:]):
            if np.max(np.abs(nxt - prev)) > 0.5:
                runs.append(cur)
                cur = [nxt]
            else:
                cur.append(nxt)
        runs.append(cur)
        for run in runs:
            if len(run) > 1:
                self.polyline(run, color, width)


@pytest.mark.parametrize("curve, s", [(cv.line_arc((0, 0), (math.pi, 0), n=65), 0.19),
                                      (cv.circle_loop((1.5, 0.0), 0.5, n=65), 0.05)])
def test_curve_wrapped_equals_run_loop(curve, s):
    # both curves cross theta = 0, where the drawing is split
    comps = co.compose_curve(curve, s).components
    svgs = []
    for plot in (cli.SvgPlot(), _RunLoopSvgPlot()):
        plot.frame()
        plot.curve_wrapped(curve, "#777777", 1.0)
        for comp in comps:
            plot.curve_wrapped(comp, "#d62728", 2.2)
        svgs.append(plot.tostring())
    assert svgs[0] == svgs[1]
    assert svgs[0].count("<polyline") > 1 + len(comps)


class _PointLoopSvgPlot(cli.SvgPlot):
    """SvgPlot with polyline's coordinates formatted one point at a time."""

    def polyline(self, samples, color, width):
        pts = " ".join("%.3f,%.3f" % self._xy(g, t) for g, t in samples)
        self.body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width:.2f}"/>')


def _save_curves_reference(prefix, curve, components, color, **extra):
    """cli._save_curves with the pure-Python JSON encoder and per-point emitters."""
    plot = _PointLoopSvgPlot()
    plot.frame()
    plot.curve_wrapped(curve, "#777777", 1.0)
    for comp in components:
        plot.curve_wrapped(comp, color, 2.2)
    plot.save(prefix + ".svg")
    records = [{"kind": c.kind, "samples": [[float(a), float(b)] for a, b in c.samples]}
               for c in components]
    with open(prefix + ".json", "w") as f:
        json.dump({"components": records, **extra}, f)


@pytest.mark.parametrize("curve, s", [(cv.line_arc((0, 0), (math.pi, 0), n=129), 0.19),
                                      (cv.circle_loop((1.5, 2.0), 0.5), 0.05)])
def test_compose_output_bytes_equal_reference_emitters(tmp_path, monkeypatch, capsys,
                                                        curve, s):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(curve.to_json()))
    save, saved = cli._save_curves, []

    def recording(*args, **kw):
        saved.append((args, kw))
        return save(*args, **kw)

    monkeypatch.setattr(cli, "_save_curves", recording)
    assert run(["--s", repr(s), "compose", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    (_, *args), kw = saved[0]
    _save_curves_reference(str(tmp_path / "ref"), *args, **kw)
    for ext in (".json", ".svg"):
        assert (tmp_path / f"out{ext}").read_bytes() == (tmp_path / f"ref{ext}").read_bytes()


def test_compose_arc_and_svg_stability(tmp_path, capsys):
    curve = tmp_path / "a0.json"
    curve.write_text(json.dumps(
        cv.line_arc((0, 0), (math.pi, 0), n=65).to_json()))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["--s", "0.19", "compose", str(curve), "--out", str(out1)]) == 0
    rep1 = json.loads(capsys.readouterr().out)
    assert rep1["classifier"]["is_homology_fig8"]
    assert run(["--s", "0.19", "compose", str(curve), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1.with_suffix(".svg").read_bytes()
            == out2.with_suffix(".svg").read_bytes())


def test_compose_s0_echo(tmp_path, capsys):
    curve = tmp_path / "loop.json"
    curve.write_text(json.dumps(
        cv.circle_loop((math.pi / 2, math.pi / 2), 0.4, n=65).to_json()))
    assert run(["--s", "0", "compose", str(curve)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["multiplicity"] == 2


def test_compose_missing_file(tmp_path):
    assert run(["--s", "0.1", "compose", str(tmp_path / "nope.json")]) == 4


def test_model_map_command(tmp_path, capsys):
    curve = tmp_path / "a1.json"
    curve.write_text(json.dumps(
        cv.line_arc((0, 0), (math.pi, math.pi), n=129).to_json()))
    assert run(["--delta", "0.2", "model-map", str(curve),
                "--out", str(tmp_path / "mm")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["components"] == 1 and rep["is_connected"]


def test_algebra_commands(tmp_path, capsys):
    assert run(["algebra", "mul", "S1", "S2"]) == 0
    assert capsys.readouterr().out.strip() == "S1S2"

    t3 = tmp_path / "t3.txt"
    t3.write_text("gen g1 o\ngen g2 *\ngen g3 *\ngen g4 *\n"
                  "g1 -> g2 : S1\ng2 -> g3 : D1\ng3 -> g4 : S2S1\n")
    assert run(["algebra", "mc-check", str(t3)]) == 0
    assert json.loads(capsys.readouterr().out)["maurer_cartan"]

    assert run(["algebra", "ii", str(t3)]) == 0
    ii_text = capsys.readouterr().out
    assert ii_text.count("gen ") == 8
    big = tmp_path / "ii.txt"
    big.write_text(ii_text)
    assert run(["algebra", "reduce", str(big)]) == 0
    red_text = capsys.readouterr().out
    assert "D1+S2S1" not in red_text and "D2+S1S2" not in red_text

    assert run(["algebra", "to-curve", str(t3), "--out",
                str(tmp_path / "t3curve")]) == 0
    capsys.readouterr()
    assert run(["algebra", "from-curve",
                str(tmp_path / "t3curve.json")]) == 0
    back = capsys.readouterr().out
    assert "S2S1" in back and back.count("gen ") == 4

    assert run(["algebra", "mc-check", str(tmp_path / "missing.txt")]) == 4


def test_counts_command(capsys):
    assert run(["--s", "0.05", "counts"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] and rep["matrix"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_counts_refuses_s0():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "earring.cli", "--s", "0", "counts"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 4
    assert proc.stderr == "error: bad config: counts needs 0 < s < pi/4\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["sample-moduli", "compose", "model-map"])
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_output_exits_4(tmp_path, command, target):
    curve = tmp_path / "loop.json"
    curve.write_text(json.dumps(
        cv.circle_loop((math.pi / 2, math.pi / 2), 0.4, n=65).to_json()))
    if target == "directory":
        stem = tmp_path / "out"
        for suffix in (".csv", ".svg"):
            (tmp_path / f"out{suffix}").mkdir()
    else:
        stem = tmp_path / "missing" / "out"
    argv = {"sample-moduli": ["--s", "0", "--grid", "6", "sample-moduli", "--out", f"{stem}.csv"],
            "compose": ["--s", "0.05", "compose", str(curve), "--out", str(stem)],
            "model-map": ["model-map", str(curve), "--out", str(stem)]}[command]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "earring.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: cannot write output: ")


def test_bad_config_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"s": 2.0}))
    assert run(["--config", str(cfgfile), "corner-gap"]) == 4


def test_global_out_reaches_the_command(tmp_path, monkeypatch, capsys):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    target = tmp_path / "X.csv"
    assert run(["--out", str(target), "--s", "0", "--grid", "4",
                "sample-moduli"]) == 0
    capsys.readouterr()
    assert target.read_text().startswith("gamma,theta,hx,hy,hz,s,F2,F3\n")
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("data", [{"bogus": 1}, {"jobs": 2}, {"twist_signs": 3}, [1, 2],
                                  {"tol_residual": 1e-9}, {"failure_budget": 1}])
def test_malformed_config_rejected(tmp_path, capsys, data):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    assert run(["--config", str(cfgfile), "corner-gap"]) == 4
    assert "error: bad config" in capsys.readouterr().err


def _write(path, text):
    path.write_text(text)
    return str(path)


# each malformed input and the documented exit code it must give
MALFORMED_INPUTS = {
    "from-curve, missing file": (lambda d: ["algebra", "from-curve", str(d / "nope.json")], 4),
    "from-curve, not JSON": (lambda d: ["algebra", "from-curve", _write(d / "bad.json", "x")], 4),
    "grid 0": (lambda d: ["--grid", "0", "sample-moduli", "--out", str(d / "g.csv")], 4),
    "grid -3": (lambda d: ["--grid", "-3", "sample-moduli", "--out", str(d / "g.csv")], 4),
    "grid 2.5 in a config": (lambda d: ["--config", _write(d / "c.json", '{"grid": 2.5}'),
                                        "sample-moduli", "--out", str(d / "g.csv")], 4),
    "taylor --points 0": (lambda d: ["taylor", "--points", "0"], 4),
    "taylor --points -2": (lambda d: ["taylor", "--points", "-2"], 4),
    "compose of a path": (lambda d: ["--s", "0.1", "compose", _write(d / "path.json", json.dumps(
        cv.Curve("path", np.array([[0.5, 0.5], [1.0, 1.0], [1.5, 0.7]])).to_json())),
        "--out", str(d / "p")], 4),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_its_code(tmp_path, capsys, case):
    argv, code = MALFORMED_INPUTS[case]
    assert run(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("g.csv")) and not list(tmp_path.glob("p.*"))
