import json
import math
import os
import subprocess
import sys

import pytest

from earring import cli
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


@pytest.mark.parametrize("data", [{"bogus": 1}, {"jobs": 2}, {"twist_signs": 3}, [1, 2]])
def test_malformed_config_rejected(tmp_path, capsys, data):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    assert run(["--config", str(cfgfile), "corner-gap"]) == 4
    assert "error: bad config" in capsys.readouterr().err
