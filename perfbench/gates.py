"""Output gates: each returns (failed operations, list of problems).

A gate sees one job's outcome and never a time.  A non-zero exit code, an
unparsable summary or a raised exception fails every operation of the job;
otherwise each wrong answer fails the operations it belongs to.  The gates
are plain functions of plain data so `selftest.py` can feed them corrupted
outputs.
"""

from __future__ import annotations

EXPECTED_MATRIX = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
EXPECTED_HOPF = [2, 2, 2]
MIN_CORNER_MARGIN = 1e-4
MAX_CSV_RESIDUAL = 1e-9


def _all(ops, problem):
    return ops, [problem]


def sample_moduli(outcome, n_grid, s, csv):
    """`earring sample-moduli` on an n x n grid; one op per base point.

    csv is (data rows, max |F2|, max |F3|) read back from the written file.
    """
    ops = n_grid * n_grid
    if outcome["exit"] != 0:
        return _all(ops, f"exit code {outcome['exit']}")
    out = outcome["summary"]
    if not isinstance(out, dict):
        return _all(ops, "no JSON summary")
    if out.get("failures") != 0:
        return _all(ops, f"failures {out.get('failures')}")
    if out.get("rows") != 2 * ops:
        return _all(ops, f"rows {out.get('rows')} != {2 * ops}")
    if s != 0:
        margin = out.get("min_corner_margin")
        if not isinstance(margin, (int, float)) or not margin > MIN_CORNER_MARGIN:
            return _all(ops, f"min_corner_margin {margin}")
    rows, f2, f3 = csv
    if rows != out["rows"]:
        return _all(ops, f"CSV holds {rows} rows, summary says {out['rows']}")
    if not max(f2, f3) <= MAX_CSV_RESIDUAL:
        return _all(ops, f"CSV residual max(|F2|, |F3|) = {max(f2, f3):.2e}")
    hist = out.get("histogram") or {}
    two_fold = hist.get("2", 0)
    if hist != {"2": ops}:
        return max(1, ops - two_fold), [f"histogram {hist} != {{2: {ops}}}"]
    return 0, []


def counts(outcome):
    """`earring counts`: 13 arc-pair counts (unknot, 3 Hopf, 9 matrix)."""
    ops = 13
    if outcome["exit"] != 0:
        return _all(ops, f"exit code {outcome['exit']}")
    out = outcome["summary"]
    if not isinstance(out, dict):
        return _all(ops, "no JSON summary")
    hopf = out.get("hopf")
    matrix = out.get("matrix")
    if not (isinstance(hopf, list) and len(hopf) == 3
            and isinstance(matrix, list) and len(matrix) == 3
            and all(isinstance(r, list) and len(r) == 3 for r in matrix)):
        return _all(ops, "summary lacks a 3-vector hopf or a 3x3 matrix")
    failed, problems = 0, []
    if out.get("unknot") != 1:
        failed += 1
        problems.append(f"unknot {out.get('unknot')} != 1")
    for k, (got, want) in enumerate(zip(hopf, EXPECTED_HOPF)):
        if got != want:
            failed += 1
            problems.append(f"hopf[{k}] {got} != {want}")
    for i in range(3):
        for j in range(3):
            if matrix[i][j] != EXPECTED_MATRIX[i][j]:
                failed += 1
                problems.append(f"matrix[{i}][{j}] {matrix[i][j]} != "
                                f"{EXPECTED_MATRIX[i][j]}")
    return failed, problems


def compose_arc(outcome):
    """`earring compose` on a skein arc: a homology figure eight with the
    criterion-6 counts alpha_-/alpha_+ = (+-1, 1) of opposite signs and
    beta = (0, 2)."""
    if outcome["exit"] != 0:
        return _all(1, f"exit code {outcome['exit']}")
    out = outcome["summary"]
    verdict = out.get("classifier") if isinstance(out, dict) else None
    if not isinstance(verdict, dict):
        return _all(1, "no classifier verdict")
    c = verdict.get("counts") or {}
    am, ap, beta = c.get("alpha_minus"), c.get("alpha_plus"), c.get("beta")
    ok = (verdict.get("is_homology_fig8") is True
          and isinstance(am, list) and len(am) == 2
          and isinstance(ap, list) and len(ap) == 2
          and abs(am[0]) == 1 and abs(ap[0]) == 1 and am[0] == -ap[0]
          and list(beta or []) == [0, 2])
    return (0, []) if ok else _all(1, f"verdict {verdict}")


def compose_loop(outcome):
    """`earring compose` on a loop away from the corners: two components."""
    if outcome["exit"] != 0:
        return _all(1, f"exit code {outcome['exit']}")
    out = outcome["summary"]
    n = out.get("components") if isinstance(out, dict) else None
    return (0, []) if n == 2 else _all(1, f"{n} components, expected 2")


def pairings(model, composed):
    """Criterion 7: row-normalized pairing matrices of the model figure
    eights and of the composed curves against the basis arcs agree and equal
    the counting matrix."""
    ok = model == composed == EXPECTED_MATRIX
    return (0, []) if ok else _all(1, f"model {model}, composed {composed}")


def bigons(n_right, n_middle):
    ok = (n_right, n_middle) == (1, 0)
    return (0, []) if ok else _all(1, f"bigons ({n_right}, {n_middle}) != (1, 0)")


def algebra(checks):
    """Criterion 10: every named check of the algebra pipeline holds."""
    bad = [name for name, ok in checks.items() if ok is not True]
    return (0, []) if not bad else _all(1, f"failed checks {bad}")
