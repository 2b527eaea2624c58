import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from earring import moduli as md

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name, path", [(m, p) for m, p, _ in tracing.TRACED])
def test_traced_names_resolve(mod_name, path):
    # the bench tracer wraps these by name; a renamed or deleted one breaks
    # `perfbench --trace 1`
    owner, attr = tracing._resolve(importlib.import_module(f"earring.{mod_name}"), path)
    assert callable(owner.__dict__.get(attr)), f"earring.{mod_name}.{path}"


def test_newton_counter_reads_newton_fiber():
    # the bench's newton_fiber ok_frac is the tracer's (rows, converged rows)
    # read off the (h, res, ok) return; (0.12, 0.05) lies near a corner and
    # does not converge at s = 0.19
    g, t, s = np.array([1.1, 2.0, 0.12]), np.array([2.2, 0.5, 0.05]), 0.19
    out = md.newton_fiber(g, t, md.sigma_sections(g, t)[0], s)
    h, _, ok = out
    assert np.array_equal(ok, [True, True, False])
    assert np.array_equal(ok, np.max(np.abs(md.eval_H(g, t, h, s)), axis=0) <= md.NEWTON_ACCEPT)
    assert tracing._newton_batch(out) == (3, 2)
