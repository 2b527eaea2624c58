import importlib
import importlib.util
from pathlib import Path

import pytest

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
