"""The metric catalogue: what run.py reports and BENCHMARK.json declares."""

from __future__ import annotations

import tracing

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Extra statistics beyond calls / total_s / self_s, per traced function.
_EXTRA_STATS = {
    "moduli.newton_fiber": ("ok_frac",),
    "correspondence.trace_component": ("failed", "ok_frac"),
    "correspondence.compose_curve": ("failed",),
    "correspondence.count_generalized_points": ("failed",),
    "topology.intersection_number": ("failed",),
}
_UNITS = {"calls": "count", "items": "count", "failed": "count",
          "total_s": "s", "self_s": "s", "ok_frac": "frac"}


def per_layer_metrics():
    """[(metric, layer, stat, unit, better)] reported by a traced run."""
    out = []
    for module, path, _ in tracing.TRACED:
        layer = f"{module}.{path}"
        stats = ["calls"] + (["items"] if layer in tracing.BATCHED else [])
        stats += ["total_s", "self_s"] + list(_EXTRA_STATS.get(layer, ()))
        for stat in stats:
            better = "higher" if stat == "ok_frac" else "lower"
            out.append((f"{layer}.{stat}", layer, stat, _UNITS[stat], better))
    out.append(("trace.overhead_s", None, None, "s", "lower"))
    out.append(("ops_failed_frac", None, None, "frac", "lower"))
    return out
