"""The benchmark's trace points name functions the program still has.

``bench/spans.py`` skips a trace point whose function no longer exists, so a
renamed function would read zero in its per-layer metric without failing the
benchmark. Here each live trace point must record a span on the bundle.
"""

from __future__ import annotations

import contextlib
import io

import spans
from tnrisk import cli

COMMANDS = [
    ["solve"],
    ["solve", "--mode", "estimate"],
    ["scenario", "fortress-USA", "--format", "json"],
    ["sweep", "--step", "5"],
    ["estimate"],
]

# every trace point whose function the program defines
LIVE = {"cli.main", "dataset.load_pre_estimated", "dataset.load_bundle",
        "estimation.estimate_params", "scenario.build_network", "scenario.solve",
        "scenario.deterrence_sweep", "scenario.find_threshold", "scenario.apply_scenario",
        "scenario.diff_matrices", "evader.target_totals", "evader.write_matrix_csv",
        "evader.write_abandoned_csv"}


def test_every_live_trace_point_records_a_span(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([*argv, "--out", str(tmp_path / str(k))])
                     for k, argv in enumerate(COMMANDS)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(COMMANDS)
    traced = {span.name.removeprefix("tnrisk.") for span in tracer.spans}
    assert sorted(LIVE - traced) == []
