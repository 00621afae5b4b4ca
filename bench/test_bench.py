"""Self-tests for the benchmark's generator, output check and tracer.

Run with ``PYTHONPATH=src python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time

import pytest

import closed_form as cf
import spans
import synth
from tnrisk import bundled_data_dir, cli


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_generator_is_deterministic(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        synth.generate(tmp_path / name, seed, 12, 6)
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert len(first) == 5
    assert first == again
    assert first.keys() == other.keys() and first != other


@pytest.mark.parametrize("scope", ["largest cell", "every cell"])
def test_check_rejects_matrix_perturbed_by_1e6(tmp_path, scope):
    problem = cf.read_pre_estimated(bundled_data_dir() / "pre_estimated")
    assert _main(["solve", "--out", str(tmp_path)]) == 0
    assert cf.check_solve(tmp_path, problem, 0.1, math.inf) == []

    path = tmp_path / "attack_matrix.csv"
    with path.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    largest = max(range(len(rows)), key=lambda k: float(rows[k][2]))
    for k, row in enumerate(rows):
        if scope == "every cell" or k == largest:
            row[2] = repr(float(row[2]) * (1 + 1e-6))
    with path.open("w", newline="") as f:
        csv.writer(f).writerows([header, *rows])
    assert cf.check_solve(tmp_path, problem, 0.1, math.inf)


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    spec = synth.generate(tmp_path / "data", 3, 20, 10)
    common = ["--data", str(tmp_path / "data"), "--abandon", "-30", "--out", str(tmp_path / "out")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(cli.main, "__wrapped__")
        walls = []
        for argv in (["solve", *common], ["scenario", str(spec), *common]):
            t0 = time.perf_counter()
            assert _main(argv) == 0
            walls.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")

    roots = [s.end - s.start for s in tracer.spans if s.parent is None]
    assert len(roots) == 2 and all(r <= w for r, w in zip(roots, walls))
    assert sum(tracer.self_times()) == pytest.approx(sum(roots), rel=1e-9)
    assert sum(roots) == pytest.approx(sum(walls), rel=0.05, abs=2e-3)

    layer = tracer.metrics(invocations=2)
    assert layer["scenario.solve_calls"] == 1.5
    assert layer["network.edges"] > 0
    assert layer["scenario.sweep_self_s"] == 0.0  # never called: zero, not an error
