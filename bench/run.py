"""tnrisk benchmark: end-to-end CLI runs, or a traced in-process run per layer.

Usage (from the repository root):

    python3 bench/run.py --workload cli-bundle --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the benchmark is one closed-loop client: it spawns
``python -m tnrisk.cli`` (with ``PYTHONPATH`` set to this checkout's ``src``),
waits for it to exit, and only then starts the next invocation, until
``--seconds`` have passed and the current round of the workload's mix is
complete.  Every invocation writes to its own output directory; after the
timed interval each one is checked against the closed form in
``closed_form.py``.  With ``--trace 1`` the same mix runs in-process through
``tnrisk.cli.main``, alternating untraced and traced passes, and the spans
recorded by ``spans.py`` give per-layer self times and counts.

The benchmark shares a few cores of a host whose speed drifts by up to a
third over minutes, which would swamp any regression bound.  So the loop also
times a host-speed reference in a fresh interpreter, interleaved with the
invocations: importing numpy for ``cli-bundle``, a pure-Python dict loop for
``synthetic-large`` (``Workload.reference``).  Every timing of the run is
scaled by the reference's nominal time over its median in that run (set-up
times by the median of a reference sample taken after each of them), so the
end-to-end times are seconds on a host where the reference takes its nominal
time.  The reference runs none of the program's code, so a change to the
program moves the scaled times as it moves the raw ones.  The raw times and
the scale go on the line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records host information and each timing's sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import closed_form as cf
import spans
import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "tnrisk" / "data" / "bundled"
WORK = ROOT / ".bench_work"

LAM = 0.1
SETUP_REPS = 10
IMPORT_REPS = 5
SYNTH_SHAPE = (400, 200)
SYNTH_ABANDON = -30.0
SWEEP = (-60.0, 10.0, 0.25)
# Host-speed references: (code a fresh interpreter runs, its median wall time
# on the 2-core host of the baseline).  Each workload uses the one that does
# the same kind of work as its invocations: loading numpy, or pure-Python
# dict and float work like the solver's.
IMPORT_REFERENCE = ("import numpy", 0.2)
LOOP_REFERENCE = ("d = {}\nfor i in range(300_000):\n"
                  "    k = (i % 641, i % 409)\n    d[k] = d.get(k, 0.0) + i * 0.5", 0.33)
REFERENCE_SHARE = 0.15  # of the loop's time spent timing the reference


@dataclass
class Invocation:
    name: str
    argv: list[str]  # CLI arguments, without --out
    cells: int  # attack-matrix cells the invocation solves
    check: Callable[[Path], list[str]]  # errors in its output directory


@dataclass
class Workload:
    setup_code: str  # run by a fresh interpreter to time set-up
    rounds: Callable[[], list[Invocation]]  # the next round of the mix
    reference: tuple[str, float] = IMPORT_REFERENCE


def _solve_check(problem, A, prefix=""):
    return lambda out: cf.check_solve(out, problem, LAM, A, prefix)


def _scenario_check(base, alt, A, alt_A):
    return lambda out: (cf.check_solve(out, base, LAM, A, "base_")
                        + cf.check_solve(out, alt, LAM, alt_A, "alt_"))


def cli_bundle(seed: int, work: Path) -> Workload:
    """Start-up and I/O bound; the only workload using estimation and the raw tables."""
    from tnrisk import dataset, estimation

    pre = cf.read_pre_estimated(BUNDLED / "pre_estimated")
    est = cf.from_params(estimation.estimate_params(dataset.load_bundle(BUNDLED)))
    mix = [
        Invocation("solve", ["solve"], pre.cells, _solve_check(pre, math.inf)),
        Invocation("solve-estimate", ["solve", "--mode", "estimate"], est.cells,
                   _solve_check(est, math.inf)),
        Invocation("fortress-USA", ["scenario", "fortress-USA"], 2 * pre.cells,
                   _scenario_check(pre, cf.block_off_diagonal(pre, "USA"), math.inf, math.inf)),
        Invocation("homegrown", ["scenario", "homegrown"], 2 * pre.cells,
                   _scenario_check(pre, cf.block_off_diagonal(pre), math.inf, math.inf)),
    ]
    rng = random.Random(seed)

    def rounds():
        return rng.sample(mix, len(mix))

    return Workload("from tnrisk import cli, dataset\n"
                    "dataset.load_bundle(dataset.bundled_data_dir())", rounds)


def sweep_bundle(seed: int, work: Path) -> Workload:
    """One structure solved once per grid point with only A changing.

    The bundle is fixed, so the seed changes nothing here.  Not listed in
    BENCHMARK.json: at the seed's speed an invocation is 6 s of pure-Python
    compute, and on a shared 2-core host its wall time drifts by up to a third
    between runs, more than any regression bound could absorb.  The traced run
    (--trace 1) still reports its per-layer numbers.
    """
    pre = cf.read_pre_estimated(BUNDLED / "pre_estimated")
    grid = cf.sweep_grid(*SWEEP)
    argv = ["sweep", "--a-min", repr(SWEEP[0]), "--a-max", repr(SWEEP[1]),
            "--step", repr(SWEEP[2])]
    inv = Invocation("sweep", argv, len(grid) * pre.cells,
                     lambda out: cf.check_sweep(out, pre, LAM, grid))
    return Workload("from tnrisk import cli, dataset\n"
                    f"dataset.load_pre_estimated({str(BUNDLED / 'pre_estimated')!r})",
                    lambda: [inv], LOOP_REFERENCE)


def synthetic_large(seed: int, work: Path) -> Workload:
    """Kernel and output-size bound; the scenario changes T, so solves share no structure.

    Two solves to one scenario, so the median latency falls inside the solves
    rather than in the gap between the two commands' times.
    """
    data = work / "synthetic"
    spec = synth.generate(data, seed, *SYNTH_SHAPE)
    base = cf.read_pre_estimated(data / "pre_estimated")
    alt, alt_A = cf.apply_spec(base, spec)
    common = ["--data", str(data), "--abandon", repr(SYNTH_ABANDON)]
    solve = Invocation("solve", ["solve", *common], base.cells, _solve_check(base, SYNTH_ABANDON))
    mix = [
        solve,
        Invocation("spec-scenario", ["scenario", str(spec), *common], 2 * base.cells,
                   _scenario_check(base, alt, SYNTH_ABANDON, alt_A)),
        solve,
    ]
    return Workload("from tnrisk import cli, dataset\n"
                    f"dataset.load_pre_estimated({str(data / 'pre_estimated')!r})",
                    lambda: list(mix), LOOP_REFERENCE)


WORKLOADS = {
    "cli-bundle": cli_bundle,
    "sweep-bundle": sweep_bundle,
    "synthetic-large": synthetic_large,
}


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv: list[str]) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, its own max RSS in MB).

    The child's stderr passes through, so a failing invocation explains itself.
    """
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], env=_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return elapsed, child.returncode, usage.ru_maxrss / 1024.0


def _spawn_times(code: str, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        elapsed, rc, _ = _spawn(["-c", code])
        if rc != 0:
            raise RuntimeError(f"interpreter failed ({rc}) running {code!r}")
        times.append(elapsed)
    return times


def _setup_times(code: str, reference: str, reps: int) -> tuple[list[float], list[float]]:
    """Set-up samples, each followed by a reference sample taken under the same load."""
    pairs = [(*_spawn_times(code, 1), *_spawn_times(reference, 1)) for _ in range(reps)]
    return [s for s, _ in pairs], [r for _, r in pairs]


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_all(done: list[tuple[Invocation, Path, int]]) -> int:
    """Count failed invocations.  Outputs byte-identical to one already checked
    for the same invocation share its verdict, so every output is verified."""
    failed = 0
    verdicts: dict[tuple[int, str], list[str]] = {}
    for inv, out, rc in done:
        if rc != 0:
            errors = [f"exit code {rc}"]
        elif not out.is_dir():
            errors = ["no output directory"]
        else:
            key = (id(inv), _digest(out))
            if key not in verdicts:
                verdicts[key] = inv.check(out)
            errors = verdicts[key]
        if errors:
            failed += 1
            print(f"FAILED {inv.name} ({out.name}): {errors[:3]}", file=sys.stderr)
    return failed


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_end_to_end(workload: Workload, seconds: float, work: Path):
    ref_code, ref_s = workload.reference
    _spawn_times(workload.setup_code, 1)  # warm the bytecode and file caches
    # half the set-up samples before the loop and half after, to span the host's drift
    setup, setup_reference = _setup_times(workload.setup_code, ref_code, SETUP_REPS // 2)

    done, latencies, rss, cells, reference = [], [], [], 0, []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for inv in workload.rounds():
            out = work / f"inv{len(done):05d}"
            elapsed, rc, peak = _spawn(["-m", "tnrisk.cli", *inv.argv, "--out", str(out)])
            done.append((inv, out, rc))
            latencies.append(elapsed)
            rss.append(peak)
            cells += inv.cells
            # interleaved with the invocations, so it sees the same host speed
            while sum(reference) < REFERENCE_SHARE * (time.perf_counter() - start):
                reference += _spawn_times(ref_code, 1)
    wall = time.perf_counter() - start - sum(reference)
    more, more_reference = _setup_times(workload.setup_code, ref_code,
                                        SETUP_REPS - len(setup))
    setup += more
    setup_reference += more_reference

    failed = _check_all(done)
    n = len(done)
    scale = ref_s / statistics.median(reference)
    setup_scale = ref_s / statistics.median(setup_reference)
    raw = {
        "latency_p50_s": (statistics.median(latencies), "s", n),
        "latency_p90_s": (_p90(latencies), "s", n),
        "cells_per_s": (cells / wall, "1/s", n),
    }
    metrics = {k: (v * scale ** (-1 if u == "1/s" else 1), u, n) for k, (v, u, n) in raw.items()}
    metrics["setup_s"] = (statistics.median(setup) * setup_scale, "s", len(setup))
    metrics["peak_rss_mb"] = (max(rss), "MB", n)
    by_command = {}
    for (inv, _, _), latency in zip(done, latencies):
        by_command.setdefault(inv.name, []).append(latency)
    return n, failed, metrics, {
        "raw": {"setup_s": statistics.median(setup), **{k: v for k, (v, _, _) in raw.items()}},
        "reference": {"code": ref_code, "median_s": statistics.median(reference),
                      "samples": len(reference), "scale": scale, "setup_scale": setup_scale},
        "raw_p50_by_command_s": {
            k: statistics.median(v) for k, v in sorted(by_command.items())}}


def _in_process(argv: list[str]) -> int:
    import tnrisk.cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = tnrisk.cli.main(argv)  # looked up at call time, so a wrapper is used
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        return -1
    if rc != 0:
        sys.stderr.write(sink.getvalue())
    return rc


def run_traced(workload: Workload, seconds: float, work: Path):
    bare = statistics.median(_spawn_times("pass", IMPORT_REPS))
    imported = statistics.median(_spawn_times("import tnrisk.cli", IMPORT_REPS))
    tracer = spans.Tracer()

    def invoke(inv: Invocation) -> None:
        out = work / f"inv{len(done):05d}"
        tracer.invocation = len(done)
        done.append((inv, out, _in_process([*inv.argv, "--out", str(out)])))

    done, overheads, traced_wall, traced_invocations = [], [], 0.0, 0
    invoke(workload.rounds()[0])  # untimed: first in-process calls pay one-off costs
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        mix = workload.rounds()
        wall = {}
        # alternate which pass goes first, so warm-up costs fall on both sides
        for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            for inv in mix:
                invoke(inv)
            wall[traced] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        overheads.append((wall[True] - wall[False]) / len(mix))
        traced_wall += wall[True]
        traced_invocations += len(mix)

    failed = _check_all(done)
    tracer.write(WORK / "spans" / f"{work.name}.json")
    layer = tracer.metrics(traced_invocations)
    layer["cli.import_s"] = imported - bare
    layer["trace.overhead_s"] = statistics.median(overheads)
    layer["trace.invocation_s"] = traced_wall / traced_invocations
    units = {k: ("count" if k.endswith(("calls", "edges")) else "s") for k in layer}
    metrics = {k: (v, units[k], traced_invocations) for k, v in layer.items()}
    return len(done), failed, metrics, {"traced_pairs": len(overheads)}


def _host() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tnrisk" / "cli.py").is_file():
        print(f"error: no tnrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        runner = run_traced if args.trace else run_end_to_end
        attempted, failed, metrics, info = runner(workload, args.seconds, work)
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(failed_frac=failed / attempted, host=_host(), workload=args.workload,
                seed=args.seed, samples={k: n for k, (_, _, n) in metrics.items()})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
