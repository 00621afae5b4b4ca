"""Command-line front end.

Subcommands: validate, estimate, solve, scenario, sweep.
Exit codes: 0 success, 1 domain error, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import dataset, evader, scenario as scn
from .params import (DEFAULT_LAMBDA, DEFAULT_Q, WEIGHT_PRESETS, ModelError, SupportWeights,
                     cost_out, parse_cost, parse_number, to_float)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# the most cells, points x targets, of a sweep's per-target table: 80 MB of floats
MAX_GRID_CELLS = 10**7


def _parse_weights(text: str) -> tuple[SupportWeights, str]:
    aliases = {"default": "default", "high": "high_commitment", "low": "low_commitment"}
    key = aliases.get(text, text)
    if key in WEIGHT_PRESETS:
        return WEIGHT_PRESETS[key], key
    try:
        return SupportWeights(*map(to_float, text.split(","))), text
    except (TypeError, ValueError):  # not three numbers, or not 0 < r <= s <= o <= 1
        raise ValueError(f"--weights must be default, high, low or r,s,o with "
                         f"0 < r <= s <= o <= 1, got {text!r}") from None


# every argument, declared once, in the groups a command takes whole
IO_FLAGS = {"--data": dict(help="data directory (default: bundled dataset)"),
            "--out": dict(help="output directory")}
ESTIMATION_FLAGS = {
    "--weights": dict(help="support weights for estimation: default|high|low or r,s,o"),
    "--q": dict(type=float, help="plot-conversion factor for estimation")}
MODEL_FLAGS = {
    "--mode": dict(choices=["estimate", "pre"],
                   help="estimate parameters from raw tables, or load pre-estimated ones"),
    "--lambda": dict(dest="lam", type=float, help="rationality parameter")}
ABANDON_FLAG = {"--abandon": dict(help="abandon yield, a number or 'inf'/'blocked'")}
FORMAT_FLAG = {"--format": dict(choices=["csv", "json"])}
SPEC_ARG = {"spec": dict(help=f"built-in name ({', '.join(scn.BUILTIN_SCENARIOS)}) or a JSON file")}
GRID_FLAGS = {flag: dict(type=float) for flag in ("--a-min", "--a-max", "--step")}
# every flag's default; a command that does not take a flag runs, and echoes, this value
FLAG_DEFAULTS = dict(data=None, out="out", weights=None, q=None, mode="pre",
                     lam=DEFAULT_LAMBDA, abandon="inf", format="csv",
                     a_min=-60.0, a_max=10.0, step=1.0)


def _config(args: argparse.Namespace) -> None:
    """Check the flags and convert each to the value the commands read, on ``args`` itself."""
    # both scale the estimated supply; the pre-estimated tables carry their own
    given = [flag for flag, v in (("--q", args.q), ("--weights", args.weights)) if v is not None]
    if given and args.mode == "pre":
        raise ValueError(f"{given[0]} applies only to estimation: add --mode estimate")
    args.q = parse_number(DEFAULT_Q if args.q is None else args.q, +1, "--q")
    if args.q == 0:
        raise ValueError("--q must be positive, got 0.0")
    args.weights, args.weights_label = _parse_weights(args.weights or "default")
    args.data = Path(args.data) if args.data else dataset.bundled_data_dir()
    args.lam = parse_number(args.lam, +1, "--lambda")
    args.abandon = parse_cost(args.abandon, "--abandon")
    args.out = Path(args.out)
    if not args.data.is_dir():
        raise FileNotFoundError(f"data directory {args.data} not found")
    if not (all(map(math.isfinite, (args.a_min, args.a_max, args.step)))
            and args.a_min < args.a_max and args.step > 0):
        raise ValueError("need finite a_min < a_max and step > 0")
    if not math.isfinite(args.a_max - args.a_min):  # cmd_sweep counts the points from it
        raise ValueError(f"need finite a_max - a_min: from {args.a_min} to {args.a_max} overflows")


def _load_params(args: argparse.Namespace):
    """Parameters estimated from the raw tables, or read from the pre-estimated ones."""
    if args.mode == "estimate":
        from . import estimation
        params = estimation.estimate_params(dataset.load_bundle(args.data), args.weights, args.q)
    else:
        params = dataset.load_pre_estimated(args.data / "pre_estimated")
    return replace(params, lam=args.lam, A=args.abandon)


def _echo(args: argparse.Namespace, params) -> dict:
    """The parameters a run solved or estimated with, as its report and matrix JSON echo them."""
    return {"lambda": params.lam, "abandon_yield": cost_out(params.A), "q": args.q,
            "weights_preset": args.weights_label, "n_sources": len(params.sources),
            "n_targets": len(params.targets)}


def _write_report(args: argparse.Namespace, params, **fields) -> None:
    """Every command's run report: the flags as run, ``_echo(args, params)`` and ``fields``."""
    config = {"data": str(args.data), "mode": args.mode, "lambda": args.lam,
              "abandon": cost_out(args.abandon), "weights": args.weights_label, "q": args.q,
              "format": args.format}
    dataset.write_json(args.out / "run_metadata.json",
                       {"config": config, "params": _echo(args, params), **fields})


def _unroutable(matrix: evader.AttackMatrix) -> dict[str, float]:
    return {i: v for i, v in zip(matrix.sources, matrix.unroutable.tolist()) if v}


def cmd_validate(args: argparse.Namespace) -> None:
    """The commands' loaders; validation_report.txt gets the first failure, as main prints it."""
    args.out.mkdir(parents=True, exist_ok=True)
    report = args.out / "validation_report.txt"
    pre_dir = args.data / "pre_estimated"
    try:
        codes = set(dataset.load_bundle(args.data).codes)
        if pre_dir.is_dir():
            params = dataset.load_pre_estimated(pre_dir)
            unknown = set(params.T.codes) - codes
            if unknown:
                raise ModelError(f"pre_estimated:{min(unknown)} is not in countries.csv")
            scn.build_network(params)  # the model check solve runs before it writes anything
    except ModelError as e:
        report.write_text(f"error: {e}\n", encoding="utf-8")
        raise
    report.write_text("", encoding="utf-8")
    print(f"ok: bundle at {args.data} is valid")


def cmd_estimate(args: argparse.Namespace) -> None:
    params = _load_params(args)
    dataset.write_pre_estimated(params, args.out)
    _write_report(args, params)
    print(f"wrote estimated parameter tables to {args.out}")


def _solve_to_dir(params, args: argparse.Namespace, prefix: str = "") -> "evader.AttackMatrix":
    """Solve and write the matrix files; the JSON with no prefix (``solve``) or ``--format json``,
    the plot data only with no prefix."""
    matrix = scn.solve(params)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    with_json = args.format == "json" or not prefix
    evader.write_matrix_csv(
        matrix, out / f"{prefix}attack_matrix.csv",
        json_file=(out / f"{prefix}attack_matrix.json", _echo(args, params)) if with_json else None,
        # circle areas proportional to plot counts; zero entries omitted
        plot_path=None if prefix else out / "plot_data.csv")
    evader.write_abandoned_csv(matrix, out / f"{prefix}abandoned.csv")
    totals, grand = evader.target_totals(matrix)
    dataset.write_csv(out / f"{prefix}target_totals.csv", ["target", "expected_plots"],
                      [*totals.items(), ("TOTAL", grand)])
    return matrix


def cmd_solve(args: argparse.Namespace) -> None:
    params = _load_params(args)
    matrix = _solve_to_dir(params, args)
    _write_report(args, params, unroutable=_unroutable(matrix))
    totals, grand = evader.target_totals(matrix)
    code, top = max(totals.items(), key=lambda kv: kv[1], default=("-", 0.0))
    # a summary line names a country only where its number is nonzero
    print(f"solved: {grand:.1f} expected attacks; top target {code if top else '-'} ({top:.1f})")


def cmd_scenario(args: argparse.Namespace) -> None:
    spec = scn.BUILTIN_SCENARIOS.get(args.spec) or scn.ScenarioSpec.from_json(args.spec)
    params = _load_params(args)
    try:
        alt_params = scn.apply_scenario(params, spec)
    except ModelError as e:
        raise ModelError(f"{args.spec}: {e}") from None
    base = _solve_to_dir(params, args, prefix="base_")
    alt = _solve_to_dir(alt_params, args, prefix="alt_")
    delta, ranked = scn.diff_matrices(base, alt)
    out = args.out
    dataset.write_cells(delta, base.sources, base.targets, out / "delta.csv",
                        ["source", "target", "delta"])
    dataset.write_csv(out / "ranked_gainers.csv", ["target", "total_delta"], ranked)
    _write_report(args, params, scenario=spec.name,
                  base_unroutable=_unroutable(base), alt_unroutable=_unroutable(alt))
    code, top = ranked[0] if ranked else ("-", 0.0)
    print(f"scenario {spec.name}: largest per-target change {code if top else '-'} ({top:+.1f})")


def cmd_sweep(args: argparse.Namespace) -> None:
    a_min, a_max, step = args.a_min, args.a_max, args.step
    params = _load_params(args)
    # whole steps that fit, 1e-9 absorbing the division's rounding; min keeps floor finite
    points = math.floor(min((a_max - a_min) / step + 1e-9, MAX_GRID_CELLS)) + 1
    columns = max(len(params.targets), 1)  # with no targets, the grid itself still counts
    if points * columns > MAX_GRID_CELLS:
        raise ValueError(f"a grid from {a_min} to {a_max} by {step} has more than "
                         f"{MAX_GRID_CELLS // columns} points for {len(params.targets)} targets")
    # deterrence_sweep refuses a point that rounding makes equal to the one before
    grid = [round(a_min + k * step, 9) for k in range(points)]
    curve = scn.deterrence_sweep(params, grid)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    dataset.write_csv(out / "sweep.csv", ["A", "total_attacks", *curve.targets],
                      ((a, total, *row.tolist()) for a, total, row in
                       zip(grid, curve.totals, curve.per_target)))
    threshold = None
    try:  # with no threshold on the grid, the metadata is written before the error is raised
        threshold = scn.find_threshold(grid, curve.totals)
        print(f"threshold A* = {threshold:.2f} (fraction {scn.THRESHOLD_FRACTION})")
    finally:
        _write_report(args, params, threshold=threshold,
                      threshold_fraction=scn.THRESHOLD_FRACTION,
                      grid={"min": a_min, "max": a_max, "step": step})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnrisk",
        description="Estimate and solve the transnational attack-allocation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads: argparse rejects any other (exit 2)
    solving = IO_FLAGS | ESTIMATION_FLAGS | MODEL_FLAGS
    for name, run, doc, arguments in [
        ("validate", cmd_validate, "check a data directory against the input schemas", IO_FLAGS),
        ("estimate", cmd_estimate, "derive the four parameter tables from raw data",
         IO_FLAGS | ESTIMATION_FLAGS),
        ("solve", cmd_solve, "compute the baseline attack matrix", solving | ABANDON_FLAG),
        ("scenario", cmd_scenario, "compare a counterfactual against the baseline",
         solving | ABANDON_FLAG | FORMAT_FLAG | SPEC_ARG),
        ("sweep", cmd_sweep, "sweep the abandon yield and locate the deterrence threshold",
         solving | GRID_FLAGS),
    ]:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(**FLAG_DEFAULTS, run=run)
        for argument, settings in arguments.items():
            p.add_argument(argument, **settings)
        if name == "estimate":
            p.set_defaults(mode="estimate")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a failure is one ``error:`` line on stderr and the exit code of its kind:
    EXIT_DOMAIN for a ModelError, EXIT_USAGE for a bad flag (ValueError) or any I/O error."""
    args = build_parser().parse_args(argv)
    try:
        _config(args)
        args.run(args)
    except (ModelError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(e, ModelError) else EXIT_USAGE
    return EXIT_OK


def run(argv: list[str] | None = None) -> None:
    """``main``, then ``os._exit`` after flushing the streams: every output file is closed by now.
    A stream that will not flush (a closed pipe), a usage error or a crash exits normally."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
