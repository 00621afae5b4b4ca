"""Command-line front end.

Subcommands: validate, estimate, solve, scenario, sweep.
Exit codes: 0 success, 1 domain error, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dataset, estimation, evader, scenario as scn
from .errors import CodeMismatch, ModelError, ThresholdOutOfRange, UnknownCode
from .params import (DEFAULT_LAMBDA, DEFAULT_Q, WEIGHT_PRESETS, SupportWeights, cost_out,
                     parse_cost, parse_number)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# the most points a sweep grid may have; its per-target table is this many rows
MAX_GRID_POINTS = 10**6


@dataclass
class RunConfig:
    data_dir: Path
    mode: str  # "estimate" | "pre"
    lam: float
    abandon: float
    weights: SupportWeights
    weights_label: str
    q: float
    out_dir: Path
    fmt: str


def _parse_weights(text: str) -> tuple[SupportWeights, str]:
    aliases = {"default": "default", "high": "high_commitment", "low": "low_commitment"}
    key = aliases.get(text, text)
    if key in WEIGHT_PRESETS:
        return WEIGHT_PRESETS[key], key
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}: use a preset or r,s,o")
    w = SupportWeights(*(float(p) for p in parts))
    return w, text


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
GRID_FLAGS = {"--a-min": dict(type=float, default=-60.0), "--a-max": dict(type=float, default=10.0),
              "--step": dict(type=float, default=1.0)}
# every flag's default; a command that does not take a flag runs, and echoes, this value
FLAG_DEFAULTS = dict(data=None, out="out", weights=None, q=None, mode="pre",
                     lam=DEFAULT_LAMBDA, abandon="inf", format="csv")


def _config(args: argparse.Namespace) -> RunConfig:
    # both scale the estimated supply; the pre-estimated tables carry their own
    given = [flag for flag, v in (("--q", args.q), ("--weights", args.weights)) if v is not None]
    if given and args.mode == "pre":
        raise ValueError(f"{given[0]} applies only to estimation: add --mode estimate")
    q = parse_number(DEFAULT_Q if args.q is None else args.q, +1, "--q")
    if q == 0:
        raise ValueError("--q must be positive, got 0.0")
    weights, label = _parse_weights(args.weights or "default")
    return RunConfig(
        data_dir=Path(args.data) if args.data else dataset.bundled_data_dir(),
        mode=args.mode,
        lam=parse_number(args.lam, +1, "--lambda"),
        abandon=parse_cost(args.abandon, "--abandon"),
        weights=weights,
        weights_label=label,
        q=q,
        out_dir=Path(args.out),
        fmt=args.format,
    )


def _load_params(config: RunConfig):
    """Parameters estimated from the raw tables, or read from the pre-estimated ones."""
    if config.mode == "estimate":
        params = estimation.estimate_params(dataset.load_bundle(config.data_dir),
                                            config.weights, config.q)
    else:
        params = dataset.load_pre_estimated(config.data_dir / "pre_estimated")
    params.lam, params.A, params.weights_label = config.lam, config.abandon, config.weights_label
    return params


def _echo(config: RunConfig) -> dict:
    return {
        "data": str(config.data_dir),
        "mode": config.mode,
        "lambda": config.lam,
        "abandon": cost_out(config.abandon),
        "weights": config.weights_label,
        "q": config.q,
        "format": config.fmt,
    }


def _unroutable(matrix: evader.AttackMatrix) -> dict[str, float]:
    return {i: v for i, v in zip(matrix.sources, matrix.unroutable.tolist()) if v}


def cmd_validate(config: RunConfig) -> int:
    """The commands' loaders; validation_report.txt gets the first failure, as main prints it."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    report = config.out_dir / "validation_report.txt"
    pre_dir = config.data_dir / "pre_estimated"
    try:
        codes = {c.code for c in dataset.load_bundle(config.data_dir).countries}
        if pre_dir.is_dir():
            unknown = dataset.load_pre_estimated(pre_dir).codes - codes
            if unknown:
                raise CodeMismatch(f"pre_estimated:{min(unknown)} is not in countries.csv")
    except ModelError as e:
        report.write_text(f"error: {e}\n", encoding="utf-8")
        raise
    report.write_text("", encoding="utf-8")
    print(f"ok: bundle at {config.data_dir} is valid")
    return EXIT_OK


def cmd_estimate(config: RunConfig) -> int:
    params = _load_params(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    estimation.write_params_csv(params, config.out_dir)
    dataset.write_json(config.out_dir / "run_metadata.json", {"config": _echo(config),
                                                              "params": params.echo()})
    print(f"wrote estimated parameter tables to {config.out_dir}")
    return EXIT_OK


def _solve_to_dir(params, config: RunConfig, prefix: str = "") -> "evader.AttackMatrix":
    """Solve and write the matrix files; with no prefix (``solve``) also the JSON and plot data."""
    matrix = scn.solve(params)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with_json = config.fmt == "json" or not prefix
    evader.write_matrix_csv(
        matrix, out / f"{prefix}attack_matrix.csv",
        json_path=out / f"{prefix}attack_matrix.json" if with_json else None,
        # circle areas proportional to plot counts; zero entries omitted
        plot_path=None if prefix else out / "plot_data.csv")
    evader.write_abandoned_csv(matrix, out / f"{prefix}abandoned.csv")
    totals, grand = evader.target_totals(matrix)
    dataset.write_csv(out / f"{prefix}target_totals.csv", ["target", "expected_plots"],
                      [*totals.items(), ("TOTAL", grand)])
    return matrix


def cmd_solve(config: RunConfig) -> int:
    params = _load_params(config)
    matrix = _solve_to_dir(params, config)
    dataset.write_json(config.out_dir / "run_metadata.json", {
        "config": _echo(config), "params": params.echo(), "unroutable": _unroutable(matrix),
    })
    totals, grand = evader.target_totals(matrix)
    top = max(totals.items(), key=lambda kv: kv[1]) if totals else ("-", 0.0)
    print(f"solved: {grand:.1f} expected attacks; top target {top[0]} ({top[1]:.1f})")
    return EXIT_OK


def cmd_scenario(config: RunConfig, spec_arg: str) -> int:
    spec = scn.BUILTIN_SCENARIOS.get(spec_arg) or scn.ScenarioSpec.from_json(spec_arg)
    params = _load_params(config)
    try:
        alt_params = scn.apply_scenario(params, spec)
    except UnknownCode as e:
        raise ModelError(f"{spec_arg}: {e}") from None
    base = _solve_to_dir(params, config, prefix="base_")
    alt = _solve_to_dir(alt_params, config, prefix="alt_")
    delta = scn.diff_matrices(base, alt)
    out = config.out_dir
    dataset.write_cells(delta.delta, delta.sources, delta.targets, out / "delta.csv",
                        ["source", "target", "delta"])
    dataset.write_csv(out / "ranked_gainers.csv", ["target", "total_delta"], delta.ranked_targets)
    dataset.write_json(out / "run_metadata.json", {
        "config": _echo(config), "scenario": spec.name, "params": params.echo(),
        "base_unroutable": _unroutable(base), "alt_unroutable": _unroutable(alt),
    })
    top = delta.ranked_targets[0] if delta.ranked_targets else ("-", 0.0)
    print(f"scenario {spec.name}: largest per-target change {top[0]} ({top[1]:+.1f})")
    return EXIT_OK


def cmd_sweep(config: RunConfig, a_min: float, a_max: float, step: float) -> int:
    if not (all(map(math.isfinite, (a_min, a_max, step))) and a_min < a_max and step > 0):
        print("error: need finite a_min < a_max and step > 0", file=sys.stderr)
        return EXIT_USAGE
    # a point up to 1e-9 past a_max is kept, so rounding cannot drop the last one
    points = (a_max - a_min + 1e-9) / step + 1
    if points > MAX_GRID_POINTS:
        print(f"error: a grid from {a_min} to {a_max} by {step} has more than "
              f"{MAX_GRID_POINTS} points", file=sys.stderr)
        return EXIT_USAGE
    params = _load_params(config)
    grid = [round(a_min + k * step, 9) for k in range(int(points))]
    curve = scn.deterrence_sweep(params, grid)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    dataset.write_csv(out / "sweep.csv", ["A", "total_attacks", *curve.per_target],
                      zip(curve.a_values, curve.totals, *curve.per_target.values()))
    status = EXIT_OK
    try:
        threshold = scn.find_threshold(curve)
        print(f"threshold A* = {threshold:.2f} (fraction {scn.THRESHOLD_FRACTION})")
    except ThresholdOutOfRange as e:
        threshold = None
        print(f"error: {e}", file=sys.stderr)
        status = EXIT_DOMAIN
    dataset.write_json(out / "run_metadata.json", {
        "config": _echo(config), "params": params.echo(),
        "threshold": threshold, "threshold_fraction": scn.THRESHOLD_FRACTION,
        "grid": {"min": a_min, "max": a_max, "step": step},
    })
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnrisk",
        description="Estimate and solve the transnational attack-allocation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads: argparse rejects any other (exit 2)
    solving = IO_FLAGS | ESTIMATION_FLAGS | MODEL_FLAGS
    for name, doc, arguments in [
        ("validate", "check a data directory against the input schemas", IO_FLAGS),
        ("estimate", "derive the four parameter tables from raw data",
         IO_FLAGS | ESTIMATION_FLAGS),
        ("solve", "compute the baseline attack matrix", solving | ABANDON_FLAG),
        ("scenario", "compare a counterfactual against the baseline",
         solving | ABANDON_FLAG | FORMAT_FLAG | SPEC_ARG),
        ("sweep", "sweep the abandon yield and locate the deterrence threshold",
         solving | GRID_FLAGS),
    ]:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(**FLAG_DEFAULTS)
        for argument, settings in arguments.items():
            p.add_argument(argument, **settings)
        if name == "estimate":
            p.set_defaults(mode="estimate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
    except (ValueError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not config.data_dir.is_dir():
        print(f"error: data directory {config.data_dir} not found", file=sys.stderr)
        return EXIT_USAGE
    run = {
        "validate": lambda: cmd_validate(config),
        "estimate": lambda: cmd_estimate(config),
        "solve": lambda: cmd_solve(config),
        "scenario": lambda: cmd_scenario(config, args.spec),
        "sweep": lambda: cmd_sweep(config, args.a_min, args.a_max, args.step),
    }[args.command]
    try:
        return run()
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
