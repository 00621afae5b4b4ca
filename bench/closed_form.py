"""Independent output check: the closed-form logit allocation, computed with numpy.

For source i and target j, with u_ij = T_ij + I_j + Y_j,

    N_ij = S_i * exp(-lam * u_ij) / (sum_k exp(-lam * u_ik) + exp(-lam * A))

Blocked pairs (T_ij infinite) are masked *before* multiplying by lam, so lam = 0
stays defined.  A source with no finite route and no abandon option sends
nothing anywhere; its supply is counted as unroutable, so mass conservation
reads  sum_j N_ij + abandoned_i + unroutable_i = S_i.

Nothing here calls into the solver.  Pre-estimated tables are parsed from their
CSV files; estimate-mode runs pass the ``ModelParams`` that
``tnrisk.estimation.estimate_params`` returns, converted by ``from_params``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

RTOL = 1e-9
# Absolute floor for cells near zero, far above the solver's rounding error there.
ATOL = 1e-12
BLOCKED_FLOOR = 1e100


@dataclass
class Problem:
    sources: list[str]  # codes with positive supply, sorted
    targets: list[str]  # codes with interception and yield, sorted
    S: np.ndarray  # (n_sources,)
    T: np.ndarray  # (n_sources, n_targets), inf where blocked
    I: np.ndarray  # (n_targets,)
    Y: np.ndarray  # (n_targets,)

    @property
    def cells(self) -> int:
        return len(self.sources) * len(self.targets)


def _cost(text) -> float:
    v = float(text)
    return math.inf if v >= BLOCKED_FLOOR else v


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and any(c.strip() for c in r)]
    return rows[1:]


def _vector(path: Path) -> dict[str, float]:
    return {r[0].strip(): float(r[1]) for r in _read_rows(path)}


def _build(S: dict[str, float], T: dict[tuple[str, str], float],
           I: dict[str, float], Y: dict[str, float]) -> Problem:
    sources = sorted(c for c, s in S.items() if s > 0)
    targets = sorted(set(I) & set(Y))
    tmat = np.array([[0.0 if i == j else T.get((i, j), math.inf) for j in targets]
                     for i in sources], dtype=float).reshape(len(sources), len(targets))
    return Problem(sources, targets, np.array([S[i] for i in sources], dtype=float), tmat,
                   np.array([I[j] for j in targets], dtype=float),
                   np.array([Y[j] for j in targets], dtype=float))


def read_pre_estimated(directory: str | Path) -> Problem:
    """Parse the four pre-estimated tables of a data directory's ``pre_estimated``."""
    d = Path(directory)
    T = {(r[0].strip(), r[1].strip()): _cost(r[2]) for r in _read_rows(d / "barriers.csv")}
    return _build(_vector(d / "supply.csv"), T, _vector(d / "interception.csv"),
                  _vector(d / "yield.csv"))


def from_params(params) -> Problem:
    """Problem from a ``tnrisk.params.ModelParams`` (used for estimate mode)."""
    T = {k: (math.inf if v >= BLOCKED_FLOOR else v) for k, v in params.T.items()}
    return _build(dict(params.S), T, dict(params.I), dict(params.Y))


def block_off_diagonal(problem: Problem, dest: str | None = None) -> Problem:
    """Block every foreign route (into ``dest`` only, when given); domestic ones stay."""
    src = np.array(problem.sources)[:, None]
    tgt = np.array(problem.targets)[None, :]
    mask = src != tgt
    if dest is not None:
        mask &= tgt == dest
    return replace(problem, T=np.where(mask, math.inf, problem.T))


def apply_spec(problem: Problem, spec_path: str | Path) -> tuple[Problem, float | None]:
    """Apply a JSON spec's barrier overrides; return the problem and its ``a_override``."""
    doc = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    unsupported = set(doc) - {"name", "barrier_overrides", "a_override"}
    if unsupported:
        raise ValueError(f"closed-form check does not model {sorted(unsupported)}")
    T = problem.T.copy()
    src = np.array(problem.sources)
    tgt = np.array(problem.targets)
    for origin, dest, value in doc.get("barrier_overrides", []):
        cost = _cost(value)
        rows = np.ones(len(src), bool) if origin == "*" else src == origin
        cols = np.ones(len(tgt), bool) if dest == "*" else tgt == dest
        sel = rows[:, None] & cols[None, :] & (src[:, None] != tgt[None, :])
        T[sel] = cost
    a = doc.get("a_override")
    return replace(problem, T=T), None if a is None else _cost(a)


def allocate(problem: Problem, lam: float, A: float):
    """Closed-form (N, abandoned, unroutable) for one abandon yield."""
    u = problem.T + (problem.I + problem.Y)[None, :]
    routable = np.isfinite(u)
    x = np.where(routable, -lam * np.where(routable, u, 0.0), -np.inf)
    a = -lam * A if math.isfinite(A) else -np.inf
    shift = np.maximum(x.max(axis=1, initial=-np.inf), a)
    dead = ~np.isfinite(shift)
    shift = np.where(dead, 0.0, shift)
    w = np.exp(x - shift[:, None])
    wa = np.exp(a - shift)
    z = w.sum(axis=1) + wa
    z = np.where(dead, 1.0, z)
    S = problem.S
    N = S[:, None] * w / z[:, None]
    abandoned = S * wa / z
    unroutable = np.where(dead, S, 0.0)
    return N, abandoned, unroutable


def _close(got, ref) -> np.ndarray:
    return np.abs(np.asarray(got) - np.asarray(ref)) <= RTOL * np.abs(ref) + ATOL


def read_matrix_csv(path: Path, problem: Problem) -> np.ndarray:
    si = {c: k for k, c in enumerate(problem.sources)}
    ti = {c: k for k, c in enumerate(problem.targets)}
    N = np.zeros((len(si), len(ti)))
    for src, tgt, value in _read_rows(path):
        N[si[src], ti[tgt]] = float(value)
    return N


def check_solve(out: Path, problem: Problem, lam: float, A: float, prefix: str = "") -> list[str]:
    """Errors in one solved matrix and its abandoned column (empty list when correct)."""
    errors = []
    ref, ref_ab, unroutable = allocate(problem, lam, A)
    try:
        got = read_matrix_csv(out / f"{prefix}attack_matrix.csv", problem)
        got_ab = _vector(out / f"{prefix}abandoned.csv")
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"{prefix}outputs unreadable: {e!r}"]
    bad = ~_close(got, ref)
    if bad.any():
        k = np.argwhere(bad)[0]
        errors.append(f"{prefix}attack_matrix: {int(bad.sum())} cells off, e.g. "
                      f"{problem.sources[k[0]]}->{problem.targets[k[1]]} "
                      f"{float(got[tuple(k)])!r} vs {float(ref[tuple(k)])!r}")
    ab = np.array([got_ab.get(c, math.nan) for c in problem.sources])
    if not _close(ab, ref_ab).all():
        errors.append(f"{prefix}abandoned differs from the closed form")
    mass = got.sum(axis=1) + ab + unroutable
    if not (np.abs(mass - problem.S) <= RTOL * problem.S).all():
        errors.append(f"{prefix}mass not conserved: max residual "
                      f"{float(np.nanmax(np.abs(mass - problem.S)))!r}")
    return errors


def sweep_grid(a_min: float, a_max: float, step: float) -> list[float]:
    n = int(math.floor((a_max - a_min) / step + 1e-9)) + 1
    return [round(a_min + k * step, 9) for k in range(n)]


def threshold(a_values, totals, fraction: float = 0.5) -> float:
    """Smallest A where totals reach fraction * max, linearly interpolated on the grid."""
    target = fraction * max(totals)
    if totals[0] >= target:
        return a_values[0]
    for k in range(1, len(totals)):
        if totals[k] >= target:
            a0, a1, t0, t1 = a_values[k - 1], a_values[k], totals[k - 1], totals[k]
            return a1 if t1 == t0 else a0 + (target - t0) * (a1 - a0) / (t1 - t0)
    raise ValueError("threshold not reached on the grid")


def check_sweep(out: Path, problem: Problem, lam: float, grid: list[float]) -> list[str]:
    """Errors in ``sweep.csv`` and the threshold in ``run_metadata.json``."""
    per_target = np.array([allocate(problem, lam, a)[0].sum(axis=0) for a in grid])
    totals = per_target.sum(axis=1)
    try:
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))
        header, body = rows[0], np.array(rows[1:], dtype=float)
    except (OSError, ValueError, IndexError) as e:
        return [f"sweep outputs unreadable: {e!r}"]
    errors = []
    if header != ["A", "total_attacks"] + problem.targets or body.shape[0] != len(grid):
        return [f"sweep.csv has shape {body.shape} and header {header[:3]}..."]
    if not np.array_equal(body[:, 0], grid):
        errors.append("sweep.csv A column differs from the grid")
    if not _close(body[:, 1], totals).all():
        errors.append("sweep.csv totals differ from the closed form")
    if not _close(body[:, 2:], per_target).all():
        errors.append("sweep.csv per-target columns differ from the closed form")
    ref = threshold(grid, list(totals))
    got = meta.get("threshold")
    if got is None or not abs(got - ref) <= RTOL * abs(ref) + RTOL:
        errors.append(f"threshold {got!r} vs closed form {ref!r}")
    return errors
