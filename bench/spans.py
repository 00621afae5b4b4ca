"""In-process span tracer for the traced benchmark run.

The tracer replaces public functions at the module attributes their callers
look them up through, records one span per call (name, start, end, parent,
invocation), and restores the originals on ``uninstall``.  Nothing inside the
program is changed.  A function that no longer exists is skipped, so its
metric reads zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, attribute, metric the span's self time is added to)
TRACE_POINTS = [
    ("tnrisk.cli", "main", "cli.main_self_s"),
    ("tnrisk.dataset", "load_pre_estimated", "dataset.load_s"),
    ("tnrisk.dataset", "load_bundle", "dataset.load_s"),
    ("tnrisk.estimation", "estimate_params", "estimation.estimate_s"),
    ("tnrisk.scenario", "build_network", "network.build_s"),
    ("tnrisk.scenario", "least_cost_to_end", "network.least_cost_s"),
    ("tnrisk.scenario", "transition_matrix", "evader.transition_s"),
    ("tnrisk.scenario", "attack_matrix", "evader.attack_s"),
    ("tnrisk.scenario", "target_totals", "evader.target_totals_s"),
    ("tnrisk.evader", "target_totals", "evader.target_totals_s"),
    ("tnrisk.evader", "write_matrix_csv", "evader.write_s"),
    ("tnrisk.evader", "write_abandoned_csv", "evader.write_s"),
    ("tnrisk.evader", "write_matrix_json", "evader.write_s"),
    ("tnrisk.scenario", "solve", "scenario.solve_s"),
    ("tnrisk.scenario", "deterrence_sweep", "scenario.sweep_self_s"),
    ("tnrisk.scenario", "find_threshold", "scenario.threshold_s"),
    ("tnrisk.scenario", "apply_scenario", "scenario.apply_s"),
    ("tnrisk.scenario", "builtin_scenario", "scenario.apply_s"),
    ("tnrisk.scenario", "fortress", "scenario.apply_s"),
    ("tnrisk.scenario", "homegrown", "scenario.apply_s"),
    ("tnrisk.scenario", "diff_matrices", "scenario.diff_s"),
]

# count metric -> the time metrics whose spans it counts
CALL_COUNTS = {
    "dataset.calls": ("dataset.load_s",),
    "network.calls": ("network.build_s", "network.least_cost_s"),
    "scenario.solve_calls": ("scenario.solve_s",),
}

TIME_METRICS = sorted({metric for _, _, metric in TRACE_POINTS})

# spans of this metric also count the edges of the network they return
EDGES_OF = "network.build_s"


@dataclass
class Span:
    id: int
    parent: int | None
    invocation: int
    name: str
    metric: str
    start: float
    end: float = 0.0
    edges: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    invocation: int = 0
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        for module_name, attr, metric in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}", metric))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.invocation, name, metric,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if metric == EDGES_OF:
                span.edges = len(result.edges)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def metrics(self, invocations: int) -> dict[str, float]:
        """Per-invocation self time of every layer, and the layer counts."""
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        calls = dict.fromkeys(TIME_METRICS, 0)
        for span, own in zip(self.spans, self.self_times()):
            totals[span.metric] += own
            calls[span.metric] += 1
        out = {k: v / invocations for k, v in totals.items()}
        for name, metrics in CALL_COUNTS.items():
            out[name] = sum(calls[m] for m in metrics) / invocations
        out["network.edges"] = sum(s.edges for s in self.spans) / invocations
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
