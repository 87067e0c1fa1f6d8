"""Outside-in tracing of deepbnmf: spans around calls from one module into another.

The tracer replaces a function under the name the *calling* module looks it
up by (``deepbnmf.solvers.update_h_simplex``, ``deepbnmf.minvol.beta_div_matrix``,
...) and restores every name when it closes.  No file of the package is
changed.  Spans stay in memory; the caller writes them out when the run ends.

A span's self time is its duration minus the durations of the spans it
directly contains, so the self times of one traced call add up to the
duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

# Which argument tells the factor layer of a call: "rank0"/"rank1" read the
# rank from the columns of argument 0/1, "ctx" from an InnerWContext's W_tilde,
# and "target" reads the columns of the approximated matrix (n for layer 1,
# r_{l-1} for layer l).  Ranks decrease strictly, so columns are unambiguous.
WRAPS = (
    # (calling module, name it looks up, span name, layer key)
    ("cli", "run_command", "cli.run_command", None),
    ("cli", "deep_factorize", "solvers.driver", None),
    ("cli", "read_matrix", "dataio.read", None),
    ("cli", "write_matrix", "dataio.write", None),
    ("cli", "write_trace", "dataio.write", None),
    ("solvers", "deep_factorize", "solvers.driver", None),
    ("solvers", "multilayer_factorize", "solvers.multilayer", None),
    ("solvers", "update_h_simplex", "updates.h", "rank0"),
    ("solvers", "update_w_inner", "updates.w_inner", "ctx"),
    ("solvers", "update_w_terminal", "updates.w_terminal", "rank1"),
    ("solvers", "beta_div_matrix", "divergence.beta_div", "target"),
    ("solvers", "eval_objective", "model.objective", None),
    ("solvers", "logdet_gram", "model.logdet", "rank0"),
    ("solvers", "auto_balance_weights", "model.balance", None),
    ("minvol", "minvol_factorize", "solvers.driver", None),
    ("minvol", "multilayer_factorize", "solvers.multilayer", None),
    ("minvol", "update_h_plain", "updates.h", "rank0"),
    ("minvol", "build_logdet_context", "minvol.logdet_ctx", "rank0"),
    ("minvol", "admm_solve_w", "minvol.admm", "ctx"),
    ("minvol", "z_min_step", "minvol.z_step", None),
    ("minvol", "minvol_terminal_w_step", "minvol.w_terminal", "rank1"),
    ("minvol", "lambert_w0_exp", "scalars.lambert", None),
    ("minvol", "beta_div_matrix", "divergence.beta_div", "target"),
    ("minvol", "eval_objective", "model.objective", None),
    ("minvol", "logdet_gram", "model.logdet", "rank0"),
    ("minvol", "auto_balance_weights", "model.balance", None),
    ("model", "beta_div_matrix", "divergence.beta_div", "target"),
    ("model", "logdet_gram", "model.logdet", "rank0"),
    ("updates", "lambert_w0_exp", "scalars.lambert", None),
)

# Self-time metric of every span name; together they account for the root.
SELF_METRICS = {
    "cli.run_command": "cli.self_s",
    "solvers.driver": "solvers.driver_s",
    "solvers.multilayer": "solvers.multilayer_s",
    "updates.h": "updates.h_s",
    "updates.w_inner": "updates.w_inner_s",
    "updates.w_terminal": "updates.w_terminal_s",
    "scalars.lambert": "scalars.lambert_s",
    "divergence.beta_div": "divergence.beta_div_s",
    "model.objective": "model.objective_s",
    "model.logdet": "model.logdet_s",
    "model.balance": "model.balance_s",
    "minvol.admm": "minvol.admm_s",
    "minvol.z_step": "minvol.z_step_s",
    "minvol.logdet_ctx": "minvol.logdet_ctx_s",
    "minvol.w_terminal": "minvol.w_terminal_s",
    "dataio.read": "dataio.read_s",
    "dataio.write": "dataio.write_s",
}

CALL_METRICS = {
    "updates.h": "updates.h_calls",
    "updates.w_inner": "updates.w_inner_calls",
    "scalars.lambert": "scalars.lambert_calls",
    "divergence.beta_div": "divergence.beta_div_calls",
    "model.logdet": "model.logdet_calls",
    "minvol.admm": "minvol.admm_calls",
}

# Inclusive time of these spans, split by factor layer.
LAYER_GROUPS = {
    "h_s": ("updates.h",),
    "w_s": ("updates.w_inner", "updates.w_terminal", "minvol.admm",
            "minvol.w_terminal", "minvol.logdet_ctx"),
    "objective_s": ("divergence.beta_div", "model.logdet"),
}
MAX_LAYERS = 3


@dataclass
class Span:
    name: str
    parent: int
    layer: int
    start: float = 0.0
    end: float = 0.0
    cells: int = 0
    iterations: int = 0
    converged: bool = False
    bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the wrappers of ``WRAPS``."""

    def __init__(self, n_cols: int, ranks: Sequence[int]):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore = []
        self._layer_of = {
            "rank": {r: i + 1 for i, r in enumerate(ranks)},
            "target": {c: i + 1 for i, c in enumerate((n_cols,) + tuple(ranks[:-1]))},
        }

    def __enter__(self):
        for module_name, attr, span_name, layer_key in WRAPS:
            module = importlib.import_module(f"deepbnmf.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, layer_key))
            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def _layer(self, key: Optional[str], args) -> int:
        if key is None:
            return 0
        if key == "ctx":
            cols, table = args[0].W_tilde.shape[1], self._layer_of["rank"]
        elif key == "target":
            cols, table = args[0].shape[1], self._layer_of["target"]
        else:
            cols, table = args[int(key[-1])].shape[1], self._layer_of["rank"]
        return table.get(cols, 0)

    def _wrap(self, original, name: str, layer_key: Optional[str]):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self._layer(layer_key, args))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in ("scalars.lambert", "divergence.beta_div"):
                span.cells = int(getattr(args[0], "size", 1))
            elif name == "minvol.admm":
                run = result[1]
                span.iterations = run.state.iterations
                span.converged = bool(run.converged)
            elif name == "dataio.write":
                span.bytes = os.path.getsize(args[1])
            return result

        return traced


def span_records(spans: Sequence[Span]) -> List[list]:
    """Spans as plain rows for the run's output file."""
    return [
        [s.name, s.parent, s.layer, s.start, s.end, s.cells, s.iterations, s.converged, s.bytes]
        for s in spans
    ]


def per_layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced call, from its spans."""
    child_seconds = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
    self_s = defaultdict(float)
    calls = Counter()
    by_layer = defaultdict(float)
    group_of = {n: g for g, names in LAYER_GROUPS.items() for n in names}
    cells = Counter()
    admm_iters = admm_converged = bytes_written = 0
    for i, s in enumerate(spans):
        self_s[s.name] += s.seconds - child_seconds[i]
        calls[s.name] += 1
        cells[s.name] += s.cells
        admm_iters += s.iterations
        admm_converged += s.converged
        bytes_written += s.bytes
        if s.layer and s.name in group_of:
            by_layer[f"layer{s.layer}.{group_of[s.name]}"] += s.seconds
    metrics = {metric: self_s[name] for name, metric in SELF_METRICS.items()}
    metrics.update({metric: calls[name] for name, metric in CALL_METRICS.items()})
    lambert_cells = cells["scalars.lambert"]
    metrics["scalars.lambert_cells"] = lambert_cells
    metrics["scalars.lambert_ns_per_cell"] = (
        1e9 * self_s["scalars.lambert"] / lambert_cells if lambert_cells else 0.0
    )
    metrics["divergence.beta_div_cells"] = cells["divergence.beta_div"]
    metrics["minvol.admm_iters"] = admm_iters
    metrics["minvol.admm_converged_ratio"] = (
        admm_converged / calls["minvol.admm"] if calls["minvol.admm"] else 0.0
    )
    metrics["dataio.bytes_written"] = bytes_written
    for layer in range(1, MAX_LAYERS + 1):
        for group in LAYER_GROUPS:
            key = f"layer{layer}.{group}"
            metrics[key] = by_layer[key]
    return metrics
