"""Layer spans recorded from outside the package.

The tracer rebinds each layer's public functions to a timing wrapper in every
snse_lab module that holds a reference to them, so calls through imported
names (`from .spectral import advection_array`) and through module attributes
looked up at call time (`snse_lab.solvers.ensemble_run`) are both recorded.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import sys
import time

# layer -> public functions wrapped in a traced run
TARGETS = {
    "spectral": ("advection_array", "to_physical", "from_physical", "leray_project_array"),
    "noise": ("sigma_apply_array", "sigma_adjoint_array"),
    "rng": ("substream",),
    "solvers": ("ensemble_run", "skeleton_forward", "solve_deterministic", "solve_skeleton"),
    "deviation": ("rate_function", "fw_conditional_probe"),
    "lil": ("strassen_cluster_study", "build_probe", "limit_set_distance", "z_process"),
    "config": ("load_config",),
    "persist": ("write_report", "write_manifest"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


def _advection_batch(bound, result) -> dict:
    return {"batch": math.prod(bound.arguments["u"].shape[:-3])}


def _ensemble_path_steps(bound, result) -> dict:
    a = bound.arguments
    return {"path_steps": a["n_paths"] * a["config"].n_steps}


def _rate_counts(bound, result) -> dict:
    return {
        "objective_evaluations": result.diagnostics["objective_evaluations"],
        "iterations": result.iterations,
    }


# span name -> extra values recorded from the call's arguments and result
ANNOTATE = {
    "spectral.advection_array": _advection_batch,
    "solvers.ensemble_run": _ensemble_path_steps,
    "deviation.rate_function": _rate_counts,
}

# span fields: name, start, end, parent index (-1 for a top-level span), run id, extra
NAME, START, END, PARENT, RUN, EXTRA = range(6)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, open_[-1] if open_ else -1, self.run_id, None]
            spans.append(span)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if annotate:
                span[EXTRA] = annotate(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded snse_lab module that refers to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "snse_lab" or n.startswith("snse_lab."))
        ]
        for layer, fns in TARGETS.items():
            home = sys.modules[f"snse_lab.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path: str, start: float, end: float) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "wall": [start, end], "spans": self.spans}, fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def _under(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(record: dict) -> dict:
    """Per-layer counts and self times of one traced run."""
    spans = record["spans"]
    own = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for span, t in zip(spans, own):
        out[f"{span[NAME]}.calls"] += 1
        out[f"{span[NAME]}.self_s"] += t

    def extra_sum(name, key):
        return sum(s[EXTRA][key] for s in spans if s[NAME] == name)

    # batch of the Monte Carlo stepping: advection calls made inside ensemble_run
    batches = [
        s[EXTRA]["batch"]
        for i, s in enumerate(spans)
        if s[NAME] == "spectral.advection_array" and _under(spans, i, "solvers.ensemble_run")
    ]
    out["spectral.advection_array.mean_batch"] = statistics.fmean(batches) if batches else 0.0
    out["solvers.ensemble_run.path_steps"] = extra_sum("solvers.ensemble_run", "path_steps")
    for key in ("objective_evaluations", "iterations"):
        out[f"deviation.rate_function.{key}"] = extra_sum("deviation.rate_function", key)
    lo, hi = record["wall"]
    top = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    out["trace.uncovered_s"] = (hi - lo) - covered(top, lo, hi)
    return out
