"""Self-time arithmetic and per-layer aggregation on synthetic span trees."""

import pytest

from spans import covered, layer_metrics, self_times


def span(name, start, end, parent, extra=None):
    return [name, start, end, parent, "synthetic", extra]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == pytest.approx(5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_child_coverage():
    spans = [
        span("solvers.ensemble_run", 0.0, 10.0, -1),
        span("spectral.advection_array", 1.0, 4.0, 0),
        span("spectral.to_physical", 1.5, 2.0, 1),
        span("spectral.to_physical", 2.5, 3.5, 1),
        span("noise.sigma_apply_array", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 1.0, 1.0])


def test_layer_metrics_sums_calls_self_time_and_extras():
    spans = [
        span("config.load_config", 0.5, 1.0, -1),
        span("solvers.solve_deterministic", 1.0, 2.0, -1),
        span("spectral.advection_array", 1.2, 1.4, 1, {"batch": 1}),
        span("solvers.ensemble_run", 3.0, 9.0, -1, {"path_steps": 512}),
        span("spectral.advection_array", 4.0, 6.0, 3, {"batch": 256}),
        span("spectral.advection_array", 6.0, 8.0, 3, {"batch": 256}),
        span("persist.write_manifest", 9.5, 10.0, -1),
    ]
    m = layer_metrics({"wall": [0.0, 10.0], "spans": spans})
    assert m["spectral.advection_array.calls"] == 3
    assert m["spectral.advection_array.self_s"] == pytest.approx(4.2)
    assert m["solvers.ensemble_run.self_s"] == pytest.approx(2.0)
    assert m["solvers.solve_deterministic.self_s"] == pytest.approx(0.8)
    # batch of the Monte Carlo stepping only: the batch-1 call is outside ensemble_run
    assert m["spectral.advection_array.mean_batch"] == 256
    assert m["solvers.ensemble_run.path_steps"] == 512
    assert m["deviation.rate_function.calls"] == 0
    assert m["trace.uncovered_s"] == pytest.approx(10.0 - 8.0)
