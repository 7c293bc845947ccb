"""Traced runs report every per-layer metric and the predicted bypasses hold."""

import pytest

import run
import spans

PREDICTED_MEAN_BATCH = {"fw-k10": 256, "lil-k10": 1}


@pytest.mark.parametrize("name", ["rate-k4", "lil-k10", "fw-k10"])
def test_traced_run_bypass_predictions(name):
    result = run.run_once(name, 0, run.scratch_dir(f"test-{name}"), traced=True)
    assert run.problems_of(name, result, run.check.load_reference()) == []
    m = spans.layer_metrics(result["spans"])
    for span_name in spans.SPAN_NAMES:
        assert f"{span_name}.calls" in m and f"{span_name}.self_s" in m
    assert m["config.load_config.calls"] >= 1
    assert m["persist.write_manifest.calls"] == 1
    if name == "rate-k4":
        assert m["spectral.advection_array.calls"] == 0
        assert m["deviation.rate_function.objective_evaluations"] > 0
        assert m["noise.sigma_adjoint_array.calls"] > 0
    else:
        assert m["spectral.advection_array.mean_batch"] == PREDICTED_MEAN_BATCH[name]
        assert m["rng.substream.calls"] > 0
        assert m["solvers.ensemble_run.path_steps"] > 0
