"""The output check passes the recorded reports and fails perturbed ones."""

import copy

import pytest

import check
import workloads

REFERENCE = check.load_reference()


def report_of(name, seed=0):
    config = workloads.make_config(name, seed, "unused")
    return config, {"results": copy.deepcopy(REFERENCE[name][str(config["seed"])])}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reference_reports_pass(name):
    config, report = report_of(name)
    assert check.check_report(name, config, report, REFERENCE) == []


def test_every_pool_seed_has_a_reference():
    for name in workloads.NAMES:
        assert sorted(map(int, REFERENCE[name])) == list(range(workloads.SEED_POOL))


def test_rounding_level_change_passes():
    config, report = report_of("lil-k10", seed=3)
    report["results"]["rows"][5]["distance"] *= 1 + 1e-12
    assert check.check_report("lil-k10", config, report, REFERENCE) == []


def test_perturbed_float_fails():
    config, report = report_of("lil-k10", seed=3)
    report["results"]["rows"][5]["distance"] *= 1 + 1e-4
    problems = check.check_report("lil-k10", config, report, REFERENCE)
    assert len(problems) == 1 and "rows[5].distance" in problems[0]


def test_changed_count_fails():
    config, report = report_of("rate-k4")
    report["results"]["diagnostics"]["objective_evaluations"] += 1
    assert check.check_report("rate-k4", config, report, REFERENCE)


def test_rate_oracle_catches_wrong_value_even_with_matching_reference():
    config, report = report_of("rate-k4")
    wrong = dict(REFERENCE)
    wrong["rate-k4"] = {str(config["seed"]): copy.deepcopy(report["results"])}
    report["results"]["value"] *= 1.01
    wrong["rate-k4"][str(config["seed"])]["value"] = report["results"]["value"]
    problems = check.check_report("rate-k4", config, report, wrong)
    assert problems and "half target energy" in problems[0]


def test_fw_oracle_rejects_all_zero_hits():
    config, report = report_of("fw-k10")
    for row in report["results"]["rows"]:
        row["p_hat"] = 0.0
    problems = check.check_report("fw-k10", config, report, REFERENCE)
    assert any("not inside (0, 1)" in p for p in problems)
