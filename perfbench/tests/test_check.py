import copy

import pytest

from perfbench import check

REF = check.load_reference()


def fault_result():
    ops = []
    for name, metrics in REF["fault_run"].items():
        run = {"rows": check.STEPS, "diverged": False, "spin": False,
               "finite": True, **metrics}
        ops.append({"name": name, "exit": 0, "runs": [run]})
    return {"ops": ops}


def sweep_result():
    return {"ops": [{"name": k, "v_max": v}
                    for k, v in REF["speed_sweep"].items()]}


DEFAULT = {"seed": REF["default_seed"], "sweep": {"resolution": 0.25}}


def failed(workload, result, inputs=DEFAULT, n_ops=2):
    return [op for op, reasons in
            check.op_failures(workload, inputs, result, REF, n_ops) if reasons]


def test_reference_results_pass():
    assert failed("fault_run", fault_result()) == []
    assert failed("speed_sweep", sweep_result()) == []


def test_drift_below_tolerance_passes():
    result = fault_result()
    result["ops"][0]["runs"][0]["rms_roll"] *= 1.005
    assert failed("fault_run", result) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["ops"][0]["runs"][0].update(max_beta=r["ops"][0]["runs"][0]
                                            ["max_beta"] * 1.05),
    lambda r: r["ops"][0]["runs"][0].update(diverged=True),
    lambda r: r["ops"][0]["runs"][0].update(spin=True),
    lambda r: r["ops"][0]["runs"][0].update(finite=False),
    lambda r: r["ops"][0]["runs"][0].update(rows=9000),
    lambda r: r["ops"][0].update(exit=2),
    lambda r: r["ops"][0].update(error="Traceback\nValueError: x"),
])
def test_perturbed_fault_run_is_counted_failed(perturb):
    result = fault_result()
    perturb(result)
    assert failed("fault_run", result) == ["actuator_fault"]


def test_metric_drift_is_ignored_off_the_recorded_seed_for_generated_inputs():
    result = sweep_result()
    result["ops"][0]["v_max"] += 0.2
    assert failed("speed_sweep", result) == []
    result["ops"][0]["v_max"] += 0.5
    assert failed("speed_sweep", result) == ["baseline"]
    assert failed("speed_sweep", copy.deepcopy(result),
                  inputs={"seed": REF["default_seed"] + 1}) == []


def test_sweep_ratio_below_criterion_fails():
    result = {"ops": [{"name": "baseline", "v_max": 22.0},
                      {"name": "proposed", "v_max": 26.0}]}
    assert failed("speed_sweep", result, inputs={"seed": 99}) == ["proposed"]


def test_missing_result_fails_every_operation():
    assert len(failed("fault_run", None)) == 2
    assert len(failed("fault_run", {"ops": fault_result()["ops"][:1]})) == 1


def test_counter_failure_fails_the_traced_pass():
    result = fault_result()
    result["counter_failures"] = ["plant.step_rk4: 9 != 10"]
    assert len(failed("fault_run", result)) == 2
