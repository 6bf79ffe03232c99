"""bench/compare.py: the per-metric summary of alternating parent/change
pairs and the diff of the traced counts, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parent.parent / "bench" / "compare.py"
SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cell_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(name, parent, change):
    return [{"parent": {"metrics": {name: a}}, "change": {"metrics": {name: b}}}
            for a, b in zip(parent, change)]


PARENT_SETUP = [0.50, 0.51, 0.52, 0.53, 0.54]


@pytest.mark.parametrize("change, within", [
    ([0.68, 0.69, 0.701, 0.71, 0.72], False),  # +35% against a 25% bound
    ([0.56, 0.57, 0.58, 0.59, 0.60], True),  # +12%
    ([0.40, 0.41, 0.42, 0.43, 0.44], True),  # better
])
def test_within_bound_of_a_lower_is_better_metric(compare, change, within):
    summary = compare._summary(pairs("setup_s", PARENT_SETUP, change), SPEC)["setup_s"]
    assert summary["median_ratio"] == pytest.approx(change[2] / 0.52)
    assert summary["within_bound"] is within


@pytest.mark.parametrize("change, within", [([70.0, 71.0, 72.0], False), ([80.0, 81.0, 82.0], True)])
def test_within_bound_of_a_higher_is_better_metric(compare, change, within):
    summary = compare._summary(pairs("cell_steps_per_s", [100.0, 101.0, 102.0], change), SPEC)
    assert summary["cell_steps_per_s"]["within_bound"] is within
    assert summary["cell_steps_per_s"]["claim_rule_holds"] is False


def smoke(absent=(), **metrics):
    base = {"solver.step.calls": 80.0, "solver.krylov_iters_per_step": 28.125,
            "solver.viscous.iters_per_call": 18.4125, "storage.write_snapshot.bytes": 4737564.0,
            "diagnostics.total_energy.useful_ratio": 1.0, "solver.viscous.busy_s": 0.25}
    return {"metrics": {**base, **metrics}, "absent": list(absent)}


def test_count_diff_ignores_times_and_names_every_count_that_differs(compare):
    assert compare._count_diff(smoke(), smoke(**{"solver.viscous.busy_s": 0.1})) == []
    lines = compare._count_diff(smoke(), smoke(**{
        "solver.krylov_iters_per_step": 28.25, "storage.write_snapshot.bytes": 4737565.0,
        "diagnostics.total_energy.useful_ratio": 0.5, "diagnostics.record_state.calls": 81.0}))
    assert lines == [
        "diagnostics.record_state.calls: parent None change 81.0",
        "diagnostics.total_energy.useful_ratio: parent 1.0 change 0.5",
        "solver.krylov_iters_per_step: parent 28.125 change 28.25",
        "storage.write_snapshot.bytes: parent 4737564.0 change 4737565.0",
    ]


def test_count_diff_names_absent_layers(compare):
    lines = compare._count_diff(smoke(), smoke(absent=["solver.viscous"]))
    assert lines == ["absent on the change: solver.viscous"]
