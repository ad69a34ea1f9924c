"""Self-tests of the benchmark harness. They run in seconds and start no workload."""

import collections
import json
import math
import os
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from coherence_lab import bounds, qubit_protocol, states

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def test_self_time_subtracts_covered_child_intervals():
    # 0: [0, 10] has children 1: [1, 4] and 2: [5, 9]; 2 has child 3: [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [8, 10] of the parent's [0, 10]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(4.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_nearest_rank_percentile_sorts_failed_ops_last():
    values = list(range(1, 100)) + [math.inf]
    assert run.percentile(values, 50.0) == 50
    assert run.percentile(values, 90.0) == 90
    assert run.percentile(values, 100.0) == math.inf


def test_every_wrapped_attribute_is_restored():
    import coherence_lab
    from coherence_lab import cli, optimizer

    before = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("coherence_lab")
        for attr, value in vars(mod).items()
    }
    inits = {cls: cls.__dict__["__init__"] for cls in (states.DensityMatrix, states.BlochState)}
    prop = qubit_protocol.ConcatTrace.__dict__["copies_consumed"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        # names imported by name are wrapped in each module that binds them
        for mod in (bounds, cli, coherence_lab):
            assert hasattr(mod.bound_report, "__bench_original__")
        assert hasattr(optimizer.haar_unitary, "__bench_original__")
        tracer.op_id = 0
        rho = states.DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        bounds.bound_report(rho, states.NumberOperator(3), 1)
        qubit_protocol.run_concatenation(states.BlochState(0.5, 0.0, 0.5)).copies_consumed
        tracer.op_id = None
    finally:
        tracer.uninstall()
    after = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("coherence_lab")
        for attr, value in vars(mod).items()
    }
    assert all(after[key] is value for key, value in before.items())
    assert all(cls.__dict__["__init__"] is init for cls, init in inits.items())
    assert qubit_protocol.ConcatTrace.__dict__["copies_consumed"] is prop
    assert spans.find_wrappers() == []
    layer = tracer.per_layer()
    assert layer["bounds.bound_report.calls"] == 1
    assert layer["qubit_protocol.copies_consumed.calls"] == 1
    assert layer["qubit_protocol.recurrence_step.calls"] == 13


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_op_counts(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.make_pass(1, 0), wl.make_pass(2, 0)
    assert collections.Counter(op.kind for op in a) == collections.Counter(op.kind for op in b)
    assert repr(a) != repr(b)
    assert repr(a) == repr(wl.make_pass(1, 0))


def test_references_match_the_package():
    for nx, nz in ((0.5, 0.5), (0.02, 0.5), (0.01, 0.1)):
        trace = qubit_protocol.run_concatenation(states.BlochState(nx, 0.0, nz))
        last = trace.steps[-1]
        assert workloads.ref_concat(nx, nz) == (len(trace.steps) - 1, last.nx, last.nz)
    rng = np.random.default_rng(3)
    for d in (3, 4):
        rho = workloads.sampling.random_density_matrix(d, 2, rng)
        for j in range(1, d):
            rep = bounds.bound_report(rho, states.NumberOperator(d), j)
            assert workloads.ref_bounds(rho.matrix, j) == pytest.approx(
                (rep.bound1, rep.bound2), abs=1e-12
            )


def test_benchmark_json_names_what_the_harness_reports():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: spans.layer_unit(name) for name in spans.per_layer_names()
    }
