"""What perfbench binds of the program, checked without running the benchmark.

perfbench (``perfbench/``) wraps functions by name, reads their arguments,
counts each suite's records and warms each workload up.  A rename, a
deleted function or a moved call in ``src/`` can break a benchmark run
that no other test makes: these tests import its modules, change nothing
in them and check each binding.
"""

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from casimir_lab import verify
from casimir_lab.foliation import FoliatedState

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1729


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return SimpleNamespace(**{name: importlib.import_module(name)
                                  for name in ("tracing", "workloads", "worker")})
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(tracing, span):
    """The function the tracer wraps under ``span``, or None."""
    if span == "foliation.from_alpha":  # the classmethod, wrapped on the class
        return vars(FoliatedState)["from_alpha"].__func__
    layer = tracing.span_layer(span)
    module = importlib.import_module(tracing.LAYERS[layer])
    attrs = dict(tracing.layer_functions(layer, module))
    return getattr(module, attrs[span]) if span in attrs else None


def test_layers_and_explicit_names_exist(bench):
    for layer, modname in bench.tracing.LAYERS.items():
        module = importlib.import_module(modname)
        for attr in bench.tracing.EXPLICIT.get(layer, {}):
            assert inspect.isfunction(getattr(module, attr, None)), f"{layer}.{attr}"


def test_required_spans_resolve(bench):
    for workload, spans in bench.workloads.REQUIRED_SPANS.items():
        for span in spans:
            assert inspect.isfunction(_resolve(bench.tracing, span)), (workload, span)


def test_expected_checks_are_the_declared_ones(bench):
    # no suite runs: a unit declares the records it writes
    for suite, count in bench.workloads.EXPECTED_CHECKS.items():
        assert sum(len(unit.checks) for unit in verify.SUITES[suite]) == count


def test_work_counts_read_existing_arguments(bench):
    reads = {"fluid.euler_evolve": ("t_final", "dt"),
             "forms3.transport.transport": ("u", "t_final", "dt")}
    assert set(bench.tracing.WORK) == {*reads, "kernels.rk4_loop"}
    for span, names in reads.items():
        params = inspect.signature(_resolve(bench.tracing, span)).parameters
        assert set(names) <= set(params), span
    # read positionally, as args[5]
    loop = _resolve(bench.tracing, "kernels.rk4_loop")
    assert list(inspect.signature(loop).parameters)[5] == "n_steps"


def test_workloads_warm_up(bench):
    for name, workload in bench.workloads.WORKLOADS.items():
        workload(SEED).warm()
    assert bench.worker.software_facts()["using_numba"] is False


@pytest.mark.parametrize("name", ["chain", "rattleback"])
def test_traced_unit_fires_required_spans(bench, name):
    # a span that no longer fires (a call moved out of a wrapped function)
    # makes the benchmark's traced run incorrect
    wl = bench.workloads.WORKLOADS[name](SEED)
    with bench.tracing.Tracer() as tracer:
        checks, _ = wl.run(wl.prepare(1))
    fired = bench.tracing.summarize(tracer.spans)
    assert [s for s in bench.workloads.REQUIRED_SPANS[name] if s not in fired] == []
    assert all(passed for *_, passed in checks)
