"""The benchmark's workloads must run on conekit as it is.

perfbench/worker.py calls conekit's report and cache functions; the tracer
test resolves only the tracer's names, so this test runs the set-up of one
workload of each kind, and one light pass with its own output checks.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
WORKER = os.path.join(PERFBENCH, "worker.py")

pytestmark = pytest.mark.skipif(not os.path.exists(WORKER), reason="perfbench/ is absent")


@pytest.fixture
def worker(monkeypatch):
    # the worker imports its sibling modules (props) by bare name
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    yield mod
    sys.modules.pop("props", None)


def test_light_sweep_pass_has_no_failures(worker, tmp_path):
    wl = worker.ReportWorkload("light-sweep", 1, str(tmp_path))
    wl.setup()
    ops, failures, run_problems = wl.check(wl.run_pass())
    assert ops == 6 * 7  # three presets at two primes, seven light checks each
    assert failures == {} and run_problems == []


def test_engine_gb_sets_up(worker, tmp_path):
    wl = worker.EngineWorkload("engine-gb", 1, str(tmp_path))
    wl.setup()
    assert len(wl.inputs) == 3
    assert all(gens and gens[0].ring.field.p for _, gens, _ in wl.inputs)
