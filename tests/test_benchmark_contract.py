"""What the benchmark harness in perfbench/ relies on: the reference outputs and the traced names.

The harness checks every pass against the digests in reference.json, and
its tracer replaces functions by name in the modules they are looked up
from.  A changed output byte or a renamed function would otherwise show
only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_reference(workload):
    outputs = workloads.run_pass(workload, list(workloads.WORKLOADS[workload][0]))
    assert workloads.mismatches(workload, outputs, REFERENCE[workload]) == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_workload_outputs_match_reference(workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = workloads.run_pass(workload, list(workloads.WORKLOADS[workload][0]), tracer)
    finally:
        tracer.uninstall()
    assert workloads.mismatches(workload, outputs, REFERENCE[workload]) == []
    # the harness dumps every span, with the spec string of its analysis, as JSON
    assert tracer.spans
    json.dumps(tracer.spans)


@pytest.mark.parametrize(
    "module,attr",
    [(module, attr) for module, attr, _, _ in tracing.PATCHES],
    ids=[f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.PATCHES],
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(module, attr, None))
