"""Each workload's outputs are identical at default threads and at one.

README promises byte-identical CSVs and report.json (minus timing_s)
whatever the worker count; one pass of every workload is run both ways.
"""

import pytest

import bench
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pass_outputs_do_not_depend_on_thread_count(name, tmp_path, monkeypatch):
    monkeypatch.delenv("VIBROAUDIT_THREADS", raising=False)
    workload = WORKLOADS[name]()
    ctx = bench.Context(seed=0)
    workload.setup(ctx, tmp_path / "data")
    workload.prepare(ctx, tmp_path / "data")
    workload.run_pass(ctx, tmp_path / "data", tmp_path / "default")
    monkeypatch.setenv("VIBROAUDIT_THREADS", "1")
    workload.run_pass(ctx, tmp_path / "data", tmp_path / "single")
    assert ctx.failed == 0
    assert bench.same_outputs(tmp_path / "default", tmp_path / "single")
