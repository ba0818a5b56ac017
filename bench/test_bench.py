"""Guards against a benchmark that silently measures the wrong thing.

    python3 -m pytest bench

Each workload is run once, traced, in a worker process exactly as the
benchmark runs it; about fifteen seconds in all.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    out = {}
    for workload in run.WORKLOADS:
        result = run.run_worker(workload, 7, spans / f"{workload}.json")
        assert result["failures"] == []
        out[workload] = result["layers"]
    return out


def test_bfs_runs_where_expected(layers):
    assert layers["symmetric"]["graphs.distance_partition.calls"] == 0
    assert layers["cli"]["graphs.distance_partition.calls"] > 0
    assert layers["verify"]["graphs.distance_partition.calls"] > 0


def test_canonical_form_only_on_symmetric(layers):
    assert layers["symmetric"]["search.canonical_form.calls"] > 0
    assert layers["cli"]["search.canonical_form.calls"] == 0
    assert layers["verify"]["search.canonical_form.calls"] == 0


def test_repeated_work_is_visible(layers):
    assert layers["cli"]["graphs.bfs_repeat_ratio"] > 1
    assert layers["symmetric"]["search.aut_repeat_ratio"] > 1


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    import workloads

    ops = workloads.build("verify", 7, tmp_path)[:2]
    ops[0] = dataclasses.replace(ops[0], expected=ops[0].expected + 1)
    outcome = workloads.execute(ops)
    assert [name for name, _ in workloads.failures(ops, outcome)] == [ops[0].name]
