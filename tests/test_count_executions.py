"""The summary step of ``tools/count_executions.py`` on a canned log."""

import importlib.util
import json
import os

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "count_executions.py"
)
_spec = importlib.util.spec_from_file_location("count_executions", _PATH)
count_executions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_executions)

READ_MAP_WRITE = "InputDataBuffer[Input] -> TaskPoolMapOperator[ReadParquet] -> TaskPoolMapOperator[MapBatches(run)->Write]"
LOG = "\n".join(
    json.dumps(r)
    for r in [
        {"op": 0, "plan": "InputDataBuffer[Input] -> TaskPoolMapOperator[ReadParquet]", "wall_s": 0.2,
         "frame": "perfbench/workloads.py:205 _canon"},
        {"op": 0, "plan": READ_MAP_WRITE, "wall_s": 0.125, "frame": "perfbench/workloads.py:222 op"},
        {"op": 0, "plan": READ_MAP_WRITE, "wall_s": None, "frame": "perfbench/workloads.py:223 op"},
        {"op": 1, "plan": READ_MAP_WRITE, "wall_s": 0.5, "frame": "perfbench/workloads.py:222 op"},
        {"op": 2, "plan": READ_MAP_WRITE, "wall_s": 0.1, "frame": "perfbench/workloads.py:222 op"},
        {"op": 2, "plan": READ_MAP_WRITE, "wall_s": 0.1, "frame": "perfbench/workloads.py:223 op"},
    ]
)


def _records():
    return [json.loads(line) for line in LOG.splitlines()]


def test_summary_counts_executions_per_op():
    s = count_executions.summarize(_records())
    assert [(o["op"], o["executions"]) for o in s["ops"]] == [(0, 3), (1, 1), (2, 2)]
    assert s["ops"][0]["wall_s"] == 0.325  # an execution with no wall adds none
    assert s["executions_per_op"] == {"median": 2, "min": 1, "max": 3}


def test_report_lists_every_execution_and_the_count():
    text = count_executions.report(_records())
    assert text.count(READ_MAP_WRITE) == 5
    assert "at perfbench/workloads.py:223 op" in text
    assert "op 0: 3 executions, 0.325 s executing" in text
    assert text.splitlines()[-1] == "executions per warm op: median 2, min 1, max 3"


def test_summary_of_no_records():
    assert count_executions.summarize([])["executions_per_op"] == {"median": 0, "min": 0, "max": 0}


UNION_PLAN = (
    "InputDataBuffer[Input] -> TaskPoolMapOperator[MapBatches(tag)], "
    "InputDataBuffer[Input] -> TaskPoolMapOperator[MapBatches(tag)] -> UnionOperator[Union] -> "
    "TaskPoolMapOperator[MapBatches(run)] -> StreamingRepartition[StreamingRepartition]"
)


def test_operators_counts_each_physical_operator_once():
    assert count_executions.operators(READ_MAP_WRITE) == 3  # the fused map+write is one
    assert count_executions.operators(UNION_PLAN) == 7
    assert count_executions.operators("") == 0


def test_summary_and_report_count_operators_per_op():
    s = count_executions.summarize(_records())
    assert [o["plan_operators"] for o in s["ops"]] == [[2, 3, 3], [3], [3, 3]]
    assert [o["operators"] for o in s["ops"]] == [8, 3, 6]
    assert s["operators_per_op"] == {"median": 6, "min": 3, "max": 8}
    text = count_executions.report(_records())
    assert "op 0: 3 executions, 0.325 s executing, 8 operators" in text
    assert "operators per warm op: median 6, min 3, max 8" in text
    assert f" 3 ops  {READ_MAP_WRITE}" in text
