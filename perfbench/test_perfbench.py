"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import POOLS, WORKLOADS, Pool, fault_kind  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("count", [11, 12, 50, 407])
def test_tail_leaves_ten_samples_beyond(count):
    values = [float(v) for v in random.Random(count).sample(range(1000),
                                                            count)]
    value, percentile, reported = stats.tail(values)
    assert reported == count
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100 * (count - 10) / count)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * stats.TAIL_BEYOND)


def test_metric_names_are_well_formed():
    names = list(measure.END_TO_END) + list(measure.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert stats.METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_printed_metrics():
    for key, table in (("end_to_end", measure.END_TO_END),
                       ("per_layer", measure.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in BENCHMARK[key]}
        assert declared == table
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_every_printed_metric_carries_its_unit():
    line = stats.result_line(True, 1, 0, {"grade_s": stats.metric(1.5, "s")})
    assert json.loads(line)["metrics"]["grade_s"] == {"value": 1.5,
                                                      "unit": "s"}
    with pytest.raises(ValueError):
        stats.result_line(True, 1, 0, {"grade_s": {"value": 1.5}})
    with pytest.raises(ValueError):
        stats.metric(1.5, "")
    with pytest.raises(ValueError):
        stats.result_line(True, 1, 0, {"bad name": stats.metric(1, "s")})


def test_self_time_excludes_children():
    tracer = Tracer(enabled=True)
    with tracer.span("parent", run="r") as parent:
        pass
    parent.start, parent.end = 0.0, 10.0
    tracer.record("child", 1.0, 3.0, parent)
    tracer.record("child", 2.0, 4.0, parent)  # overlaps the first
    table = tracer.layer_table()
    assert table["parent"]["self_s"] == pytest.approx(7.0)
    assert table["child"] == {"count": 2, "total_s": 4.0, "self_s": 4.0}
    assert all(span.run == "r" for span in tracer.spans)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x") as span:
        assert span is None
    assert tracer.spans == []


def test_stratified_sample_is_seeded_and_proportional():
    pool = Pool(POOLS["ram64-mixed-seq2"])
    first = pool.sample(256, random.Random(7))
    assert first == pool.sample(256, random.Random(7))
    assert first != pool.sample(256, random.Random(8))
    assert len(set(first)) == 256 and first == sorted(first)
    total = len(pool.faults)
    for kind in {fault_kind(f) for f in pool.faults}:
        share = sum(fault_kind(f) == kind for f in pool.faults) / total
        picked = sum(fault_kind(pool.faults[i]) == kind for i in first)
        assert abs(picked - 256 * share) < 1


def test_chunked_reference_matches_one_serial_run():
    pool = Pool(POOLS["ram8-node-seq2"])
    whole = reference.grade_serial(
        pool.netlist, pool.observed, pool.faults, pool.patterns
    )
    assert reference.build(pool, workers=2) == whole
    assert any(whole) and not all(whole)
