"""Self-tests of the benchmark harness on synthetic spans.

    python3 -m pytest -q perfbench/test_harness.py
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    MIN_BEYOND,
    Patcher,
    Recorder,
    Span,
    failure_count,
    op_index,
    percentile,
    self_times,
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("exact.flux_ladder", 1.0, 3.0, 0),
        Span("exact.steady_state", 2.0, 4.0, 0),  # overlaps its sibling
        Span("exact.build_liouvillian", 9.0, 12.0, 0),  # runs past its parent
        Span("exact.expectation", 1.5, 2.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 3.0 - 1.0  # union [1, 4] plus clipped [9, 10]
    assert selfs[1] == 2.0 - 0.5
    assert selfs[2] == 2.0
    assert selfs[4] == 0.5
    assert op_index(spans) == [0, 0, 0, 0, 0]


def test_self_times_of_a_nested_trace_sum_to_its_wall_time():
    spans = [
        Span("op", 0.0, 8.0, None),
        Span("cli.main", 0.5, 7.5, 0),
        Span("cli.parse_config", 0.6, 1.0, 1),
        Span("sweep.run", 1.0, 7.0, 1),
        Span("cumulant.flux", 1.1, 6.9, 3),
        Span("op", 8.0, 9.0, None),
    ]
    assert abs(sum(self_times(spans)) - 9.0) < 1e-12
    assert op_index(spans) == [0, 0, 0, 0, 0, 5]


def test_percentile_counts_the_samples_beyond_it():
    value, beyond = percentile(range(1, 101), 90)
    assert (value, beyond) == (90, 10)
    assert beyond >= MIN_BEYOND
    _, beyond = percentile(range(1, 100), 90)
    assert beyond < MIN_BEYOND  # 99 samples cannot support p90
    value, beyond = percentile([5.0] * 19 + [1.0], 50)
    assert (value, beyond) == (5.0, 10)
    assert percentile([3.0], 90) == (3.0, 0)


def test_failure_count_counts_each_failed_op_once_and_skips_steps():
    spans = [
        Span("op", 0, 1, None, {"failed": False}),
        Span("exact.steady_state", 0.2, 0.4, 0, {"raised": True}),
        Span("op", 1, 2, None, {"failed": True, "problems": ["raised", "residual"]}),
        Span("step", 2, 3, None, {"failed": False}),
        Span("op", 3, 4, None, {"failed": True}),
        Span("op", 4, 5, None, {}),
    ]
    failed, attempted = failure_count(spans)
    assert (failed, attempted) == (2, 4)
    assert failed / attempted == 0.5


def test_recorder_nests_spans_and_drops_calls_outside_ops():
    rec = Recorder()
    assert rec.open("exact.build_liouvillian") == -1  # e.g. from a check
    op = rec.open("op", pass_index=0)
    inner = rec.open("exact.steady_state")
    rec.close(inner)
    rec.close(op)
    assert [(s.name, s.parent) for s in rec.spans] == [("op", None), ("exact.steady_state", 0)]
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end
    assert rec.close(-1) is None


def test_patcher_swaps_every_reference_and_restores_them():
    def original():
        return "original"

    def replacement():
        return "replacement"

    home, importer = types.ModuleType("home"), types.ModuleType("importer")
    home.f, importer.f_alias, importer.other = original, original, len
    patcher = Patcher([home, importer])
    assert patcher.swap(original, replacement) == 2
    assert home.f is replacement and importer.f_alias is replacement
    patcher.restore()
    assert home.f is original and importer.f_alias is original and importer.other is len
