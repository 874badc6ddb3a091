"""Pure helpers of the repository benchmark: statistics, accounting, spans."""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


class TestTail:
    def test_needs_ten_samples_beyond(self):
        assert harness.tail(range(10)) is None
        assert harness.tail(range(11)) == (0.0, 100.0 / 11, 11)

    def test_highest_percentile_with_ten_beyond(self):
        value, percentile, count = harness.tail(range(1, 101))
        assert value == 90.0
        assert percentile == 90.0
        assert count == 100
        assert sum(1 for v in range(1, 101) if v > value) == 10

    def test_order_of_input_is_irrelevant(self):
        values = [5.0, 1.0, 9.0, 3.0] * 5
        assert harness.tail(values) == harness.tail(sorted(values))


class TestOpenLoop:
    def test_due_times_follow_rate_and_offset(self):
        assert harness.due_times(10.0, 4.0, 3, offset=0.125) == [10.125, 10.375, 10.625]
        with pytest.raises(ValueError):
            harness.due_times(0.0, 0.0, 3)

    def test_on_time_stream_has_no_lag_or_backlog(self):
        due = [0.0, 1.0, 2.0]
        report = harness.open_loop(due, due, [0.5, 1.5, 2.5])
        assert report["latency"] == [0.5, 0.5, 0.5]
        assert report["lag"] == [0.0, 0.0, 0.0]
        assert report["backlog_max"] == 0

    def test_stall_charges_later_requests_from_their_due_time(self):
        # Request 0 stalls for 3 s; requests 1 and 2 fall due meanwhile.
        report = harness.open_loop([0, 1, 2], [0, 3, 3.5], [3, 3.5, 4])
        assert report["latency"] == [3, 2.5, 2]
        assert report["lag"] == [0, 2, 1.5]
        # When request 1 goes out, request 2 is due and still waiting.
        assert report["backlog_max"] == 1

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            harness.open_loop([0, 1], [0], [1])


class TestSelfTimes:
    def test_overlapping_children_are_merged(self):
        spans = [
            ("parent", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 2.0, 5.0, 0),
        ]
        assert harness.self_times(spans) == [6.0, 2.0, 3.0]

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("child", 2.0, 6.0, 0),
            ("grandchild", 3.0, 4.0, 1),
        ]
        assert harness.self_times(spans) == [6.0, 3.0, 1.0]

    def test_child_outside_parent_is_clipped(self):
        spans = [("root", 0.0, 10.0, -1), ("late", 8.0, 12.0, 0)]
        assert harness.self_times(spans)[0] == 8.0


class TestHostClock:
    def clock(self, probes):
        clock = harness.HostClock(ref_ms=1.0, window_s=1.0)
        for start, end, ms in probes:
            clock.record(start, end, ms)
        return clock

    def test_steady_host_scales_by_reference_over_probe(self):
        clock = self.clock([(0.0, 0.001, 2.0), (10.0, 10.001, 2.0)])
        assert clock.normalized(1.0, 3.0) == pytest.approx(1.0)

    def test_probes_inside_an_interval_are_excluded(self):
        clock = self.clock([(0.0, 0.5, 1.0), (2.0, 2.5, 1.0)])
        # 3 s minus the second probe's 0.5 s.
        assert clock.normalized(0.5, 3.5) == pytest.approx(2.5)
        # An interval starting inside a probe loses only the rest of it.
        assert clock.normalized(0.25, 1.0) == pytest.approx(0.5)

    def test_each_stretch_uses_the_probes_near_it(self):
        # Slow host (probe 2 ms) until t=5, then reference speed.
        clock = self.clock(
            [(0.0, 0.0, 2.0), (1.0, 1.0, 2.0), (9.0, 9.0, 1.0), (10.0, 10.0, 1.0)]
        )
        assert clock.probe_ms(0.5, 0.6) == 2.0
        assert clock.probe_ms(9.5, 9.6) == 1.0
        # No probe within 1 s of [4, 6]: the neighbours either side count.
        assert clock.probe_ms(4.0, 6.0) == 1.5
        # [1, 9] is one stretch; all four probes lie within its window.
        assert clock.normalized(1.0, 9.0) == pytest.approx(8.0 / 1.5)

    def test_needs_probes_in_time_order(self):
        clock = self.clock([(1.0, 2.0, 1.0)])
        with pytest.raises(ValueError):
            clock.record(1.5, 3.0, 1.0)
        with pytest.raises(ValueError):
            harness.HostClock().probe_ms(0.0, 1.0)

    def test_probe_records_a_sample(self):
        clock = harness.HostClock(loops=1000)
        clock.probe(2)
        assert len(clock.ms) == 2 and all(ms > 0 for ms in clock.ms)
        assert clock.starts[0] < clock.ends[0] <= clock.starts[1]


class TestTracer:
    def test_spans_nest_and_patches_restore(self):
        calls = []
        holder = SimpleNamespace(
            outer=lambda: holder.inner() + 1, inner=lambda: 41
        )
        original = holder.inner
        tracer = Tracer()
        tracer.patch(holder, "outer", "outer", on_result=calls.append)
        tracer.patch(holder, "inner", "inner")
        assert holder.outer() == 42
        assert calls == [42]
        (outer, o_start, o_end, o_parent), (inner, i_start, i_end, i_parent) = tracer.spans
        assert (outer, o_parent, inner, i_parent) == ("outer", -1, "inner", 0)
        assert o_start <= i_start <= i_end <= o_end
        tracer.restore()
        assert holder.inner is original

    def test_before_hook_runs_outside_the_span(self):
        tracer = Tracer()
        hooked = []
        traced = tracer.wrap(
            "f", lambda: len(tracer.spans), before=lambda: hooked.append(len(tracer.spans))
        )
        assert traced() == 1
        assert hooked == [0]

    def test_span_recorded_when_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        assert tracer.spans[0][2] >= tracer.spans[0][1] > 0


class TestDigests:
    def test_canonical_digest_ignores_key_order(self):
        assert harness.canonical_digest({"a": 1, "b": [1.5]}) == \
            harness.canonical_digest({"b": [1.5], "a": 1})

    def test_figure_digest_sees_the_last_bit(self):
        def result(value):
            return SimpleNamespace(
                figure="fig7", x_values=[20.0],
                means={"no-rc": [value]}, normalized={"no-rc": [1.0]},
            )

        nudged = math.nextafter(3.0, 4.0)
        assert harness.figure_digest(result(3.0)) != harness.figure_digest(result(nudged))
        assert harness.figure_digest(result(3.0)) == harness.figure_digest(result(3.0))


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
