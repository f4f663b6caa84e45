"""Tests for the benchmark's own arithmetic.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import time

import pytest

from stats import (
    Tally,
    anchor_mdape_pct,
    nearest_rank,
    quartile_spread,
    tail_percentile,
)
from tracing import Tracer, self_times, summarize


# -- the percentile rule ---------------------------------------------------------


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(999)), 0.99) is None
        values = list(range(1000))
        # Nearest rank 990 (value 989) leaves exactly 10 samples above it.
        assert tail_percentile(values, 0.99) == 989

    def test_p50_needs_twenty_samples(self):
        assert tail_percentile([1.0] * 19, 0.5) is None
        assert tail_percentile(list(range(20)), 0.5) == 9

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000)]
        assert tail_percentile(values[::-1], 0.99) == tail_percentile(values, 0.99)

    def test_nearest_rank_is_not_pushed_up_by_float_error(self):
        assert nearest_rank(1000, 0.99) == 990
        assert nearest_rank(100, 0.5) == 50
        assert nearest_rank(1, 0.99) == 1

    def test_empty_and_invalid(self):
        assert tail_percentile([], 0.99) is None
        with pytest.raises(ValueError):
            nearest_rank(10, 0.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    # quantiles(n=4) of this series: Q1 10.5, median 12, Q3 13.5.
    assert quartile_spread(values) == pytest.approx(3.0 / 12.0)


# -- error-rate accounting ------------------------------------------------------


class TestTally:
    def test_only_200_is_ok(self):
        tally = Tally()
        for status in (200, 200, 408, 503, 422, None):
            tally.record(status)
        assert tally.attempted == 6
        assert tally.ok == 2
        assert tally.failed == 4
        assert tally.connection_errors == 1
        assert tally.error_rate == pytest.approx(4 / 6)

    def test_merge_sums_phases(self):
        first, second = Tally(), Tally()
        first.record(200)
        first.record(408)
        second.record(None)
        second.record(200)
        both = first.merged(second)
        assert (both.attempted, both.ok, both.failed) == (4, 2, 2)
        assert both.error_rate == 0.5
        # Merging leaves the inputs alone.
        assert first.attempted == 2

    def test_empty_tally(self):
        assert Tally().error_rate == 0.0
        assert "attempted 0" in Tally().describe()


# -- the anchor median ----------------------------------------------------------


def test_anchor_median_is_median_absolute_relative_error():
    rows = [
        ("a", "x", 2.0, 2.2),    # +10 %
        ("b", "y", 4.0, 3.8),    # -5 %
        ("c", "z", -1.0, -1.01),  # 1 % of a negative reference
    ]
    assert anchor_mdape_pct(rows) == pytest.approx(5.0)


def test_anchor_median_of_even_count_averages_the_middle():
    rows = [("a", "", 1.0, 1.01), ("b", "", 1.0, 1.03)]
    assert anchor_mdape_pct(rows) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        anchor_mdape_pct([])


# -- self time ---------------------------------------------------------------------


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 6]
        sids = [0, 1, 2, 3]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 6.0]
        assert list(self_times(sids, parents, starts, ends)) == pytest.approx(
            [6.0, 2.0, 1.0, 1.0]
        )

    def test_children_are_clipped_to_their_parent(self):
        sids = [0, 1, 2]
        parents = [-1, 0, 0]
        starts = [0.0, 1.0, 8.0]
        ends = [10.0, 3.0, 12.0]  # last child runs past its parent
        own = self_times(sids, parents, starts, ends)
        # covered: [1, 3] and [8, 10] -> 4 of 10
        assert own[0] == pytest.approx(6.0)

    def test_missing_parent_makes_a_root(self):
        own = self_times([5, 6], [99, 5], [0.0, 1.0], [4.0, 2.0])
        assert list(own) == pytest.approx([3.0, 1.0])

    def test_tracer_wrappers_nest_and_summarize(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.01)

        traced_leaf = tracer.wrap(leaf, "leaf")

        def outer():
            traced_leaf()
            traced_leaf()
            time.sleep(0.01)

        tracer.wrap(outer, "outer")()
        summary = summarize(tracer)
        assert summary["leaf"]["calls"] == 2
        assert summary["outer"]["calls"] == 1
        assert summary["outer"]["total_s"] >= 0.03
        assert summary["outer"]["self_s"] == pytest.approx(
            summary["outer"]["total_s"] - summary["leaf"]["total_s"]
        )

    def test_generator_time_is_charged_to_the_generator(self):
        tracer = Tracer()

        def produce():
            for item in range(3):
                time.sleep(0.01)
                yield item

        traced = tracer.wrap(produce, "gen")

        def consume():
            return list(traced())

        assert tracer.wrap(consume, "consume")() == [0, 1, 2]
        summary = summarize(tracer)
        assert summary["gen"]["calls"] == 1
        assert summary["gen.next"]["calls"] == 4  # three items and the stop
        assert summary["gen.next"]["self_s"] >= 0.03
        assert summary["consume"]["self_s"] < summary["gen.next"]["self_s"]

    def test_concurrent_tasks_do_not_adopt_each_other(self):
        tracer = Tracer()

        async def leaf(rid):
            tracer.request_id.set(rid)
            await asyncio.sleep(0.01)

        traced_leaf = tracer.wrap(leaf, "leaf")

        async def request(rid):
            await traced_leaf(rid)

        traced_request = tracer.wrap(request, "request")

        async def main():
            await asyncio.gather(traced_request(1), traced_request(2))

        asyncio.run(main())
        spans = tracer.spans()
        names = tracer.names
        by_sid = {int(s["sid"]): s for s in spans}
        for span in spans:
            if names[span["nid"]] == "leaf":
                parent = by_sid[int(span["parent"])]
                assert names[parent["nid"]] == "request"
                # A leaf and its request overlap in time; the two requests
                # overlap too, so only the context can tell them apart.
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        leaves = [s for s in spans if names[s["nid"]] == "leaf"]
        assert sorted(int(s["rid"]) for s in leaves) == [1, 2]
        assert len({int(s["parent"]) for s in leaves}) == 2

    def test_patch_and_restore_reach_by_name_imports(self):
        import types
        import sys

        source = types.ModuleType("perfbench_test_source")
        user = types.ModuleType("perfbench_test_user")

        def target():
            return 42

        source.target = target
        user.target = target  # as after ``from source import target``
        sys.modules[source.__name__] = source
        sys.modules[user.__name__] = user
        try:
            tracer = Tracer()
            tracer.patch(source, "target", "t")
            assert user.target is not target
            assert user.target() == 42
            tracer.restore()
            assert source.target is target and user.target is target
            assert summarize(tracer)["t"]["calls"] == 1
        finally:
            del sys.modules[source.__name__]
            del sys.modules[user.__name__]
