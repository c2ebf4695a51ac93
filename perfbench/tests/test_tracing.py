import threading

import pytest

from harness.tracing import (
    SUM_TOLERANCE,
    Patches,
    Recorder,
    Span,
    busy_times,
    layer_table,
    self_times,
    sums_to_wall,
)


def span(sid, start, end, parent=None, layer="a", thread=1, group=None):
    s = Span(sid, f"s{sid}", layer, group or layer, start, thread, parent)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 2.0, 3.0, parent=2),
        span(4, 5.0, 6.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 5.0, parent=1), span(3, 3.0, 7.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_is_clipped_to_the_window():
    spans = [span(1, 0.0, 10.0), span(2, 4.0, 12.0, parent=1)]
    assert self_times(spans, window=(2.0, 8.0)) == pytest.approx({1: 2.0, 2: 4.0})


def test_concurrent_threads_keep_separate_parent_stacks():
    recorder = Recorder()
    ready = threading.Barrier(2)
    release = threading.Barrier(2)

    def work(tag):
        outer = recorder.open(f"outer-{tag}", "a", "a")
        ready.wait(timeout=10)  # both outers open before either inner opens
        inner = recorder.open(f"inner-{tag}", "b", "b")
        release.wait(timeout=10)
        recorder.close(inner)
        recorder.close(outer)

    threads = [threading.Thread(target=work, args=(tag,)) for tag in "xy"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    for tag in "xy":
        inner, outer = by_name[f"inner-{tag}"], by_name[f"outer-{tag}"]
        assert inner.parent == outer.sid and outer.parent is None
        assert inner.thread == outer.thread
    assert by_name["outer-x"].thread != by_name["outer-y"].thread
    selfs = self_times(recorder.spans)
    for tag in "xy":
        inner, outer = by_name[f"inner-{tag}"], by_name[f"outer-{tag}"]
        expected = (outer.end - outer.start) - (inner.end - inner.start)
        assert selfs[outer.sid] == pytest.approx(expected)


def test_self_time_of_interleaved_threads():
    # Two threads whose spans overlap in time: neither thread's spans are
    # children of the other's, so each keeps its own self time.
    spans = [
        span(1, 0.0, 10.0, thread=1),
        span(2, 2.0, 8.0, parent=1, thread=1, layer="b"),
        span(3, 1.0, 9.0, thread=2),
        span(4, 3.0, 4.0, parent=3, thread=2, layer="b"),
    ]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 6.0, 3: 7.0, 4: 1.0})
    table = layer_table(spans, (0.0, 10.0), ["a", "b"])
    assert table["threads"] == 2 and table["wall_s"] == pytest.approx(20.0)
    assert table["rows"] == pytest.approx({"a": 11.0, "b": 7.0})
    assert table["other_s"] == pytest.approx(2.0)
    assert sums_to_wall(table)


def test_layer_table_rows_sum_to_wall_time():
    spans = [
        span(1, 1.0, 9.0),
        span(2, 2.0, 5.0, parent=1, layer="b"),
        span(3, 3.0, 4.0, parent=2, layer="a"),
    ]
    table = layer_table(spans, (0.0, 10.0), ["a", "b"])
    assert table["rows"] == pytest.approx({"a": 6.0, "b": 2.0})
    assert table["other_s"] == pytest.approx(2.0)
    assert table["sum_error"] == pytest.approx(0.0)
    assert sums_to_wall(table)


def test_layer_table_flags_spans_that_do_not_nest():
    # A child reaching past its parent's end is billed twice: the check fails.
    spans = [span(1, 0.0, 5.0), span(2, 1.0, 2.0, parent=1), span(3, 3.0, 9.0, parent=1, layer="b")]
    table = layer_table(spans, (0.0, 10.0), ["a", "b"])
    assert table["sum_error"] > SUM_TOLERANCE
    assert not sums_to_wall(table)


def test_sum_tolerance_boundary():
    table = {"sum_error": SUM_TOLERANCE}
    assert sums_to_wall(table)
    assert not sums_to_wall({"sum_error": SUM_TOLERANCE * 1.01})


def test_busy_time_counts_nested_calls_of_one_group_once():
    spans = [
        span(1, 0.0, 10.0, group="engine"),
        span(2, 2.0, 4.0, parent=1, group="engine"),
        span(3, 5.0, 6.0, parent=1, group="cache"),
        span(4, 5.2, 5.5, parent=3, group="engine"),
    ]
    assert busy_times(spans) == pytest.approx({"engine": 10.0, "cache": 1.0})


class Target:
    def work(self, n):
        return n * 2

    def pairs(self):
        yield from (1, 2, 3)


def test_patches_record_spans_and_restore():
    original = Target.__dict__["work"]
    recorder = Recorder()
    patches = Patches(recorder)
    seen = []
    patches.method(Target, "work", "Target.work", "a", after=lambda r, a, k, res: seen.append(res))
    patches.method(Target, "pairs", "Target.pairs", "b", consume=True)
    target = Target()
    assert target.work(3) == 6 and seen == [6]
    assert list(target.pairs()) == [1, 2, 3]
    assert [s.name for s in recorder.spans] == ["Target.work", "Target.pairs"]
    assert recorder.counts["Target.work"] == 1
    patches.restore()
    assert Target.__dict__["work"] is original
    target.work(1)
    assert len(recorder.spans) == 2


def test_calls_from_another_process_are_not_recorded():
    recorder = Recorder()
    patches = Patches(recorder)
    patches.method(Target, "work", "Target.work", "a")
    try:
        recorder.pid = -1  # as in a forked worker
        assert Target().work(2) == 4
        assert recorder.spans == []
    finally:
        patches.restore()
