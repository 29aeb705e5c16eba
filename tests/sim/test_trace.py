"""Unit tests for trace utilities."""

from __future__ import annotations

from repro.sim.events import ExecutionSlice
from repro.sim.trace import ascii_gantt, merge_slices


def sl(task: str, core: int, start: float, end: float) -> ExecutionSlice:
    return ExecutionSlice(task=task, core=core, start=start, end=end)


class TestMergeSlices:
    def test_adjacent_same_task_merged(self):
        merged = merge_slices([sl("a", 0, 0.0, 1.0), sl("a", 0, 1.0, 3.0)])
        assert merged == [sl("a", 0, 0.0, 3.0)]

    def test_gap_not_merged(self):
        merged = merge_slices([sl("a", 0, 0.0, 1.0), sl("a", 0, 2.0, 3.0)])
        assert len(merged) == 2

    def test_different_tasks_not_merged(self):
        merged = merge_slices([sl("a", 0, 0.0, 1.0), sl("b", 0, 1.0, 2.0)])
        assert len(merged) == 2

    def test_different_cores_not_merged(self):
        merged = merge_slices([sl("a", 0, 0.0, 1.0), sl("a", 1, 1.0, 2.0)])
        assert len(merged) == 2

    def test_unsorted_input_handled(self):
        merged = merge_slices([sl("a", 0, 1.0, 3.0), sl("a", 0, 0.0, 1.0)])
        assert merged == [sl("a", 0, 0.0, 3.0)]


class TestAsciiGantt:
    def test_renders_rows_per_core(self):
        text = ascii_gantt(
            [sl("alpha", 0, 0.0, 5.0), sl("beta", 1, 5.0, 10.0)],
            width=10,
        )
        lines = text.splitlines()
        assert lines[0].startswith("core 0:")
        assert lines[1].startswith("core 1:")
        assert "A" in lines[0]
        assert "B" in lines[1]

    def test_idle_shown_as_dots(self):
        text = ascii_gantt([sl("a", 0, 8.0, 10.0)], end=10.0, width=10)
        row = text.splitlines()[0].split(": ")[1]
        assert row.startswith(".")

    def test_empty_input(self):
        assert "no execution slices" in ascii_gantt([])

    def test_dominant_task_wins_bucket(self):
        text = ascii_gantt(
            [sl("aaa", 0, 0.0, 9.0), sl("b", 0, 9.0, 10.0)],
            width=1,
        )
        row = text.splitlines()[0].split(": ")[1]
        assert row == "A"
