"""Unit tests for the ASCII Gantt renderer."""

import pytest

from repro.analysis.gantt import render_gantt
from repro.scheduling.edf import edf_schedule
from repro.scheduling.job import make_jobs
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment


@pytest.fixture
def sched():
    jobs = make_jobs([(0, 10, 4), (2, 8, 2)])
    return Schedule(jobs, {0: [Segment(0, 2), Segment(4, 6)], 1: [Segment(2, 4)]})


class TestRenderGantt:
    def test_one_row_per_scheduled_job(self, sched):
        out = render_gantt(sched, width=20)
        lines = out.splitlines()
        assert len(lines) == 3  # header + 2 jobs
        assert lines[1].startswith("j0")
        assert lines[2].startswith("j1")

    def test_execution_cells_marked(self, sched):
        out = render_gantt(sched, width=10)  # cell = 1 time unit
        j0_row = out.splitlines()[1]
        body = j0_row[len("j0 "):]
        assert body[0] == "█" and body[1] == "█"
        assert body[2] != "█"  # j1 runs at t=2

    def test_window_cells_dotted(self, sched):
        out = render_gantt(sched, width=10)
        j1_row = out.splitlines()[2]
        body = j1_row[len("j1 "):]
        assert body[0] == " "  # before release 2
        assert "·" in body

    def test_include_unscheduled(self):
        jobs = make_jobs([(0, 6, 2), (0, 6, 2)])
        sched = Schedule(jobs, {0: [Segment(0, 2)]})
        out = render_gantt(sched, include_unscheduled=True)
        assert "(rejected)" in out

    def test_empty_instance(self):
        jobs = make_jobs([])
        assert "empty" in render_gantt(Schedule(jobs, {}))

    def test_nothing_scheduled(self):
        jobs = make_jobs([(0, 6, 2)])
        assert "nothing" in render_gantt(Schedule(jobs, {}))

    def test_renders_fraction_times(self):
        from fractions import Fraction

        jobs = make_jobs([(Fraction(0), Fraction(3), Fraction(3, 2))])
        sched = edf_schedule(jobs).schedule
        out = render_gantt(sched, width=12)
        assert "█" in out
