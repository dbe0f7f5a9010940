import pytest
from hypothesis import given
from hypothesis import strategies as st

from textforge import bench
from textforge.errors import EmptySampleSet


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        samples = list(range(100, 0, -1))  # order must not matter
        assert bench.percentile(samples, 0.50) == 50
        assert bench.percentile(samples, 0.90) == 90
        assert bench.percentile(samples, 0.99) == 99
        assert bench.percentile(samples, 1.00) == 100

    def test_single_sample_is_every_percentile(self):
        assert bench.percentile([7.5], 0.01) == 7.5
        assert bench.percentile([7.5], 1.0) == 7.5

    def test_empty(self):
        with pytest.raises(EmptySampleSet):
            bench.percentile([], 0.5)

    def test_p_out_of_range(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                bench.percentile([1.0], p)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=50))
    def test_percentiles_are_ordered_and_members(self, samples):
        p50 = bench.percentile(samples, 0.50)
        p90 = bench.percentile(samples, 0.90)
        p99 = bench.percentile(samples, 0.99)
        assert p50 <= p90 <= p99
        assert {p50, p90, p99} <= set(samples)


class TestMeasure:
    def test_counts_and_warmup(self):
        calls = []
        (samples,) = bench.measure_alternating([calls.append], [1, 2, 3, 4], warmup=2)
        assert len(samples) == 4
        # warmup re-runs the first inputs, then every input is timed
        assert calls == [1, 2, 1, 2, 3, 4]
        assert all(s >= 0.0 for s in samples)

    def test_no_requests(self):
        with pytest.raises(EmptySampleSet):
            bench.measure_alternating([lambda x: x], [])

    def test_report_fields(self):
        (report,) = bench.latency_reports({"eager": lambda x: x}, list(range(10)))
        assert report.implementation == "eager"
        assert report.n_requests == 10
        assert report.p50_ms <= report.p90_ms <= report.p99_ms
        assert report.note  # platform string, machine-specific
        payload = report.payload()
        assert payload["implementation"] == "eager"
        assert payload["n_requests"] == 10


class TestFormatting:
    def test_no_reference_line(self):
        # only measured numbers are printed, no external reference figures
        assert bench.format_reports([]) == ""

    def test_report_lines(self):
        reports = [
            bench.LatencyReport("eager", 5, 1.5, 2.5, 3.5, note="box"),
            bench.LatencyReport("exported", 5, 0.5, 0.75, 1.0, note="box"),
        ]
        text = bench.format_reports(reports)
        lines = text.splitlines()
        assert lines[0].startswith("eager")
        assert "p50 1.500 ms" in lines[0]
        assert lines[1].startswith("exported")
        assert "machine: box" in lines[-1]
