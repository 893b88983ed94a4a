"""Unit tests for the repro.obs tracing/metrics/export subsystem."""

from __future__ import annotations

import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_collector():
    """Every test starts and ends with no collector installed."""
    obs.uninstall()
    yield
    obs.uninstall()


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ----------------------------------------------------------------------
# tracing core
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_attributes(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))
        with obs.span("outer", dataset="mini") as outer:
            outer.set_attribute("extra", 42)
            with obs.span("inner") as inner:
                inner.add_sim_time(1.5)
            with obs.span("inner"):
                pass
        assert len(collector.roots) == 1
        root = collector.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"dataset": "mini", "extra": 42}
        assert [c.name for c in root.children] == ["inner", "inner"]
        assert root.children[0].sim_seconds == 1.5
        assert root.children[0].parent_id == root.span_id
        assert all(s.finished for s in collector.iter_spans())

    def test_noop_without_collector(self):
        assert obs.get_collector() is None
        with obs.span("anything", key="value") as sp:
            sp.set_attribute("a", 1)
            sp.add_sim_time(3.0)
        # nothing was recorded anywhere and nothing raised
        obs.inc("some.counter", 5)
        obs.observe("some.histogram", 0.1)
        obs.set_gauge("some.gauge", 7)
        assert obs.get_collector() is None

    def test_injectable_clock_is_deterministic(self):
        def run_once() -> list[tuple[str, float, float]]:
            collector = obs.install(
                obs.TraceCollector(wall_clock=FakeClock(step=0.25))
            )
            with obs.span("a"):
                with obs.span("b"):
                    pass
            obs.uninstall()
            return [
                (s.name, s.start_wall, s.end_wall)
                for s in collector.iter_spans()
            ]

        assert run_once() == run_once()
        # start/end follow the fake clock exactly: a opens at 0.25,
        # b spans [0.50, 0.75], a closes at 1.00
        assert run_once() == [("a", 0.25, 1.0), ("b", 0.5, 0.75)]

    def test_exception_marks_span_and_unwinds(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (root,) = collector.roots
        assert root.attributes["error"] == "ValueError"
        assert root.finished
        # the per-thread stack is empty again: new spans become roots
        with obs.span("after"):
            pass
        assert [s.name for s in collector.roots] == ["failing", "after"]

    def test_traced_decorator(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))

        @obs.traced("my.op", flavour="test")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        (root,) = collector.roots
        assert root.name == "my.op"
        assert root.attributes == {"flavour": "test"}

    def test_aggregate_by_name(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))
        for _ in range(3):
            with obs.span("work") as sp:
                sp.add_sim_time(2.0)
        stats = collector.aggregate()
        assert stats["work"].count == 3
        assert stats["work"].sim_seconds == pytest.approx(6.0)
        # FakeClock advances 1s per call; each span costs start+end
        assert stats["work"].wall_seconds == pytest.approx(3.0)

    def test_other_threads_grow_orphan_roots(self):
        # stacks are per thread: a span opened on another thread does
        # not nest under this thread's open span
        collector = obs.install()
        with obs.span("client"):
            thread = threading.Thread(
                target=lambda: obs.span("remote").__enter__()
            )
            thread.start()
            thread.join()
        assert {s.name for s in collector.roots} == {"client", "remote"}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_totals(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("llm.calls")
        counter.inc(1, model="llama3")
        counter.inc(2, model="mixtral")
        counter.inc(1, model="llama3")
        assert counter.value(model="llama3") == 2
        assert counter.value(model="mixtral") == 2
        assert counter.total() == 4
        with pytest.raises(ValueError):
            counter.inc(-1)
        # get-or-create returns the same instrument; kind clash raises
        assert registry.counter("llm.calls") is counter
        with pytest.raises(TypeError):
            registry.gauge("llm.calls")

    def test_gauge(self):
        registry = obs.MetricsRegistry()
        gauge = registry.gauge("queue.depth")
        gauge.set(10, worker=1)
        gauge.add(-3, worker=1)
        assert gauge.value(worker=1) == 7
        assert gauge.value(worker=2) == 0

    def test_histogram_bucketing(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        # <=0.1 gets 0.05 and 0.1; <=1.0 gets 0.5 and 1.0; <=10.0 gets
        # 5.0; +Inf overflow gets 100.0
        assert snap.counts == (2, 2, 1, 1)
        assert snap.cumulative() == (2, 4, 5, 6)
        assert snap.count == 6
        assert snap.sum == pytest.approx(106.65)

    def test_histogram_rejects_bad_buckets(self):
        registry = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("dupes", buckets=(1.0, 1.0))

    def test_thread_safety(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("hits")
        hist = registry.histogram("values", buckets=(0.5,))
        threads = 8
        per_thread = 2000

        def work(worker: int) -> None:
            for _ in range(per_thread):
                counter.inc(1, worker=worker % 2)
                hist.observe(0.25)

        pool = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.total() == threads * per_thread
        assert hist.snapshot().count == threads * per_thread

    def test_spans_from_multiple_threads(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))

        def work(worker: int) -> None:
            with obs.span("worker", worker_id=worker):
                with obs.span("step"):
                    obs.inc("steps")

        pool = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # each thread gets its own stack: 6 roots, each with one child
        assert len(collector.roots) == 6
        assert all(len(root.children) == 1 for root in collector.roots)
        assert collector.metrics.counter("steps").total() == 6


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def _sample_collector(self) -> obs.TraceCollector:
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))
        with obs.span("root", dataset="mini") as root:
            root.add_sim_time(4.0)
            with obs.span("leaf", index=0):
                obs.inc("calls", 3, model="llama3")
                obs.observe("lat", 0.2, model="llama3")
                obs.set_gauge("depth", 2)
        obs.uninstall()
        return collector

    def test_jsonl_round_trip(self):
        collector = self._sample_collector()
        text = obs.to_jsonl(collector)
        parsed = obs.parse_jsonl(text)
        assert parsed.span_names() == {"root", "leaf"}
        (root,) = parsed.roots
        assert root.name == "root"
        assert root.attributes == {"dataset": "mini"}
        assert root.sim_seconds == pytest.approx(4.0)
        assert [c.name for c in root.children] == ["leaf"]
        assert root.children[0].attributes == {"index": 0}
        assert parsed.counter_value("calls") == 3
        kinds = {record["kind"] for record in parsed.metrics}
        assert kinds == {"counter", "gauge", "histogram"}

    def test_write_jsonl(self, tmp_path):
        collector = self._sample_collector()
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(collector, str(path))
        parsed = obs.parse_jsonl(path.read_text())
        assert parsed.span_names() == {"root", "leaf"}

    def test_prometheus_text(self):
        collector = self._sample_collector()
        text = obs.prometheus_text(collector.metrics)
        assert "# TYPE calls counter" in text
        assert 'calls{model="llama3"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="+Inf",model="llama3"} 1' in text
        assert 'lat_count{model="llama3"} 1' in text

    def test_summary_table(self):
        collector = self._sample_collector()
        table = obs.summary_table(collector)
        assert "root" in table and "leaf" in table
        assert "calls" in table and "model=llama3" in table


# ----------------------------------------------------------------------
# histogram quantile estimation
# ----------------------------------------------------------------------
class TestQuantiles:
    def _uniform_histogram(self):
        """1000 observations spread evenly over (0, 100] with decade
        buckets: the estimated quantiles land on the exact values."""
        registry = obs.MetricsRegistry()
        hist = registry.histogram(
            "d", buckets=tuple(float(b) for b in range(10, 101, 10))
        )
        for k in range(1000):
            hist.observe(k / 10.0 + 0.05)
        return hist.snapshot()

    def test_uniform_distribution_quantiles(self):
        snap = self._uniform_histogram()
        assert snap.quantile(0.50) == pytest.approx(50.0, abs=0.5)
        assert snap.quantile(0.95) == pytest.approx(95.0, abs=0.5)
        assert snap.quantile(0.99) == pytest.approx(99.0, abs=0.5)
        assert snap.percentiles() == {
            "p50": snap.quantile(0.50),
            "p95": snap.quantile(0.95),
            "p99": snap.quantile(0.99),
        }

    def test_quantiles_are_monotone_and_bounded(self):
        snap = self._uniform_histogram()
        grid = [snap.quantile(q / 20) for q in range(21)]
        assert grid == sorted(grid)
        assert grid[0] >= 0.0
        assert grid[-1] <= snap.buckets[-1]

    def test_single_bucket_interpolation(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("one", buckets=(10.0,))
        for _ in range(4):
            hist.observe(5.0)
        # all mass in (0, 10]: p50 interpolates to the bucket midpoint
        assert hist.snapshot().quantile(0.5) == pytest.approx(5.0)

    def test_overflow_clamps_to_largest_finite_bound(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("c", buckets=(1.0, 2.0))
        for value in (0.5, 50.0, 60.0, 70.0):
            hist.observe(value)
        # p99 falls in the +Inf bucket; the estimate clamps to 2.0
        # rather than inventing an unbounded value
        assert hist.snapshot().quantile(0.99) == 2.0

    def test_empty_histogram_is_zero(self):
        registry = obs.MetricsRegistry()
        snap = registry.histogram("empty", buckets=(1.0,)).snapshot()
        assert snap.quantile(0.5) == 0.0

    def test_out_of_range_q_rejected(self):
        snap = self._uniform_histogram()
        with pytest.raises(ValueError):
            snap.quantile(-0.1)
        with pytest.raises(ValueError):
            snap.quantile(1.1)

    def test_summary_table_shows_percentiles(self):
        collector = obs.install(obs.TraceCollector(wall_clock=FakeClock()))
        for value in (0.1, 0.2, 0.3):
            obs.observe("lat", value)
        obs.uninstall()
        table = obs.summary_table(collector)
        assert "p50" in table and "p95" in table and "p99" in table


# ----------------------------------------------------------------------
# Prometheus exposition-format conformance
# ----------------------------------------------------------------------
class TestPromConformance:
    def test_label_value_escaping(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc(
            1, rule='say "hi"\nback\\slash'
        )
        text = obs.prometheus_text(registry)
        assert (
            'c{rule="say \\"hi\\"\\nback\\\\slash"} 1' in text
        )
        # the raw newline never leaks into the sample line
        assert all(
            line.startswith(("#", "c{")) for line in text.splitlines()
        )

    def test_metric_name_sanitization(self):
        registry = obs.MetricsRegistry()
        registry.counter("llm.calls-total").inc(1)
        registry.counter("9lives").inc(1)
        text = obs.prometheus_text(registry)
        assert "llm_calls_total 1" in text
        # names must not start with a digit
        assert "_9lives 1" in text
        assert "\n9lives" not in text

    def test_label_names_sanitized_and_sorted(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc(1, zeta=1, alpha=2)
        registry.counter("c").inc(1, alpha=2, zeta=1)   # same series
        text = obs.prometheus_text(registry)
        assert 'c{alpha="2",zeta="1"} 2' in text

    def test_output_order_is_stable(self):
        def build() -> obs.MetricsRegistry:
            registry = obs.MetricsRegistry()
            registry.counter("a").inc(1, x=1)
            registry.counter("a").inc(1, x=2)
            registry.histogram("h", buckets=(1.0,)).observe(0.5)
            registry.gauge("g").set(3)
            return registry

        assert obs.prometheus_text(build()) == obs.prometheus_text(build())

    def test_histogram_block_is_complete(self):
        registry = obs.MetricsRegistry()
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(
            0.05, model="llama3"
        )
        text = obs.prometheus_text(registry)
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1",model="llama3"} 1' in text
        assert 'lat_bucket{le="+Inf",model="llama3"} 1' in text
        assert 'lat_sum{model="llama3"} 0.05' in text
        assert 'lat_count{model="llama3"} 1' in text
        # estimated quantiles ride along as untyped companion series
        assert 'lat_p50{model="llama3"}' in text
        assert 'lat_p95{model="llama3"}' in text
        assert 'lat_p99{model="llama3"}' in text
        assert "# TYPE lat_p50" not in text
