"""repro.obs — tracing, metrics and profiling for the mining stack.

Usage from instrumentation sites::

    from repro import obs

    with obs.span("llm.call", model=name) as sp:
        ...
        sp.set_attribute("prompt_tokens", tokens)
        sp.add_sim_time(latency)
    obs.inc("llm.calls", 1, model=name)

All helpers are no-ops until a collector is installed with
:func:`obs.install` (the CLI's ``--obs``/``--trace-out`` flags do this),
so instrumentation can stay default-on in every hot path.
"""

from __future__ import annotations

from repro.obs.analyze import (
    ATTRIBUTION_MODES,
    CostRow,
    NameStats,
    aggregate_names,
    attribute_costs,
    chrome_trace,
    critical_path,
    flamegraph_folded,
    load_trace,
    span_tokens,
)
from repro.obs.distributed import (
    TraceAssembler,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    span_from_wire,
    span_to_wire,
)
from repro.obs.export import (
    ParsedSpan,
    ParsedTrace,
    parse_jsonl,
    prometheus_text,
    render_rows,
    summary_table,
    to_jsonl,
    write_jsonl,
)
from repro.obs.server import JsonRequestHandler
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    SpanStats,
    TraceCollector,
    get_collector,
    install,
    span,
    traced,
    uninstall,
)

__all__ = [
    "ATTRIBUTION_MODES",
    "CostRow",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "JsonRequestHandler",
    "MetricsRegistry",
    "NameStats",
    "ParsedSpan",
    "ParsedTrace",
    "Span",
    "SpanStats",
    "TraceAssembler",
    "TraceCollector",
    "aggregate_names",
    "attribute_costs",
    "chrome_trace",
    "critical_path",
    "flamegraph_folded",
    "format_traceparent",
    "get_collector",
    "inc",
    "install",
    "load_trace",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_jsonl",
    "parse_traceparent",
    "prometheus_text",
    "render_rows",
    "set_gauge",
    "span",
    "span_from_wire",
    "span_to_wire",
    "span_tokens",
    "summary_table",
    "to_jsonl",
    "traced",
    "uninstall",
    "write_jsonl",
]


def inc(name: str, amount: float = 1, **labels: object) -> None:
    """Increment a counter on the installed collector (no-op if none)."""
    collector = get_collector()
    if collector is not None:
        collector.metrics.counter(name).inc(amount, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge on the installed collector (no-op if none)."""
    collector = get_collector()
    if collector is not None:
        collector.metrics.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation (no-op if none installed)."""
    collector = get_collector()
    if collector is not None:
        collector.metrics.histogram(name).observe(value, **labels)
