"""Future-work comparison table (beyond the paper's grid).

Compares all four context strategies implemented here — sequential
sliding windows, parallel sliding windows, RAG retrieval and stratified
summary — on one dataset, quantifying the efficiency directions §4.3 and
§5 sketch.
"""

from __future__ import annotations

from repro.experiments.report import Table, fmt_float
from repro.mining import ParallelSlidingWindowPipeline, SummaryPipeline
from repro.mining.runner import ExperimentRunner


def build(
    runner: ExperimentRunner,
    dataset: str = "wwc2019",
    model: str = "llama3",
    workers: int = 4,
) -> Table:
    """Strategy comparison for one (dataset, model), zero-shot.

    The two paper strategies are the runner's own grid cells, mined on
    its warm pipelines; the two extensions are built here.
    """
    context = runner.context(dataset)
    runs = {
        "SWA (paper)": runner.run(
            dataset, model, "sliding_window", "zero_shot"
        ),
        f"SWA parallel x{workers}": ParallelSlidingWindowPipeline(
            context, workers=workers, base_seed=runner.base_seed
        ).mine(model, "zero_shot"),
        "RAG (paper)": runner.run(dataset, model, "rag", "zero_shot"),
        "Summary": SummaryPipeline(
            context, base_seed=runner.base_seed
        ).mine(model, "zero_shot"),
    }
    table = Table(
        title=(
            f"Extensions: context strategies on {context.name} "
            f"({model}, zero-shot)"
        ),
        headers=[
            "Strategy", "#rules", "Supp", "Cov%", "Conf%",
            "Mining s", "Correct",
        ],
    )
    for name, run in runs.items():
        metrics = run.aggregate_metrics()
        table.add_row(
            name,
            metrics.rule_count,
            fmt_float(metrics.avg_support, 0),
            fmt_float(metrics.avg_coverage),
            fmt_float(metrics.avg_confidence),
            fmt_float(run.mining_seconds, 2),
            f"{run.correct_queries}/{run.generated_queries}",
        )
    return table
