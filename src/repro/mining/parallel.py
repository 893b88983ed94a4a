"""Parallel sliding-window mining (§4.3's future-work proposal).

"Future research on efficient rule mining with LLMs should focus on
parallelizing the prompting process (e.g., distributing different parts
of the graph to multiple LLMs)."

This pipeline models that deployment: the windows are distributed
round-robin over ``workers`` LLM replicas.  A simulated completion
depends only on the seed and the prompt, so every replica would answer
its windows exactly as the sequential run does; the pipeline therefore
runs the sequential window loop once, with the sequential seed, and
re-times it.  Each replica's time is the sum of its windows' latencies
in window order; the mining wall time is the *makespan* (the slowest
replica), so the speedup over the sequential pipeline approaches the
worker count for large graphs.  Rules, Cypher step and metrics are the
sequential run's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.encoding.windows import DEFAULT_OVERLAP, DEFAULT_WINDOW_SIZE
from repro.mining.pipeline import PipelineContext
from repro.mining.result import MiningRun
from repro.mining.sliding import SlidingWindowPipeline


@dataclass
class WorkerReport:
    """Per-replica accounting for one parallel run."""

    worker_id: int
    windows: int = 0
    seconds: float = 0.0


class ParallelSlidingWindowPipeline(SlidingWindowPipeline):
    """Round-robin window distribution across N simulated LLM replicas."""

    method = "parallel_sliding_window"
    #: a replica answers a window exactly as the sequential run's LLM
    seed_method = SlidingWindowPipeline.method

    def __init__(
        self,
        context: PipelineContext,
        workers: int = 4,
        window_size: int = DEFAULT_WINDOW_SIZE,
        overlap: int = DEFAULT_OVERLAP,
        base_seed: int = 0,
        refine_budget: int = 0,
    ) -> None:
        super().__init__(
            context, window_size=window_size, overlap=overlap,
            base_seed=base_seed, refine_budget=refine_budget,
        )
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.worker_reports: list[WorkerReport] = []

    # ------------------------------------------------------------------
    def mine(self, model: str, prompt_mode: str) -> MiningRun:
        llm, _clock = self.make_llm(model, prompt_mode)
        windows = self.window_set
        with obs.span(
            "mine.parallel_sliding_window",
            dataset=self.context.name, model=llm.name,
            prompt_mode=prompt_mode, workers=self.workers,
            windows=windows.window_count,
        ) as mine_span:
            run = self._new_run(llm.name, prompt_mode)
            per_window_rules, latencies = self.prompt_windows(
                llm, prompt_mode
            )
            reports = [WorkerReport(worker) for worker in range(self.workers)]
            for window, latency in zip(windows.windows, latencies):
                report = reports[window.index % self.workers]
                report.windows += 1
                report.seconds += latency
            for report in reports:
                # one summary span per replica: its share of the windows
                # and the simulated seconds it would spend on them
                with obs.span(
                    "worker",
                    worker_id=report.worker_id, windows=report.windows,
                ) as sp:
                    sp.add_sim_time(report.seconds)
            # makespan: the run finishes when the slowest replica does
            run.mining_seconds = max(report.seconds for report in reports)
            self.worker_reports = reports

            self.finish(run, per_window_rules, llm, prompt_mode)
            mine_span.set_attribute("rules", run.rule_count)
            mine_span.add_sim_time(run.mining_seconds + run.cypher_seconds)
        return run

    # ------------------------------------------------------------------
    def speedup_over_sequential(self, run: MiningRun) -> float:
        """Observed speedup = total work / makespan."""
        total = sum(report.seconds for report in self.worker_reports)
        return total / run.mining_seconds if run.mining_seconds else 0.0
