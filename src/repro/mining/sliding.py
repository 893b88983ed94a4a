"""Sliding Window Attention pipeline (Figure 2a).

The encoded graph is divided into 8,000-token windows with 500 tokens of
overlap; the LLM is prompted once per window; per-window rules are
combined into the final set.  Mining time therefore grows with the
number of windows — the Table 5 mechanism.
"""

from __future__ import annotations

from repro import obs
from repro.encoding.windows import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SIZE,
    SlidingWindowChunker,
    WindowSet,
)
from repro.llm.simulated import SimulatedLLM
from repro.mining.pipeline import BasePipeline, PipelineContext
from repro.mining.result import MiningRun
from repro.rules.model import ConsistencyRule


class SlidingWindowPipeline(BasePipeline):
    """Window → prompt-per-window → combine → Cypher → metrics."""

    method = "sliding_window"

    def __init__(
        self,
        context: PipelineContext,
        window_size: int = DEFAULT_WINDOW_SIZE,
        overlap: int = DEFAULT_OVERLAP,
        base_seed: int = 0,
        refine_budget: int = 0,
    ) -> None:
        super().__init__(
            context, base_seed=base_seed, refine_budget=refine_budget
        )
        self.chunker = SlidingWindowChunker(
            window_size=window_size, overlap=overlap
        )
        self._window_set: WindowSet | None = None

    @property
    def window_set(self) -> WindowSet:
        """Windows over this context's encoding (chunked lazily, once)."""
        if self._window_set is None:
            self._window_set = self.chunker.chunk_statements(
                self.context.statements
            )
        return self._window_set

    def warm(self) -> None:
        """Chunk the windows now instead of on the first ``mine()``."""
        self.window_set

    # ------------------------------------------------------------------
    def mine(self, model: str, prompt_mode: str) -> MiningRun:
        llm, clock = self.make_llm(model, prompt_mode)
        windows = self.window_set
        with obs.span(
            "mine.sliding_window",
            dataset=self.context.name, model=llm.name,
            prompt_mode=prompt_mode, windows=windows.window_count,
        ) as mine_span:
            run = self._new_run(llm.name, prompt_mode)
            per_window_rules, _latencies = self.prompt_windows(
                llm, prompt_mode
            )
            run.mining_seconds = clock.elapsed_seconds
            self.finish(run, per_window_rules, llm, prompt_mode)
            mine_span.set_attribute("rules", run.rule_count)
            mine_span.add_sim_time(clock.elapsed_seconds)
        return run

    def _new_run(self, model_name: str, prompt_mode: str) -> MiningRun:
        """An empty run record carrying the window accounting."""
        windows = self.window_set
        return MiningRun(
            dataset=self.context.name,
            model=model_name,
            method=self.method,
            prompt_mode=prompt_mode,
            window_count=windows.window_count,
            broken_statements=windows.broken_statement_count,
            broken_patterns=windows.broken_pattern_count,
        )

    def prompt_windows(
        self, llm: SimulatedLLM, prompt_mode: str
    ) -> tuple[list[list[ConsistencyRule]], list[float]]:
        """Prompt every window in order.

        Returns each window's rules and its completion's simulated
        latency, both in window order.
        """
        per_window_rules: list[list[ConsistencyRule]] = []
        latencies: list[float] = []
        for window in self.window_set.windows:
            prompt = self.rule_prompt(window.text, prompt_mode)
            with obs.span("window", index=window.index) as sp:
                completion = llm.complete(prompt)
                rules = self.parse_completion(
                    completion.text,
                    provenance=f"{llm.name}/window-{window.index}",
                )
                sp.set_attribute("rules", len(rules))
            per_window_rules.append(rules)
            latencies.append(completion.latency_seconds)
            obs.inc("mining.windows_prompted", model=llm.name)
        return per_window_rules, latencies
