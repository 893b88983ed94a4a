"""Full experiment grid: datasets × models × encodings × prompts.

One :class:`ExperimentRunner` draws its contexts and warmed pipelines
from a :class:`~repro.mining.pool.PipelinePool` (so encodings, window
sets and vector indexes are built once, whatever the seed) and produces
the 24 :class:`~repro.mining.result.MiningRun` cells that Tables 2-6 are
assembled from.  Runs are cached by cell key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.datasets.registry import DATASET_NAMES
from repro.llm.profiles import MODEL_NAMES
from repro.mining.pipeline import PROMPT_MODES, BasePipeline, PipelineContext
from repro.mining.pool import METHODS, PipelinePool
from repro.mining.result import MiningRun


@dataclass
class ExperimentRunner:
    """Runs and caches the paper's experiment grid."""

    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16
    pool: PipelinePool = field(default_factory=PipelinePool, repr=False)
    _runs: dict[tuple[str, str, str, str], MiningRun] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    def context(self, dataset: str) -> PipelineContext:
        return self.pool.context(dataset)

    def pipeline(self, dataset: str, method: str) -> BasePipeline:
        """The pooled pipeline for ``method``, set to this grid's seed."""
        pipeline = self.pool.pipeline(
            dataset, method,
            window_size=self.window_size, overlap=self.overlap,
            rag_chunk_tokens=self.rag_chunk_tokens, rag_top_k=self.rag_top_k,
        )
        pipeline.base_seed = self.base_seed
        return pipeline

    # ------------------------------------------------------------------
    def run(
        self, dataset: str, model: str, method: str, prompt_mode: str
    ) -> MiningRun:
        """Run (or fetch) one grid cell."""
        key = (dataset.lower(), model.lower(), method, prompt_mode)
        if key not in self._runs:
            pipeline = self.pipeline(dataset, method)
            with obs.span(
                "grid.cell",
                dataset=key[0], model=key[1], method=method,
                prompt_mode=prompt_mode,
            ):
                self._runs[key] = pipeline.mine(model, prompt_mode)
            obs.inc("grid.cells_run")
        return self._runs[key]

    def run_dataset(self, dataset: str) -> list[MiningRun]:
        """All eight cells for one dataset (Tables 2/3/4 layout)."""
        runs = []
        for prompt_mode in PROMPT_MODES:
            for method in METHODS:
                for model in MODEL_NAMES:
                    runs.append(self.run(dataset, model, method, prompt_mode))
        return runs

    def run_all(self) -> list[MiningRun]:
        """The full 24-cell grid across all three datasets."""
        runs = []
        for dataset in DATASET_NAMES:
            runs.extend(self.run_dataset(dataset))
        return runs
