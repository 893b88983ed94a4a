"""Mining pipelines: sliding-window, RAG, their pool and the grid runner."""

from repro.mining.pipeline import (
    FEW_SHOT,
    PROMPT_MODES,
    ZERO_SHOT,
    BasePipeline,
    PipelineContext,
    combine_and_cap,
    run_seed,
)
from repro.mining.parallel import ParallelSlidingWindowPipeline, WorkerReport
from repro.mining.persistence import (
    FORMAT_VERSION,
    UnsupportedFormatError,
    check_format_version,
    load_runs,
    rule_from_dict,
    rule_to_dict,
    run_from_dict,
    run_to_dict,
    save_runs,
)
from repro.mining.pool import PipelinePool
from repro.mining.ragpipe import RAGPipeline, RETRIEVAL_QUERY
from repro.mining.result import MiningRun, RuleResult
from repro.mining.runner import METHODS, ExperimentRunner
from repro.mining.sliding import SlidingWindowPipeline
from repro.mining.summary import SummaryPipeline, build_summary_statements

__all__ = [
    "BasePipeline",
    "ExperimentRunner",
    "FEW_SHOT",
    "FORMAT_VERSION",
    "METHODS",
    "MiningRun",
    "PROMPT_MODES",
    "ParallelSlidingWindowPipeline",
    "PipelineContext",
    "PipelinePool",
    "RAGPipeline",
    "RETRIEVAL_QUERY",
    "RuleResult",
    "SlidingWindowPipeline",
    "SummaryPipeline",
    "UnsupportedFormatError",
    "WorkerReport",
    "ZERO_SHOT",
    "build_summary_statements",
    "check_format_version",
    "combine_and_cap",
    "load_runs",
    "rule_from_dict",
    "rule_to_dict",
    "run_from_dict",
    "run_to_dict",
    "run_seed",
    "save_runs",
]
