"""Graph-summarization mining (§5's second future-work direction).

Instead of feeding the LLM the raw encoded graph (windows) or retrieved
chunks (RAG), this pipeline prompts once over a *summary*: a compact,
statistically faithful digest built from the full graph — per-label
counts and property profiles plus a stratified sample of concrete
statements per label and edge type.

The summary keeps induction honest (the LLM still only sees the prompt)
while giving it global coverage at RAG-like cost: one call, a few
thousand tokens.
"""

from __future__ import annotations

import random

from repro.encoding.incident import IncidentEncoder, Statement
from repro.mining.pipeline import (
    BasePipeline,
    PipelineContext,
    combine_and_cap,
)
from repro.mining.result import MiningRun
from repro.prompts.examples import examples_text
from repro.prompts.templates import few_shot_prompt, zero_shot_prompt

#: concrete examples included per node label / edge type
DEFAULT_SAMPLES_PER_LABEL = 12


def build_summary_statements(
    context: PipelineContext,
    samples_per_label: int = DEFAULT_SAMPLES_PER_LABEL,
    seed: int = 0,
) -> list[Statement]:
    """A stratified sample of incident statements covering every label.

    Sampling is seeded and per-label, so small labels are fully covered
    and large labels contribute a representative handful — unlike RAG's
    similarity-driven retrieval, nothing is systematically missed.
    """
    rng = random.Random(seed)
    encoder = IncidentEncoder()
    graph = context.graph
    statements: list[Statement] = []

    for label in graph.node_labels():
        nodes = list(graph.nodes(label=label))
        if len(nodes) > samples_per_label:
            nodes = rng.sample(nodes, samples_per_label)
        for node in nodes:
            statements.append(encoder.encode_node(node))
            # include the node's outgoing edges so endpoint/structure
            # rules remain inducible, capped to keep the prompt small
            for edge in list(graph.out_edges(node.id))[:4]:
                statements.append(encoder.encode_edge(graph, edge))

    for edge_label in graph.edge_labels():
        edges = list(graph.edges(label=edge_label))
        if len(edges) > samples_per_label:
            edges = rng.sample(edges, samples_per_label)
        for edge in edges:
            statements.append(encoder.encode_edge(graph, edge))
            for endpoint in (edge.src, edge.dst):
                statements.append(
                    encoder.encode_node(graph.node(endpoint))
                )
    return statements


class SummaryPipeline(BasePipeline):
    """One prompt over a stratified graph summary."""

    method = "summary"

    def __init__(
        self,
        context: PipelineContext,
        samples_per_label: int = DEFAULT_SAMPLES_PER_LABEL,
        base_seed: int = 0,
    ) -> None:
        super().__init__(context, base_seed=base_seed)
        self.samples_per_label = samples_per_label
        #: (seed the sample was drawn with, its text)
        self._summary: tuple[int, str] | None = None

    @property
    def summary_text(self) -> str:
        """The summary sampled with the current ``base_seed``."""
        if self._summary is None or self._summary[0] != self.base_seed:
            statements = build_summary_statements(
                self.context,
                samples_per_label=self.samples_per_label,
                seed=self.base_seed,
            )
            self._summary = (
                self.base_seed, "\n".join(s.text for s in statements)
            )
        return self._summary[1]

    # ------------------------------------------------------------------
    def mine(self, model: str, prompt_mode: str) -> MiningRun:
        llm, clock = self.make_llm(model, prompt_mode)
        run = MiningRun(
            dataset=self.context.name,
            model=llm.name,
            method=self.method,
            prompt_mode=prompt_mode,
        )
        if prompt_mode == "few_shot":
            prompt = few_shot_prompt(self.summary_text, examples_text())
        else:
            prompt = zero_shot_prompt(self.summary_text)
        completion = llm.complete(prompt)
        run.mining_seconds = clock.elapsed_seconds

        rules = self.parse_completion(
            completion.text, provenance=f"{llm.name}/summary"
        )
        combined = combine_and_cap(
            [rules], llm.profile, prompt_mode,
            self.run_rng(llm.name, prompt_mode),
        )
        self.translate_and_score(run, combined.rules, llm)
        return run
