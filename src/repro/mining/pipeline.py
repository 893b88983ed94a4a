"""Shared pipeline machinery (Figure 1).

Every pipeline shares everything but *how the graph text reaches the
LLM*: the :class:`PipelineContext` (graph, schema, encoded statements,
built once per dataset), the rule prompt, and one finishing path
(:meth:`BasePipeline.finish`) — the combination of per-call rules into
a final set, semantic dedup, the second LLM step translating each rule
to Cypher, the §4.4 correction, and the metric evaluation.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro import obs
from repro.analysis import StaticAnalyzer
from repro.correction.corrector import QueryCorrector
from repro.datasets.base import Dataset
from repro.encoding.incident import IncidentEncoder, Statement
from repro.graph.schema import GraphSchema, infer_schema
from repro.graph.store import PropertyGraph
from repro.llm.base import SimulatedClock
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.simulated import SimulatedLLM
from repro.metrics.definitions import RuleMetrics
from repro.metrics.evaluator import evaluate_rule
from repro.mining.result import MiningRun, RuleResult
from repro.prompts.examples import examples_text
from repro.prompts.templates import (
    cypher_prompt,
    few_shot_prompt,
    zero_shot_prompt,
)
from repro.refine import RefineLoop
from repro.refine.loop import TARGET_CODES
from repro.rules.dedup import deduplicate, merge_property_exists, prune_implied
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.nl import parse_rule_list

ZERO_SHOT = "zero_shot"
FEW_SHOT = "few_shot"
PROMPT_MODES = (ZERO_SHOT, FEW_SHOT)


@dataclass
class PipelineContext:
    """Per-dataset state shared across models, prompts and methods."""

    dataset: Dataset
    statements: list[Statement]
    schema: GraphSchema
    schema_summary: str
    #: the dataset's one analyzer: every pipeline's corrector, triage
    #: and semantic dedup share its query-text memo
    analyzer: StaticAnalyzer

    @property
    def graph(self) -> PropertyGraph:
        return self.dataset.graph

    @property
    def name(self) -> str:
        return self.dataset.graph.name

    @classmethod
    def build(cls, dataset: Dataset, encoder=None) -> "PipelineContext":
        encoder = encoder or IncidentEncoder()
        with obs.span("encode", dataset=dataset.graph.name) as sp:
            statements = encoder.encode(dataset.graph)
            schema = infer_schema(dataset.graph)
            sp.set_attribute("statements", len(statements))
            obs.inc(
                "encode.statements", len(statements),
                dataset=dataset.graph.name,
            )
        return cls(
            dataset=dataset,
            statements=statements,
            schema=schema,
            schema_summary=schema.describe(),
            analyzer=StaticAnalyzer(schema),
        )


@dataclass
class _CombinedRules:
    """Output of the rule-combination step."""

    rules: list[ConsistencyRule]
    per_call_counts: list[int] = field(default_factory=list)


def combine_and_cap(
    per_call_rules: list[list[ConsistencyRule]],
    profile: ModelProfile,
    prompt_mode: str,
    rng: random.Random,
) -> _CombinedRules:
    """§3.1.1's combination step.

    Dedup by signature, fuse same-label PROPERTY_EXISTS rules into one
    multi-property rule (the paper's "date *and stage*" example), rank by
    how many calls re-derived each rule, and select under the profile's
    budget with a diversity penalty so one label cannot flood the set.

    Frequency ranking lets schema-wide regularities beat one-off
    (possibly hallucinated) rules — yet low-frequency rules survive when
    budget remains, so hallucinations reach Table 6 as in the paper.
    """
    frequency: dict[tuple, int] = {}
    first_seen: dict[tuple, tuple[int, ConsistencyRule]] = {}
    order = 0
    for call_rules in per_call_rules:
        for rule in call_rules:
            signature = rule.signature()
            frequency[signature] = frequency.get(signature, 0) + 1
            if signature not in first_seen:
                first_seen[signature] = (order, rule)
                order += 1

    cap = profile.swa_rule_cap
    if prompt_mode == FEW_SHOT:
        cap = max(3, cap - profile.few_shot_reduction)

    # A rule must recur across calls to be trusted: one-off proposals
    # (most hallucinations) fall below the floor.  The floor stays at 2
    # even for many windows because labels cluster in the encoding — a
    # rule about a small label may only ever be visible to the one or
    # two windows covering its region.  Single-call runs (RAG) have no
    # recurrence signal, so the floor is 1 there.
    calls = len(per_call_rules)
    floor = 2 if calls > 1 else 1
    survivors = {
        signature: (order, rule)
        for signature, (order, rule) in first_seen.items()
        if frequency[signature] >= floor
    }
    if not survivors:  # tiny inputs: keep everything rather than nothing
        survivors = dict(first_seen)

    # PROPERTY_EXISTS members must also be frequent *relative to their
    # label's strongest property* before fusing — otherwise a recurring
    # hallucinated property (easy to hit with hundreds of windows) would
    # poison the merged rule
    label_max: dict[str, int] = {}
    for signature, (_order, rule) in survivors.items():
        if rule.kind is RuleKind.PROPERTY_EXISTS and rule.label:
            label_max[rule.label] = max(
                label_max.get(rule.label, 0), frequency[signature]
            )
    filtered = {
        signature: (order, rule)
        for signature, (order, rule) in survivors.items()
        if not (
            rule.kind is RuleKind.PROPERTY_EXISTS
            and rule.label
            and frequency[signature]
            < max(floor, 0.3 * label_max.get(rule.label, 0))
        )
    }
    candidates = [rule for _sig, (_ord, rule) in sorted(
        filtered.items(), key=lambda item: item[1][0]
    )]
    survivors = filtered
    # fuse per-label existence rules; the fused rule inherits the
    # *maximum* member frequency so it keeps its ranking position
    fused = merge_property_exists(candidates)
    fused_frequency: dict[tuple, int] = {}
    for rule in fused:
        if rule.kind is RuleKind.PROPERTY_EXISTS:
            members = [
                frequency[sig] for sig, (_o, member) in survivors.items()
                if member.kind is RuleKind.PROPERTY_EXISTS
                and member.label == rule.label
            ]
            fused_frequency[rule.signature()] = max(members, default=1)
        else:
            fused_frequency[rule.signature()] = frequency.get(
                rule.signature(), 1
            )

    ranked = sorted(
        enumerate(fused),
        key=lambda item: (-fused_frequency[item[1].signature()], item[0]),
    )

    # greedy selection with a diminishing-returns penalty per (kind,
    # label) group: diverse rule sets, like the paper's appendix lists
    kept: list[ConsistencyRule] = []
    group_counts: dict[tuple, int] = {}
    pool = [rule for _index, rule in ranked]
    while pool and len(kept) < cap:
        best_index = 0
        best_score = float("-inf")
        for index, rule in enumerate(pool):
            group = (rule.kind, rule.label or rule.edge_label)
            penalty = 0.55 ** group_counts.get(group, 0)
            score = fused_frequency[rule.signature()] * penalty
            if score > best_score:
                best_score = score
                best_index = index
        chosen = pool.pop(best_index)
        group = (chosen.kind, chosen.label or chosen.edge_label)
        group_counts[group] = group_counts.get(group, 0) + 1
        kept.append(chosen)

    # occasionally a one-off rule (often a hallucination) still makes the
    # final set, as the paper's category-2 queries attest
    rare_pool = pool + [
        rule for signature, (_order, rule) in first_seen.items()
        if signature not in survivors
    ]
    if rare_pool and len(kept) >= cap and rng.random() < 0.2:
        kept[-1] = rng.choice(rare_pool)
    return _CombinedRules(
        rules=kept,
        per_call_counts=[len(rules) for rules in per_call_rules],
    )


def run_seed(*parts: object, base_seed: int = 0) -> int:
    """Stable seed derived from the run coordinates."""
    key = "|".join(str(part) for part in parts)
    return (base_seed << 32) ^ zlib.crc32(key.encode("utf-8"))


class BasePipeline:
    """Steps 2-4 of the pipeline; subclasses implement rule mining."""

    method = "base"
    #: the method in the run-seed coordinates of the LLM and combination
    #: RNG; a pipeline that only re-times another's run seeds like it
    seed_method: str | None = None

    def __init__(
        self,
        context: PipelineContext,
        base_seed: int = 0,
        refine_budget: int = 0,
    ) -> None:
        self.context = context
        self.base_seed = base_seed
        #: LLM retries the refine loop may spend per broken rule; 0
        #: (the default) disables refinement so paper-grid runs are
        #: bit-identical to the pre-refine pipeline
        self.refine_budget = refine_budget
        self.corrector = QueryCorrector(
            context.schema, analyzer=context.analyzer
        )
        #: shared semantic analyzer (also used by the corrector's
        #: classifier); set to None to disable pre-execution triage
        self.analyzer = self.corrector.analyzer
        #: optional wrapper applied to every LLM this pipeline creates —
        #: the service layer uses it to inject transient-failure faults
        #: (and a real deployment could use it for rate limiting or
        #: logging) without subclassing the pipelines
        self.llm_middleware = None

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Pre-build any lazily-initialised shared state.

        Subclasses override this to chunk windows / build vector
        indexes up front, so concurrent ``mine()`` calls only ever read
        shared state and benchmarks measure mining, not setup.
        """

    # ------------------------------------------------------------------
    def make_llm(
        self, model: str | ModelProfile, prompt_mode: str
    ) -> tuple[SimulatedLLM, SimulatedClock]:
        profile = get_profile(model) if isinstance(model, str) else model
        clock = SimulatedClock()
        llm = SimulatedLLM(
            profile=profile,
            seed=run_seed(
                self.context.name, profile.name,
                self.seed_method or self.method, prompt_mode,
                base_seed=self.base_seed,
            ),
            clock=clock,
        )
        if self.llm_middleware is not None:
            llm = self.llm_middleware(llm)
        return llm, clock

    def run_rng(self, model_name: str, prompt_mode: str) -> random.Random:
        return random.Random(
            run_seed(
                self.context.name, model_name,
                self.seed_method or self.method, prompt_mode,
                "combine", base_seed=self.base_seed,
            )
        )

    # ------------------------------------------------------------------
    def mine(self, model: str, prompt_mode: str) -> MiningRun:
        raise NotImplementedError

    @staticmethod
    def rule_prompt(text: str, prompt_mode: str) -> str:
        """The zero- or few-shot rule-mining prompt over ``text``."""
        if prompt_mode == FEW_SHOT:
            return few_shot_prompt(text, examples_text())
        return zero_shot_prompt(text)

    def finish(
        self,
        run: MiningRun,
        per_call_rules: list[list[ConsistencyRule]],
        llm: SimulatedLLM,
        prompt_mode: str,
    ) -> None:
        """§3.1.1's tail: combine, semantic dedup, translate and score."""
        combined = combine_and_cap(
            per_call_rules, llm.profile, prompt_mode,
            self.run_rng(llm.name, prompt_mode),
        )
        self.translate_and_score(
            run, self.semantic_dedup(combined.rules), llm
        )

    # ------------------------------------------------------------------
    def semantic_dedup(
        self, rules: list[ConsistencyRule]
    ) -> list[ConsistencyRule]:
        """Collapse alpha-renamed / orientation-flipped duplicates.

        ``combine_and_cap`` dedups by field signature, which treats the
        same constraint written with swapped endpoint order as two rules;
        the analyzer's canonical form catches those before the Cypher
        step pays for both.  Implication pruning then drops rules a
        strictly-stronger survivor provably subsumes (A ⇒ B keeps A,
        records B in ``A.implied_by``).
        """
        kept = deduplicate(rules, analyzer=self.context.analyzer)
        collapsed = len(rules) - len(kept)
        if collapsed:
            obs.inc("analysis.semantic_duplicates", collapsed)
        pruned = prune_implied(kept, self.context.schema)
        if len(pruned) < len(kept):
            obs.inc("analysis.implied_pruned", len(kept) - len(pruned))
        return pruned

    # ------------------------------------------------------------------
    def translate_and_score(
        self,
        run: MiningRun,
        rules: list[ConsistencyRule],
        llm: SimulatedLLM,
    ) -> None:
        """Second LLM step, correction protocol, metric evaluation."""
        clock_before = llm.clock.elapsed_seconds
        refiner = (
            RefineLoop(
                self.corrector, self.context.schema_summary, llm,
                graph=self.context.graph, budget=self.refine_budget,
            )
            if self.refine_budget > 0 else None
        )
        for rule in rules:
            with obs.span(
                "translate", rule_kind=rule.kind.name, rule=rule.text
            ) as sp:
                prompt = cypher_prompt(rule.text, self.context.schema_summary)
                completion = llm.complete(prompt)
                outcome = self.corrector.correct(rule, completion.text)
                sp.set_attribute("corrected", outcome.corrected)
                analysis, skipped = self._triage(outcome)
                sp.set_attribute(
                    "verdict",
                    analysis.verdict.value if analysis else None,
                )
                if outcome.metric_queries is not None and not skipped:
                    metrics = evaluate_rule(
                        self.context.graph, outcome.metric_queries
                    )
                else:
                    metrics = RuleMetrics(support=0, relevant=0, body=0)
                refinement = None
                if refiner is not None and (
                    skipped
                    or outcome.metric_queries is None
                    or metrics.support == 0
                ):
                    refinement = refiner.refine(rule, outcome)
                    sp.set_attribute("refined", refinement.recovered)
                    if refinement.recovered:
                        rule = refinement.rule
                        outcome = refinement.outcome
                        analysis = refinement.analysis
                        skipped = refinement.triage_skipped
                        metrics = refinement.metrics or RuleMetrics(
                            support=0, relevant=0, body=0
                        )
                run.results.append(RuleResult(
                    rule=rule, outcome=outcome, metrics=metrics,
                    analysis=analysis, triage_skipped=skipped,
                    refinement=refinement,
                ))
        run.cypher_seconds = llm.clock.elapsed_seconds - clock_before
        run.llm_calls = llm.clock.calls
        run.prompt_tokens = llm.clock.prompt_tokens
        run.completion_tokens = llm.clock.completion_tokens

    def _triage(self, outcome) -> tuple:
        """Statically analyze one corrected query before execution.

        Returns ``(analysis_report, skip_evaluation)``.  Evaluation is
        skipped when the rule's *satisfy* query is provably unable to
        produce a row (UNSAT) or unable to run at all (parse error) —
        support is then certainly 0 — and also when the *delivered*
        final query is statically doomed or nulls its own comparisons
        (type confusion): the mined rule was never validly checked, so
        it scores zero until the refine loop repairs it.
        """
        if self.analyzer is None:
            return None, False
        analysis = self.analyzer.analyze(outcome.final_query)
        obs.inc(f"analysis.verdict.{analysis.verdict.value}")
        obs.observe("analysis.findings", len(analysis.findings))
        skipped = False
        if analysis.verdict.dooms_execution or (
            TARGET_CODES & analysis.codes()
        ):
            skipped = True
        elif outcome.metric_queries is not None:
            triage = self.analyzer.triage(outcome.metric_queries.satisfy)
            if not triage.should_evaluate:
                skipped = True
        if skipped:
            obs.inc("analysis.triaged_out")
        return analysis, skipped

    @staticmethod
    def parse_completion(
        completion_text: str, provenance: str
    ) -> list[ConsistencyRule]:
        rules, _unparsed = parse_rule_list(
            completion_text, provenance=provenance
        )
        return rules
