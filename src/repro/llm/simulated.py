"""The simulated LLM: deterministic, prompt-bounded, behaviour-profiled.

``SimulatedLLM`` implements the :class:`~repro.llm.base.LLMClient`
protocol with two skills, dispatched on the prompt's section markers:

* **rule generation** — parse the encoded graph text out of the prompt,
  run :class:`~repro.llm.induction.InductionEngine` over *only what is
  visible*, score proposals with the model profile (and the few-shot
  example kinds when present), occasionally hallucinate a property name,
  and emit a numbered list of natural-language rules;
* **Cypher generation** — parse the rule sentence and the schema summary
  out of the prompt, translate with the ground-truth translator oriented
  by that (prompt-supplied) schema, then pass the query through the
  seeded fault injector.

Determinism: each completion seeds its RNG from (base seed, CRC32 of the
prompt), so the same prompt always gets the same answer but different
windows get different noise.

The proposals of a graph text depend on that text alone, so they are
induced once per text and kept in a bounded process-wide memo keyed by
a digest of the text; the profile, seed and few-shot scoring, the
noise, the cap and the hallucination still run on every call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
import re
import threading
import zlib
from collections import OrderedDict

from repro import obs
from repro.encoding.tokenizer import count_tokens
from repro.llm.base import CallLog, Completion, SimulatedClock
from repro.llm.faults import HALLUCINATED_PROPERTY_POOL, maybe_inject
from repro.llm.induction import InductionEngine, Proposal
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.prompt_io import (
    parse_schema_summary,
    parse_visible_graph,
    prompt_sections,
)
from repro.prompts.templates import (
    CORRECTION_TASK,
    EXAMPLES_SECTION,
    FEEDBACK_SECTION,
    GRAPH_SECTION,
    RULE_SECTION,
    SCHEMA_SECTION,
)
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.nl import from_natural_language, parse_rule_list, to_natural_language
from repro.rules.translator import RuleTranslator, UntranslatableRuleError

#: evidence-threshold bump applied under few-shot prompting: examples
#: make the model pickier (fewer rules, higher confidence — §4.3)
FEW_SHOT_THRESHOLD_BUMP = 0.07
#: score multiplier for kinds demonstrated in the few-shot examples
FEW_SHOT_KIND_BOOST = 1.3
#: graph texts whose proposals the memo keeps, least recently used
#: evicted first; every dataset's windows together are 560 texts
PROPOSAL_MEMO_SIZE = 1024


class _ProposalMemo:
    """Induced proposals per graph text, keyed by a digest of the text.

    Thread-safe: induction runs outside the lock, so concurrent misses
    on different texts do not wait for each other.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[bytes, tuple[Proposal, ...]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def proposals(self, graph_text: str) -> tuple[Proposal, ...]:
        key = hashlib.blake2b(
            graph_text.encode("utf-8"), digest_size=16
        ).digest()
        with self._lock:
            proposals = self._entries.get(key)
            if proposals is not None:
                self._entries.move_to_end(key)
                return proposals
        proposals = tuple(
            InductionEngine(parse_visible_graph(graph_text)).propose()
        )
        with self._lock:
            self._entries[key] = proposals
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return proposals

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


_proposal_memo = _ProposalMemo(PROPOSAL_MEMO_SIZE)


@functools.lru_cache(maxsize=16)
def _example_kinds(examples_text: str) -> frozenset[RuleKind]:
    """Rule kinds of a few-shot example block, parsed once per text."""
    example_rules, _unparsed = parse_rule_list(examples_text)
    return frozenset(rule.kind for rule in example_rules)


class SimulatedLLM:
    """A deterministic stand-in for a locally-served LLaMA-3 / Mixtral."""

    def __init__(
        self,
        profile: ModelProfile | str,
        seed: int = 0,
        clock: SimulatedClock | None = None,
        log: CallLog | None = None,
    ) -> None:
        self.profile = (
            get_profile(profile) if isinstance(profile, str) else profile
        )
        self.seed = seed
        self.clock = clock or SimulatedClock()
        self.log = log

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    def complete(self, prompt: str) -> Completion:
        """Answer one prompt (rule generation or Cypher generation)."""
        with obs.span("llm.call", model=self.profile.name) as sp:
            rng = self._rng_for(prompt)
            sections = prompt_sections(prompt)
            if RULE_SECTION in sections:
                if (
                    FEEDBACK_SECTION in sections
                    and CORRECTION_TASK in prompt
                ):
                    skill = "correction"
                    text = self._complete_correction(sections, rng)
                else:
                    skill = "cypher"
                    text = self._complete_cypher(sections, rng)
            elif GRAPH_SECTION in sections:
                skill = "rules"
                text = self._complete_rules(sections, rng)
            else:
                skill = "unknown"
                text = "I need a graph or a rule to work with."
            completion = self._package(prompt, text)
            self.clock.record(completion)
            if self.log is not None:
                self.log.record(completion)
            sp.set_attribute("skill", skill)
            sp.set_attribute("prompt_tokens", completion.prompt_tokens)
            sp.set_attribute("completion_tokens", completion.completion_tokens)
            sp.set_attribute("sim_latency_seconds", completion.latency_seconds)
            sp.add_sim_time(completion.latency_seconds)
            obs.inc("llm.calls", 1, model=self.profile.name, skill=skill)
            obs.inc(
                "llm.prompt_tokens", completion.prompt_tokens,
                model=self.profile.name,
            )
            obs.inc(
                "llm.completion_tokens", completion.completion_tokens,
                model=self.profile.name,
            )
            obs.observe(
                "llm.sim_latency_seconds", completion.latency_seconds,
                model=self.profile.name,
            )
        return completion

    def _rng_for(self, prompt: str) -> random.Random:
        digest = zlib.crc32(prompt.encode("utf-8"))
        return random.Random((self.seed << 32) ^ digest)

    def _package(self, prompt: str, text: str) -> Completion:
        prompt_tokens = count_tokens(prompt)
        completion_tokens = max(1, count_tokens(text))
        latency = self.profile.latency.latency(
            prompt_tokens, completion_tokens
        )
        return Completion(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_seconds=latency,
            model=self.profile.name,
        )

    # ------------------------------------------------------------------
    # rule generation
    # ------------------------------------------------------------------
    def _complete_rules(
        self, sections: dict[str, str], rng: random.Random
    ) -> str:
        proposals = _proposal_memo.proposals(sections[GRAPH_SECTION])

        examples_text = sections.get(EXAMPLES_SECTION)
        example_kinds: frozenset[RuleKind] = frozenset()
        threshold = self.profile.evidence_threshold
        if examples_text:
            example_kinds = _example_kinds(examples_text)
            threshold += FEW_SHOT_THRESHOLD_BUMP

        scored: list[tuple[float, int, Proposal]] = []
        for index, proposal in enumerate(proposals):
            weight = self.profile.kind_weight(proposal.rule.kind)
            if weight <= 0:
                continue
            score = proposal.evidence * weight
            if proposal.rule.kind in example_kinds:
                score *= FEW_SHOT_KIND_BOOST
            score += rng.uniform(-0.04, 0.04)
            if proposal.evidence < threshold:
                continue
            scored.append((score, index, proposal))

        per_call_cap = self.profile.max_rules_per_call
        if example_kinds:
            # few-shot makes the model terser: it imitates the short
            # example list instead of enumerating everything it sees
            per_call_cap = max(3, per_call_cap - 2)

        # greedy pick with a mild diminishing-returns penalty per
        # (kind, label) so one label's properties don't fill every slot
        pool = list(scored)
        kept: list[Proposal] = []
        group_counts: dict[tuple, int] = {}
        while pool and len(kept) < per_call_cap:
            best_at = 0
            best_value = float("-inf")
            for at, (score, _index, proposal) in enumerate(pool):
                group = (
                    proposal.rule.kind,
                    proposal.rule.label or proposal.rule.edge_label,
                )
                value = score * (0.7 ** group_counts.get(group, 0))
                if value > best_value:
                    best_value = value
                    best_at = at
            _score, _index, chosen = pool.pop(best_at)
            group = (
                chosen.rule.kind,
                chosen.rule.label or chosen.rule.edge_label,
            )
            group_counts[group] = group_counts.get(group, 0) + 1
            kept.append(chosen)

        sentences: list[str] = []
        for position, proposal in enumerate(kept, start=1):
            rule = self._maybe_hallucinate(proposal.rule, rng)
            sentences.append(f"{position}. {to_natural_language(rule)}")
        if not sentences:
            return "No consistency rules could be inferred from this data."
        return "\n".join(sentences)

    def _maybe_hallucinate(
        self, rule: ConsistencyRule, rng: random.Random
    ) -> ConsistencyRule:
        """Sometimes swap a property for an invented one (§4.4, cat. 2)."""
        if not rule.properties:
            return rule
        if rng.random() >= self.profile.hallucination_rate:
            return rule
        invented = rng.choice(HALLUCINATED_PROPERTY_POOL)
        properties = tuple(
            invented if index == len(rule.properties) - 1 else key
            for index, key in enumerate(rule.properties)
        )
        mutated = ConsistencyRule(
            kind=rule.kind, text="", label=rule.label,
            properties=properties, edge_label=rule.edge_label,
            src_label=rule.src_label, dst_label=rule.dst_label,
            allowed_values=rule.allowed_values,
            pattern_regex=rule.pattern_regex,
            scope_edge_label=rule.scope_edge_label,
            scope_label=rule.scope_label,
            time_property=rule.time_property,
        )
        return mutated

    # ------------------------------------------------------------------
    # Cypher generation
    # ------------------------------------------------------------------
    def _complete_cypher(
        self, sections: dict[str, str], rng: random.Random
    ) -> str:
        rule = from_natural_language(sections[RULE_SECTION])
        if rule is None:
            return "MATCH (n) RETURN count(*) AS support"
        schema = parse_schema_summary(sections.get(SCHEMA_SECTION, ""))
        translator = RuleTranslator(schema)  # duck-typed: edge_connects
        try:
            queries = translator.translate(rule)
        except UntranslatableRuleError:
            return "MATCH (n) RETURN count(*) AS support"
        if FEEDBACK_SECTION in sections:
            # regeneration with analyzer feedback: a compliant model
            # fixes the query it was told is broken; otherwise it still
            # rerolls the fault dice on a fresh RNG stream
            if rng.random() < self.profile.correction_compliance:
                return queries.check
        injected = maybe_inject(queries.check, self.profile, rng)
        return injected.query

    # ------------------------------------------------------------------
    # rule revision (the refine loop's correction protocol)
    # ------------------------------------------------------------------
    _BAD_PROPERTY_RE = re.compile(r"property '([A-Za-z_]\w*)' does not exist")
    #: value-constrained kinds that relax to a bare existence rule when
    #: the feedback proves the constraint itself is the problem
    _RELAXABLE = frozenset({RuleKind.VALUE_DOMAIN, RuleKind.VALUE_FORMAT})

    def _complete_correction(
        self, sections: dict[str, str], rng: random.Random
    ) -> str:
        rule = from_natural_language(sections[RULE_SECTION])
        if rule is None:
            return "I cannot parse the rule to revise."
        if rng.random() >= self.profile.correction_compliance:
            # non-compliant: restates the rule unchanged
            return f"1. {to_natural_language(rule)}"
        schema = parse_schema_summary(sections.get(SCHEMA_SECTION, ""))
        revised = self._revise_rule(
            rule, sections[FEEDBACK_SECTION], schema, rng
        )
        return f"1. {to_natural_language(revised)}"

    def _revise_rule(
        self, rule: ConsistencyRule, feedback: str, schema, rng: random.Random
    ) -> ConsistencyRule:
        bad_properties = set(self._BAD_PROPERTY_RE.findall(feedback))
        revised = rule
        if bad_properties & set(rule.properties):
            kept = tuple(
                key for key in rule.properties if key not in bad_properties
            )
            if kept:
                revised = dataclasses.replace(rule, text="", properties=kept)
            else:
                # every property was invented: swap in a real one from
                # the prompt's schema summary, dropping any value
                # constraint that was about the invented property
                known = schema.node_properties.get(rule.label or "", [])
                candidates = [k for k in known if k not in bad_properties]
                if not candidates:
                    return rule
                revised = dataclasses.replace(
                    rule, text="",
                    properties=(rng.choice(candidates),),
                    kind=(
                        RuleKind.PROPERTY_EXISTS
                        if rule.kind in self._RELAXABLE else rule.kind
                    ),
                    allowed_values=(),
                    pattern_regex=None,
                )
        lowered = feedback.lower()
        if (
            "unsatisfiable" in lowered
            or "type-confused" in lowered
            or "comparison-with-null" in lowered
        ) and revised.kind in self._RELAXABLE:
            # the value constraint is what the analyzer disproved:
            # relax to the existence rule it strictly implies
            revised = dataclasses.replace(
                revised, text="", kind=RuleKind.PROPERTY_EXISTS,
                allowed_values=(), pattern_regex=None,
            )
        return revised
