"""Unit tests for the simulated LLM, fault model and timing."""

import random

import pytest

from repro.cypher import lint, parse
from repro.encoding import IncidentEncoder
from repro.graph import infer_schema
from repro.llm import (
    LLAMA3_PROFILE,
    MIXTRAL_PROFILE,
    SimulatedClock,
    SimulatedLLM,
    flip_first_direction,
    get_profile,
    inject_property_fault,
    inject_syntax_fault,
    maybe_inject,
)
from repro.llm.faults import inject_unsat_fault
from repro.llm.timing import LatencyModel
from repro.prompts import cypher_prompt, few_shot_prompt, zero_shot_prompt
from repro.prompts.examples import examples_text
from repro.rules import parse_rule_list


class TestProfiles:
    def test_lookup(self):
        assert get_profile("llama3") is LLAMA3_PROFILE
        assert get_profile("MIXTRAL") is MIXTRAL_PROFILE
        with pytest.raises(KeyError):
            get_profile("gpt4")

    def test_llama_prefers_simple_kinds(self):
        from repro.rules.model import RuleKind

        assert LLAMA3_PROFILE.kind_weight(RuleKind.UNIQUENESS) > \
            LLAMA3_PROFILE.kind_weight(RuleKind.PATTERN)

    def test_mixtral_prefers_complex_kinds(self):
        from repro.rules.model import RuleKind

        assert MIXTRAL_PROFILE.kind_weight(RuleKind.PATTERN) > \
            MIXTRAL_PROFILE.kind_weight(RuleKind.PROPERTY_EXISTS)

    def test_mixtral_more_error_prone(self):
        assert MIXTRAL_PROFILE.hallucination_rate > \
            LLAMA3_PROFILE.hallucination_rate
        assert MIXTRAL_PROFILE.syntax_fault_rate > \
            LLAMA3_PROFILE.syntax_fault_rate


class TestTiming:
    def test_latency_formula(self):
        model = LatencyModel(
            prefill_tps=100.0, decode_tps=10.0, overhead_seconds=1.0
        )
        assert model.latency(200, 30) == pytest.approx(1.0 + 2.0 + 3.0)

    def test_clock_accumulates(self):
        clock = SimulatedClock()
        llm = SimulatedLLM("llama3", clock=clock)
        llm.complete(zero_shot_prompt("Node a with label X has "
                                      "properties (k: 1)."))
        assert clock.calls == 1
        assert clock.elapsed_seconds > 0
        before = clock.elapsed_seconds
        llm.complete(zero_shot_prompt("Node a with label X has "
                                      "properties (k: 1)."))
        assert clock.elapsed_seconds == pytest.approx(2 * before)


class TestFaults:
    def test_flip_first_direction(self):
        flipped = flip_first_direction(
            "MATCH (a:User)-[:POSTS]->(b:Tweet) RETURN count(*) AS c"
        )
        assert "<-[:POSTS]-" in flipped
        # flipping twice restores the direction
        assert "-[:POSTS]->" in flip_first_direction(flipped)

    def test_flip_no_directed_edge(self):
        assert flip_first_direction("MATCH (a) RETURN a") is None
        assert flip_first_direction(
            "MATCH (a)-[:R]-(b) RETURN a"
        ) is None

    def test_unparseable_query_is_not_flipped(self):
        assert flip_first_direction("MATCH (a RETURN") is None
        assert inject_unsat_fault("MATCH (a RETURN", random.Random(0)) is None

    def test_parser_bug_is_not_mistaken_for_bad_syntax(self, monkeypatch):
        from repro.llm import faults

        def broken_parse(text):
            raise RuntimeError("parser bug")

        monkeypatch.setattr(faults, "parse", broken_parse)
        query = "MATCH (a:User)-[:POSTS]->(b:Tweet) RETURN count(*) AS c"
        with pytest.raises(RuntimeError, match="parser bug"):
            flip_first_direction(query)
        with pytest.raises(RuntimeError, match="parser bug"):
            inject_unsat_fault(query, random.Random(0))

    def test_syntax_fault_regex_equals(self):
        rng = random.Random(0)
        broken = None
        # keep drawing until the =~ variant fires (it is one candidate)
        for seed in range(20):
            candidate = inject_syntax_fault(
                "MATCH (n) WHERE n.x =~ 'a+' RETURN count(*) AS c",
                random.Random(seed),
            )
            if candidate and " = " in candidate:
                broken = candidate
                break
        assert broken is not None
        del rng

    def test_syntax_fault_breaks_parse_or_lint(self, social_schema):
        query = "MATCH (t:Tweet) RETURN count(*) AS c"
        broken = inject_syntax_fault(query, random.Random(1))
        assert broken is not None and broken != query
        assert not lint(broken, social_schema).is_correct

    def test_property_fault_changes_a_property(self):
        query = "MATCH (t:Tweet) WHERE t.id > 0 RETURN t.id AS i"
        mangled = inject_property_fault(query, random.Random(2))
        assert mangled != query

    def test_maybe_inject_rates_zero(self):
        from dataclasses import replace

        clean_profile = replace(
            LLAMA3_PROFILE, direction_flip_rate=0.0,
            syntax_fault_rate=0.0, property_fault_rate=0.0,
        )
        query = "MATCH (a:User)-[:POSTS]->(b:Tweet) RETURN count(*) AS c"
        for seed in range(10):
            result = maybe_inject(query, clean_profile, random.Random(seed))
            assert result.fault is None
            assert result.query == query

    def test_maybe_inject_rates_one(self):
        from dataclasses import replace

        faulty = replace(LLAMA3_PROFILE, direction_flip_rate=1.0)
        query = "MATCH (a:User)-[:POSTS]->(b:Tweet) RETURN count(*) AS c"
        result = maybe_inject(query, faulty, random.Random(0))
        assert result.fault == "direction"


class TestRuleGeneration:
    @pytest.fixture()
    def graph_text(self, social_graph):
        return IncidentEncoder().encode_text(social_graph)

    def test_deterministic_per_prompt(self, graph_text):
        prompt = zero_shot_prompt(graph_text)
        first = SimulatedLLM("llama3", seed=1).complete(prompt)
        second = SimulatedLLM("llama3", seed=1).complete(prompt)
        assert first.text == second.text

    def test_seed_changes_output_or_not_models(self, graph_text):
        prompt = zero_shot_prompt(graph_text)
        llama = SimulatedLLM("llama3", seed=1).complete(prompt)
        mixtral = SimulatedLLM("mixtral", seed=1).complete(prompt)
        assert llama.model == "llama3"
        assert mixtral.model == "mixtral"

    def test_emits_parseable_numbered_rules(self, graph_text):
        completion = SimulatedLLM("llama3").complete(
            zero_shot_prompt(graph_text)
        )
        rules, unparsed = parse_rule_list(completion.text)
        assert rules
        assert unparsed == []
        assert len(rules) <= LLAMA3_PROFILE.max_rules_per_call

    def test_few_shot_emits_fewer_rules(self, graph_text):
        llm = SimulatedLLM("llama3")
        zero = llm.complete(zero_shot_prompt(graph_text))
        few = llm.complete(few_shot_prompt(graph_text, examples_text()))
        zero_rules, _ = parse_rule_list(zero.text)
        few_rules, _ = parse_rule_list(few.text)
        assert len(few_rules) <= len(zero_rules)

    def test_empty_graph_text(self):
        completion = SimulatedLLM("llama3").complete(zero_shot_prompt(""))
        rules, _ = parse_rule_list(completion.text)
        assert rules == []

    def test_token_accounting(self, graph_text):
        completion = SimulatedLLM("llama3").complete(
            zero_shot_prompt(graph_text)
        )
        assert completion.prompt_tokens > completion.completion_tokens
        assert completion.latency_seconds > 0


class TestCypherGeneration:
    def test_generates_executable_query(self, social_graph, social_schema):
        from repro.cypher import execute

        rule_text = "Each Tweet node should have a unique id property."
        prompt = cypher_prompt(rule_text, social_schema.describe())
        # llama3 fault rates are low; seed until a clean generation
        for seed in range(10):
            completion = SimulatedLLM("llama3", seed=seed).complete(prompt)
            report = lint(completion.text, social_schema)
            if report.is_correct:
                assert execute(
                    social_graph, completion.text
                ).scalar() == 1  # ids 10,10,12 -> one unique value
                return
        pytest.fail("no clean generation in 10 seeds")

    def test_orients_pattern_from_prompt_schema(self, social_schema):
        rule_text = (
            "The id property of Tweet nodes must be unique within a "
            "User (via POSTS)."
        )
        prompt = cypher_prompt(rule_text, social_schema.describe())
        completion = SimulatedLLM("llama3", seed=3).complete(prompt)
        query = parse(completion.text)  # must at least parse
        assert query is not None
        # the data direction is (User)-[:POSTS]->(Tweet), so the
        # generated pattern must read Tweet<-POSTS-User
        assert "<-[:POSTS]-" in completion.text

    def test_unparseable_rule_falls_back(self, social_schema):
        prompt = cypher_prompt("Gibberish sentence.",
                               social_schema.describe())
        completion = SimulatedLLM("llama3").complete(prompt)
        assert completion.text == "MATCH (n) RETURN count(*) AS support"

    def test_unknown_prompt_kind(self):
        completion = SimulatedLLM("llama3").complete("just chatting")
        assert "graph or a rule" in completion.text


class TestHallucination:
    def test_hallucination_rate_one_always_swaps(self, social_graph):
        from dataclasses import replace

        profile = replace(LLAMA3_PROFILE, hallucination_rate=1.0)
        text = IncidentEncoder().encode_text(social_graph)
        completion = SimulatedLLM(profile).complete(zero_shot_prompt(text))
        rules, _ = parse_rule_list(completion.text)
        schema = infer_schema(social_graph)
        hallucinated = [
            rule for rule in rules
            if rule.label and rule.properties and not all(
                schema.has_node_property(rule.label, key)
                for key in rule.properties
            )
        ]
        assert hallucinated, completion.text
