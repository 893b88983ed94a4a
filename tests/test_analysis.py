"""Unit tests for the semantic static analyzer (repro.analysis) plus the
end-to-end triage path through the mining pipeline."""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.analysis import (
    AnalysisReport,
    StaticAnalyzer,
    Verdict,
    analyze_query,
    canonical_form,
    canonical_signature,
    worst,
)
from repro.cypher import parse
from repro.datasets.base import Dataset, DirtReport
from repro.graph import PropertyGraph, infer_schema
from repro.mining import PipelineContext, SlidingWindowPipeline
from repro.mining.persistence import run_from_dict, run_to_dict
from repro.rules.dedup import deduplicate
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.translator import MetricQueries


def verdict_of(text, schema=None):
    return analyze_query(text, schema).verdict


# ----------------------------------------------------------------------
# dataflow pass
# ----------------------------------------------------------------------
class TestDataflow:
    def test_clean_query_is_clean(self):
        report = analyze_query(
            "MATCH (a:User)-[:POSTS]->(t:Tweet) "
            "WHERE a.id > 0 RETURN t.id AS i"
        )
        assert report.is_clean
        assert report.verdict is Verdict.OK

    def test_use_before_bind(self):
        report = analyze_query(
            "MATCH (a:User) WHERE b.id > 0 RETURN a.id AS i"
        )
        assert report.has("use-before-bind")
        assert report.verdict is Verdict.WARN

    def test_use_after_with_projection_drop(self):
        report = analyze_query(
            "MATCH (a:User)-[:POSTS]->(t:Tweet) "
            "WITH t.id AS i RETURN a.name AS n"
        )
        assert report.has("use-after-with")

    def test_unused_variable(self):
        report = analyze_query(
            "MATCH (a:User)-[r:POSTS]->(t:Tweet) RETURN a.id AS i"
        )
        unused = {f.subject for f in report.findings
                  if f.code == "unused-variable"}
        assert {"r", "t"} == unused

    def test_count_star_suppresses_unused(self):
        report = analyze_query(
            "MATCH (a:User)-[r:POSTS]->(t:Tweet) RETURN count(*) AS c"
        )
        assert not report.has("unused-variable")

    @pytest.mark.parametrize("projection", [
        "CASE WHEN true THEN count(*) END",
        "[count(*)]",
    ])
    def test_nested_count_star_suppresses_unused(self, projection):
        report = analyze_query(
            f"MATCH (a:User)-[r:POSTS]->(t:Tweet) RETURN {projection} AS c"
        )
        assert not report.has("unused-variable")

    def test_shadowed_variable(self):
        report = analyze_query(
            "MATCH (a:User) WITH a.id AS a RETURN a AS i"
        )
        assert report.has("shadowed-variable")

    def test_cartesian_product_warns(self):
        report = analyze_query(
            "MATCH (a:User), (b:Tweet) RETURN a.id AS x, b.id AS y"
        )
        assert report.has("cartesian-product")

    def test_connected_patterns_do_not_warn(self):
        report = analyze_query(
            "MATCH (a:User), (a)-[:POSTS]->(t:Tweet) "
            "RETURN a.id AS x, t.id AS y"
        )
        assert not report.has("cartesian-product")

    def test_with_resets_cartesian_segments(self):
        report = analyze_query(
            "MATCH (a:User) WITH count(a) AS c "
            "MATCH (t:Tweet) RETURN c AS c, t.id AS i"
        )
        assert not report.has("cartesian-product")


# ----------------------------------------------------------------------
# type inference pass
# ----------------------------------------------------------------------
class TestTypecheck:
    def test_number_vs_string_comparison(self, social_schema):
        report = analyze_query(
            "MATCH (u:User) WHERE u.id = 'abc' RETURN u.id AS i",
            social_schema,
        )
        assert report.has("type-confused-comparison")

    def test_regex_on_number(self, social_schema):
        report = analyze_query(
            "MATCH (u:User) WHERE u.id =~ 'a.*' RETURN u.id AS i",
            social_schema,
        )
        assert report.has("regex-on-non-string")

    def test_string_predicate_on_boolean(self, social_schema):
        report = analyze_query(
            "MATCH (u:User) WHERE u.active STARTS WITH 'tr' "
            "RETURN u.id AS i",
            social_schema,
        )
        assert report.has("string-predicate-on-non-string")

    def test_comparison_with_null_is_typed_finding(self, social_schema):
        # '=' against NULL evaluates to null, never true — the checker
        # reports it instead of silently treating it as class-disjoint
        report = analyze_query(
            "MATCH (u:User) WHERE u.id = null RETURN u.id AS i",
            social_schema,
        )
        finding = next(
            f for f in report.findings if f.code == "comparison-with-null"
        )
        assert finding.severity is Verdict.WARN
        assert "IS NULL" in finding.message

    def test_int_float_widening_is_clean(self, social_schema):
        # ints and floats share the 'number' class; comparing an int
        # property against a float literal is not a confusion
        report = analyze_query(
            "MATCH (u:User) WHERE u.id > 1.5 RETURN u.id AS i",
            social_schema,
        )
        assert not report.by_pass("types")

    def test_string_vs_numeric_inequality(self, social_schema):
        report = analyze_query(
            "MATCH (u:User) WHERE u.name < 5 RETURN u.id AS i",
            social_schema,
        )
        assert report.has("type-confused-comparison")
        assert report.verdict is Verdict.WARN

    @pytest.mark.parametrize("projection", [
        "[u.name > 5]",
        "{flag: u.name > 5}",
        "[1, 2][toInteger(u.name > 5)]",
        "[1, 2][toInteger(u.name > 5)..]",
        "[1, 2][..toInteger(u.name > 5)]",
    ])
    def test_confusion_inside_collections(self, social_schema, projection):
        report = analyze_query(
            f"MATCH (u:User) RETURN {projection} AS x", social_schema
        )
        assert report.has("type-confused-comparison")

    def test_matching_types_are_clean(self, social_schema):
        report = analyze_query(
            "MATCH (u:User) WHERE u.name = 'alice' AND u.id > 0 "
            "RETURN u.id AS i",
            social_schema,
        )
        assert not report.by_pass("types")

    def test_no_schema_skips_type_pass(self):
        report = analyze_query(
            "MATCH (u:User) WHERE u.id = 'abc' RETURN u.id AS i"
        )
        assert not report.by_pass("types")


# ----------------------------------------------------------------------
# satisfiability pass
# ----------------------------------------------------------------------
class TestSatisfiability:
    @pytest.mark.parametrize("predicate", [
        "n.x > 5 AND n.x < 3",
        "n.x >= 4 AND n.x < 4",
        "n.x = 1 AND n.x = 2",
        "n.x = 1 AND n.x <> 1",
        "n.x IS NULL AND n.x > 0",
        "n.x IN [1, 2] AND n.x IN [3, 4]",
        "n.x = 7 AND NOT n.x = 7",
        "n.name STARTS WITH 'ab' AND n.name STARTS WITH 'cd'",
        "n.name = 'p' AND n.name ENDS WITH 'q'",
    ])
    def test_unsat_conjunctions(self, predicate):
        report = analyze_query(
            f"MATCH (n:User) WHERE {predicate} RETURN count(*) AS c"
        )
        assert report.verdict is Verdict.UNSAT, predicate
        assert report.has("unsatisfiable-predicate")

    @pytest.mark.parametrize("predicate", [
        "n.x > 3 AND n.x < 5",
        "n.x = 1 AND n.name = 'p'",
        "n.x IN [1, 2] AND n.x IN [2, 3]",
        "n.name STARTS WITH 'ab' AND n.name STARTS WITH 'abc'",
        "n.x > 0 OR n.x < 0",
    ])
    def test_satisfiable_conjunctions_pass(self, predicate):
        report = analyze_query(
            f"MATCH (n:User) WHERE {predicate} RETURN count(*) AS c"
        )
        assert report.verdict is not Verdict.UNSAT, predicate

    def test_tautology_is_trivial(self):
        report = analyze_query("MATCH (n:User) WHERE 1 = 1 RETURN n.x AS x")
        assert report.verdict is Verdict.TRIVIAL
        assert report.has("tautological-predicate")

    def test_real_predicate_is_not_trivial(self):
        report = analyze_query(
            "MATCH (n:User) WHERE n.x > 0 RETURN n.x AS x"
        )
        assert not report.has("tautological-predicate")

    def test_optional_match_where_is_exempt(self):
        report = analyze_query(
            "MATCH (n:User) OPTIONAL MATCH (n)-[:POSTS]->(t:Tweet) "
            "WHERE t.id > 5 AND t.id < 3 RETURN n.id AS i, t.id AS j"
        )
        assert report.verdict is not Verdict.UNSAT

    def test_union_unsat_requires_every_branch(self):
        one_dead = analyze_query(
            "MATCH (n:User) WHERE n.x > 5 AND n.x < 3 RETURN n.x AS v "
            "UNION MATCH (m:User) RETURN m.x AS v"
        )
        assert one_dead.verdict is Verdict.WARN
        assert one_dead.has("dead-union-branch")

        both_dead = analyze_query(
            "MATCH (n:User) WHERE n.x > 5 AND n.x < 3 RETURN n.x AS v "
            "UNION MATCH (m:User) WHERE m.x = 1 AND m.x = 2 "
            "RETURN m.x AS v"
        )
        assert both_dead.verdict is Verdict.UNSAT


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------
class TestCanonical:
    def test_alpha_renaming_collapses(self):
        a = parse("MATCH (x:User)-[e:POSTS]->(y:Tweet) "
                  "WHERE x.id > 0 RETURN count(*) AS c")
        b = parse("MATCH (alpha:User)-[beta:POSTS]->(gamma:Tweet) "
                  "WHERE alpha.id > 0 RETURN count(*) AS c")
        assert canonical_signature(a) == canonical_signature(b)

    def test_alpha_renaming_inside_comprehension_collapses(self):
        # the two variables tie on every invariant but the names a
        # comprehension body uses, which the normal form must erase
        text = ("MATCH ({a}:User), ({b}:User) "
                "WHERE size([x IN [1] WHERE x > {a}.id]) > 0 "
                "AND size([x IN [1] WHERE x > {b}.id]) > 0 "
                "RETURN {a}.name AS n")
        first = parse(text.format(a="a", b="b"))
        swapped = parse(text.format(a="b", b="a"))
        assert canonical_signature(first) == canonical_signature(swapped)

    def test_edge_direction_flip_collapses(self):
        out = parse("MATCH (u:User)-[:POSTS]->(t:Tweet) "
                    "RETURN count(*) AS c")
        inc = parse("MATCH (t:Tweet)<-[:POSTS]-(u:User) "
                    "RETURN count(*) AS c")
        assert canonical_signature(out) == canonical_signature(inc)

    def test_comparison_flip_collapses(self):
        lt = parse("MATCH (n:User) WHERE n.id < 10 RETURN count(*) AS c")
        gt = parse("MATCH (n:User) WHERE 10 > n.id RETURN count(*) AS c")
        assert canonical_signature(lt) == canonical_signature(gt)

    def test_conjunct_order_collapses(self):
        ab = parse("MATCH (n:User) WHERE n.id > 0 AND n.name = 'p' "
                   "RETURN count(*) AS c")
        ba = parse("MATCH (n:User) WHERE n.name = 'p' AND n.id > 0 "
                   "RETURN count(*) AS c")
        assert canonical_signature(ab) == canonical_signature(ba)

    def test_distinct_queries_stay_distinct(self):
        a = parse("MATCH (n:User) WHERE n.id > 0 RETURN count(*) AS c")
        b = parse("MATCH (n:User) WHERE n.id > 1 RETURN count(*) AS c")
        c = parse("MATCH (n:Tweet) WHERE n.id > 0 RETURN count(*) AS c")
        signatures = {canonical_signature(q) for q in (a, b, c)}
        assert len(signatures) == 3

    def test_form_is_printable_and_prefixed(self):
        query = parse("MATCH (n:User) RETURN count(*) AS c")
        assert canonical_form(query)
        assert canonical_signature(query).startswith("cq1:")


# ----------------------------------------------------------------------
# facade, report plumbing
# ----------------------------------------------------------------------
class TestAnalyzerFacade:
    def test_parse_failure_is_error_verdict(self):
        report = analyze_query("MATCH (n:User RETURN n")
        assert report.parse_failed
        assert report.verdict is Verdict.ERROR
        assert report.signature is None
        analyzer = StaticAnalyzer()
        assert not analyzer.triage("MATCH (n:User RETURN n").should_evaluate

    def test_unsat_triage_blocks_evaluation(self):
        triage = StaticAnalyzer().triage(
            "MATCH (n:User) WHERE n.x > 5 AND n.x < 3 "
            "RETURN count(*) AS c"
        )
        assert triage.verdict is Verdict.UNSAT
        assert not triage.should_evaluate
        assert "can never hold" in triage.reason

    def test_warnings_do_not_block_evaluation(self):
        triage = StaticAnalyzer().triage(
            "MATCH (a:User), (b:Tweet) RETURN a.id AS x, b.id AS y"
        )
        assert triage.verdict is Verdict.WARN
        assert triage.should_evaluate

    def test_memoization_returns_same_report(self):
        analyzer = StaticAnalyzer()
        text = "MATCH (n:User) RETURN count(*) AS c"
        assert analyzer.analyze(text) is analyzer.analyze(text)

    def test_shared_report_is_immutable(self):
        # one analyzer serves every pipeline of a dataset, so a report
        # handed to one caller must not change under another
        analyzer = StaticAnalyzer()
        text = "MATCH (a:User), (b:Tweet) RETURN a.id AS x, b.id AS y"
        first = analyzer.analyze(text)
        assert first.findings
        finding = first.findings[0]
        with pytest.raises(AttributeError):
            first.findings.append(finding)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.findings = ()
        second = analyzer.analyze(text)
        assert second is first
        assert second == StaticAnalyzer().analyze(text)
        assert isinstance(
            AnalysisReport.from_dict(text, first.to_dict()).findings, tuple
        )

    def test_report_round_trips_through_dict(self):
        report = analyze_query(
            "MATCH (a:User) WHERE b.id > 0 AND a.id > 5 AND a.id < 3 "
            "RETURN a.id AS i"
        )
        rebuilt = AnalysisReport.from_dict(
            report.query_text, report.to_dict()
        )
        assert rebuilt.verdict is report.verdict
        assert rebuilt.signature == report.signature
        assert rebuilt.codes() == report.codes()

    def test_worst_orders_by_severity(self):
        assert worst([]) is Verdict.OK
        assert worst([Verdict.WARN, Verdict.UNSAT]) is Verdict.UNSAT
        assert worst([Verdict.TRIVIAL, Verdict.WARN]) is Verdict.TRIVIAL


# ----------------------------------------------------------------------
# semantic dedup (satellite 2)
# ----------------------------------------------------------------------
class TestSemanticDedup:
    def make_rules(self):
        first = ConsistencyRule(
            kind=RuleKind.VALUE_DOMAIN, text="stage one way",
            label="Match", properties=("stage",),
            allowed_values=("Group", "Final"),
        )
        second = ConsistencyRule(
            kind=RuleKind.VALUE_DOMAIN, text="stage other way",
            label="Match", properties=("stage",),
            allowed_values=("Final", "Group"),
        )
        return first, second

    def test_field_signature_alone_keeps_both(self):
        first, second = self.make_rules()
        assert first.signature() != second.signature()
        assert len(deduplicate([first, second])) == 2

    def test_schema_collapses_semantic_duplicates(self, sports_graph):
        schema = infer_schema(sports_graph)
        first, second = self.make_rules()
        kept = deduplicate([first, second], analyzer=StaticAnalyzer(schema))
        assert kept == [first]       # first occurrence wins

    def test_distinct_rules_survive_with_schema(self, sports_graph):
        schema = infer_schema(sports_graph)
        first, _ = self.make_rules()
        other = ConsistencyRule(
            kind=RuleKind.PROPERTY_EXISTS, text="matches have a date",
            label="Match", properties=("date",),
        )
        kept = deduplicate([first, other], analyzer=StaticAnalyzer(schema))
        assert len(kept) == 2


# ----------------------------------------------------------------------
# end-to-end: injected UNSAT rule is triaged out (acceptance criterion)
# ----------------------------------------------------------------------
UNSAT_SATISFY = (
    "MATCH (u:User) WHERE u.id > 5 AND u.id < 3 RETURN count(*) AS support"
)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset() -> Dataset:
    graph = PropertyGraph("mini")
    for index in range(40):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
    for index in range(80):
        graph.add_node(f"t{index}", "Tweet", {
            "id": index,
            "text": f"tweet number {index}",
            "created_at": f"2021-02-{(index % 28) + 1:02d}T08:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index % 40}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


class TestPipelineTriage:
    def run_with_injection(self, monkeypatch):
        """Mine once with the first rule's satisfy query forced UNSAT.

        Returns ``(run, collector, evaluated_bundles)``.
        """
        import repro.mining.pipeline as pipeline_module

        collector = obs.install()
        context = PipelineContext.build(build_dataset())
        pipeline = SlidingWindowPipeline(
            context, window_size=1500, overlap=150
        )

        original_correct = pipeline.corrector.correct
        injected = {"done": False}

        def inject(rule, generated_query):
            outcome = original_correct(rule, generated_query)
            if not injected["done"] and outcome.metric_queries is not None:
                injected["done"] = True
                outcome = dataclasses.replace(
                    outcome,
                    metric_queries=dataclasses.replace(
                        outcome.metric_queries, satisfy=UNSAT_SATISFY
                    ),
                )
            return outcome

        evaluated: list[MetricQueries] = []
        original_evaluate = pipeline_module.evaluate_rule

        def spy(graph, queries):
            evaluated.append(queries)
            return original_evaluate(graph, queries)

        monkeypatch.setattr(pipeline.corrector, "correct", inject)
        monkeypatch.setattr(pipeline_module, "evaluate_rule", spy)
        run = pipeline.mine("llama3", "zero_shot")
        assert injected["done"], "no translatable rule to inject into"
        return run, collector, evaluated

    def test_injected_unsat_rule_is_triaged_out(self, monkeypatch):
        run, collector, evaluated = self.run_with_injection(monkeypatch)

        # the doomed bundle never reached the executor...
        assert all(q.satisfy != UNSAT_SATISFY for q in evaluated)
        # ...and exactly the other rules did
        skipped = [r for r in run.results if r.triage_skipped]
        assert len(skipped) == 1
        assert run.triaged_out == 1
        evaluable = [
            r for r in run.results
            if r.outcome.metric_queries is not None and not r.triage_skipped
        ]
        assert len(evaluated) == len(evaluable)

        # the skipped rule scores zero across the board
        victim = skipped[0]
        assert victim.metrics.support == 0
        assert victim.metrics.relevant == 0
        assert victim.metrics.body == 0
        assert victim.analysis is not None

        # verdict census is reflected on the run itself
        census = run.triage_census()
        assert sum(census.values()) == len(run.results)

        # counters are visible through obs, including the summary table
        metrics = collector.metrics
        assert metrics.counter("analysis.triaged_out").total() == 1
        assert sum(
            metrics.counter(f"analysis.verdict.{v.value}").total()
            for v in Verdict
        ) == len(run.results)
        summary = obs.summary_table(collector)
        assert "analysis.triaged_out" in summary
        assert "analysis.verdict.ok" in summary

    def test_triage_persists_through_round_trip(self, monkeypatch):
        run, _collector, _evaluated = self.run_with_injection(monkeypatch)
        rebuilt = run_from_dict(run_to_dict(run))
        assert rebuilt.triaged_out == 1
        assert rebuilt.triage_census() == run.triage_census()
        victim = next(r for r in rebuilt.results if r.triage_skipped)
        assert victim.analysis is not None
        assert victim.analysis.signature

    def test_disabling_analyzer_disables_triage(self, monkeypatch):
        import repro.mining.pipeline as pipeline_module

        context = PipelineContext.build(build_dataset())
        pipeline = SlidingWindowPipeline(
            context, window_size=1500, overlap=150
        )
        pipeline.analyzer = None
        run = pipeline.mine("llama3", "zero_shot")
        assert run.triaged_out == 0
        assert all(r.analysis is None for r in run.results)
