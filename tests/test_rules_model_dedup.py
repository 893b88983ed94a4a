"""Unit tests for the rule model and deduplication/merging."""

from repro.rules import (
    ConsistencyRule,
    RuleKind,
    RuleSet,
    deduplicate,
    merge_property_exists,
)


def rule(kind=RuleKind.PROPERTY_EXISTS, **kw):
    return ConsistencyRule(kind=kind, text=kw.pop("text", "t"), **kw)


class TestSignature:
    def test_signature_ignores_text_and_provenance(self):
        a = rule(label="X", properties=("p",), text="one", provenance="w1")
        b = rule(label="X", properties=("p",), text="two", provenance="w2")
        assert a.signature() == b.signature()

    def test_signature_property_order_insensitive(self):
        a = rule(label="X", properties=("p", "q"))
        b = rule(label="X", properties=("q", "p"))
        assert a.signature() == b.signature()

    def test_different_kind_different_signature(self):
        a = rule(RuleKind.PROPERTY_EXISTS, label="X", properties=("p",))
        b = rule(RuleKind.UNIQUENESS, label="X", properties=("p",))
        assert a.signature() != b.signature()

    def test_is_complex(self):
        assert rule(RuleKind.PATTERN, label="X").is_complex
        assert not rule(RuleKind.UNIQUENESS, label="X").is_complex


class TestRuleSet:
    def test_add_rejects_duplicates(self):
        rules = RuleSet()
        assert rules.add(rule(label="X", properties=("p",)))
        assert not rules.add(rule(label="X", properties=("p",)))
        assert len(rules) == 1

    def test_extend_counts_new(self):
        rules = RuleSet()
        added = rules.extend([
            rule(label="X", properties=("p",)),
            rule(label="X", properties=("p",)),
            rule(label="Y", properties=("p",)),
        ])
        assert added == 2

    def test_by_kind_and_complex(self):
        rules = RuleSet()
        rules.add(rule(RuleKind.UNIQUENESS, label="X", properties=("p",)))
        rules.add(rule(RuleKind.PATTERN, label="X", edge_label="E",
                       dst_label="Y", scope_label="Z",
                       scope_edge_label="F"))
        assert len(rules.by_kind(RuleKind.UNIQUENESS)) == 1
        assert len(rules.complex_rules()) == 1


class TestMerge:
    def test_merge_same_label_property_rules(self):
        merged = merge_property_exists([
            rule(label="Match", properties=("date",)),
            rule(label="Match", properties=("stage",)),
        ])
        assert len(merged) == 1
        assert merged[0].properties == ("date", "stage")
        assert "date and stage property" in merged[0].text

    def test_merge_keeps_other_kinds_in_place(self):
        uniq = rule(RuleKind.UNIQUENESS, label="Match", properties=("id",))
        merged = merge_property_exists([
            rule(label="Match", properties=("date",)),
            uniq,
            rule(label="Match", properties=("stage",)),
        ])
        assert [r.kind for r in merged] == [
            RuleKind.PROPERTY_EXISTS, RuleKind.UNIQUENESS,
        ]

    def test_single_member_untouched(self):
        single = rule(label="X", properties=("p",), text="original")
        assert merge_property_exists([single])[0].text == "original"

    def test_deduplicate_keeps_first(self):
        first = rule(label="X", properties=("p",), text="first")
        second = rule(label="X", properties=("p",), text="second")
        assert deduplicate([first, second]) == [first]
