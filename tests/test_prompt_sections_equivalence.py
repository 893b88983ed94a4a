"""One-scan prompt sections vs the per-header scan they replaced.

``repro.llm.prompt_io.prompt_sections`` splits a prompt into its
sections in one left-to-right scan; ``tests/reference_prompt_sections.py``
keeps the scan that searched for every header separately.  For every
prompt and every header the two must agree: the same text, and the same
absence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load
from repro.llm import SimulatedLLM
from repro.llm.prompt_io import extract_section, prompt_sections
from repro.mining import (
    PipelineContext,
    RAGPipeline,
    SlidingWindowPipeline,
)
from tests import reference_prompt_sections as reference


def _reference_sections(prompt):
    found = {}
    for header in reference.SECTIONS:
        text = reference.extract_section(prompt, header)
        if text is not None:
            found[header] = text
    return found


def _assert_equivalent(prompt):
    assert prompt_sections(prompt) == _reference_sections(prompt)
    for header in reference.SECTIONS:
        assert extract_section(prompt, header) == \
            reference.extract_section(prompt, header)


# pieces at the scanner's edges: every header, hash runs that start no
# header or start one a character late, near-miss headers and blanks
_HEADERS = st.sampled_from(reference.SECTIONS)
_FRAGMENTS = st.sampled_from([
    "#", "##", "###", "####", "### ", "#### Task:", "##### Rule:",
    "### Task", "###Task:", "### task:", "### Graph data", "Node a.",
    "MATCH (n) RETURN n", "x", " ", "\n", "\n\n", "\t", "",
])
_BODIES = st.lists(
    st.one_of(_FRAGMENTS, _HEADERS, st.text(max_size=8)), max_size=6
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_HEADERS, _FRAGMENTS), max_size=20).map("".join))
def test_fragment_soup_matches_reference(prompt):
    _assert_equivalent(prompt)


@settings(max_examples=300, deadline=None)
@given(
    st.text(max_size=12),
    st.lists(st.tuples(_HEADERS, _BODIES), max_size=8),
)
def test_section_layouts_match_reference(preamble, sections):
    # any order, headers missing or repeated, empty bodies, and bodies
    # holding `###`/`####` runs or other headers
    prompt = preamble + "".join(
        f"{header}\n{body}\n" for header, body in sections
    )
    _assert_equivalent(prompt)


def test_hash_run_before_header_is_found():
    # `####` starts no header, but `### Task:` begins one char later
    prompt = "### Graph data:\nG\n#### Task:\nT"
    assert prompt_sections(prompt) == {
        "### Graph data:": "G\n#", "### Task:": "T",
    }
    _assert_equivalent(prompt)


def test_repeated_header_keeps_first_occurrence():
    prompt = "### Rule:\nA\n### Rule:\nB\n### Task:\nC"
    assert prompt_sections(prompt) == {"### Rule:": "A", "### Task:": "C"}
    _assert_equivalent(prompt)


@pytest.mark.parametrize("method", ["sliding_window", "rag"])
def test_every_prompt_of_a_grid_cell_matches_reference(monkeypatch, method):
    prompts = []
    original = SimulatedLLM.complete

    def record(llm, prompt):
        prompts.append(prompt)
        return original(llm, prompt)

    monkeypatch.setattr(SimulatedLLM, "complete", record)
    context = PipelineContext.build(load("cybersecurity"))
    pipeline_class = (
        RAGPipeline if method == "rag" else SlidingWindowPipeline
    )
    pipeline_class(context).mine("mixtral", "few_shot")
    assert len(prompts) > 5
    for prompt in prompts:
        _assert_equivalent(prompt)
