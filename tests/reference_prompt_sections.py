"""The per-header section scan, kept as an oracle.

This is how the simulated LLM read a prompt before it split every
section in one scan: each lookup finds the header's first occurrence
and then searches for every known header after it, taking the nearest
as the section's end.  The equivalence properties compare
``repro.llm.prompt_io.prompt_sections`` against this function, so a
rewrite of the library cannot change what it is compared with.
"""

from repro.prompts.templates import (
    EXAMPLES_SECTION,
    FEEDBACK_SECTION,
    GRAPH_SECTION,
    RULE_SECTION,
    SCHEMA_SECTION,
    TASK_SECTION,
)

SECTIONS = (GRAPH_SECTION, EXAMPLES_SECTION, TASK_SECTION,
            RULE_SECTION, SCHEMA_SECTION, FEEDBACK_SECTION)


def extract_section(prompt, header):
    """Text between ``header`` and the next section header (or the end)."""
    start = prompt.find(header)
    if start == -1:
        return None
    start += len(header)
    end = len(prompt)
    for other in SECTIONS:
        position = prompt.find(other, start)
        if position != -1:
            end = min(end, position)
    return prompt[start:end].strip()
