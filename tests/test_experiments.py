"""Tests for the experiment harness (tables, figures, CLI).

The full-grid cells are exercised on the two smaller datasets; the
Twitter cells are covered by the benchmarks and the integration test.
"""

import pytest

from repro.experiments import figures, metric_tables, table1, table5, table6
from repro.experiments.cli import emit, main
from repro.experiments.report import Table, fmt_float, fmt_int
from repro.mining.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(base_seed=0)


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("T", ["a", "bbbb"], [["1", "2"], ["333", "4"]])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len({len(line) for line in lines[2:3]}) == 1

    def test_fmt_helpers(self):
        assert fmt_float(98.670) == "98.67"
        assert fmt_float(100.0) == "100"
        assert fmt_float(0.0) == "0"
        assert fmt_int(12.6) == "13"


class TestTable1:
    def test_matches_paper_exactly(self):
        assert table1.verify() is True

    def test_render_contains_rows(self):
        text = table1.build().render()
        assert "WWC2019" in text
        assert "43325" in text
        assert "56493" in text


class TestMetricTables:
    def test_build_for_cybersecurity(self, runner):
        table = metric_tables.build(runner, "cybersecurity")
        text = table.render()
        assert "Table 3" in text
        assert "Llama-3" in text and "Mixtral" in text
        assert "Zero-shot" in text and "Few-shot" in text
        # 4 data rows: 2 prompts x 2 models
        assert len(table.rows) == 4
        for row in table.rows:
            assert len(row) == 10


class TestTables5And6:
    def test_table5_swa_slower_than_rag(self, runner):
        # force the cyber dataset cells only (cheap); table5 needs all
        # datasets, so check the underlying runs instead
        swa = runner.run("cybersecurity", "llama3", "sliding_window",
                         "zero_shot")
        rag = runner.run("cybersecurity", "llama3", "rag", "zero_shot")
        assert swa.mining_seconds > 10 * rag.mining_seconds

    def test_table6_fraction_format(self, runner):
        run = runner.run("cybersecurity", "mixtral", "sliding_window",
                         "zero_shot")
        assert 0 <= run.correct_queries <= run.generated_queries


class TestRunnerCaching:
    def test_same_cell_cached(self, runner):
        first = runner.run("cybersecurity", "llama3", "rag", "zero_shot")
        second = runner.run("cybersecurity", "llama3", "rag", "zero_shot")
        assert first is second

    def test_context_shared_between_methods(self, runner):
        context = runner.context("cybersecurity")
        swa = runner.pipeline("cybersecurity", "sliding_window")
        rag = runner.pipeline("cybersecurity", "rag")
        assert swa.context is context
        assert rag.context is context

    def test_unknown_method_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.pipeline("cybersecurity", "quantum")


class TestFigures:
    def test_pipeline_trace(self, runner):
        text = figures.pipeline_trace(runner, "cybersecurity")
        assert "Step 1" in text
        assert "windows" in text


class TestCli:
    def test_emit_table1(self, runner):
        assert "Table 1" in emit("table1", runner)

    def test_emit_unknown(self, runner):
        with pytest.raises(ValueError):
            emit("table99", runner)

    def test_main_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_rejects_unknown_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_serve_grid_twice_answers_from_the_cache(self, capsys, tmp_path):
        from repro import obs

        argv = [
            "serve", "--datasets", "cybersecurity", "--models", "llama3",
            "--methods", "rag", "--prompts", "zero_shot",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        trace = tmp_path / "trace.jsonl"
        assert main(argv + ["--trace-out", str(trace)]) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out

        cell = "cybersecurity/llama3/rag/zero_shot"
        [mined] = [line for line in first.splitlines() if cell in line]
        [replayed] = [line for line in second.splitlines() if cell in line]
        assert " mined " in mined
        assert " cache " in replayed
        assert mined.split()[0] == replayed.split()[0]     # same job id
        assert "(100% hit rate)" in second
        spans = obs.parse_jsonl(trace.read_text()).span_names()
        assert "service.job" in spans


class TestExtensions:
    def test_extensions_table(self, runner):
        from repro.experiments import extensions

        table = extensions.build(
            runner, dataset="cybersecurity", workers=4
        )
        text = table.render()
        assert "SWA (paper)" in text
        assert "SWA parallel x4" in text
        assert "Summary" in text
        # the parallel row's mining time is ~1/4 of the sequential row's
        rows = {row[0]: row for row in table.rows}
        sequential = float(rows["SWA (paper)"][5])
        parallel = float(rows["SWA parallel x4"][5])
        assert parallel < sequential / 3
        # parallelism never changes the mined rules
        assert rows["SWA (paper)"][1] == rows["SWA parallel x4"][1]

    def test_emit_extensions(self, runner):
        from repro.experiments.cli import emit

        assert "Extensions" in emit("extensions", runner)
