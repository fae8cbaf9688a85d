"""CLI and Gantt-rendering tests."""

import pytest

from repro.cli import build_parser, main
from repro.machine import Machine
from repro.machine.gantt import render_gantt
from repro.machine.trace import Trace

PROGRAM = """
go(N, Sum) :- accumulate(N, Sum).
accumulate(N, Sum) :- N > 0 |
    work(N, O) @ N,
    N1 := N - 1,
    accumulate(N1, Sum1),
    Sum := O + Sum1.
accumulate(0, Sum) :- Sum := 0.
work(N, O) :- O := N * N.
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.str"
    path.write_text(PROGRAM)
    return path


class TestRunCommand:
    def test_run_prints_bindings(self, program_file, capsys):
        code = main(["run", str(program_file), "go(5, Sum)", "-P", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sum = 55" in out
        assert "makespan" in out

    def test_quiet_suppresses_metrics(self, program_file, capsys):
        main(["run", str(program_file), "go(3, Sum)", "--quiet"])
        out = capsys.readouterr().out
        assert "Sum = 14" in out
        assert "makespan" not in out

    def test_gantt_flag(self, program_file, capsys):
        main(["run", str(program_file), "go(4, Sum)", "-P", "4", "--gantt"])
        out = capsys.readouterr().out
        assert "█" in out
        assert "p1" in out and "p4" in out

    def test_topology_option(self, program_file, capsys):
        code = main(["run", str(program_file), "go(4, Sum)", "-P", "4",
                     "--topology", "ring"])
        assert code == 0

    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.str"), "go(1, S)"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_runtime_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.str"
        path.write_text("p(1).")
        code = main(["run", str(path), "p(2)"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.str"
        path.write_text("p :- q(")
        code = main(["run", str(path), "p"])
        assert code == 1

    def test_service_flag(self, tmp_path, capsys):
        path = tmp_path / "srv.str"
        path.write_text("""
        go(Out) :- open_port(P, S), send_port(P, item), loop(S, Out).
        loop([item | In], Out) :- loop(In, Out).
        loop([], Out) :- Out := finished.
        """)
        code = main(["run", str(path), "go(Out)", "--service", "loop/2"])
        assert code == 0
        assert "Out = finished" in capsys.readouterr().out

    def test_bad_service_spec(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", str(program_file), "go(1, S)", "--service", "bogus"])


class TestOtherCommands:
    def test_motifs_lists_registry(self, capsys):
        assert main(["motifs"]) == 0
        out = capsys.readouterr().out
        assert "tree-reduce-1" in out
        assert "graph-sssp" in out

    def test_demo_runs_all_strategies(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert out.count("value=24") == 4

    def test_parser_has_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--version"])


class TestGantt:
    def test_disabled_trace_message(self):
        text = render_gantt(Trace(enabled=False), 2, 10.0)
        assert "disabled" in text

    def test_rows_per_processor(self):
        trace = Trace(enabled=True)
        trace.record(0.0, 1, "reduce", "p")
        trace.record(5.0, 2, "send", "q")
        text = render_gantt(trace, 2, 10.0, width=20)
        lines = text.splitlines()
        assert any(line.startswith("p1") and "█" in line for line in lines)
        assert any(line.startswith("p2") and "↑" in line for line in lines)

    def test_zero_makespan_safe(self):
        trace = Trace(enabled=True)
        render_gantt(trace, 1, 0.0)

    def test_events_clamped_to_width(self):
        trace = Trace(enabled=True)
        trace.record(999.0, 1, "reduce", "p")  # beyond makespan
        text = render_gantt(trace, 1, 10.0, width=10)
        assert "█" in text

    def test_integration_with_engine(self):
        from repro.strand import parse_program, run_query

        machine = Machine(2, trace=True)
        result = run_query(parse_program(PROGRAM), "go(6, S)", machine=machine)
        text = render_gantt(machine.trace, 2, result.metrics.makespan)
        assert "p1" in text and "p2" in text


class TestObservabilityFlags:
    def test_profile_prints_cost_table(self, program_file, capsys):
        code = main(["run", str(program_file), "go(5, Sum)", "-P", "2",
                     "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-motif / per-predicate profile" in out
        assert "user" in out
        assert "accumulate/2" in out

    def test_trace_out_writes_jsonl(self, program_file, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        code = main(["run", str(program_file), "go(4, Sum)", "-P", "4",
                     "--trace-out", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert out_file.exists()
        assert "trace: wrote" in out
        from repro.machine import read_jsonl

        trace, meta = read_jsonl(out_file)
        assert len(trace) > 0
        assert meta["processors"] == 4
        assert meta["query"] == "go(4, Sum)"

    def test_trace_limit_warns_on_truncation(self, program_file, tmp_path,
                                             capsys):
        out_file = tmp_path / "run.jsonl"
        code = main(["run", str(program_file), "go(8, Sum)", "-P", "2",
                     "--trace-out", str(out_file), "--trace-limit", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace truncated" in captured.err

    def test_trace_ring_keeps_the_tail(self, program_file, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        code = main(["run", str(program_file), "go(8, Sum)", "-P", "2",
                     "--trace-out", str(out_file), "--trace-limit", "10",
                     "--trace-ring"])
        assert code == 0
        from repro.machine import read_jsonl

        trace, _ = read_jsonl(out_file)
        assert len(trace) == 10
        assert trace.events[-1].eid > 10  # the tail, not the head

    def test_trace_ring_warns_of_evictions_not_truncation(self, program_file,
                                                           tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        code = main(["run", str(program_file), "go(8, Sum)", "-P", "2",
                     "--trace-out", str(out_file), "--trace-limit", "10",
                     "--trace-ring"])
        err = capsys.readouterr().err
        assert code == 0
        assert "trace ring kept the last 10 events" in err
        assert "older event(s) evicted" in err
        assert "--trace-ring" not in err and "truncated" not in err

    @pytest.mark.parametrize("flags", [["--trace-limit", "10"],
                                       ["--trace-ring"],
                                       ["--trace-ring", "--trace-limit", "10"]])
    def test_trace_bounds_need_an_output(self, program_file, capsys, flags):
        code = main(["run", str(program_file), "go(8, Sum)", "-P", "2",
                     *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert "need --trace-out or --gantt" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_trace_limit_must_be_positive(self, program_file, tmp_path,
                                          capsys, limit):
        code = main(["run", str(program_file), "go(8, Sum)", "--trace-ring",
                     "--trace-out", str(tmp_path / "run.jsonl"),
                     "--trace-limit", limit])
        assert code == 2
        assert "--trace-limit must be at least 1" in capsys.readouterr().err


class TestTraceCommand:
    @pytest.fixture
    def trace_file(self, program_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run", str(program_file), "go(4, Sum)", "-P", "4",
              "--trace-out", str(path)])
        capsys.readouterr()
        return path

    def test_summary(self, trace_file, capsys):
        code = main(["trace", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "events" in out
        assert "by kind:" in out
        assert "by motif:" in out
        assert "reduce=" in out

    def test_kind_filter_and_show(self, trace_file, capsys):
        code = main(["trace", str(trace_file), "--kind", "reduce",
                     "--show", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matching kind=reduce" in out
        assert out.count(" reduce ") >= 3

    def test_chain(self, trace_file, capsys):
        from repro.machine import read_jsonl

        trace, _ = read_jsonl(trace_file)
        last = trace.events[-1].eid
        code = main(["trace", str(trace_file), "--chain", str(last)])
        out = capsys.readouterr().out
        assert code == 0
        assert "causal chain" in out
        assert f"#{last} <-" in out

    def test_chain_unknown_eid_fails(self, trace_file, capsys):
        code = main(["trace", str(trace_file), "--chain", "999999"])
        assert code == 1
        assert "no event" in capsys.readouterr().err

    def test_gantt_from_file(self, trace_file, capsys):
        code = main(["trace", str(trace_file), "--gantt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "█" in out

    def test_chrome_conversion(self, trace_file, tmp_path, capsys):
        import json

        out_file = tmp_path / "run.chrome.json"
        code = main(["trace", str(trace_file), "--chrome", str(out_file)])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err


class TestLintCommand:
    def test_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.str"
        path.write_text("go(X) :- X := 1.")
        assert main(["lint", str(path)]) == 0
        assert "0 warning(s)" in capsys.readouterr().out

    def test_warnings_exit_code(self, tmp_path, capsys):
        path = tmp_path / "warn.str"
        path.write_text("go :- missing.")
        assert main(["lint", str(path)]) == 3
        out = capsys.readouterr().out
        assert "undefined-call" in out

    def test_foreign_and_entry_flags(self, tmp_path, capsys):
        path = tmp_path / "f.str"
        path.write_text("go(V) :- eval(a, 1, 2, V).\norphan.")
        code = main(["lint", str(path), "--foreign", "eval/4",
                     "--entry", "go/1"])
        out = capsys.readouterr().out
        assert code == 3
        assert "unused-procedure" in out
        assert "undefined-call" not in out

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.str"
        path.write_text("((")
        assert main(["lint", str(path)]) == 1


class TestShippedStrandPrograms:
    """The examples/strand/*.str programs run under the CLI."""

    import pathlib

    STRAND_DIR = pathlib.Path(__file__).parent.parent / "examples" / "strand"

    def test_figure1(self, capsys):
        assert main(["run", str(self.STRAND_DIR / "figure1.str"),
                     "go(4)", "--quiet"]) == 0

    def test_sieve(self, capsys):
        assert main(["run", str(self.STRAND_DIR / "sieve.str"),
                     "primes(30, Ps)", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Ps = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]" in out

    def test_pingpong(self, capsys):
        assert main(["run", str(self.STRAND_DIR / "pingpong.str"),
                     "rally(6, Winner)", "-P", "2", "--quiet",
                     "--service", "player/4"]) == 0
        out = capsys.readouterr().out
        assert "Winner = a" in out  # even rally count: first player wins

    def test_all_shipped_programs_lint(self):
        for path in sorted(self.STRAND_DIR.glob("*.str")):
            code = main(["lint", str(path)])
            assert code in (0, 3), path  # parse cleanly; warnings tolerated
