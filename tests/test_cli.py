"""Tests for the command-line interface."""

import dataclasses
import json

import numpy as np
import pytest

import repro.exec.cache as cache_module
from repro.cli import main


@pytest.fixture(autouse=True)
def fresh_default_cache():
    """Each CLI test starts with an empty process-wide compile cache, so
    hit/miss expectations don't depend on test order."""
    cache_module._default_cache = None
    yield
    cache_module._default_cache = None


class TestCompileCommand:
    def test_bundled_program(self, capsys):
        assert main(["compile", "polynomial"]) == 0
        out = capsys.readouterr().out
        assert "polynomial" in out
        assert "Cell ucode" in out

    def test_listing_flag(self, capsys):
        assert main(["compile", "passthrough", "--listing"]) == 0
        out = capsys.readouterr().out
        assert "block" in out and "loop" in out

    def test_file_input(self, tmp_path, capsys):
        from repro.programs import passthrough

        path = tmp_path / "prog.w2"
        path.write_text(passthrough(4, 2))
        assert main(["compile", str(path)]) == 0
        assert "passthrough" in capsys.readouterr().out

    def test_unknown_program(self):
        with pytest.raises(SystemExit):
            main(["compile", "no_such_program"])

    def test_non_ascii_digit_is_a_lex_error(self, tmp_path, capsys):
        """A loop bound ``1²`` once passed the lexer as a number and
        ended in a raw ``ValueError`` from ``int()``."""
        from repro.programs import polynomial

        source = polynomial(16, 8)
        assert "for i := 0 to 15" in source
        path = tmp_path / "square.w2"
        path.write_text(
            source.replace("for i := 0 to 15", "for i := 0 to 1\u00b2")
        )
        assert main(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [
            "error[LexError]: unexpected character '\u00b2' "
            "(at line 31, column 24)"
        ]
        assert "Traceback" not in err


class TestRunCommand:
    def test_inline_inputs(self, capsys):
        assert main(["run", "passthrough", "--input", "din=1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "dout" in out

    def test_npy_input_and_npz_output(self, tmp_path, capsys):
        data = np.arange(6.0)
        np.save(tmp_path / "din.npy", data)
        out_path = tmp_path / "result.npz"
        assert main(
            [
                "run",
                "passthrough",
                "--input",
                f"din={tmp_path / 'din.npy'}",
                "--output",
                str(out_path),
            ]
        ) == 0
        stored = np.load(out_path)
        assert np.allclose(stored["dout"][:6], data)

    def test_text_input(self, tmp_path, capsys):
        path = tmp_path / "din.txt"
        path.write_text("1.5 2.5\n3.5 4.5\n")
        assert main(["run", "passthrough", "--input", f"din={path}"]) == 0
        assert "dout" in capsys.readouterr().out

    def test_trace_flag(self, capsys):
        assert main(
            ["run", "passthrough", "--input", "din=1,2", "--trace", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "Cell 0" in out

    def test_bad_input_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "passthrough", "--input", "nonsense"])

    def test_unparseable_values(self):
        with pytest.raises(SystemExit):
            main(["run", "passthrough", "--input", "din=a,b,c"])

    def test_oversized_input_is_a_clear_error(self):
        # Bundled passthrough declares din[16]; 17 values must produce a
        # clean message, not a traceback.
        values = ",".join(str(float(v)) for v in range(17))
        with pytest.raises(SystemExit) as info:
            main(["run", "passthrough", "--input", f"din={values}"])
        message = str(info.value)
        assert "17 elements" in message and "din[16]" in message

    def test_unknown_input_name_is_a_clear_error(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "passthrough", "--input", "bogus=1,2"])
        message = str(info.value)
        assert "bogus" in message and "declared" in message

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            [
                "run",
                "polynomial",
                "--input",
                "z=1,2,3",
                "--trace-out",
                str(path),
            ]
        ) == 0
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "cell 0" in lanes and "cell 9" in lanes

    def test_metrics_out_writes_structured_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["run", "conv1d", "--metrics-out", str(path)]
        ) == 0
        document = json.loads(path.read_text())
        assert document["total_cycles"] > 0
        assert document["prediction"]["delta_total_cycles"] == 0
        assert len(document["cells"]) == 9

    def test_trace_cells_pair(self, capsys):
        assert main(
            [
                "run",
                "passthrough",
                "--input",
                "din=1,2",
                "--trace",
                "6",
                "--trace-cells",
                "1",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Cell 1" in out and "Cell 2" in out

    def test_trace_cells_out_of_range_is_a_clear_error(self):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "run",
                    "passthrough",
                    "--input",
                    "din=1,2",
                    "--trace",
                    "6",
                    "--trace-cells",
                    "7",
                    "8",
                ]
            )
        message = str(info.value)
        assert "out of range" in message and "0..2" in message


class TestProfileCommand:
    def test_prints_phase_and_utilisation_tables(self, capsys):
        assert main(["profile", "polynomial"]) == 0
        out = capsys.readouterr().out
        assert "compile phases" in out
        assert "frontend.parse" in out and "cellcodegen" in out
        assert "machine utilisation" in out
        assert "busy" in out and "stall" in out and "idle" in out
        assert "high-water" in out

    def test_profile_exports(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert main(
            [
                "profile",
                "passthrough",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        ) == 0
        trace_doc = json.loads(trace.read_text())
        # Compile spans ride along in the exported trace.
        assert any(e["ph"] == "B" for e in trace_doc["traceEvents"])
        metrics_doc = json.loads(metrics.read_text())
        assert "compile" in metrics_doc
        assert metrics_doc["compile"]["counters"]["ir.blocks"] > 0

    def test_profile_does_not_leak_telemetry(self, capsys):
        from repro import obs
        from repro.obs.core import NULL_TELEMETRY

        assert main(["profile", "passthrough"]) == 0
        assert obs.get_telemetry() is NULL_TELEMETRY


class TestCompareCommand:
    def test_predicted_vs_measured_table(self, capsys):
        assert main(["compare", "polynomial"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out
        assert "prediction exact" in out


class TestOtherCommands:
    def test_timing(self, capsys):
        assert main(["timing", "conv1d"]) == 0
        out = capsys.readouterr().out
        assert "skew" in out and "queue" in out

    def test_examples(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "polynomial" in out and "matmul" in out

    def test_emit(self, capsys):
        assert main(["emit", "polynomial"]) == 0
        assert "module polynomial" in capsys.readouterr().out

    def test_emit_unknown(self):
        with pytest.raises(SystemExit):
            main(["emit", "nope"])

    def test_unroll_option(self, capsys):
        assert main(["compile", "polynomial", "--unroll", "4"]) == 0

    @pytest.mark.parametrize(
        "command",
        [
            "compile", "timing", "run", "profile", "compare", "batch",
            "verify", "check",
        ],
    )
    def test_every_compiling_command_accepts_auto_unroll(
        self, command, capsys
    ):
        assert main([command, "passthrough", "--unroll", "auto"]) == 0
        if command == "compare":
            assert capsys.readouterr().out.endswith("prediction exact\n")


class TestBatchCommand:
    def test_replicated_input(self, capsys):
        assert main(
            ["batch", "passthrough", "--items", "4", "--input", "din=1,2,3"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch: 4 items" in out
        assert "cycles/item" in out and "items/s" in out
        assert "compile cache:" in out

    def test_npz_inputs_and_stacked_output(self, tmp_path, capsys):
        items = np.arange(12.0).reshape(3, 4)  # 3 items of din[4]
        np.savez(tmp_path / "items.npz", din=items)
        out_path = tmp_path / "out.npz"
        assert main(
            [
                "batch",
                "passthrough",
                "--inputs",
                str(tmp_path / "items.npz"),
                "--output",
                str(out_path),
            ]
        ) == 0
        assert "batch: 3 items" in capsys.readouterr().out
        stored = np.load(out_path)
        assert stored["dout"].shape[0] == 3
        for i in range(3):
            assert np.allclose(stored["dout"][i][:4], items[i])

    def test_summary_splits_items_by_path(self, tmp_path, monkeypatch, capsys):
        """The column run decides every item of a fault-free batch, an
        oversize one too (it fails validation once).  An npz slices
        every item from one stacked array, so the oversize item is
        swapped in after loading."""
        import repro.cli as cli

        np.savez(tmp_path / "items.npz", din=np.arange(20.0).reshape(5, 4))
        load = cli._batch_input_sets

        def one_oversize(args, program):
            items = load(args, program)
            items[2] = {"din": np.zeros(17)}  # passthrough declares din[16]
            return items

        monkeypatch.setattr(cli, "_batch_input_sets", one_oversize)
        path = str(tmp_path / "items.npz")
        assert main(["batch", "passthrough", "--inputs", path]) == 1
        captured = capsys.readouterr()
        assert "5 items on the column run, 0 one by one" in captured.out
        assert "item 2 failed after 1 attempt: HostDataError" in captured.err

    def test_unconvertible_item_is_an_item_failure(self, tmp_path, capsys):
        din = np.array([["1", "2"], ["abc", "3"], ["4", "5"]])
        np.savez(tmp_path / "s.npz", din=din)
        path = str(tmp_path / "s.npz")
        assert main(["batch", "passthrough", "--inputs", path]) == 1
        assert (
            "item 1 failed after 1 attempt: HostDataError: input 'din' "
            "does not convert to float: 'abc'"
        ) in capsys.readouterr().err

    def test_complex_items_are_item_failures(self, tmp_path, capsys):
        """One complex element makes the npz array complex, so every
        item fails, each naming its own first value."""
        din = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
        np.savez(tmp_path / "c.npz", din=din)
        path = str(tmp_path / "c.npz")
        assert main(["batch", "passthrough", "--inputs", path]) == 1
        err = capsys.readouterr().err
        for item, value in enumerate(["(1+0j)", "(3+0j)"]):
            assert (
                f"item {item} failed after 1 attempt: HostDataError: input "
                f"'din' does not convert to float: {value}"
            ) in err
        assert "Traceback" not in err

    def test_batch_matches_run_outputs(self, tmp_path, capsys):
        """One batch item produces exactly what `run` produces."""
        run_out = tmp_path / "run.npz"
        batch_out = tmp_path / "batch.npz"
        args = ["passthrough", "--input", "din=5,6,7"]
        assert main(["run", *args, "--output", str(run_out)]) == 0
        assert main(
            ["batch", *args, "--items", "1", "--output", str(batch_out)]
        ) == 0
        one_shot = np.load(run_out)
        batched = np.load(batch_out)
        assert np.array_equal(batched["dout"][0], one_shot["dout"])

    def test_metrics_out_includes_batch_and_cache(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            [
                "batch",
                "passthrough",
                "--items",
                "2",
                "--metrics-out",
                str(path),
            ]
        ) == 0
        document = json.loads(path.read_text())
        assert document["batch"]["items"] == 2
        assert document["batch"]["total_cycles"] > 0
        # A serial clean batch is answered by one run over columns.
        assert document["batch"]["value_items"] == 2
        assert document["batch"]["fallback_items"] == 0
        assert document["cache"]["misses"] == 1
        assert document["cache"]["last_event"] == "miss"

    def test_mismatched_item_axes_is_a_clear_error(self, tmp_path):
        np.savez(
            tmp_path / "bad.npz",
            z=np.zeros((3, 5)),
            c=np.zeros((4, 2)),
        )
        with pytest.raises(SystemExit) as info:
            main(["batch", "polynomial", "--inputs", str(tmp_path / "bad.npz")])
        assert "leading item axis" in str(info.value)

    def test_zero_d_array_beside_item_axes_is_a_clear_error(self, tmp_path):
        np.savez(tmp_path / "z.npz", din=np.array(1.0), c=np.zeros((2, 3)))
        with pytest.raises(SystemExit) as info:
            main(["batch", "passthrough", "--inputs", str(tmp_path / "z.npz")])
        assert "leading item axis" in str(info.value)

    def test_missing_inputs_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "passthrough", "--inputs", str(tmp_path / "no.npz")])

    def test_bad_items_count(self):
        with pytest.raises(SystemExit):
            main(["batch", "passthrough", "--items", "0"])


class TestBadCounts:
    """Every count flag is bounded in argparse: a bad value exits 2 with
    a usage error naming the flag, never a traceback or a silent no-op."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "passthrough", "--processes", "-1"],
            ["batch", "passthrough", "--max-retries", "-1"],
            ["batch", "passthrough", "--item-timeout", "0"],
            ["batch", "passthrough", "--items", "0"],
            ["run", "polynomial", "--inject", "stall_cell:cell=1,cycles=5",
             "--max-retries", "-2"],
            ["run", "polynomial", "--trace", "-1"],
            ["verify", "polynomial", "--mutate", "-3"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("factor", ["0", "-3"])
    def test_unroll_below_one_is_a_usage_error(self, factor, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "polynomial", "--unroll", factor])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --unroll: must be >= 1, got {factor}" in err
        assert "Traceback" not in err

    def test_bounds_are_inclusive(self, capsys):
        assert main(["run", "passthrough", "--trace", "0"]) == 0
        assert main([
            "batch", "passthrough", "--items", "1", "--processes", "0",
            "--max-retries", "0", "--item-timeout", "0.5",
        ]) == 0


class TestFaultInjection:
    """``--inject`` end to end: `run` and `batch` share one retry policy
    (docs/robustness.md) — fatal faults fail at once, others retry."""

    STALL = "stall_cell:cell=1,cycles=500"
    DROP = "drop_send:cell=1,channel=X,index=3"

    def test_run_does_not_retry_a_fatal_fault(self, capsys):
        assert main(
            ["run", "polynomial", "--inject", self.STALL, "--max-retries", "2"]
        ) == 3
        captured = capsys.readouterr()
        assert "retry" not in captured.out
        assert "fault detected after 1 attempt(s): CellHangError" in captured.err
        assert "injected: stall_cell cell=1 cycles=500" in captured.err

    def test_run_recovers_a_transient_fault(self, capsys):
        assert main(
            ["run", "conv1d", "--inject", self.DROP, "--max-retries", "1"]
        ) == 0
        out = capsys.readouterr().out
        retries = [line for line in out.splitlines() if line.startswith("retry")]
        assert len(retries) == 1
        assert retries[0].startswith("retry 1: SilentCorruptionDetected:")
        assert "ran 'conv1d'" in out

    def test_run_without_retries_reports_the_fault(self, capsys):
        assert main(["run", "conv1d", "--inject", self.DROP]) == 3
        captured = capsys.readouterr()
        assert "fault detected after 1 attempt(s)" in captured.err
        assert "injected: drop_send cell=1 channel=X index=3" in captured.err

    def test_batch_retries_a_killed_worker(self, capsys):
        assert main(
            [
                "batch",
                "polynomial",
                "--items",
                "3",
                "--inject",
                "worker_kill:item=1",
                "--max-retries",
                "1",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "    1 retry\n" in captured.out
        assert "FAILED" not in captured.err


class TestVerifyAndCheckCommands:
    def test_verify_bundled_program(self, capsys):
        assert main(["verify", "polynomial"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "0 diagnostic" in out

    def test_verify_quick_level_runs_fewer_checks(self, capsys):
        assert main(["verify", "conv1d", "--level", "quick"]) == 0
        quick = capsys.readouterr().out
        assert main(["verify", "conv1d", "--level", "full"]) == 0
        full = capsys.readouterr().out

        def checks(text):
            return int(text.split("verification: ")[1].split(" checks")[0])

        assert checks(quick) < checks(full)

    def test_verify_auto_unroll(self, capsys):
        assert main(["verify", "passthrough", "--unroll", "auto"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_verify_mutation_smoke_flags_every_mutant(self, capsys):
        assert main(["verify", "conv1d", "--mutate", "6"]) == 0
        out = capsys.readouterr().out
        assert "mutation smoke: 6/6 mutants flagged" in out
        assert "caught" in out and "ESCAPED" not in out

    def test_check_one_line_verdict(self, capsys):
        assert main(["check", "matmul", "--unroll", "2"]) == 0
        out = capsys.readouterr().out
        assert "compile ok" in out and "verification ok" in out
        assert "skew" in out


class TestStructuredBadInputErrors:
    """Unmappable or overflowing programs exit 2 with one structured
    ``error[Class]:`` line on stderr — never a traceback — on every
    compiling subcommand (the ISSUE 5 satellite)."""

    @pytest.fixture()
    def unmappable(self, tmp_path):
        from repro.programs import bidirectional_cycle

        path = tmp_path / "bidirectional.w2"
        path.write_text(bidirectional_cycle())
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile"],
            ["timing"],
            ["run"],
            ["profile"],
            ["compare"],
            ["batch"],
            ["verify"],
            ["check"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unmappable_program_exits_2_on_every_subcommand(
        self, unmappable, argv, capsys
    ):
        assert main([argv[0], unmappable, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert "error[MappingError]" in captured.err
        assert "Section 5.1.1" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_queue_overflow_reports_required_size(self, monkeypatch, capsys):
        """The paper's compiler reports the queue size a program needs;
        so does ours, as a structured diagnostic with exit code 2."""
        import repro.cli as cli

        monkeypatch.setattr(
            cli,
            "DEFAULT_CONFIG",
            dataclasses.replace(cli.DEFAULT_CONFIG, queue_depth=1),
        )
        assert main(["verify", "polynomial", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "error[QueueOverflowError]" in err
        assert "needs a queue of" in err and "capacity 1" in err
        assert "Traceback" not in err

    def test_check_reports_overflow_too(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli,
            "DEFAULT_CONFIG",
            dataclasses.replace(cli.DEFAULT_CONFIG, queue_depth=1),
        )
        assert main(["check", "conv1d", "--no-cache"]) == 2
        assert "error[QueueOverflowError]" in capsys.readouterr().err


class TestCacheOptions:
    def test_profile_reports_cache_status(self, capsys):
        assert main(["profile", "passthrough"]) == 0
        first = capsys.readouterr().out
        assert "compile cache: miss" in first
        # Same process, same default cache: second profile hits memory.
        assert main(["profile", "passthrough"]) == 0
        second = capsys.readouterr().out
        assert "compile cache: memory-hit" in second

    def test_no_cache_disables_caching(self, capsys):
        assert main(["profile", "passthrough", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "compile cache: disabled" in out
        # Nothing was warmed: a cached profile still starts cold.
        assert main(["profile", "passthrough"]) == 0
        assert "compile cache: miss" in capsys.readouterr().out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["profile", "passthrough", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        assert "compile cache: miss" in capsys.readouterr().out
        assert list(cache_dir.glob("*.w2c"))
        # A fresh invocation builds a fresh CompileCache: the hit comes
        # from disk, not memory.
        assert main(args) == 0
        assert "compile cache: disk-hit" in capsys.readouterr().out

    def test_run_trace_annotates_cache_status(self, capsys):
        assert main(
            ["run", "passthrough", "--input", "din=1,2", "--trace", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "[compile cache: miss" in out

    def test_compare_no_cache_never_reads_stale_state(
        self, tmp_path, capsys
    ):
        """`compare --no-cache` must reflect the file as it is *now*,
        even after a warm cached compile of an earlier version."""
        from repro.programs import passthrough

        prog = tmp_path / "prog.w2"
        cache_dir = tmp_path / "cache"
        prog.write_text(passthrough(4, 2))
        assert main(
            ["compare", str(prog), "--cache-dir", str(cache_dir)]
        ) == 0
        assert "(2 cells)" in capsys.readouterr().out
        entries_before = sorted(cache_dir.glob("*.w2c"))

        prog.write_text(passthrough(4, 3))  # the program changed on disk
        assert main(["compare", str(prog), "--no-cache"]) == 0
        assert "(3 cells)" in capsys.readouterr().out
        # --no-cache neither read nor wrote any cache state.
        assert sorted(cache_dir.glob("*.w2c")) == entries_before

    def test_compile_and_timing_accept_cache_flags(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["compile", "passthrough", "--cache-dir", cache_dir]) == 0
        assert main(["timing", "passthrough", "--cache-dir", cache_dir]) == 0
        assert main(["compile", "passthrough", "--no-cache"]) == 0
        capsys.readouterr()
