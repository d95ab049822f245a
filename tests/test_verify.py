"""Tests for the independent schedule verifier (``repro.verify``).

The verifier re-derives the paper's invariants from the emitted
artifacts alone; these tests pin (a) zero false positives on every
bundled program and example source at every unroll factor, (b) the
level/environment plumbing, (c) the driver integration (a rejected
schedule raises and never reaches the cache), and (d) that targeted
artifact surgery trips exactly the check it violates.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.compiler import compile_w2
from repro.config import DEFAULT_CONFIG
from repro.errors import VerificationError
from repro.exec import CompileCache
from repro.programs import conv2d, passthrough, polynomial
from repro.timing.skew import SkewResult
from repro.verify import (
    LEVELS,
    mutate,
    resolve_level,
    verify_artifacts,
    verify_program,
)
from repro.verify.report import VerificationReport


def _compile_unverified(source, unroll=1):
    """Compile with the in-driver verifier off, so tests can corrupt the
    artifacts and run the verifier by hand."""
    config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
    return compile_w2(source, config=config, unroll=unroll)


def _example_w2_sources():
    """(name, W2 source) for every source literal under ``examples/``."""
    examples = Path(__file__).resolve().parent.parent / "examples"
    sources = []
    for path in sorted(examples.glob("*.py")):
        if "\nSOURCE = " not in path.read_text():
            continue
        spec = importlib.util.spec_from_file_location(
            f"example_{path.stem}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sources.append((path.stem, module.SOURCE))
    return sources


class TestCleanMatrix:
    """Zero false positives: every bundled program and every examples/
    source verifies clean at every supported unroll factor."""

    @pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
    def test_bundled_programs_verify_green(self, program_suite, unroll):
        for name, source, _inputs, _ref in program_suite:
            program = compile_w2(source, unroll=unroll)
            report = verify_program(program, level="full")
            assert report.ok, (
                f"{name} unroll={unroll} false positive:\n{report.format()}"
            )
            assert report.level == "full"
            assert len(report.checks_run) >= 20

    @pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
    def test_example_sources_verify_green(self, unroll):
        cases = _example_w2_sources()
        assert cases, "examples/ should contribute at least one W2 source"
        for name, source in cases:
            program = compile_w2(source, unroll=unroll)
            report = verify_program(program, level="full")
            assert report.ok, (
                f"{name} unroll={unroll} false positive:\n{report.format()}"
            )


class TestLevels:
    def test_resolve_level_passthrough(self):
        for level in LEVELS:
            assert resolve_level(level) == level

    def test_default_resolves_through_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "quick")
        assert resolve_level("default") == "quick"
        monkeypatch.delenv("REPRO_VERIFY")
        assert resolve_level("default") == "quick"
        monkeypatch.setenv("REPRO_VERIFY", "")
        assert resolve_level("default") == "quick"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown verify level"):
            resolve_level("paranoid")

    def test_off_runs_nothing(self, compiled_polynomial):
        program = compiled_polynomial
        report = verify_artifacts(
            program.cell_code,
            program.iu_program,
            program.host_program,
            skew=program.skew,
            buffers=program.buffers,
            config=program.config,
            n_cells=program.n_cells,
            level="off",
        )
        assert report.ok
        assert not report.checks_run and not report.diagnostics

    def test_quick_is_a_strict_subset_of_full(self, compiled_polynomial):
        quick = verify_program(compiled_polynomial, level="quick")
        full = verify_program(compiled_polynomial, level="full")
        assert quick.ok and full.ok
        assert set(quick.checks_run) < set(full.checks_run)
        # Quick stays static: no skew/occupancy/tau re-enumeration.
        for family in ("skew.", "occupancy.", "tau."):
            assert not any(c.startswith(family) for c in quick.checks_run)
            assert any(c.startswith(family) for c in full.checks_run)


    def test_default_conv2d_fits_the_event_budget(self):
        """Default conv2d, the largest bundled program (524,288 IU
        emissions), runs every dynamic check at ``full``: only the tau
        closed form, with its own smaller budget, is skipped."""
        report = verify_program(_compile_unverified(conv2d()), level="full")
        assert report.ok
        assert report.notes
        assert all("tau budget" in note for note in report.notes), (
            report.notes
        )

    def test_stream_over_the_event_budget_is_noted(self):
        """A channel whose streams exceed ``MAX_EVENTS`` keeps its
        static checks; its exact stream checks are skipped, with a
        note naming the budget."""
        program = _compile_unverified(passthrough(3_000_000, 1))
        report = verify_program(program, level="full")
        assert report.ok
        assert report.notes == [
            "channel X: event streams exceed the 1000000 budget; "
            "exact stream checks skipped"
        ]


class TestDriverIntegration:
    def test_config_off_skips_verification(self, monkeypatch):
        import repro.verify as verify_pkg

        def explode(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("verifier ran despite verify='off'")

        monkeypatch.setattr(verify_pkg, "verify_artifacts", explode)
        config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
        program = compile_w2(polynomial(12, 4), config=config)
        assert program.metrics.cell_ucode > 0

    def test_rejected_program_raises_and_is_not_cached(
        self, monkeypatch, tmp_path
    ):
        import repro.verify as verify_pkg

        failing = VerificationReport(level="full")
        failing.add("hazard.mem_ports", "synthetic failure")

        real = verify_pkg.verify_artifacts

        def reject(*args, **kwargs):
            real(*args, **kwargs)  # still exercised, result discarded
            return failing

        monkeypatch.setattr(verify_pkg, "verify_artifacts", reject)
        cache = CompileCache(cache_dir=tmp_path)
        config = dataclasses.replace(DEFAULT_CONFIG, verify="full")
        with pytest.raises(VerificationError, match="1 diagnostic"):
            compile_w2(polynomial(12, 4), config=config, cache=cache)
        assert not list(tmp_path.glob("*.w2c")), (
            "a rejected program must never reach the compile cache"
        )

    def test_verification_error_carries_the_report(self, monkeypatch):
        import repro.verify as verify_pkg

        failing = VerificationReport(level="full")
        failing.add("iu.deadline", "late address")
        monkeypatch.setattr(
            verify_pkg, "verify_artifacts", lambda *a, **k: failing
        )
        config = dataclasses.replace(DEFAULT_CONFIG, verify="full")
        with pytest.raises(VerificationError) as info:
            compile_w2(polynomial(12, 4), config=config)
        assert info.value.report is failing
        assert "iu.deadline" in info.value.report.format()

    def test_cache_key_ignores_verify_level(self):
        from repro.exec.keys import config_fingerprint

        on = dataclasses.replace(DEFAULT_CONFIG, verify="full")
        off = dataclasses.replace(DEFAULT_CONFIG, verify="off")
        assert config_fingerprint(on) == config_fingerprint(off)
        assert "verify" not in config_fingerprint(on)


class TestArtifactSurgery:
    """Each corruption trips exactly the invariant it violates."""

    @pytest.fixture()
    def program(self):
        return _compile_unverified(polynomial(16, 4))

    def test_understated_buffer_requirement(self, program):
        target = next(b for b in program.buffers if b.required >= 1)
        index = program.buffers.index(target)
        program.buffers[index] = dataclasses.replace(
            target, required=target.required - 1
        )
        report = verify_program(program, level="full")
        assert "occupancy.declared" in report.failed_checks()

    def test_skew_below_floor(self, program):
        program.skew = SkewResult(skew=0, channels=program.skew.channels)
        report = verify_program(program, level="full")
        failed = report.failed_checks()
        assert "skew.floor" in failed

    def test_understated_skew_is_infeasible(self, program):
        channels = program.skew.channels
        program.skew = SkewResult(skew=1, channels=channels)
        report = verify_program(program, level="full")
        # polynomial needs skew >= 2: the declared value must be caught
        # by the exact event re-enumeration.
        assert "skew.exact" in report.failed_checks()

    def test_host_sequence_naming_unknown_statement(self, program):
        program.host_program._io.clear()
        report = verify_program(program, level="full")
        assert report.failed_checks() == {"stream.host_counts"}

    def test_aliased_registers_break_replay(self, program):
        mutant = mutate(program, "alias_temp_registers", 0)
        assert mutant is not None
        report = verify_program(mutant.program, level="full")
        assert not report.ok
        assert any(
            check.startswith("register.") or check.startswith("hazard.")
            for check in report.failed_checks()
        )

    def test_diagnostics_format_readably(self, program):
        program.skew = SkewResult(skew=0, channels=program.skew.channels)
        report = verify_program(program, level="full")
        text = report.format()
        assert "skew.floor" in text
        assert "diagnostic" in text
        summary = report.summary(limit=1)
        assert summary  # one-line form for VerificationError messages


class TestTauClosedForm:
    """The tau check's four outcomes, each from one tampered
    characterisation: statement 4 of polynomial(16, 4), the receive of
    ``z[i]`` (R=(16, 1), N=(1, 1), S=(4, 0), L=(12, 1), T=(8, 0))."""

    @pytest.fixture()
    def tau_findings(self, monkeypatch):
        from repro.verify import streams

        program = _compile_unverified(polynomial(16, 4))
        characterize = streams.characterize_streams

        def run(**changes):
            def tampered(code, stream_list):
                return [
                    [
                        dataclasses.replace(char, **changes)
                        if char.io_index == 4
                        else char
                        for char in chars
                    ]
                    for chars in characterize(code, stream_list)
                ]

            monkeypatch.setattr(streams, "characterize_streams", tampered)
            report = verify_program(program, level="full")
            messages = [
                (d.channel, d.message)
                for d in report.diagnostics
                if d.check == "tau.closed_form"
            ]
            notes = [note for note in report.notes if "tau budget" in note]
            return messages, notes

        return run

    def test_untampered_passes(self, tau_findings):
        assert tau_findings() == ([], [])

    def test_statement_that_never_executes(self, tau_findings):
        assert tau_findings(io_index=99) == (
            [
                (
                    "X",
                    "statement 99 of recv(L.X) never executes in the "
                    "schedule but its characterisation promises 16 "
                    "executions",
                )
            ],
            [],
        )

    def test_domain_smaller_than_promised(self, tau_findings):
        # The statement's ordinal within an iteration (S[1] = 1) no
        # longer fits the iteration's one stream event (N[0] = 1).
        assert tau_findings(S=(4, 1)) == (
            [
                (
                    "X",
                    "statement 4 of recv(L.X): domain has 0 ordinals but "
                    "the characterisation promises 16 executions",
                )
            ],
            [],
        )

    def test_closed_form_off_by_one_cycle(self, tau_findings):
        assert tau_findings(T=(8, 1)) == (
            [
                (
                    "X",
                    "statement 4 of recv(L.X): tau(n) yields "
                    "[9, 21, 33, 45, 57, 69, 81, 93]... but the schedule "
                    "executes at [8, 20, 32, 44, 56, 68, 80, 92]...",
                )
            ],
            [],
        )

    def test_stream_over_the_tau_budget(self, tau_findings):
        assert tau_findings(R=(20_000, 1)) == (
            [],
            [
                "stream recv(L.X): 20004 events exceed the tau budget of "
                "20000; closed-form check skipped"
            ],
        )


class TestReport:
    def test_clean_report_reads_clean(self, compiled_polynomial):
        report = verify_program(compiled_polynomial, level="full")
        assert "all invariants hold" in report.format()
        assert report.failed_checks() == set()

    def test_ok_is_diagnostic_driven(self):
        report = VerificationReport(level="quick")
        report.ran("hazard.mem_ports")
        assert report.ok
        report.add("hazard.mem_ports", "boom", block_id=3, cycle=7)
        assert not report.ok
        assert report.failed_checks() == {"hazard.mem_ports"}
        rendered = str(report.diagnostics[0])
        assert "block 3" in rendered and "cycle 7" in rendered
