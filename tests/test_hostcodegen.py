"""Tests for host I/O program generation."""

import pytest

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.hostcodegen import generate_host_program
from repro.lang import Channel
from repro.programs import binop, polynomial


class TestPolynomialSequences:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_w2(polynomial(6, 3))

    def test_x_input_order(self, program):
        refs = list(program.host_program.input_sequence(Channel.X))
        # First the 3 coefficients, then the 6 z values.
        coeffs = refs[:3]
        assert all(r.array == "c" for r in coeffs)
        assert [r.flat_index for r in coeffs] == [0, 1, 2]
        zs = refs[3:]
        assert all(r.array == "z" for r in zs)
        assert [r.flat_index for r in zs] == list(range(6))

    def test_y_inputs_are_literal_zero(self, program):
        refs = list(program.host_program.input_sequence(Channel.Y))
        assert len(refs) == 6
        assert all(r.is_literal and r.literal == 0.0 for r in refs)

    def test_y_output_bindings(self, program):
        bindings = list(program.host_program.output_bindings(Channel.Y))
        assert [b.flat_index for b in bindings] == list(range(6))
        assert all(b.array == "results" for b in bindings)

    def test_x_outputs_discarded(self, program):
        bindings = list(program.host_program.output_bindings(Channel.X))
        assert bindings
        assert all(b.is_discard for b in bindings)

    def test_counts(self, program):
        host = program.host_program
        assert host.input_count(Channel.X) == 9
        assert host.output_count(Channel.Y) == 6


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
def test_static_counts_equal_the_expanded_sequences(program_suite, unroll):
    """The counts come from block matches times loop trips, never from
    expanding the sequences; they must agree with the expansion."""
    for name, source, _inputs, _ref in program_suite:
        host = compile_w2(source, unroll=unroll).host_program
        for channel in (Channel.X, Channel.Y):
            assert host.input_count(channel) == len(
                list(host.input_sequence(channel))
            ), (name, unroll, channel)
            assert host.output_count(channel) == len(
                list(host.output_bindings(channel))
            ), (name, unroll, channel)


def test_count_still_looks_up_every_statement():
    """A sequence naming an unknown statement fails the count too, so the
    verifier's stream.host_counts diagnostic still fires."""
    host = compile_w2(polynomial(6, 3)).host_program
    host._io.clear()
    with pytest.raises(KeyError):
        host.input_count(Channel.X)
    with pytest.raises(KeyError):
        host.output_count(Channel.Y)


class TestBinopSequences:
    def test_collection_order_reversed_within_group(self):
        program = compile_w2(binop(4, 2, 4))
        bindings = [
            b
            for b in program.host_program.output_bindings(Channel.X)
            if not b.is_discard
        ]
        # Each group of 4 arrives in descending pixel order.
        first_group = [b.flat_index for b in bindings[:4]]
        assert first_group == [3, 2, 1, 0]


class TestValidation:
    def test_receive_without_external_rejected(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t);
        send (R, X, t, b[i]);
    end;
end
"""
        with pytest.raises(HostDataError, match="no external"):
            compile_w2(src)
