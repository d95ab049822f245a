"""Tests for host I/O program generation."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.hostcodegen import generate_host_program
from repro.cellcodegen.emit import ScheduledBlock
from repro.ir.dag import OpKind
from repro.lang import Channel, Direction
from repro.programs import binop, polynomial


def words(host, offsets):
    """``(array, flat index)`` of each array word, ``"literal"`` or
    ``"discard"`` for the others."""
    layout = host.layout
    out = []
    for offset in offsets.tolist():
        if offset == layout.discard:
            out.append("discard")
        elif offset >= layout.literal_base:
            out.append(("literal", layout.literals[offset - layout.literal_base]))
        else:
            out.append(layout.locate(offset))
    return out


class TestPolynomialSequences:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_w2(polynomial(6, 3))

    def test_x_input_order(self, program):
        host = program.host_program
        feed = words(host, host.feed(Channel.X))
        # First the 3 coefficients, then the 6 z values.
        assert feed[:3] == [("c", 0), ("c", 1), ("c", 2)]
        assert feed[3:] == [("z", i) for i in range(6)]

    def test_y_inputs_are_literal_zero(self, program):
        host = program.host_program
        feed = words(host, host.feed(Channel.Y))
        assert feed == [("literal", 0.0)] * 6

    def test_y_output_bindings(self, program):
        host = program.host_program
        collection = words(host, host.collection(Channel.Y))
        assert collection == [("results", i) for i in range(6)]

    def test_x_outputs_discarded(self, program):
        host = program.host_program
        collection = host.collection(Channel.X)
        assert collection.size
        assert np.all(collection == host.layout.discard)

    def test_counts(self, program):
        host = program.host_program
        assert host.input_count(Channel.X) == 9
        assert host.output_count(Channel.Y) == 6


def scalar_walk(host, kind, direction, channel):
    """The stream word by word: step through every loop trip and resolve
    each matching event's external under scalar loop indices."""
    layout = host.layout
    out = []

    def visit(items, env):
        for item in items:
            if isinstance(item, ScheduledBlock):
                for event in item.io_events:
                    if (event.kind, event.queue.direction, event.queue.channel) != (
                        kind,
                        direction,
                        channel,
                    ):
                        continue
                    stmt = host._io[event.io_index]
                    if stmt.external_array is not None:
                        out.append(
                            (stmt.external_array, stmt.external_index.evaluate(env))
                        )
                    elif kind is OpKind.RECV:
                        out.append(("literal", stmt.external_literal))
                    else:
                        out.append("discard")
            else:
                for k in range(item.trip):
                    visit(item.body, {**env, item.var: item.start + k * item.step})

    visit(host._code.items, {})
    return out


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
def test_static_counts_equal_the_expanded_sequences(program_suite, unroll):
    """The counts come from block matches times loop trips, never from
    the closed-form offsets; they must agree with the offsets' lengths,
    and the offsets word for word with a scalar walk of the loop tree."""
    for name, source, _inputs, _ref in program_suite:
        host = compile_w2(source, unroll=unroll).host_program
        for channel in (Channel.X, Channel.Y):
            feed = host.feed(channel)
            collection = host.collection(channel)
            assert words(host, feed) == scalar_walk(
                host, OpKind.RECV, Direction.LEFT, channel
            ), (name, unroll, channel)
            assert words(host, collection) == scalar_walk(
                host, OpKind.SEND, Direction.RIGHT, channel
            ), (name, unroll, channel)
            assert feed.dtype == collection.dtype == np.int64
            assert host.input_count(channel) == len(feed), (
                name,
                unroll,
                channel,
            )
            assert host.output_count(channel) == len(collection), (
                name,
                unroll,
                channel,
            )


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
        host = compile_w2(binop(4, 2, 4)).host_program
        collection = [
            w for w in words(host, host.collection(Channel.X)) if w != "discard"
        ]
        # Each group of 4 arrives in descending pixel order.
        first_group = [index for _array, index in collection[:4]]
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
