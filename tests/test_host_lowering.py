"""Tests for host transfer-descriptor lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_w2
from repro.hostcodegen import (
    BlockTransfer,
    HostLayout,
    LiteralRun,
    compress_offsets,
    lower_input_program,
    lower_output_program,
    transfer_statistics,
)
from repro.lang import Channel
from repro.programs import TABLE_7_1_PROGRAMS, conv2d, matmul, polynomial

#: ``a`` is words 0-39, ``b`` words 40-79, the literals 0.0/1.0/2.0
#: words 80-82 and the discard slot word 83.
LAYOUT = HostLayout({"a": (40,), "b": (4, 10)}, (0.0, 1.0, 2.0))


def word(array=None, index=None, literal=None):
    if array is None:
        return LAYOUT.literal_word(literal)
    return LAYOUT.spans[array][0] + index


def compress(channel, words):
    return compress_offsets(channel, np.array(words, dtype=np.int64), LAYOUT)


class TestCompression:
    def test_contiguous_run_is_one_descriptor(self):
        program = compress(Channel.X, [word("a", i) for i in range(10)])
        assert program.ops == [BlockTransfer("a", 0, 1, 10)]

    def test_strided_run(self):
        program = compress(Channel.X, [word("a", i) for i in range(0, 30, 3)])
        assert program.ops == [BlockTransfer("a", 0, 3, 10)]

    def test_descending_run(self):
        program = compress(Channel.X, [word("a", i) for i in (9, 8, 7, 6)])
        assert program.ops == [BlockTransfer("a", 9, -1, 4)]

    def test_literal_run(self):
        program = compress(Channel.Y, [word(literal=0.0)] * 5)
        assert program.ops == [LiteralRun(0.0, 5)]

    def test_mixed_arrays_split(self):
        words = [word("a", 0), word("a", 1), word("b", 0), word("b", 1)]
        program = compress(Channel.X, words)
        arrays = [op.array for op in program.ops]
        assert arrays == ["a", "b"]

    def test_literal_value_change_splits_runs(self):
        words = [word(literal=0.0)] * 3 + [word(literal=1.0)] * 2
        program = compress(Channel.X, words)
        assert program.ops == [LiteralRun(0.0, 3), LiteralRun(1.0, 2)]

    def test_roundtrip_preserves_sequence(self):
        words = [
            word("a", 0),
            word("a", 5),
            word("a", 10),
            word(literal=2.0),
            word("b", 7),
        ]
        program = compress(Channel.X, words)
        assert program.expand(LAYOUT).tolist() == words


class TestOnCompiledPrograms:
    @pytest.mark.parametrize(
        "source",
        [polynomial(40, 5), matmul(8, 4), conv2d(8, 6)],
        ids=["polynomial", "matmul", "conv2d"],
    )
    def test_input_roundtrip(self, source):
        program = compile_w2(source)
        host = program.host_program
        for channel in (Channel.X, Channel.Y):
            lowered = lower_input_program(host, channel)
            original = host.feed(channel)
            assert lowered.expand(host.layout).tolist() == original.tolist()

    def test_output_includes_discards_as_padding(self):
        program = compile_w2(polynomial(12, 4))
        lowered = lower_output_program(program.host_program, Channel.X)
        # Polynomial's X outputs are all discards (forwarded stream).
        assert all(isinstance(op, LiteralRun) for op in lowered.ops)
        assert lowered.total_words == program.host_program.output_count(
            Channel.X
        )

    def test_polynomial_feed_is_two_descriptors(self):
        """Coefficients then data points: two contiguous blocks."""
        program = compile_w2(polynomial(40, 5))
        lowered = lower_input_program(program.host_program, Channel.X)
        blocks = [op for op in lowered.ops if isinstance(op, BlockTransfer)]
        assert len(blocks) == 2
        assert blocks[0].array == "c" and blocks[1].array == "z"

    def test_statistics(self):
        program = compile_w2(polynomial(40, 5))
        lowered = lower_input_program(program.host_program, Channel.X)
        stats = transfer_statistics(lowered)
        assert stats.words == 45
        assert stats.compression > 10


@st.composite
def random_sequences(draw):
    words = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            words.append(
                word(
                    draw(st.sampled_from(["a", "b"])),
                    draw(st.integers(0, 39)),
                )
            )
        else:
            words.append(word(literal=float(draw(st.integers(0, 2)))))
    return words


class TestRoundTripProperty:
    @given(random_sequences())
    @settings(max_examples=200, deadline=None)
    def test_expand_inverts_compress(self, words):
        program = compress(Channel.X, words)
        assert program.expand(LAYOUT).tolist() == words
