"""The NaN rule: every NaN in a run's outputs is the quiet NaN
``0x7ff8000000000000``, on every path.

No W2 operation lets a NaN's sign or payload reach a non-NaN value, but
which NaN an operation on two NaNs returns is not fixed: CPython's
generic and specialised float operators, NumPy's SIMD and scalar loops
and the generated driver's inline operators may each keep a different
operand's bits.  So each path rewrites the NaNs of its outputs to one
NaN where it turns host memory into outputs (the reference interpreter
too), and the paths agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2
from repro.exec import BatchRunner
from repro.lang import analyze, parse_module
from repro.machine import QUIET_NAN, interpret, simulate
from repro.programs import colorseg

from conftest import checked_run

#: One cell, every operation a NaN operand can reach: each trip takes
#: ``x`` and ``y`` and sends ``x + y``, ``x - y``, ``x * y``, ``x / y``,
#: ``-x`` and the select ``x > y ? x : y``.
TWO_NANS = """
module nanrule (a in, b in, s out, d out, p out, q out, n out, m out)
float a[4];
float b[4];
float s[4];
float d[4];
float p[4];
float q[4];
float n[4];
float m[4];
cellprogram (cid : 0 : 0)
begin
    float x, y, r;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, x, a[i]);
        receive (L, Y, y, b[i]);
        send (R, X, x + y, s[i]);
        send (R, X, x - y, d[i]);
        send (R, X, x * y, p[i]);
        send (R, Y, x / y, q[i]);
        send (R, Y, -x, n[i]);
        if x > y then r := x; else r := y;
        send (R, Y, r, m[i]);
    end;
end
"""

QUIET = 0x7FF8_0000_0000_0000

_program = compile_w2(TWO_NANS)
_analyzed = analyze(parse_module(TWO_NANS))


def _nan(sign: int, quiet: int, payload: int) -> float:
    bits = sign << 63 | 0x7FF << 52 | quiet << 51 | payload
    return float(np.uint64(bits).view(np.float64))


#: A NaN of drawn sign and payload, signalling ones included.
nans = st.builds(
    _nan,
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 2**51 - 1),
).filter(lambda value: value != value)


def _bits(outputs: dict[str, np.ndarray]) -> dict[str, list[int]]:
    return {name: data.view(np.uint64).tolist() for name, data in outputs.items()}


def _assert_one_nan(outputs: dict[str, np.ndarray]) -> None:
    for name, data in outputs.items():
        bits = data.view(np.uint64)[np.isnan(data)]
        assert (bits == QUIET).all(), (name, [hex(b) for b in bits])


def check_two_nans(items: list[dict[str, np.ndarray]], program=_program) -> None:
    """Every path of ``program`` (:data:`TWO_NANS` compiled) returns the
    interpreter's bits on ``items``: ten ``simulate`` calls per item (the
    run crosses CPython's switch to specialised float operators), one
    serial batch over NumPy columns and each item's checked
    cycle-accurate run."""
    batch = BatchRunner(program).run(items)
    assert batch.ok and batch.value_items == len(items)
    for item, batched in zip(items, batch.results):
        want = _bits(interpret(_analyzed, item))
        _assert_one_nan(batched.outputs)
        assert _bits(batched.outputs) == want
        assert _bits(checked_run(program, item).outputs) == want
        for _call in range(10):
            assert _bits(simulate(program, item).outputs) == want


#: One to nine items of two NaN operands per trip.
TWO_NAN_ITEMS = st.lists(
    st.fixed_dictionaries({
        "a": st.lists(nans, min_size=4, max_size=4).map(np.array),
        "b": st.lists(nans, min_size=4, max_size=4).map(np.array),
    }),
    min_size=1, max_size=9,
)


@settings(max_examples=40, deadline=None)
@given(TWO_NAN_ITEMS)
def test_two_nans_agree_on_every_path(items):
    check_two_nans(items)


def test_quiet_nan_bits():
    assert np.float64(QUIET_NAN).view(np.uint64) == QUIET


def test_negative_nan_times_positive_nan():
    """The repro of the undefined rule: ``-NaN * +NaN`` gave ``0x7ff8…``
    on the first simulate calls and ``0xfff8…`` from the eighth on, and a
    9-item batch split 8 to 1; now every call and item is canonical."""
    item = {
        "a": np.full(4, _nan(1, 1, 0)),  # 0xfff8000000000000
        "b": np.full(4, _nan(0, 1, 0)),  # 0x7ff8000000000000
    }
    for _call in range(20):
        assert _bits(simulate(_program, item).outputs)["p"] == [QUIET] * 4
    batch = BatchRunner(_program).run([item] * 9)
    for result in batch.results:
        assert _bits(result.outputs)["p"] == [QUIET] * 4
    check_two_nans([item] * 9)


def test_colorseg_passes_an_input_nan_through_canonical():
    """An input NaN the run only passes through (``class`` with payload
    ``…01``) comes back as the quiet NaN on every path, as it does from
    the interpreter."""
    source = colorseg(5, 4, 3)
    program = compile_w2(source)
    item = {
        "u": np.zeros(20), "v": np.zeros(20),
        "refu": np.zeros(3), "refv": np.zeros(3), "radius": np.ones(3),
        "class": np.array([1.0, _nan(0, 1, 1), 3.0]),
    }
    want = _bits(interpret(analyze(parse_module(source)), item))
    assert want["class"][1] == QUIET
    assert _bits(checked_run(program, item).outputs) == want
    for _call in range(10):
        assert _bits(simulate(program, item).outputs) == want
    batch = BatchRunner(program).run([item, item])
    for result in batch.results:
        assert _bits(result.outputs) == want
