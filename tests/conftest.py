"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
import signal

# Every compile in the test suite runs the independent schedule verifier
# at full strength unless a test overrides the level explicitly.
os.environ.setdefault("REPRO_VERIFY", "full")

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.machine import WarpMachine
from repro.machine.host import HostMemory
from repro.programs import (
    binop,
    colorseg,
    conv1d,
    conv2d,
    fir_bank,
    mandelbrot,
    matmul,
    passthrough,
    polynomial,
)


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than the "
        "given wall time (pytest-timeout when installed, a SIGALRM "
        "fallback otherwise)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item):
    """Honour ``@pytest.mark.timeout`` without pytest-timeout.

    The multiprocessing tests guard against a hung pool with per-test
    timeouts; when the real plugin is absent (it is optional) a SIGALRM
    alarm provides the same safety net on the main thread.  No-op when
    pytest-timeout is installed (it owns the marker then) or off Unix.
    """
    marker = item.get_closest_marker("timeout")
    use_fallback = (
        marker is not None
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
    )
    if not use_fallback:
        yield
        return
    seconds = int(marker.args[0]) if marker.args else 60

    def _expired(_signum, _frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds}s timeout (SIGALRM "
            "fallback; install pytest-timeout for richer reporting)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.listing from the current compiler "
        "output instead of comparing against it",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260705)


#: Small instances of every end-to-end program: (name, source factory,
#: reference function over an input dict, input generator).
def _poly_ref(inputs):
    return {"results": np.polyval(inputs["c"], inputs["z"])}


def _conv_ref(inputs):
    x, w = inputs["x"], inputs["w"]
    return {"y": np.convolve(x, w)[: len(x)]}


def _binop_ref(inputs):
    return {"c": inputs["a"] + inputs["b"]}


def _colorseg_ref(inputs):
    u, v = inputs["u"], inputs["v"]
    labels = np.zeros_like(u)
    for k in range(len(inputs["refu"])):
        dist = (u - inputs["refu"][k]) ** 2 + (v - inputs["refv"][k]) ** 2
        labels = np.where(dist <= inputs["radius"][k], inputs["class"][k], labels)
    return {"labels": labels}


def _mandel_ref(inputs):
    cx, cy = inputs["cx"], inputs["cy"]
    counts = np.zeros_like(cx)
    zr = np.zeros_like(cx)
    zi = np.zeros_like(cy)
    for _ in range(4):
        mag = zr * zr + zi * zi
        new_zr = zr * zr - zi * zi + cx
        zi = 2.0 * zr * zi + cy
        zr = new_zr
        counts += mag <= 4.0
    return {"counts": counts}


def _matmul_ref(inputs):
    n = int(np.sqrt(inputs["a"].size))
    a = inputs["a"].reshape(n, n)
    b = inputs["b"].reshape(n, n)
    return {"c": (a @ b).ravel()}


def small_program_suite(rng: np.random.Generator):
    """(name, source, inputs, reference outputs) for small instances of
    every program."""
    cases = []
    n, k = 24, 4
    cases.append(
        (
            "polynomial",
            polynomial(n, k),
            {"z": rng.standard_normal(n), "c": rng.standard_normal(k)},
            _poly_ref,
        )
    )
    cases.append(
        (
            "conv1d",
            conv1d(20, 3),
            {"x": rng.standard_normal(20), "w": rng.standard_normal(3)},
            _conv_ref,
        )
    )
    w, h, c = 6, 4, 4
    cases.append(
        (
            "binop",
            binop(w, h, c),
            {"a": rng.standard_normal(w * h), "b": rng.standard_normal(w * h)},
            _binop_ref,
        )
    )
    w, h, c = 5, 4, 3
    cases.append(
        (
            "colorseg",
            colorseg(w, h, c),
            {
                "u": rng.uniform(0, 1, w * h),
                "v": rng.uniform(0, 1, w * h),
                "refu": rng.uniform(0, 1, c),
                "refv": rng.uniform(0, 1, c),
                "radius": rng.uniform(0.02, 0.4, c),
                "class": np.arange(1.0, c + 1.0),
            },
            _colorseg_ref,
        )
    )
    cases.append(
        (
            "mandelbrot",
            mandelbrot(5, 4, 4),
            {
                "cx": rng.uniform(-2, 1, 20),
                "cy": rng.uniform(-1.5, 1.5, 20),
            },
            _mandel_ref,
        )
    )
    nn, cc = 6, 3
    cases.append(
        (
            "matmul",
            matmul(nn, cc),
            {
                "a": rng.standard_normal(nn * nn),
                "b": rng.standard_normal(nn * nn),
            },
            _matmul_ref,
        )
    )
    cases.append(
        (
            "passthrough",
            passthrough(10, 3),
            {"din": rng.standard_normal(10)},
            lambda inputs: {"dout": inputs["din"]},
        )
    )
    h2, w2 = 5, 6
    cases.append(
        (
            "conv2d",
            conv2d(w2, h2),
            {
                "x": rng.standard_normal(h2 * w2),
                "k": rng.standard_normal(9),
            },
            lambda inputs: _conv2d_ref(inputs, h2, w2),
        )
    )
    nf, nt, ns = 3, 4, 16
    cases.append(
        (
            "fir_bank",
            fir_bank(ns, nf, nt),
            {
                "x": rng.standard_normal(ns),
                "taps": rng.standard_normal(nf * nt),
            },
            lambda inputs: _fir_bank_ref(inputs, nf, nt, ns),
        )
    )
    return cases


def _fir_bank_ref(inputs, n_filters, n_taps, n_samples):
    x = inputs["x"]
    taps = inputs["taps"].reshape(n_filters, n_taps)
    y = np.stack(
        [np.convolve(x, taps[f])[:n_samples] for f in range(n_filters)]
    )
    return {"y": y.ravel()}


def _conv2d_ref(inputs, h, w):
    """Stream-exact reference of the conv2d program: zero-padded 3x3
    correlation with the sliding window carrying across row boundaries."""
    x = inputs["x"].reshape(h, w)
    k = inputs["k"].reshape(3, 3)
    flat = x.ravel()
    y = np.zeros(h * w)
    # Each cell i delays the stream by i*w items and convolves a 3-wide
    # window over the *flat* stream (window carries across rows).
    for i in range(3):
        delayed = np.concatenate([np.zeros(i * w), flat[: flat.size - i * w]])
        for j in range(3):
            shift = 2 - j
            shifted = np.concatenate(
                [np.zeros(shift), delayed[: delayed.size - shift]]
            )
            y += k[i, j] * shifted
    return {"y": y}


@pytest.fixture(scope="session")
def program_suite(rng):
    return small_program_suite(rng)


def replay_peak(sends, recvs, skew=0) -> int:
    """The most words a queue holds, by an explicit replay of its
    events: +1 at each send, -1 at each receive ``skew`` cycles late,
    and a send first when both fall in one cycle."""
    events = [(int(t), 1) for t in sends] + [(int(t) + skew, -1) for t in recvs]
    events.sort(key=lambda e: (e[0], -e[1]))
    occupancy = peak = 0
    for _t, delta in events:
        occupancy += delta
        peak = max(peak, occupancy)
    return peak


def checked_run(program, inputs, trace_limit=0):
    """The reference run of ``program`` on ``inputs``: the cycle-accurate
    executor with every run-time check, block spans and each cell's
    first ``trace_limit`` transfers included.  Clean runs only move
    values and take their timing from the plan's static timeline, so a
    test that compares a path with the checked one, or measures timing
    independently of that timeline, calls this instead."""
    memory = HostMemory.from_inputs(program.host_program.layout, inputs)
    return WarpMachine(program)._execute(memory, trace_limit, record=True)


def _differing_fields(mine, theirs) -> list[str]:
    """The dataclass fields where ``mine`` and ``theirs`` differ (arrays
    compared by value)."""
    differ = []
    for field in dataclasses.fields(theirs):
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        same = np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
        if not same:
            differ.append(field.name)
    return differ


def _assert_same_run(got, expected, context: str = "") -> None:
    """``got`` equals the one-shot cycle-accurate run ``expected``:
    outputs bit for bit (NaN payloads and -0.0 count), every static
    fact of the run and, when ``got`` has them, its block spans."""
    assert set(got.outputs) == set(expected.outputs), context
    for name, want in expected.outputs.items():
        assert np.array_equal(
            got.outputs[name].view(np.uint64), want.view(np.uint64)
        ), f"{context}:{name} differs bitwise"
    assert got.total_cycles == expected.total_cycles, context
    assert got.skew == expected.skew, context
    _assert_same_metrics(got.machine_metrics, expected.machine_metrics, context)
    if got.record is not None:
        assert expected.record is not None, context
        assert len(got.record) == len(expected.record), context
        for lane, want in zip(got.record, expected.record):
            differ = _differing_fields(lane, want)
            assert not differ, f"{context}:cell {want.cell} spans {differ}"


def _assert_same_metrics(mine, theirs, context: str = "") -> None:
    """``mine`` equals the :class:`MachineMetrics` ``theirs`` field by
    field, each queue's time arrays included, in the same queue order."""
    assert (mine.total_cycles, mine.skew, mine.cells, mine.iu) == (
        theirs.total_cycles,
        theirs.skew,
        theirs.cells,
        theirs.iu,
    ), context
    assert list(mine.queues) == list(theirs.queues), context
    for name, queue in theirs.queues.items():
        differ = _differing_fields(mine.queues[name], queue)
        assert not differ, f"{context}:{name}.{differ}"


@pytest.fixture(scope="session")
def assert_same_metrics():
    return _assert_same_metrics


@pytest.fixture(scope="session")
def assert_same_run():
    return _assert_same_run


@pytest.fixture(scope="session")
def compiled_polynomial():
    return compile_w2(polynomial(16, 4))
