"""The compile cache: key properties (Hypothesis) and disk behaviour.

Properties locked down:

* identical (source, config, flags) always produce the same key —
  lookups hit;
* perturbing any single :class:`WarpConfig` field, any flag, or any one
  source token produces a different key — lookups miss;
* a truncated or garbage on-disk entry is silently recompiled (counted
  in ``disk_errors``), never a crash or a wrong program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, CellConfig, IUConfig, WarpConfig
from repro.compiler import compile_w2
from repro.exec import (
    CACHE_KEY_VERSION,
    CompileCache,
    cache_key,
    compile_cached,
    config_fingerprint,
)
from repro.exec.cache import DISK_FORMAT_VERSION
from repro.machine import simulate
from repro.programs import passthrough, polynomial

# Key properties (Hypothesis) ---------------------------------------------

_SOURCES = st.sampled_from(
    [polynomial(8, 3), polynomial(12, 4), passthrough(6, 2), passthrough(8, 3)]
)
_SKEWS = st.sampled_from(["auto", "exact", "uniform"])
_UNROLLS = st.sampled_from([1, 2, 4, 8, "auto"])

#: Every scalar field of the config tree, as (dataclass path, field name).
_INT_FIELDS = (
    [("", f.name) for f in dataclasses.fields(WarpConfig) if f.type == "int"]
    + [("cell", f.name) for f in dataclasses.fields(CellConfig)]
    + [("iu", f.name) for f in dataclasses.fields(IUConfig)]
)


def _perturb(config: WarpConfig, path: str, name: str) -> WarpConfig:
    """``config`` with one scalar field bumped by one."""
    if path == "":
        return dataclasses.replace(config, **{name: getattr(config, name) + 1})
    sub = getattr(config, path)
    replaced = dataclasses.replace(sub, **{name: getattr(sub, name) + 1})
    return dataclasses.replace(config, **{path: replaced})


class TestKeyProperties:
    @given(source=_SOURCES, skew=_SKEWS, unroll=_UNROLLS, local_opt=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_identical_inputs_identical_key(self, source, skew, unroll, local_opt):
        first = cache_key(source, DEFAULT_CONFIG, skew, unroll, local_opt)
        second = cache_key(source, DEFAULT_CONFIG, skew, unroll, local_opt)
        assert first == second
        assert len(first) == 64  # sha256 hexdigest

    @given(field=st.sampled_from(_INT_FIELDS), source=_SOURCES)
    @settings(max_examples=40, deadline=None)
    def test_any_config_field_perturbation_misses(self, field, source):
        path, name = field
        perturbed = _perturb(DEFAULT_CONFIG, path, name)
        assert config_fingerprint(perturbed) != config_fingerprint(DEFAULT_CONFIG)
        assert cache_key(source, perturbed) != cache_key(source, DEFAULT_CONFIG)

    @given(source=_SOURCES, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_token_source_edit_misses(self, source, data):
        tokens = source.split(" ")
        index = data.draw(st.integers(0, len(tokens) - 1), label="token")
        edited = tokens.copy()
        edited[index] = edited[index] + "x"
        edited_source = " ".join(edited)
        assert cache_key(edited_source, DEFAULT_CONFIG) != cache_key(
            source, DEFAULT_CONFIG
        )

    @given(source=_SOURCES, skew=_SKEWS, unroll=_UNROLLS)
    @settings(max_examples=40, deadline=None)
    def test_flags_distinguish_keys(self, source, skew, unroll):
        baseline = cache_key(source, DEFAULT_CONFIG, "auto", 1, True)
        variant = cache_key(source, DEFAULT_CONFIG, skew, unroll, False)
        assert variant != baseline  # local_opt always differs

    def test_key_version_participates(self, monkeypatch):
        before = cache_key(polynomial(8, 3), DEFAULT_CONFIG)
        monkeypatch.setattr(
            "repro.exec.keys.CACHE_KEY_VERSION", CACHE_KEY_VERSION + 1
        )
        assert cache_key(polynomial(8, 3), DEFAULT_CONFIG) != before


# Cache behaviour ----------------------------------------------------------


class TestMemoryCache:
    def test_hit_returns_same_object(self):
        cache = CompileCache(capacity=4)
        source = passthrough(6, 2)
        first = compile_cached(source, cache=cache)
        second = compile_cached(source, cache=cache)
        assert second is first
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1
        assert cache.last_event == "memory-hit"

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        sources = [passthrough(6, 2), passthrough(8, 2), passthrough(10, 2)]
        for source in sources:
            compile_cached(source, cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry was evicted; the newest two still hit.
        compile_cached(sources[0], cache=cache)
        assert cache.stats.misses == 4

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)


class TestDiskCache:
    def test_round_trip_across_instances(self, tmp_path):
        source = polynomial(10, 3)
        warm = CompileCache(cache_dir=tmp_path)
        program = compile_cached(source, cache=warm)
        assert warm.stats.stores == 1

        cold = CompileCache(cache_dir=tmp_path)  # fresh memory layer
        reloaded = compile_cached(source, cache=cold)
        assert cold.last_event == "disk-hit"
        assert cold.stats.disk_hits == 1
        assert reloaded is not program  # unpickled copy
        # The reloaded artefact simulates identically.
        inputs = {"z": np.arange(10.0), "c": np.array([1.0, -2.0, 0.5])}
        expected = simulate(program, inputs)
        got = simulate(reloaded, inputs)
        for name in expected.outputs:
            assert np.array_equal(got.outputs[name], expected.outputs[name])
        assert got.total_cycles == expected.total_cycles

    @pytest.mark.parametrize(
        "corruption",
        [
            "truncate",
            "garbage",
            "empty",
            "wrong_version",
            "stale_version",
            "flipped_bit",
            "wrong_key",
        ],
    )
    def test_corrupt_entry_silently_recompiles(self, tmp_path, corruption):
        source = polynomial(10, 3)
        warm = CompileCache(cache_dir=tmp_path)
        compile_cached(source, cache=warm)
        entries = list(tmp_path.glob("*.w2c"))
        assert len(entries) == 1
        entry = entries[0]
        if corruption == "truncate":
            entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2])
        elif corruption == "garbage":
            entry.write_bytes(b"\x00not a pickle at all\xff" * 7)
        elif corruption == "empty":
            entry.write_bytes(b"")
        elif corruption == "wrong_version":
            envelope = pickle.loads(entry.read_bytes())
            envelope["format"] = DISK_FORMAT_VERSION + 1
            entry.write_bytes(pickle.dumps(envelope))
        elif corruption == "stale_version":
            # An entry written before the last format bump: it unpickles,
            # but its artifacts lack the fields the current code reads.
            envelope = pickle.loads(entry.read_bytes())
            stale = pickle.loads(envelope["program"])
            del stale.host_program.layout
            envelope["format"] = DISK_FORMAT_VERSION - 1
            envelope["program"] = pickle.dumps(stale)
            envelope["digest"] = hashlib.sha256(envelope["program"]).hexdigest()
            entry.write_bytes(pickle.dumps(envelope))
        elif corruption == "flipped_bit":
            # A bit flipped in the pickled source text still unpickles;
            # only the digest tells.
            envelope = pickle.loads(entry.read_bytes())
            data = bytearray(envelope["program"])
            data[data.index(b"cellprogram")] ^= 0x01
            envelope["program"] = bytes(data)
            entry.write_bytes(pickle.dumps(envelope))
        else:
            envelope = pickle.loads(entry.read_bytes())
            envelope["key"] = "0" * 64
            entry.write_bytes(pickle.dumps(envelope))

        cold = CompileCache(cache_dir=tmp_path)
        program = compile_cached(source, cache=cold)  # must not raise
        assert program.module_name == "polynomial"
        assert cold.stats.disk_errors == 1
        assert cold.last_event == "miss"
        assert cold.stats.stores == 1  # the bad file was replaced
        # The recompile re-stored a valid entry: next cold cache hits disk.
        again = CompileCache(cache_dir=tmp_path)
        compile_cached(source, cache=again)
        assert again.last_event == "disk-hit"

    def test_unwritable_dir_degrades_to_memory(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("a file where the cache dir should be")
        cache = CompileCache(cache_dir=blocked)
        program = compile_cached(passthrough(6, 2), cache=cache)  # no raise
        assert program.module_name == "passthrough"
        assert cache.stats.disk_errors == 1
        assert compile_cached(passthrough(6, 2), cache=cache) is program

    def test_contains_and_clear(self, tmp_path):
        cache = CompileCache(cache_dir=tmp_path)
        source = passthrough(6, 2)
        key = cache_key(source, DEFAULT_CONFIG)
        assert key not in cache
        compile_cached(source, cache=cache)
        assert key in cache
        cache.clear(memory_only=True)
        assert key in cache  # still on disk
        cache.clear()
        assert key not in cache


class TestTelemetryCounters:
    def test_hit_and_miss_counters(self):
        from repro import obs

        cache = CompileCache(capacity=4)
        source = passthrough(6, 2)
        with obs.collecting() as telemetry:
            compile_cached(source, cache=cache)
            compile_cached(source, cache=cache)
        assert telemetry.counters["cache.miss"] == 1
        assert telemetry.counters["cache.hit"] == 1

    def test_disk_hit_counter(self, tmp_path):
        from repro import obs

        source = passthrough(6, 2)
        compile_cached(source, cache=CompileCache(cache_dir=tmp_path))
        with obs.collecting() as telemetry:
            compile_cached(source, cache=CompileCache(cache_dir=tmp_path))
        assert telemetry.counters["cache.hit"] == 1
        assert telemetry.counters["cache.disk_hit"] == 1
