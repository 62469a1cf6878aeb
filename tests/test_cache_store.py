"""Tests for the persistent factorization store and compact forms.

Covers the two-tier cache end to end: compact round-trips for every
representation (≤1e-12 parity), the on-disk store's hit/stale/corrupt
outcomes (quarantine included), concurrent writers racing on one entry,
version-stamp invalidation, engine wiring (memory → disk → compute),
and the memmap-aware in-memory size accounting.
"""

import hashlib
import io
import json
import multiprocessing
import os
import tracemalloc
import zipfile

import numpy as np
import pytest

import repro.engine as engine
import repro.obs as obs
from repro.core import CompactFactorization, array_hash
from repro.engine import FactorizationCache, set_default_cache
from repro.engine.cache_store import CacheStore, version_stamp
from repro.errors import (
    InvalidOptionError,
    UnsupportedFactorizationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.toeplitz import kms_toeplitz, singular_minor_toeplitz


@pytest.fixture(autouse=True)
def fresh_default_cache():
    """Give every test its own in-memory cache (restore afterwards)."""
    previous = set_default_cache(FactorizationCache())
    yield
    set_default_cache(previous)


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path / "factor-cache"))


def _factor(t, **plan_kwargs):
    pl = engine.plan(t, **plan_kwargs)
    return pl, engine.factor(pl, cache=FactorizationCache()).factorization


# ----------------------------------------------------------------------
# Compact representations round-trip
# ----------------------------------------------------------------------
class TestCompactRoundTrip:
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_spd_dense_r(self, precision):
        t = kms_toeplitz(48, 0.5)
        pl, fact = _factor(t, precision=precision)
        compact = CompactFactorization.from_factorization(fact)
        assert compact.kind == "spd-packed-r"
        restored = compact.restore()
        b = np.ones(48)
        assert np.allclose(restored.solve(b), fact.solve(b),
                           rtol=0, atol=1e-12)
        np.testing.assert_array_equal(restored.r, fact.r)

    def test_indefinite_with_events(self):
        t = singular_minor_toeplitz(12)
        pl, fact = _factor(t, assume="indefinite")
        assert fact.perturbations  # the singular minor forces an event
        compact = CompactFactorization.from_factorization(fact)
        assert compact.kind == "indefinite-packed-r"
        restored = compact.restore()
        b = np.ones(t.shape[0])
        assert np.allclose(restored.solve(b), fact.solve(b),
                           rtol=0, atol=1e-12)
        assert len(restored.perturbations) == len(fact.perturbations)
        assert restored.perturbations[0] == fact.perturbations[0]
        assert restored.transform_norms == fact.transform_norms

    def test_gko_generators_compact(self):
        t = kms_toeplitz(32, 0.5)
        pl, fact = _factor(t, algorithm="gko")
        compact = CompactFactorization.from_factorization(fact)
        assert compact.kind == "gko-generators"
        # O(mn) storage: generators, not the O(n^2) LU factors.
        assert compact.nbytes < fact.l.nbytes / 2
        restored = compact.restore()
        b = np.linspace(-1, 1, 32)
        assert np.allclose(restored.solve(b), fact.solve(b),
                           rtol=0, atol=1e-12)

    def test_gs_operator(self):
        t = kms_toeplitz(64, 0.5)
        pl, fact = _factor(t, algorithm="gs")
        compact = CompactFactorization.from_factorization(fact)
        assert compact.kind == "gs"
        restored = compact.restore()
        b = np.ones(64)
        np.testing.assert_allclose(restored.solve(b), fact.solve(b),
                                   rtol=0, atol=1e-12)
        # O(n) storage against the O(n^2) operator it represents.
        assert compact.nbytes <= 64 * 8 * 2

    def test_unsupported_payload_raises(self):
        with pytest.raises(UnsupportedFactorizationError):
            CompactFactorization.from_factorization(object())

    def test_content_hashes_change_with_data(self):
        t = kms_toeplitz(16, 0.5)
        _, fact = _factor(t, algorithm="gs")
        compact = CompactFactorization.from_factorization(fact)
        h = compact.content_hashes()
        compact.arrays["x"] = compact.arrays["x"].copy()
        compact.arrays["x"][0] += 1.0
        assert compact.content_hashes() != h


# ----------------------------------------------------------------------
# Store behavior
# ----------------------------------------------------------------------
class TestCacheStore:
    def test_put_get_roundtrip(self, store):
        t = kms_toeplitz(32, 0.5)
        pl, fact = _factor(t)
        assert store.get(pl.cache_key()) is None  # absent
        assert store.put(pl.cache_key(), fact, describe={"order": 32})
        loaded = store.get(pl.cache_key())
        assert loaded is not None
        b = np.ones(32)
        assert np.allclose(loaded.solve(b), fact.solve(b),
                           rtol=0, atol=1e-12)
        st = store.stats()
        assert (st.writes, st.disk_hits, st.disk_misses) == (1, 1, 1)
        assert st.entries == 1 and st.disk_bytes > 0
        (entry,) = store.entries()
        assert entry.describe["order"] == 32
        assert entry.stamp == version_stamp()

    def test_mmap_zero_copy_load(self, store):
        t = kms_toeplitz(64, 0.5)
        pl, fact = _factor(t)
        store.put(pl.cache_key(), fact)
        loaded = store.get(pl.cache_key())
        assert isinstance(loaded.packed.data, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded.packed.data),
                                      fact.packed.data)

    @pytest.mark.parametrize("assume,op", [
        ("spd", kms_toeplitz(40, 0.5)),
        ("indefinite", singular_minor_toeplitz(12))])
    def test_schur_entries_persist_packed_r(self, store, assume, op):
        pl, fact = _factor(op, assume=assume)
        store.put(pl.cache_key(), fact)
        n = op.order
        (entry,) = store.entries()
        assert entry.kind == f"{assume}-packed-r"
        loaded = store.get(pl.cache_key())
        assert isinstance(loaded.packed.data, np.memmap)
        assert loaded.packed.data.shape == (n * (n + 1) // 2,)
        assert entry.payload_bytes - loaded.packed.data.nbytes < 8 * n + 64

    def test_pre_packed_schema_is_stale_miss(self, store, monkeypatch):
        """Entries written before the packed layout (compact schema 1)
        read as stale misses; the engine recomputes and overwrites them
        once."""
        import repro.engine.cache_store as cache_store

        t = kms_toeplitz(24, 0.5)
        pl = engine.plan(t, cache="persistent")
        with monkeypatch.context() as m:
            m.setattr(cache_store, "COMPACT_SCHEMA_VERSION", 1)
            engine.factor(pl, cache=FactorizationCache(), store=store)
        first = engine.factor(pl, cache=FactorizationCache(), store=store)
        assert not first.cache_hit
        assert store.stats().stale == 1
        again = engine.factor(pl, cache=FactorizationCache(), store=store)
        assert again.cache_hit and store.stats().stale == 1

    def test_stamp_mismatch_is_stale_miss(self, store):
        t = kms_toeplitz(24, 0.5)
        pl, fact = _factor(t)
        store.put(pl.cache_key(), fact)
        store._stamp = "numpy=0.0.0;scipy=0.0.0"  # simulate an upgrade
        assert store.get(pl.cache_key()) is None
        st = store.stats()
        assert st.stale == 1 and st.disk_hits == 0
        # Entry still on disk (not quarantined) until overwritten.
        assert st.entries == 1
        store._stamp = version_stamp()
        assert store.get(pl.cache_key()) is not None

    def test_corrupted_payload_quarantined(self, store):
        t = kms_toeplitz(24, 0.5)
        pl, fact = _factor(t)
        store.put(pl.cache_key(), fact)
        path = store.path_for(pl.cache_key())
        with zipfile.ZipFile(path) as zf:
            info = [i for i in zf.infolist()
                    if i.filename.endswith(".npy")][0]
        with open(path, "r+b") as fh:  # flip one array-data byte
            fh.seek(info.header_offset + 26)
            namelen = int.from_bytes(fh.read(2), "little")
            extralen = int.from_bytes(fh.read(2), "little")
            data_start = info.header_offset + 30 + namelen + extralen
            fh.seek(data_start + 200)  # past the .npy header
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert store.get(pl.cache_key()) is None
        st = store.stats()
        assert st.quarantined == 1 and st.entries == 0
        assert len(os.listdir(store.quarantine_dir)) == 1

    def test_truncated_entry_quarantined(self, store):
        t = kms_toeplitz(24, 0.5)
        pl, fact = _factor(t)
        store.put(pl.cache_key(), fact)
        path = store.path_for(pl.cache_key())
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert store.get(pl.cache_key()) is None
        assert store.stats().quarantined == 1
        # A recompute + put replaces the quarantined entry cleanly.
        assert store.put(pl.cache_key(), fact)
        assert store.get(pl.cache_key()) is not None

    def test_verify_detects_damage(self, store):
        # verify() hashes everything, including arrays the hot path
        # skips, and quarantines on the first mismatch.
        t = kms_toeplitz(48, 0.5)
        pl, fact = _factor(t)
        store.put(pl.cache_key(), fact)
        assert store.verify(pl.cache_key())
        path = store.path_for(pl.cache_key())
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            fh.write(b"\xde\xad\xbe\xef")
        assert not store.verify(pl.cache_key())
        assert store.stats().quarantined == 1

    def test_prune_by_age_and_size(self, store):
        for n in (16, 24, 32):
            pl, fact = _factor(kms_toeplitz(n, 0.5))
            store.put(pl.cache_key(), fact)
        assert store.stats().entries == 3
        total = store.stats().disk_bytes
        assert store.prune(max_bytes=total - 1) >= 1
        assert store.stats().disk_bytes <= total - 1
        remaining = store.stats().entries
        assert store.prune(max_age_seconds=0.0) == remaining
        assert store.stats().entries == 0
        pl, fact = _factor(kms_toeplitz(16, 0.5))
        store.put(pl.cache_key(), fact)
        assert store.clear() == 1
        assert store.stats().entries == 0

    def test_unsupported_factorization_skipped(self, store):
        assert not store.put(("k",), object())
        assert store.stats().unsupported == 1
        with pytest.raises(UnsupportedFactorizationError):
            store.put(("k",), object(), strict=True)


class TestPayloadCopies:
    """Writes stream each array into its member and hash checks read the
    array in place: neither copies the payload."""

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    @staticmethod
    def _warm(store):
        """One small put and get, so one-time imports are not traced."""
        pl, fact = _factor(kms_toeplitz(16, 0.5))
        store.put(pl.cache_key(), fact)
        assert store.get(pl.cache_key()) is not None

    def test_put_makes_no_payload_copy(self, store):
        pl, fact = _factor(kms_toeplitz(1024, 0.5))
        payload = fact.packed.data.nbytes
        self._warm(store)
        wrote, peak = self._traced_peak(
            lambda: store.put(pl.cache_key(), fact))
        assert wrote
        assert peak < 0.25 * payload, peak / payload

    def test_verified_get_makes_no_payload_copy(self, tmp_path):
        store = CacheStore(str(tmp_path / "s"), hash_verify_limit=-1)
        pl, fact = _factor(kms_toeplitz(1024, 0.5))
        payload = fact.packed.data.nbytes
        self._warm(store)
        store.put(pl.cache_key(), fact)
        loaded, peak = self._traced_peak(lambda: store.get(pl.cache_key()))
        assert loaded is not None
        np.testing.assert_array_equal(loaded.packed.data, fact.packed.data)
        assert peak < 0.25 * payload, peak / payload

    @pytest.mark.parametrize("arr", [
        np.arange(12.0).reshape(3, 4),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(20.0)[::3],
        np.arange(6, dtype=np.complex64) * 1j,
        np.zeros((0, 3), dtype=np.float32),
        np.array(2.5)])
    def test_array_hash_pin(self, arr):
        a = np.ascontiguousarray(arr)
        h = hashlib.sha256()
        h.update(a.dtype.str.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
        assert array_hash(arr) == h.hexdigest()

    def test_entries_encoded_in_memory_load_and_verify(self, store):
        """The earlier writer built each member and the whole zip in
        memory.  Its entries have the streamed layout byte for byte
        (timestamps aside), and they load and verify."""
        pl, fact = _factor(singular_minor_toeplitz(24, seed=7),
                           assume="indefinite")
        key = pl.cache_key()
        store.put(key, fact)
        path = store.path_for(key)
        with zipfile.ZipFile(path) as zf:
            meta = json.loads(zf.read("meta.json"))
            streamed = [(i.filename, i.header_offset, zf.read(i))
                        for i in zf.infolist()]
        compact = CompactFactorization.from_factorization(fact)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w",
                             compression=zipfile.ZIP_STORED) as zf:
            zf.writestr("meta.json", json.dumps(meta, indent=1))
            for name, arr in compact.arrays.items():
                npy = io.BytesIO()
                np.lib.format.write_array(npy, np.ascontiguousarray(arr),
                                          allow_pickle=False)
                zf.writestr(f"{name}.npy", npy.getvalue())
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())
        with zipfile.ZipFile(path) as zf:
            assert [(i.filename, i.header_offset, zf.read(i))
                    for i in zf.infolist()] == streamed
        assert store.verify(key)
        loaded = store.get(key)
        np.testing.assert_array_equal(loaded.packed.data, fact.packed.data)

    def test_member_past_the_zip64_limit(self, store, monkeypatch):
        """A member over the zip64 limit (2 GiB, lowered here) writes
        with zip64 extra fields, maps and verifies."""
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1 << 12)
        pl, fact = _factor(kms_toeplitz(64, 0.5))
        assert fact.packed.data.nbytes > 1 << 12
        assert store.put(pl.cache_key(), fact)
        with zipfile.ZipFile(store.path_for(pl.cache_key())) as zf:
            assert zf.getinfo("r.npy").extra    # the zip64 field
        loaded = store.get(pl.cache_key())
        assert isinstance(loaded.packed.data, np.memmap)
        np.testing.assert_array_equal(loaded.packed.data, fact.packed.data)
        assert store.verify(pl.cache_key())


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------
def _race_worker(root, barrier, out):
    t = kms_toeplitz(48, 0.5)
    pl = engine.plan(t, cache="persistent")
    st = CacheStore(root)
    barrier.wait(timeout=30)
    res = engine.factor(pl, cache=FactorizationCache(), store=st)
    x = res.factorization.solve(np.ones(48))
    out.put(float(np.linalg.norm(t.dense() @ x - np.ones(48))))


class TestConcurrentWriters:
    def test_two_processes_race_on_one_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        root = str(tmp_path / "shared-cache")
        barrier = ctx.Barrier(2)
        out = ctx.Queue()
        procs = [ctx.Process(target=_race_worker,
                             args=(root, barrier, out))
                 for _ in range(2)]
        for p in procs:
            p.start()
        residuals = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert all(r < 1e-10 for r in residuals)
        # Exactly one entry file survives; no temp droppings.
        st = CacheStore(root)
        assert st.stats().entries == 1
        leftovers = [f for f in os.listdir(st.entries_dir)
                     if f.endswith(".tmp")]
        assert not leftovers
        # And the surviving entry is readable from a third process' view.
        pl = engine.plan(kms_toeplitz(48, 0.5), cache="persistent")
        assert st.get(pl.cache_key()) is not None


# ----------------------------------------------------------------------
# Engine wiring: memory -> disk -> compute
# ----------------------------------------------------------------------
class TestEngineWiring:
    def test_cache_axis_validation(self):
        t = kms_toeplitz(16, 0.5)
        pl = engine.plan(t)
        assert pl.cache == "memory"
        off = engine.plan(t, cache="off")
        assert off.cache == "off"
        from repro.engine.plan import _PLAN_KEY_FIELDS
        assert "cache" not in _PLAN_KEY_FIELDS
        with pytest.raises(InvalidOptionError):
            engine.plan(t, cache="bogus")
        # The tiering choice is not part of the identity of the result.
        assert (engine.plan(t, cache="persistent").cache_key()
                == pl.cache_key())

    def test_disk_tier_survives_restart(self, store):
        t = kms_toeplitz(64, 0.5)
        pl = engine.plan(t, cache="persistent")
        cold = engine.factor(pl, cache=FactorizationCache(), store=store)
        assert not cold.cache_hit
        assert store.stats().writes == 1
        # "Restart": a fresh in-memory cache, same store.
        warm = engine.factor(pl, cache=FactorizationCache(), store=store)
        assert warm.cache_hit
        assert store.stats().disk_hits == 1
        b = np.ones(64)
        assert np.allclose(warm.factorization.solve(b),
                           cold.factorization.solve(b),
                           rtol=0, atol=1e-12)

    def test_memory_tier_resolves_no_store(self, store):
        # With cache="memory" the disk tier stays out of the path
        # (unless an explicit store is handed in, which always wins).
        from repro.engine.engine import _resolve_store
        t = kms_toeplitz(32, 0.5)
        assert _resolve_store(engine.plan(t, cache="memory"), None) is None
        assert _resolve_store(engine.plan(t, cache="off"), None) is None
        assert _resolve_store(engine.plan(t, cache="memory"),
                              store) is store
        c = FactorizationCache()
        pl = engine.plan(t, cache="memory")
        engine.factor(pl, cache=c)
        engine.factor(pl, cache=c)
        assert store.stats().writes == 0

    def test_disk_hit_emits_cache_load_span(self, store):
        t = kms_toeplitz(32, 0.5)
        pl = engine.plan(t, cache="persistent")
        engine.factor(pl, cache=FactorizationCache(), store=store)
        registry = MetricsRegistry()
        prev = obs.set_default_registry(registry)
        obs.enable()
        try:
            warm = engine.factor(pl, cache=FactorizationCache(),
                                 store=store)
        finally:
            obs.disable()
            obs.set_default_registry(prev)
        assert warm.cache_hit
        factor_span = warm.profile.root.children[0]
        assert factor_span.name == "factor"
        assert factor_span.attributes["disk_hit"] is True
        loads = [c for c in factor_span.children
                 if c.name == "cache.load"]
        assert loads and loads[0].attributes["outcome"] == "hit"

    def test_execute_end_to_end_persistent(self, store):
        t = kms_toeplitz(48, 0.5)
        b = np.linspace(0, 1, 48)
        pl = engine.plan(t, cache="persistent")
        first = engine.execute(pl, b, cache=FactorizationCache(),
                               store=store)
        second = engine.execute(pl, b, cache=FactorizationCache(),
                                store=store)
        assert second.record.cache_hit
        np.testing.assert_allclose(second.x, first.x, rtol=0, atol=1e-12)

    def test_solve_passes_store_through(self, store):
        t = kms_toeplitz(32, 0.5)
        b = np.ones(32)
        res = engine.solve(t, b, cache="persistent", store=store)
        assert store.stats().writes == 1
        assert np.linalg.norm(t.dense() @ res.x - b) < 1e-10


# ----------------------------------------------------------------------
# Memory-tier accounting of mmap-backed entries
# ----------------------------------------------------------------------
class TestMemmapAccounting:
    def test_estimate_counts_resident_bytes_only(self, store):
        t = kms_toeplitz(64, 0.5)
        pl = engine.plan(t, cache="persistent")
        engine.factor(pl, cache=FactorizationCache(), store=store)
        c = FactorizationCache()
        warm = engine.factor(pl, cache=c, store=store)
        assert isinstance(warm.factorization.packed.data, np.memmap)
        resident = c.stats().current_bytes
        computed = FactorizationCache()
        engine.factor(engine.plan(t, cache="memory"),
                      cache=computed)  # computes; holds the real array
        # A solve reads every page of the map, so the warm entry is
        # charged its full mapped size, like the computed one; only the
        # small metadata around the packed buffer may differ.
        packed = warm.factorization.packed.data.nbytes
        assert packed <= resident < packed + 1024
        assert packed <= computed.stats().current_bytes < packed + 1024

    def test_views_charged_once_maps_at_mapped_size(self, tmp_path):
        from repro.engine.cache import _estimate_nbytes

        class Fact:
            def __init__(self, buf):
                self.buf = buf
                self.square = buf.reshape(40, 25)
                self.rows = buf.reshape(25, 40)[5:]

        heap = np.zeros(1000)
        assert _estimate_nbytes(Fact(heap)) == heap.nbytes
        path = tmp_path / "buf.bin"
        heap.tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(1000,))
        assert _estimate_nbytes(Fact(mapped)) == mapped.nbytes
