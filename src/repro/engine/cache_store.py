"""Persistent, cross-process factorization store behind the memory LRU.

The in-memory :class:`~repro.engine.cache.FactorizationCache` dies with
the process; this module gives factorizations a second, durable tier so
a restarted solver (or a sibling worker on the same host) warm-starts
from disk instead of refactoring.  Layout on disk::

    <root>/
      .lock                      advisory lock for mutating operations
      v1/<digest>.npz            one entry per (fingerprint, plan) key
      quarantine/                entries that failed integrity checks

Each entry is a plain ZIP (stored, never deflated) holding one
``meta.json`` plus one raw ``.npy`` member per array of the entry's
:class:`~repro.core.compact.CompactFactorization`.  Because members are
uncompressed, a warm load can hand the arrays back as **zero-copy
read-only memory maps** straight into the page cache — the dominant
cost of a packed-``R`` warm start becomes a few page faults rather than
an ``O(n²)`` read, and the Schur recursion is skipped entirely.

Safety properties:

* **atomic publish** — entries are written to a temp file in the same
  directory and ``os.replace``-d into place, so readers never observe a
  torn entry and concurrent writers of the same key last-write-win with
  identical content;
* **staleness** — entries carry the store schema, the compact schema
  and a numpy/scipy version stamp; any mismatch is a silent miss (the
  recompute overwrites the stale file), never an error;
* **corruption quarantine** — undecodable zips, bad npy headers,
  out-of-bounds payloads and content-hash mismatches move the file to
  ``quarantine/`` and report a miss, so on-disk damage can never crash
  a solve.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.compact import (
    COMPACT_SCHEMA_VERSION,
    CompactFactorization,
    array_bytes,
    array_hash,
)
from repro.errors import CacheStoreError, UnsupportedFactorizationError
from repro.utils.locks import file_lock

__all__ = [
    "STORE_SCHEMA_VERSION",
    "CacheStore",
    "EntryInfo",
    "StoreStats",
    "default_store",
    "set_default_store",
    "version_stamp",
]

#: Directory-level schema version: bumping it changes the entry
#: directory name (``v1`` → ``v2``), so old and new code share a root
#: without ever misreading each other's entries.
STORE_SCHEMA_VERSION = 1

#: Arrays at or below this many bytes are content-hash-verified on
#: every load (GS vectors, GKO generators — the O(mn) entries).  Larger
#: payloads (packed ``R``) rely on structural checks so the memory map
#: stays zero-copy; :meth:`CacheStore.verify` does the full check on
#: demand.
HASH_VERIFY_LIMIT = 8 * 2**20

_ZIP_LOCAL_HEADER_SIZE = 30


def version_stamp() -> str:
    """The numerical-stack identity an entry was produced under.

    BLAS/LAPACK results are only bitwise-reproducible within one build
    of the stack, and npy encoding details follow numpy; entries from a
    different stamp are treated as stale and recomputed.
    """
    import scipy
    return f"numpy={np.__version__};scipy={scipy.__version__}"


def _digest(key) -> str:
    """Stable filename digest for one engine cache key."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:40]


@dataclass
class StoreStats:
    """Counters for one :class:`CacheStore` (process-local)."""

    disk_hits: int = 0
    disk_misses: int = 0
    stale: int = 0
    quarantined: int = 0
    writes: int = 0
    unsupported: int = 0
    load_seconds: float = 0.0
    entries: int = 0
    disk_bytes: int = 0


@dataclass(frozen=True)
class EntryInfo:
    """What ``ls``/``info`` report about one on-disk entry."""

    digest: str
    path: str
    file_bytes: int
    created: float
    kind: str = "?"
    payload_bytes: int = 0
    stamp: str = ""
    key: str = ""
    describe: dict = field(default_factory=dict)


class CacheStore:
    """Durable second tier of the factorization cache.

    Thread-compatible and cross-process-safe: reads are lockless (the
    atomic-rename publish protocol guarantees complete files), mutations
    serialize on the advisory ``.lock`` file.
    """

    def __init__(self, root: str, *, mmap: bool = True,
                 hash_verify_limit: int = HASH_VERIFY_LIMIT):
        self.root = os.path.abspath(root)
        self.mmap = bool(mmap)
        self.hash_verify_limit = int(hash_verify_limit)
        self._stamp = version_stamp()
        self._stats = StoreStats()
        os.makedirs(self.entries_dir, exist_ok=True)

    # -- paths ----------------------------------------------------------
    @property
    def entries_dir(self) -> str:
        return os.path.join(self.root, f"v{STORE_SCHEMA_VERSION}")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, ".lock")

    def path_for(self, key) -> str:
        """On-disk path an entry for ``key`` lives at (whether or not it
        exists)."""
        return os.path.join(self.entries_dir, f"{_digest(key)}.npz")

    # -- write ----------------------------------------------------------
    def put(self, key, fact, *, describe: dict | None = None,
            strict: bool = False) -> bool:
        """Publish ``fact`` under ``key``; returns ``True`` on a write.

        Factorizations with no compact form are skipped silently (the
        memory tier still holds them) unless ``strict``.  The write is
        atomic: temp file in the entries directory, fsync, rename.
        """
        try:
            compact = CompactFactorization.from_factorization(fact)
        except UnsupportedFactorizationError:
            self._stats.unsupported += 1
            if strict:
                raise
            return False
        path = self.path_for(key)
        with file_lock(self.lock_path):
            fd, tmp = tempfile.mkstemp(dir=self.entries_dir,
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    self._encode(fh, key, compact, describe or {})
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        self._stats.writes += 1
        self._publish_gauges()
        return True

    def _encode(self, fh, key, compact: CompactFactorization,
                describe: dict) -> None:
        """Write the entry into the open file ``fh``.

        Each array member is its ``.npy`` header followed by the array's
        own bytes, so no payload-sized copy is made.
        """
        meta = {
            "store_schema": STORE_SCHEMA_VERSION,
            "compact_schema": COMPACT_SCHEMA_VERSION,
            "stamp": self._stamp,
            "kind": compact.kind,
            "key": repr(key),
            "created": time.time(),
            "payload_bytes": compact.nbytes,
            "hashes": compact.content_hashes(),
            "meta": compact.meta,
            "describe": describe,
        }
        # ZIP_STORED, never deflate: members must stay byte-addressable
        # raw npy streams for the zero-copy mmap read path.
        with zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
            zf.writestr("meta.json", json.dumps(meta, indent=1))
            for name, arr in compact.arrays.items():
                a = np.ascontiguousarray(arr)
                header = io.BytesIO()
                np.lib.format.write_array_header_1_0(
                    header, np.lib.format.header_data_from_array_1_0(a))
                # As writestr does; a known size picks zip64 when needed.
                info = zipfile.ZipInfo(
                    f"{name}.npy", date_time=time.localtime(time.time())[:6])
                info.compress_type = zipfile.ZIP_STORED
                info.external_attr = 0o600 << 16
                info.file_size = header.tell() + a.nbytes
                with zf.open(info, "w") as member:
                    member.write(header.getvalue())
                    member.write(array_bytes(a))

    # -- read -----------------------------------------------------------
    def get(self, key):
        """Load the entry for ``key`` or ``None`` (always a safe miss).

        Emits one ``cache.load`` span per call; hits return the restored
        live factorization object, possibly backed by read-only memory
        maps.
        """
        path = self.path_for(key)
        t0 = time.perf_counter()
        with obs.span("cache.load", store=self.root) as sp:
            fact, outcome, compact = self._load(path)
            elapsed = time.perf_counter() - t0
            sp.set(outcome=outcome,
                   hit=outcome == "hit",
                   kind=compact.kind if compact is not None else "",
                   nbytes=compact.nbytes if compact is not None else 0,
                   seconds=elapsed)
        self._stats.load_seconds += elapsed
        if outcome == "hit":
            self._stats.disk_hits += 1
        else:
            self._stats.disk_misses += 1
            if outcome == "stale":
                self._stats.stale += 1
            elif outcome == "corrupt":
                self._stats.quarantined += 1
                self._quarantine(path)
        self._publish_gauges()
        return fact

    def _load(self, path: str):
        """→ ``(fact | None, outcome, compact | None)`` with outcome in
        ``hit / absent / stale / corrupt``."""
        if not os.path.exists(path):
            return None, "absent", None
        try:
            meta, arrays = self._read_entry(path)
        except (CacheStoreError, zipfile.BadZipFile, OSError, KeyError,
                ValueError, json.JSONDecodeError):
            return None, "corrupt", None
        if (meta.get("store_schema") != STORE_SCHEMA_VERSION
                or meta.get("compact_schema") != COMPACT_SCHEMA_VERSION
                or meta.get("stamp") != self._stamp):
            return None, "stale", None
        compact = CompactFactorization(kind=meta.get("kind", "?"),
                                       arrays=arrays,
                                       meta=meta.get("meta", {}))
        try:
            self._check_hashes(compact, meta.get("hashes", {}),
                               limit=self.hash_verify_limit)
            fact = compact.restore()
        except (CacheStoreError, UnsupportedFactorizationError, KeyError,
                TypeError, ValueError):
            return None, "corrupt", compact
        return fact, "hit", compact

    def _read_entry(self, path: str):
        """Parse one entry file into ``(meta dict, {name: array})``.

        Raises :class:`~repro.errors.CacheStoreError` (or the underlying
        zip/npy error) on any structural problem; :meth:`get` maps that
        to quarantine.
        """
        arrays: dict[str, np.ndarray] = {}
        file_size = os.path.getsize(path)
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json"))
            for info in zf.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[:-len(".npy")]
                arr = None
                if self.mmap and info.compress_type == zipfile.ZIP_STORED:
                    arr = self._mmap_member(path, info, file_size)
                if arr is None:
                    arr = np.lib.format.read_array(
                        io.BytesIO(zf.read(info)), allow_pickle=False)
                arrays[name] = arr
        return meta, arrays

    @staticmethod
    def _mmap_member(path: str, info: zipfile.ZipInfo,
                     file_size: int) -> np.ndarray | None:
        """Map one stored ``.npy`` member read-only, or ``None`` to fall
        back to an eager read.  Bounds violations raise — a truncated or
        spliced file must quarantine, not fault at first page access.
        """
        with open(path, "rb") as fh:
            fh.seek(info.header_offset)
            local = fh.read(_ZIP_LOCAL_HEADER_SIZE)
            if len(local) != _ZIP_LOCAL_HEADER_SIZE or \
                    local[:4] != b"PK\x03\x04":
                raise CacheStoreError(
                    f"bad local file header for {info.filename!r}")
            namelen = int.from_bytes(local[26:28], "little")
            extralen = int.from_bytes(local[28:30], "little")
            data_start = (info.header_offset + _ZIP_LOCAL_HEADER_SIZE
                          + namelen + extralen)
            fh.seek(data_start)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = \
                    np.lib.format.read_array_header_2_0(fh)
            else:
                return None
            offset = fh.tell()
        if dtype.hasobject:
            raise CacheStoreError(
                f"object-dtype member {info.filename!r} refused")
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > data_start + info.file_size or \
                offset + nbytes > file_size:
            raise CacheStoreError(
                f"member {info.filename!r} payload exceeds file bounds "
                f"(truncated entry?)")
        return np.memmap(path, dtype=dtype, mode="r", shape=shape,
                         order="F" if fortran else "C", offset=offset)

    @staticmethod
    def _check_hashes(compact: CompactFactorization, expected: dict,
                      *, limit: int) -> None:
        for name, arr in compact.arrays.items():
            if name not in expected:
                raise CacheStoreError(f"no content hash for {name!r}")
            if limit >= 0 and arr.nbytes > limit:
                continue
            if array_hash(np.asarray(arr)) != expected[name]:
                raise CacheStoreError(
                    f"content hash mismatch for {name!r}")

    def _quarantine(self, path: str) -> None:
        """Move a damaged entry aside (best-effort, never raises)."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            with file_lock(self.lock_path):
                if os.path.exists(path):
                    dest = os.path.join(
                        self.quarantine_dir,
                        f"{int(time.time())}-{os.path.basename(path)}")
                    os.replace(path, dest)
        except OSError:
            pass

    # -- maintenance ----------------------------------------------------
    def verify(self, key) -> bool:
        """Full-content integrity check of one entry (reads all bytes).

        Returns ``True`` when the entry exists and every array hash
        matches; quarantines and returns ``False`` on damage; ``False``
        (no quarantine) when absent or stale.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            return False
        try:
            meta, arrays = self._read_entry(path)
            compact = CompactFactorization(kind=meta.get("kind", "?"),
                                           arrays=arrays,
                                           meta=meta.get("meta", {}))
            self._check_hashes(compact, meta.get("hashes", {}), limit=-1)
        except (CacheStoreError, zipfile.BadZipFile, OSError, KeyError,
                ValueError, json.JSONDecodeError):
            self._stats.quarantined += 1
            self._quarantine(path)
            return False
        if meta.get("stamp") != self._stamp:
            return False
        return True

    def entries(self) -> list[EntryInfo]:
        """All current entries, oldest first (unreadable metas still
        listed, with placeholder fields)."""
        out = []
        try:
            names = sorted(os.listdir(self.entries_dir))
        except FileNotFoundError:
            return []
        for fname in names:
            if not fname.endswith(".npz"):
                continue
            path = os.path.join(self.entries_dir, fname)
            try:
                st = os.stat(path)
            except OSError:
                continue
            info = EntryInfo(digest=fname[:-len(".npz")], path=path,
                             file_bytes=st.st_size, created=st.st_mtime)
            try:
                with zipfile.ZipFile(path, "r") as zf:
                    meta = json.loads(zf.read("meta.json"))
                info = EntryInfo(
                    digest=info.digest, path=path,
                    file_bytes=st.st_size,
                    created=float(meta.get("created", st.st_mtime)),
                    kind=meta.get("kind", "?"),
                    payload_bytes=int(meta.get("payload_bytes", 0)),
                    stamp=meta.get("stamp", ""),
                    key=meta.get("key", ""),
                    describe=meta.get("describe", {}) or {})
            except (zipfile.BadZipFile, OSError, KeyError, ValueError,
                    json.JSONDecodeError):
                pass
            out.append(info)
        out.sort(key=lambda e: e.created)
        return out

    def prune(self, *, max_bytes: int | None = None,
              max_age_seconds: float | None = None) -> int:
        """Delete entries beyond an age and/or total-size budget.

        Age first, then size (oldest evicted first).  Returns the number
        of entries removed.
        """
        removed = 0
        with file_lock(self.lock_path):
            entries = self.entries()
            now = time.time()
            if max_age_seconds is not None:
                for e in list(entries):
                    if now - e.created > max_age_seconds:
                        with contextlib.suppress(OSError):
                            os.unlink(e.path)
                        entries.remove(e)
                        removed += 1
            if max_bytes is not None:
                total = sum(e.file_bytes for e in entries)
                for e in list(entries):  # oldest first
                    if total <= max_bytes:
                        break
                    with contextlib.suppress(OSError):
                        os.unlink(e.path)
                    total -= e.file_bytes
                    removed += 1
        self._publish_gauges()
        return removed

    def clear(self) -> int:
        """Delete every entry (quarantine included).  Returns count."""
        removed = 0
        with file_lock(self.lock_path):
            for d in (self.entries_dir, self.quarantine_dir):
                if not os.path.isdir(d):
                    continue
                for fname in os.listdir(d):
                    if fname.endswith((".npz", ".tmp")):
                        with contextlib.suppress(OSError):
                            os.unlink(os.path.join(d, fname))
                            removed += 1
        self._publish_gauges()
        return removed

    # -- stats ----------------------------------------------------------
    def disk_bytes(self) -> int:
        """Total bytes of current entry files."""
        return sum(e.file_bytes for e in self.entries())

    def stats(self) -> StoreStats:
        """Counters plus a fresh on-disk entry/byte census."""
        entries = self.entries()
        return StoreStats(
            disk_hits=self._stats.disk_hits,
            disk_misses=self._stats.disk_misses,
            stale=self._stats.stale,
            quarantined=self._stats.quarantined,
            writes=self._stats.writes,
            unsupported=self._stats.unsupported,
            load_seconds=self._stats.load_seconds,
            entries=len(entries),
            disk_bytes=sum(e.file_bytes for e in entries))

    def reset_stats(self) -> None:
        self._stats = StoreStats()

    def _publish_gauges(self) -> None:
        if not obs.enabled():
            return
        reg = obs.default_registry()
        s = self._stats
        reg.gauge("repro_cache_disk_hits",
                  "Persistent-store hits this process").set(s.disk_hits)
        reg.gauge("repro_cache_disk_misses",
                  "Persistent-store misses this process").set(
                      s.disk_misses)
        reg.gauge("repro_cache_disk_load_seconds",
                  "Cumulative wall time loading store entries").set(
                      s.load_seconds)
        reg.gauge("repro_cache_disk_bytes",
                  "Total bytes of persistent-store entries").set(
                      self.disk_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CacheStore(root={self.root!r}, mmap={self.mmap})"


# ---------------------------------------------------------------------------
_DEFAULT_STORE: CacheStore | None = None


def default_root() -> str:
    """Resolve the default store directory (``REPRO_CACHE_DIR`` wins)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "factorizations")


def default_store() -> CacheStore:
    """The process-wide store singleton (created on first use)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = CacheStore(default_root())
    return _DEFAULT_STORE


def set_default_store(store: CacheStore | None) -> CacheStore | None:
    """Replace the process-wide store; returns the previous one."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous
