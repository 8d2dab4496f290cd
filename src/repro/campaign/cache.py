"""Content-addressed on-disk result store for campaign units and jobs.

Every unit carries a SHA-256 key over everything that determines its
result (see :class:`~repro.campaign.executor.UnitKind`).  The cache
maps that key to its :class:`~repro.campaign.executor.UnitResult` on
disk:

* **resume** — an interrupted campaign re-planned with the same inputs
  re-uses every unit that already completed;
* **incremental re-runs** — editing ε, the grid, or a fault value
  changes the affected keys and only that work re-simulates;
* **robustness** — unreadable, truncated or mismatched entries are
  treated as misses (and evicted), never allowed to crash a campaign.

Entry format
------------

An entry is typed data, never code: nothing read from the cache is
unpickled, so a file planted in a shared cache directory can at worst
read as a miss.  One entry is

* one line holding the SHA-256 (hex) of everything after it;
* one line of JSON — the header: the :data:`SCHEMA`, the result's
  kind, key and counters, one ``[name, dtype, shape, offset]`` record
  per array and the result's JSON values;
* the body — the arrays' raw bytes, each at its offset.

A read checks the checksum first, then parses the header, checks the
schema, the kind and the key, and maps each array with
:func:`numpy.frombuffer` into a read-only array; only the dtypes of
:data:`DTYPES` are accepted.  Any failure — a flipped bit or a
truncation anywhere breaks the checksum — reads as a miss and counts
as ``corrupt``.  Header keys come in a fixed order, values in their
own order, and nothing records the time, so an entry's bytes depend
only on its content.

Consistency contract (multi-process, shared directory)
------------------------------------------------------

The cache is safe for any number of concurrent readers and writers —
threads or processes, including N server replicas sharing one cache
directory over a local filesystem:

* **Atomic publish.**  A write lands in a unique ``mkstemp`` temp file
  in the entry's own shard directory and is published with
  :func:`os.replace` — atomic on POSIX and Windows.  Readers observe
  either the complete old bytes or the complete new bytes of an entry,
  never a torn mixture, and a writer killed mid-``put`` leaves only a
  ``.tmp`` file that no reader ever opens.
* **Lock-free reads.**  ``get``/``contains`` take no file locks;
  they open, read and validate.  Anything invalid — truncated bytes,
  a checksum, schema, kind or key mismatch — counts as a miss.
* **Last-writer-wins is benign.**  Keys are content hashes over every
  input that determines the result, so two writers racing on one key
  are publishing (modulo float nondeterminism in wall-clock-free
  payloads) the same value; whichever ``os.replace`` lands last wins
  and nothing is lost.
* **Guarded eviction.**  Evicting a corrupt entry re-checks (by inode
  and mtime) that the file on disk is still the one that failed
  validation, so a concurrent writer's freshly published good entry is
  never deleted by a reader that raced with it.
* **Crash hygiene.**  :meth:`sweep_stale` (and :meth:`clear`) remove
  ``.tmp`` residue of crashed writers; the sweep is age-gated so
  in-flight writers are never disturbed.

Counter updates (hits/misses/writes/corrupt) are guarded by a lock so
multi-threaded schedulers report exact statistics; the counters are
per-instance and make no cross-process claims.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .executor import UnitResult

#: the entry format; entries live under ``<directory>/v2``
SCHEMA = "repro-cache-v2"

#: the array dtypes an entry may hold
DTYPES = ("bool", "float64", "complex128", "int64")

#: every array starts at a multiple of this many bytes into the body
ALIGNMENT = 16

#: the counters a header carries, in order
COUNTERS = ("n_solves", "n_factorizations", "sm_fallbacks")

#: default age (seconds) before an orphaned ``.tmp`` file is swept
STALE_TMP_AGE_S = 300.0


def _natural(value) -> bool:
    return type(value) is int and value >= 0


def encode(result: UnitResult) -> bytes:
    """The entry bytes of ``result``."""
    specs, chunks, offset = [], [], 0
    for name, array in result.arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.name not in DTYPES:
            raise TypeError(
                f"array {name!r}: dtype {array.dtype.name} is not one of "
                f"{DTYPES}"
            )
        padding = -offset % ALIGNMENT
        chunks.append(bytes(padding))
        offset += padding
        specs.append([name, array.dtype.name, list(array.shape), offset])
        chunks.append(array.tobytes())
        offset += array.nbytes
    body = b"".join(chunks)
    header = {
        "schema": SCHEMA,
        "kind": result.kind,
        "key": result.key,
        "counters": [getattr(result, name) for name in COUNTERS],
        "arrays": specs,
        "values": result.values,
    }
    content = (
        json.dumps(header, separators=(",", ":")).encode("utf-8")
        + b"\n"
        + body
    )
    checksum = hashlib.sha256(content).hexdigest().encode("ascii")
    return checksum + b"\n" + content


def decode(data: bytes, kind: str, key: str) -> UnitResult:
    """The result ``data`` holds; raises ``ValueError`` unless it is a
    well-formed entry of ``kind`` under ``key``."""
    checksum, content = data.split(b"\n", 1)
    if hashlib.sha256(content).hexdigest().encode("ascii") != checksum:
        raise ValueError("checksum mismatch")
    line, body = content.split(b"\n", 1)
    header = json.loads(line.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("the header is not an object")
    if (header["schema"], header["kind"], header["key"]) != (
        SCHEMA, kind, key,
    ):
        raise ValueError("schema, kind or key mismatch")
    arrays = {}
    for name, dtype, shape, offset in header["arrays"]:
        if dtype not in DTYPES:
            raise ValueError(f"dtype {dtype!r} is not allowed")
        if not all(_natural(n) for n in [offset, *shape]):
            raise ValueError("offsets and shapes must be naturals")
        count = int(np.prod(shape, dtype=np.int64))
        array = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
        arrays[name] = array.reshape(shape)
    counters = header["counters"]
    if len(counters) != len(COUNTERS) or not all(map(_natural, counters)):
        raise ValueError("counters must be naturals")
    values = header["values"]
    if not isinstance(values, dict):
        raise ValueError("values are not an object")
    return UnitResult(
        kind, key, *counters, arrays=arrays, values=values
    )


class ResultCache:
    """Directory-backed store of unit results, addressed by content key.

    Parameters
    ----------
    directory:
        Cache root; created on first use.  Entries live under
        ``v2/`` and are sharded by the first two hex digits of the key
        (``v2/ab/abcdef....entry``) to keep directories small on big
        campaigns.  Results of every kind share one directory; a read
        names the kind it expects.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory) / "v2"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.entry"

    def contains(self, key: str, kind: str) -> bool:
        """Whether ``get(key, kind)`` would hit.

        Runs the same validation as :meth:`get` — an entry that exists
        on disk but is corrupt does **not** count as present, so
        membership tests and retrievals can never disagree.  Counters
        are untouched (a probe is not a hit or a miss), except that a
        corrupt entry found this way is evicted and counted as such.
        """
        return self._read(key, kind) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.entry"))

    # ------------------------------------------------------------------
    def _read(self, key: str, kind: str) -> Optional[UnitResult]:
        """Load and validate ``key``, evicting corrupt entries.

        Shared by :meth:`get` and :meth:`contains`; does not touch the
        hit/miss counters.  Eviction is guarded: the unlink only
        happens if the path still holds the exact file (inode + mtime)
        that failed validation, so a concurrent ``put`` that republished
        the entry between our read and our unlink is left alone.
        """
        path = self.path_for(key)
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        with handle:
            try:
                seen = os.fstat(handle.fileno())
                data = handle.read()
            except OSError:
                return None
        try:
            return decode(data, kind, key)
        except Exception:  # noqa: BLE001 — any malformed entry is a miss
            self._evict_if_unchanged(path, seen)
            self._count("corrupt")
            return None

    def get(self, key: str, kind: str) -> Optional[UnitResult]:
        """The stored result of ``kind`` for ``key``, or ``None`` (miss).

        Lock-free; corrupted entries — malformed bytes, a checksum,
        schema, kind or key mismatch — count as misses, are evicted
        (see :meth:`_read` for the race guard), and never raise.
        """
        result = self._read(key, kind)
        if result is None:
            self._count("misses")
            return None
        self._count("hits")
        return result

    def put(self, key: str, result: UnitResult) -> None:
        """Store ``result`` under ``key`` atomically.

        The entry is written to a unique temp file in its shard
        directory and published with :func:`os.replace`, so concurrent
        readers (in any process) observe either the previous complete
        entry or the new complete entry — never torn bytes.  A failure
        before the replace leaves at worst a ``.tmp`` file, which
        :meth:`sweep_stale` reclaims.  A concurrent :meth:`clear` may
        sweep our temp file between the write and the publish; the put
        simply re-writes and tries again (the cleared cache then holds
        this fresh entry, which is consistent).
        """
        if result.key != key:
            raise ValueError(f"result key {result.key} stored under {key}")
        path = self.path_for(key)
        payload = encode(result)
        for remaining in range(8, -1, -1):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except FileNotFoundError:
                # a concurrent clear() swept our temp mid-publish
                self._unlink(Path(tmp_name))
                if remaining == 0:
                    raise
                continue
            except BaseException:
                self._unlink(Path(tmp_name))
                raise
            break
        self._count("writes")

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps **all** ``.tmp`` files regardless of age — clearing
        is an explicit "empty this cache" request, so residue of both
        crashed and in-flight writers goes (an in-flight writer's
        ``os.replace`` of an already-unlinked temp name simply publishes
        a fresh entry, which is consistent).  Only entries count toward
        the return value.
        """
        removed = 0
        for path in self.directory.glob("*/*.entry"):
            self._unlink(path)
            removed += 1
        for path in self.directory.glob("*/*.tmp"):
            self._unlink(path)
        return removed

    def sweep_stale(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove ``.tmp`` residue older than ``max_age_s`` seconds.

        The age gate keeps the sweep safe to run at any time — a live
        writer's temp file is seconds old at most, while a crashed
        writer's residue only ever gets older.  A long-running service
        calls this at startup (and may call it periodically); returns
        the number of files removed.
        """
        if max_age_s < 0:
            raise ValueError("max_age_s must be >= 0")
        cutoff = time.time() - max_age_s
        removed = 0
        for path in self.directory.glob("*/*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                # already gone, or being published right now — skip
                pass
        return removed

    # ------------------------------------------------------------------
    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    @staticmethod
    def _evict_if_unchanged(path: Path, seen: os.stat_result) -> None:
        """Unlink ``path`` only if it is still the file we validated.

        A concurrent writer may have republished the entry (new inode
        via ``os.replace``) after we opened the corrupt bytes; deleting
        blindly would throw away their good entry.  The inode + mtime
        check closes that window (a same-inode republish is impossible
        with ``mkstemp`` temp files).
        """
        try:
            now = path.stat()
            if (
                now.st_ino == seen.st_ino
                and now.st_mtime_ns == seen.st_mtime_ns
            ):
                path.unlink()
        except OSError:
            pass

    def _count(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )
