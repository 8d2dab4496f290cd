"""Content-addressed on-disk result store for campaign work units.

Every work unit carries a SHA-256 key over everything that determines
its result (netlist, probe, grid, tolerance, criterion, fault
chunk — see :func:`repro.campaign.plan.unit_key`).  The cache maps that
key to a pickled :class:`~repro.campaign.executor.UnitResult` on disk:

* **resume** — an interrupted campaign re-planned with the same inputs
  re-uses every unit that already completed;
* **incremental re-runs** — editing ε, the grid, or a fault value
  changes the affected keys and only that work re-simulates;
* **robustness** — unreadable, truncated or mismatched entries are
  treated as misses (and evicted), never allowed to crash a campaign.

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
* **Lock-free reads.**  ``get``/``__contains__`` take no file locks;
  they open, read and validate.  Anything invalid — truncated bytes,
  wrong payload type, key mismatch — counts as a miss.
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

import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Union

from .executor import UnitResult

#: cache layout version; bump on incompatible UnitResult changes
CACHE_VERSION = "1"

#: default age (seconds) before an orphaned ``.tmp`` file is swept
STALE_TMP_AGE_S = 300.0


class ResultCache:
    """Directory-backed store of unit results, addressed by content key.

    Parameters
    ----------
    directory:
        Cache root; created on first use.  Entries are sharded by the
        first two hex digits of the key (``ab/abcdef....pkl``) to keep
        directories small on big campaigns.
    payload_type:
        The result class entries must be instances of; anything else is
        treated as corruption.  Defaults to
        :class:`~repro.campaign.executor.UnitResult`; the tolerance
        campaign stores
        :class:`~repro.campaign.tolerance.ToleranceUnitResult`.
    """

    def __init__(
        self, directory: Union[str, Path], payload_type: type = UnitResult
    ):
        self.directory = Path(directory) / f"v{CACHE_VERSION}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.payload_type = payload_type
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        """Whether ``get(key)`` would hit.

        Runs the same validation as :meth:`get` — an entry that exists
        on disk but is corrupt does **not** count as present, so
        membership tests and retrievals can never disagree.  Counters
        are untouched (a probe is not a hit or a miss), except that a
        corrupt entry found this way is evicted and counted as such.
        """
        return self._read(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    # ------------------------------------------------------------------
    def _read(self, key: str) -> Optional[UnitResult]:
        """Load and validate ``key``, evicting corrupt entries.

        Shared by :meth:`get` and :meth:`__contains__`; does not touch
        the hit/miss counters.  Eviction is guarded: the unlink only
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
                result = pickle.load(handle)
            except Exception:
                self._evict_if_unchanged(path, seen)
                self._count("corrupt")
                return None
        if not isinstance(result, self.payload_type) or result.key != key:
            self._evict_if_unchanged(path, seen)
            self._count("corrupt")
            return None
        return result

    def get(self, key: str) -> Optional[UnitResult]:
        """The stored result for ``key``, or ``None`` (miss).

        Lock-free; corrupted entries — unpicklable bytes, wrong payload
        type, or a key mismatch — count as misses, are evicted (see
        :meth:`_read` for the race guard), and never raise.
        """
        result = self._read(key)
        if result is None:
            self._count("misses")
            return None
        self._count("hits")
        return result

    def put(self, key: str, result: UnitResult) -> None:
        """Store ``result`` under ``key`` atomically.

        The payload is written to a unique temp file in the entry's
        shard directory and published with :func:`os.replace`, so
        concurrent readers (in any process) observe either the previous
        complete entry or the new complete entry — never torn bytes.
        A failure before the replace leaves at worst a ``.tmp`` file,
        which :meth:`sweep_stale` reclaims.  A concurrent
        :meth:`clear` may sweep our temp file between the write and
        the publish; the put simply re-writes and tries again (the
        cleared cache then holds this fresh entry, which is
        consistent).
        """
        path = self.path_for(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
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
        a fresh entry, which is consistent).  Only ``.pkl`` entries
        count toward the return value.
        """
        removed = 0
        for path in self.directory.glob("*/*.pkl"):
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
