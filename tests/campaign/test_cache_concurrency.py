"""Multi-process ResultCache contention: the consistency contract, lived.

N processes hammer one shared cache directory with interleaved
``put``/``get``/``contains``/``clear`` over a small key-space.  The
contract under test (see ``repro/campaign/cache.py``):

* **no torn reads** — ``get`` returns ``None`` or a complete, valid
  payload with the right key, never raises, never yields a mixture of
  two writes;
* **no stale ``.tmp`` leakage** — clean writers leave no temp residue,
  and :meth:`sweep_stale` reclaims crashed writers' residue without
  touching fresh files;
* **``contains`` ≡ ``get()``** — membership and retrieval agree
  once the dust settles (mid-race they may legitimately disagree about
  a key another process is publishing or clearing *right now*, but
  neither may ever crash or observe a torn entry);
* **guarded eviction** — a reader that validated corrupt bytes must
  not delete the good entry a writer republished in the meantime.
"""

import multiprocessing
import os
import random
import time

import numpy as np
import pytest

from repro.campaign.cache import ResultCache, encode
from repro.campaign.executor import UnitResult

#: deterministic key-space: shards 00..07, hex-ish tails
KEYS = [f"{index:02d}" + "ab" * 31 for index in range(8)]

KIND = "faultsim"


def make_result(key: str, stamp: int) -> UnitResult:
    """A payload whose content identifies its writer (torn-read bait:
    the filler array widens the write window)."""
    return UnitResult(
        kind=KIND,
        key=key,
        n_solves=stamp,
        arrays={"nominal": np.full(2048, float(stamp))},
        values={"stamp": stamp},
    )


def hammer(directory, worker_id, n_ops, failures):
    """One contender: seeded op mix over the shared key-space.

    Any assertion failure is reported through the ``failures`` queue
    (a child's AssertionError would otherwise only surface as a bare
    nonzero exit code).
    """
    try:
        cache = ResultCache(directory)
        rng = random.Random(worker_id)
        for op_index in range(n_ops):
            key = rng.choice(KEYS)
            roll = rng.random()
            if roll < 0.45:
                cache.put(key, make_result(key, worker_id * n_ops + op_index))
            elif roll < 0.85:
                result = cache.get(key, KIND)
                if result is not None:
                    assert result.key == key, "torn/mismatched payload"
                    assert result.n_solves == result.values["stamp"], (
                        "payload fields from two different writes"
                    )
                    nominal = result.arrays["nominal"]
                    assert nominal[0] == nominal[-1] == result.n_solves, (
                        "torn filler"
                    )
            elif roll < 0.97:
                present = cache.contains(key, KIND)
                assert isinstance(present, bool)
            else:
                cache.clear()
    except BaseException as exc:  # noqa: BLE001 — ship it to the parent
        failures.put(f"worker {worker_id}: {type(exc).__name__}: {exc}")
        raise


def test_multiprocess_contention(tmp_path):
    """8 processes × 150 interleaved ops: nothing tears, nothing leaks."""
    directory = tmp_path / "cache"
    ResultCache(directory)  # create the layout before forking
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    failures = context.Queue()
    workers = [
        context.Process(
            target=hammer, args=(str(directory), worker_id, 150, failures)
        )
        for worker_id in range(8)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120.0)

    reported = []
    while not failures.empty():
        reported.append(failures.get_nowait())
    assert not reported, "\n".join(reported)
    assert all(worker.exitcode == 0 for worker in workers)

    cache = ResultCache(directory)
    # no stale .tmp residue from any completed writer
    assert list(cache.directory.glob("*/*.tmp")) == []
    # membership and retrieval agree for every key once quiescent
    for key in KEYS:
        assert cache.contains(key, KIND) == (cache.get(key, KIND) is not None)
    # surviving entries are complete and self-consistent
    for key in KEYS:
        result = cache.get(key, KIND)
        if result is not None:
            assert result.key == key
            assert result.n_solves == result.values["stamp"]


def test_contains_matches_get_for_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = KEYS[0]
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"definitely not an entry")
    assert not cache.contains(key, KIND)  # evicts
    assert cache.get(key, KIND) is None
    assert not path.exists()


def test_sweep_stale_removes_only_old_tmp(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    shard = cache.directory / "00"
    shard.mkdir(parents=True, exist_ok=True)
    old = shard / "crashed-writer.tmp"
    old.write_bytes(b"half an entry")
    ancient = time.time() - 3600.0
    os.utime(old, (ancient, ancient))
    fresh = shard / "live-writer.tmp"
    fresh.write_bytes(b"being written right now")

    assert cache.sweep_stale(max_age_s=300.0) == 1
    assert not old.exists()
    assert fresh.exists()  # in-flight writers are never disturbed

    with pytest.raises(ValueError):
        cache.sweep_stale(max_age_s=-1.0)


def test_clear_sweeps_all_tmp_regardless_of_age(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put(KEYS[0], make_result(KEYS[0], 1))
    shard = cache.directory / "00"
    (shard / "fresh.tmp").write_bytes(b"x")
    assert cache.clear() == 1
    assert list(cache.directory.glob("*/*")) == []


def test_eviction_spares_a_concurrently_republished_entry(tmp_path):
    """A reader that validated corrupt bytes must not unlink the good
    entry a writer published after the reader's open() — simulated by
    republishing between the corrupt read and the eviction."""
    cache = ResultCache(tmp_path / "cache")
    key = KEYS[1]
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"corrupt bytes")
    stale_stat = os.stat(path)

    # a concurrent writer republishes a valid entry (new inode)
    cache.put(key, make_result(key, 7))

    # the racing reader now tries to evict based on its stale stat
    ResultCache._evict_if_unchanged(path, stale_stat)
    assert path.exists(), "fresh entry must survive the stale eviction"
    result = cache.get(key, KIND)
    assert result is not None and result.n_solves == 7

    # ...but with an up-to-date stat the eviction does fire
    path.write_bytes(b"corrupt again")
    ResultCache._evict_if_unchanged(path, os.stat(path))
    assert not path.exists()


def test_concurrent_writers_same_key_last_writer_wins(tmp_path):
    """Interleaved puts on one key: the entry is always one writer's
    complete payload (bytes equal to a clean encoding of it)."""
    cache = ResultCache(tmp_path / "cache")
    key = KEYS[2]
    for stamp in range(5):
        cache.put(key, make_result(key, stamp))
    raw = cache.path_for(key).read_bytes()
    assert raw == encode(make_result(key, 4))
