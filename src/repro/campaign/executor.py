"""The unit protocol and the executors that run units.

Every campaign kind — fault simulation (:mod:`repro.campaign.plan`),
ε-calibration (:mod:`repro.campaign.tolerance`) and trajectory
dictionaries (:mod:`repro.diagnosis.campaign`) — declares itself once
as a :class:`UnitKind`: its key format and fields, the module-level
function that runs one unit and the named arrays and JSON values that
function returns.  Its planner cuts a campaign into :class:`Unit`\\ s,
each the kind plus the keyword arguments of one call, and every unit
comes back as one :class:`UnitResult`.  The engine, the executors, the
telemetry and the cache handle only these two types and never branch
on the kind.

Two executors ship:

:class:`SerialExecutor`
    Runs units in-process, in plan order — the default everywhere,
    :func:`repro.faults.simulator.simulate_faults` included.

:class:`ParallelExecutor`
    Fans units out over a ``concurrent.futures.ProcessPoolExecutor``
    (fork where available, spawn otherwise) with a per-unit timeout and
    a bounded retry budget.  Failures degrade gracefully: a unit whose
    worker times out, raises, or dies is re-run serially in the parent
    process; if the pool itself cannot be created or breaks, every
    remaining unit falls back to the serial path.  Determinism is
    preserved by construction — outcomes are harvested in submission
    order and every unit is run by the exact same code the serial
    engine uses.

    Units are shipped in one contiguous batch per effective worker, so
    each worker pays the per-task IPC cost (pickling the units and
    their results plus a pool round-trip) and the functional circuit's
    sweep (the :class:`~repro.faults.simulator.Basis` every
    configuration reuses) once.  When the pool cannot help — one
    effective core, or a single worker requested — and no per-unit
    isolation timeout was asked for, units run in the parent process
    instead, so ``ParallelExecutor`` is no slower than
    :class:`SerialExecutor` on hardware that cannot parallelise.

The module-level :func:`execute_unit` / :func:`execute_unit_batch` are
the picklable worker entry points, and a unit names its run function
by import path, so the spawn start method (macOS, Windows) works out of
the box.

Every unit an executor call runs in one process — the whole call for
:class:`SerialExecutor` and the in-process paths, one batch in a worker
— shares one :class:`Bases`: the functional circuit's sweep is made
once there.  Its work is counted on the outcome of the unit that
triggered it (``basis_factorizations``), never in the cacheable
:class:`UnitResult`, so a unit's result does not depend on which units
ran with it.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.kernel import KernelStats
from ..errors import CampaignError
from ..faults.simulator import Basis


def content_key(format: str, *parts: str) -> str:
    """SHA-256 of a key format and its parts (stable across processes)."""
    payload = "\n".join((format,) + parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class UnitKind(NamedTuple):
    """One campaign kind, declared once.

    ``run(bases=, stats=, **args)`` runs one unit and returns
    ``(n_solves, arrays, values)``: the logical sweep count, the named
    arrays and the named JSON values of :attr:`arrays` and
    :attr:`values`, in that order.  ``bases`` is the :class:`Bases` the
    unit shares with the units run alongside it and ``stats`` the
    :class:`~repro.analysis.kernel.KernelStats` its factorizations and
    fallbacks are counted in.  ``run`` is a module-level function, so a
    unit pickles to a worker by reference.
    """

    name: str
    #: the first line of every key; bumped when the key recipe or the
    #: result layout changes
    format: str
    #: the inputs a unit's key covers, in order
    key_fields: Tuple[str, ...]
    run: Callable
    arrays: Tuple[str, ...]
    values: Tuple[str, ...]

    def unit(
        self, unit_id: str, label: str, size: int, args: Dict[str, Any],
        **key: str,
    ) -> "Unit":
        """A unit of this kind; ``key`` gives the text of each key field."""
        if tuple(key) != self.key_fields:
            raise CampaignError(
                f"{self.name} key fields are {self.key_fields}, "
                f"got {tuple(key)}"
            )
        return Unit(
            kind=self,
            unit_id=unit_id,
            label=label,
            size=size,
            key=content_key(
                self.format, *(f"{name}:{text}" for name, text in key.items())
            ),
            args=args,
        )

    def produced(self, result: "UnitResult") -> bool:
        """Whether ``result`` holds exactly this kind's names."""
        return (
            result.kind == self.name
            and tuple(result.arrays) == self.arrays
            and tuple(result.values) == self.values
        )


@dataclass(frozen=True, eq=False)
class Unit:
    """One schedulable quantum of any campaign kind.

    Attributes
    ----------
    kind:
        The :class:`UnitKind` that runs it.
    unit_id:
        Human-readable plan-unique id (``"C3"``, ``"biquad"``).
    label:
        What the unit covers, for telemetry: a configuration label or a
        circuit name.
    size:
        Faults or trajectory points the unit simulates (0 for a
        tolerance unit), for telemetry.
    key:
        SHA-256 content hash; the cache address of the unit's result.
    args:
        The keyword arguments of ``kind.run``.
    """

    kind: UnitKind
    unit_id: str
    label: str
    size: int
    key: str
    args: Dict[str, Any]

    def __repr__(self) -> str:
        return (
            f"Unit({self.kind.name} {self.unit_id}, size {self.size}, "
            f"key={self.key[:8]})"
        )


@dataclass(frozen=True, eq=False)
class UnitResult:
    """What one completed unit returns and the cache stores.

    ``arrays`` are read-only; ``values`` are JSON-native.  A job
    record of :mod:`repro.service` is a result of kind ``"job"`` with
    values only.
    """

    kind: str
    key: str
    #: logical sweeps the unit ran
    n_solves: int = 0
    #: LU factorizations the unit's sweeps performed
    n_factorizations: int = 0
    #: grid points re-solved exactly (see ``KernelStats.sm_fallbacks``)
    sm_fallbacks: int = 0
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    values: Dict[str, Any] = field(default_factory=dict)


class Work(NamedTuple):
    """The work a run performed (see :attr:`UnitOutcome.work`)."""

    #: logical sweeps
    solves: int = 0
    #: LU factorizations, shared basis sweeps included
    factorizations: int = 0
    #: grid points re-solved exactly
    sm_fallbacks: int = 0


@dataclass
class UnitOutcome:
    """How one unit fared: its result or its terminal error.

    ``attempts`` counts run attempts (0 for a cache hit); ``degraded``
    marks units that fell back from a worker process to the parent's
    serial path.
    """

    unit: Unit
    result: Optional[UnitResult]
    error: Optional[BaseException] = None
    attempts: int = 1
    wall_s: float = 0.0
    from_cache: bool = False
    degraded: bool = False
    #: LU factorizations of the shared basis sweep this unit triggered
    #: (not part of the cacheable result)
    basis_factorizations: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def work(self) -> Work:
        """The work this outcome performed, the one count of it that
        telemetry and every campaign kind's assembly read: the result's
        solves, factorizations and fallbacks plus the basis sweep the
        unit triggered; zeros for a cache hit or a failure."""
        result = self.result
        if result is None or self.from_cache:
            return Work()
        return Work(
            solves=result.n_solves,
            factorizations=(
                result.n_factorizations + self.basis_factorizations
            ),
            sm_fallbacks=result.sm_fallbacks,
        )


class Bases:
    """The bases of the units run together in one process.

    One :class:`~repro.faults.simulator.Basis` per functional circuit
    and grid, swept on first use.  :attr:`factorizations` counts their
    work.
    """

    def __init__(self):
        self._bases: List[Basis] = []

    def get(self, functional, grid) -> Basis:
        for basis in self._bases:
            if basis.circuit is functional and basis.grid == grid:
                return basis
        identity = functional.identity()
        for basis in self._bases:
            if basis.grid == grid and basis.circuit.identity() == identity:
                return basis
        self._bases.append(Basis(functional, grid))
        return self._bases[-1]

    @property
    def factorizations(self) -> int:
        return sum(basis.stats.factorizations for basis in self._bases)


def execute_unit(unit: Unit, bases: Optional[Bases] = None) -> UnitResult:
    """Run one unit (in the parent or a worker process).

    Calls the unit's declared run with its args, a
    :class:`~repro.analysis.kernel.KernelStats` whose factorization and
    fallback counters go into the result, and ``bases`` (a fresh
    :class:`Bases` when ``None``), whose sweeps are not counted here.
    """
    kind = unit.kind
    stats = KernelStats()
    n_solves, arrays, values = kind.run(
        bases=bases if bases is not None else Bases(),
        stats=stats,
        **unit.args,
    )
    for array in arrays.values():
        array.setflags(write=False)
    result = UnitResult(
        kind=kind.name,
        key=unit.key,
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
        sm_fallbacks=stats.sm_fallbacks,
        arrays=arrays,
        values=values,
    )
    if not kind.produced(result):
        raise CampaignError(
            f"{kind.name} unit {unit.unit_id} returned arrays "
            f"{tuple(arrays)} and values {tuple(values)}, not the "
            f"declared {kind.arrays} and {kind.values}"
        )
    return result


def execute_unit_batch(units):
    """Run a batch of units inside one worker task.

    Returns one ``(result, error, basis_factorizations, wall_s)`` item
    per unit, in order — a unit that raises does not abort its batch
    siblings, and the parent grants the failed unit its usual
    in-process retry budget.  ``wall_s`` is the unit's own time in the
    worker.  The batch's units share one :class:`Bases`.  Going through
    the module-level :func:`execute_unit` keeps monkeypatched test
    doubles effective under the fork start method.
    """
    bases = Bases()
    items = []
    for unit in units:
        start = time.perf_counter()
        before = bases.factorizations
        try:
            result, error = execute_unit(unit, bases), None
        except Exception as exc:  # noqa: BLE001 — reported per unit
            result, error = None, exc
        items.append(
            (
                result,
                error,
                bases.factorizations - before,
                time.perf_counter() - start,
            )
        )
    return items


#: signature of the per-outcome callback executors invoke as units finish
OutcomeCallback = Callable[[UnitOutcome], None]


class Executor:
    """Executor interface: turn units into outcomes, in plan order."""

    name = "executor"

    def execute(
        self,
        units: Sequence[Unit],
        callback: Optional[OutcomeCallback] = None,
    ) -> List[UnitOutcome]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution in plan order (the default engine).

    ``retries`` allows re-attempting a failed unit; simulation errors
    are deterministic so the default is 0.
    """

    name = "serial"

    def __init__(self, retries: int = 0):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries

    def execute(
        self,
        units: Sequence[Unit],
        callback: Optional[OutcomeCallback] = None,
    ) -> List[UnitOutcome]:
        return _run_inprocess(units, callback, 1 + self.retries)


def _run_inprocess(units, callback, max_attempts, degraded=False):
    """Run units in plan order in this process, sharing one :class:`Bases`."""
    bases = Bases()
    outcomes = []
    for unit in units:
        outcome = _attempt(unit, max_attempts, degraded=degraded, bases=bases)
        outcomes.append(outcome)
        if callback is not None:
            callback(outcome)
    return outcomes


def _attempt(
    unit: Unit,
    max_attempts: int,
    attempts_so_far: int = 0,
    degraded: bool = False,
    last_error: Optional[BaseException] = None,
    bases: Optional[Bases] = None,
) -> UnitOutcome:
    """Run ``unit`` in-process up to ``max_attempts`` more times.

    With ``max_attempts=0`` the unit is not re-run and the outcome
    reports ``last_error`` (a worker failure whose retry budget is
    exhausted).  ``bases`` is shared with the other units the caller
    runs in this process.
    """
    bases = bases if bases is not None else Bases()
    attempts = attempts_so_far
    start = time.perf_counter()
    before = bases.factorizations
    for _ in range(max(0, max_attempts)):
        attempts += 1
        try:
            result = execute_unit(unit, bases)
            return UnitOutcome(
                unit=unit,
                result=result,
                attempts=attempts,
                wall_s=time.perf_counter() - start,
                degraded=degraded,
                basis_factorizations=bases.factorizations - before,
            )
        except Exception as exc:  # noqa: BLE001 — reported per unit
            last_error = exc
    return UnitOutcome(
        unit=unit,
        result=None,
        error=last_error,
        attempts=attempts,
        wall_s=time.perf_counter() - start,
        degraded=degraded,
        basis_factorizations=bases.factorizations - before,
    )


class ParallelExecutor(Executor):
    """Process-pool execution with timeout, retry and serial fallback.

    Parameters
    ----------
    jobs:
        Worker-process count (default: ``os.cpu_count()``).
    timeout:
        Per-unit harvest timeout in seconds (``None`` waits forever).
        A timed-out unit is cancelled if still queued and re-run
        serially in the parent.
    retries:
        In-parent attempts granted to a unit whose worker failed.
    start_method:
        Force a multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); default picks fork when the platform has it.
    persistent:
        Keep the process pool alive across :meth:`execute` calls.  A
        long-running service amortises worker startup (and any per-
        worker warmup) over its whole lifetime instead of paying it per
        job; call :meth:`close` to release the workers.  A broken or
        abandoned pool is discarded and rebuilt on the next call.

    Units go to the workers in one contiguous batch per effective
    worker (:meth:`effective_jobs`).  With one effective worker and no
    ``timeout`` (in-process execution cannot enforce a worker isolation
    timeout), units run in the parent instead, and their outcomes are
    *not* marked ``degraded`` — it is the best strategy there, not a
    fallback.
    """

    name = "parallel"

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        start_method: Optional[str] = None,
        persistent: bool = False,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs or os.cpu_count() or 1
        self.timeout = timeout
        self.retries = retries
        self.start_method = start_method
        self.persistent = persistent
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        method = self.start_method or (
            "fork" if "fork" in methods else "spawn"
        )
        return multiprocessing.get_context(method)

    def _acquire_pool(self, n_units: int):
        """The pool to run on: cached when persistent, fresh otherwise."""
        if self.persistent:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self._context(),
                )
            return self._pool
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, n_units),
            mp_context=self._context(),
        )

    def close(self) -> None:
        """Release a persistent pool's workers (no-op otherwise)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def effective_jobs(self, n_units: Optional[int] = None) -> int:
        """Workers that can actually run concurrently for this workload."""
        effective = min(self.jobs, os.cpu_count() or 1)
        if n_units is not None:
            effective = min(effective, max(1, n_units))
        return effective

    def _batch_bounds(self, n_units: int) -> List[range]:
        """Contiguous unit-index batches for one :meth:`execute` call."""
        size = max(1, -(-n_units // self.effective_jobs()))
        return [
            range(start, min(start + size, n_units))
            for start in range(0, n_units, size)
        ]

    def execute(
        self,
        units: Sequence[Unit],
        callback: Optional[OutcomeCallback] = None,
    ) -> List[UnitOutcome]:
        units = list(units)
        if not units:
            return []
        if self.timeout is None and self.effective_jobs(len(units)) <= 1:
            # The pool cannot help (one effective core or one worker)
            # and no isolation timeout was requested: run in-process.
            # This is the optimal strategy, not a degradation.
            return _run_inprocess(units, callback, 1 + self.retries)
        try:
            pool = self._acquire_pool(len(units))
        except Exception:
            # The platform cannot host a process pool at all: degrade the
            # whole campaign to the serial path.
            return _run_inprocess(
                units, callback, 1 + self.retries, degraded=True
            )

        batches = self._batch_bounds(len(units))
        # the bases of the units re-run here once the pool broke
        bases = Bases()
        outcomes: List[UnitOutcome] = []
        broken = False
        abandoned = False
        aborted = False
        futures = []
        try:
            futures = [
                (batch, pool.submit(execute_unit_batch, batch))
                for batch in ([units[i] for i in bounds] for bounds in batches)
            ]
            for batch, future in futures:
                if broken:
                    batch_outcomes = [
                        _attempt(
                            unit, 1 + self.retries, degraded=True,
                            bases=bases,
                        )
                        for unit in batch
                    ]
                else:
                    batch_outcomes, broken, timed_out = self._harvest_batch(
                        batch, future
                    )
                    abandoned = abandoned or timed_out
                for outcome in batch_outcomes:
                    outcomes.append(outcome)
                    if callback is not None:
                        try:
                            callback(outcome)
                        except BaseException:
                            # A raising callback is the cooperative-abort
                            # channel (job cancellation / deadline in
                            # repro.service): stop harvesting, drop the
                            # not-yet-running remainder, and let the
                            # exception reach the caller.
                            aborted = True
                            raise
        finally:
            if aborted:
                for _batch, future in futures:
                    future.cancel()
            self._release_pool(pool, broken, abandoned, aborted)
        return outcomes

    def _harvest_batch(self, batch, future):
        """Collect one batch future; degrade failed units to the parent.

        Returns ``(outcomes, broken, timed_out)``: ``broken`` poisons
        the pool for every remaining batch; ``timed_out`` marks a batch
        whose worker may still be running, which forces the final
        shutdown to abandon the pool rather than join a hung worker.  A
        worker that raised inside a unit reports per-unit ``(None,
        error)`` items (its batch siblings are unaffected), a timed-out
        or broken batch falls back unit by unit in the parent.  The per-unit
        ``timeout`` budget is scaled by the batch length.  A unit the
        worker ran reports the worker's time for it as ``wall_s``.  The
        batch's units re-run in the parent share one :class:`Bases`.
        """
        bases = Bases()
        timeout = (
            self.timeout * len(batch) if self.timeout is not None else None
        )
        try:
            items = future.result(timeout=timeout)
        except concurrent.futures.TimeoutError as exc:
            timed_out = not future.cancel()
            return (
                [
                    _attempt(
                        unit, self.retries, 1, degraded=True,
                        last_error=exc, bases=bases,
                    )
                    for unit in batch
                ],
                False,
                timed_out,
            )
        except concurrent.futures.process.BrokenProcessPool:
            return (
                [
                    _attempt(
                        unit, 1 + self.retries, degraded=True, bases=bases
                    )
                    for unit in batch
                ],
                True,
                False,
            )
        except Exception as exc:
            # The batch task itself failed (e.g. result pickling);
            # grant every unit the in-parent retry budget.
            return (
                [
                    _attempt(
                        unit, self.retries, 1, degraded=True,
                        last_error=exc, bases=bases,
                    )
                    for unit in batch
                ],
                False,
                False,
            )
        outcomes = []
        for unit, (result, error, basis_factorizations, wall_s) in zip(
            batch, items
        ):
            if result is not None:
                outcomes.append(
                    UnitOutcome(
                        unit=unit,
                        result=result,
                        attempts=1,
                        wall_s=wall_s,
                        basis_factorizations=basis_factorizations,
                    )
                )
            else:
                outcomes.append(
                    _attempt(
                        unit, self.retries, 1, degraded=True,
                        last_error=error, bases=bases,
                    )
                )
        return outcomes, False, False

    def _release_pool(
        self, pool, broken: bool, abandoned: bool, aborted: bool
    ) -> None:
        """Dispose of (or retain) the pool; never block on a hung worker.

        A clean non-persistent run joins the workers as usual.  A clean
        persistent run keeps the warm pool for the next
        :meth:`execute`.  Exceptional endings:

        * **abandoned** — a timed-out unit may still be running in a
          worker; joining would block until it returns (potentially
          forever), so queued futures are cancelled, the join is
          skipped, and the worker processes are terminated so the
          interpreter's atexit handler cannot block on them either.
          A persistent pool is discarded and rebuilt on the next call.
        * **broken** — the pool is unusable; discard it.
        * **aborted** — a callback raised (cooperative cancellation):
          queued futures were already cancelled; a persistent pool
          stays warm (in-flight units bleed to completion in the
          workers, then the workers idle), a one-shot pool is released
          without waiting.
        """
        if abandoned:
            if pool is self._pool:
                self._pool = None
            processes = list(
                (getattr(pool, "_processes", None) or {}).values()
            )
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 — best-effort teardown
                    pass
            return
        if broken:
            if pool is self._pool:
                self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            return
        if pool is self._pool:
            return
        pool.shutdown(wait=not aborted, cancel_futures=aborted)
