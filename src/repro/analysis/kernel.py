"""Stacked batched-solve kernel for MNA frequency sweeps.

The paper's conclusion names extensive fault simulation as the cost of
building the detectability matrix.  Every sweep solves the same pencil
``G + jω_k C`` at every grid frequency, so this module assembles each
sweep's stack in place, one real/imaginary plane at a time, and hands
LAPACK whole stacks instead of one small dense solve per (configuration,
fault, frequency) triple:

* :func:`solve_requests` takes any number of :class:`SweepRequest`\\ s —
  each one an assembled ``(G, C)`` pencil plus a multi-column right-hand
  side — and dispatches them as **stacked** ``numpy.linalg.solve`` calls
  over 3-D arrays ``(G + jω_k C)``.  LAPACK walks the leading dimension
  in C, so a whole campaign's worth of systems costs a handful of Python
  calls.  Requests of equal size are stacked *across circuits* as well
  as across frequencies, so all 2ⁿ configurations of a DFT campaign can
  ride in one dispatch.
* :func:`solve_reusing_lu` factors a matrix once (``scipy``'s
  ``lu_factor`` when available, plain ``numpy`` otherwise) and reuses
  the factors for every subsequent right-hand side at the same complex
  frequency — the fault engines only vary the RHS or a rank-1 term, so
  the factorization amortises across faults.

Bit-compatibility is a hard contract, not an aspiration: LAPACK's
``zgesv`` factors each matrix of a stack independently and solves each
RHS column independently, so stacking requests, padding RHS columns
with zeros and re-chunking frequencies all leave every individual
result bit-identical to a scalar ``numpy.linalg.solve`` of the same
system.  ``repro.verify`` enforces this with the ``stacked ≡ loop``
invariant (exact equality, no tolerance).

Singularity semantics match the loop engine's: a batched dispatch that
trips ``LinAlgError`` falls back to per-request solves so only the
offending request carries a :class:`~repro.errors.SingularCircuitError`
(with the same message the loop engine raises) while healthy requests
still complete — the "singular configuration falls back for that
configuration only" guarantee.

Every solve and factorization is counted in a :class:`KernelStats`,
which the campaign engine folds into its telemetry counters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AnalysisError, SingularCircuitError

try:  # pragma: no cover - exercised indirectly on hosts with scipy
    from scipy.linalg import lu_factor as _scipy_lu_factor
    from scipy.linalg import lu_solve as _scipy_lu_solve

    HAVE_SCIPY = True
except Exception:  # pragma: no cover - scipy genuinely absent
    _scipy_lu_factor = None
    _scipy_lu_solve = None
    HAVE_SCIPY = False

#: recognised solve-kernel names, in precedence order
KERNELS = ("loop", "stacked")

#: complex128 workspace budget (matrix entries) per stacked dispatch —
#: ~32 MB; matches the historical per-sweep chunking so the stacked
#: engine revisits the exact same chunk boundaries as the loop engine
STACK_BUDGET = 2_000_000

#: LU factors kept per :func:`solve_reusing_lu` cache (FIFO-evicted)
LU_CACHE_LIMIT = 512


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` if recognised, raise :class:`AnalysisError` else."""
    if kernel not in KERNELS:
        raise AnalysisError(
            f"unknown solve kernel {kernel!r}; use one of {KERNELS}"
        )
    return kernel


@dataclass
class KernelStats:
    """Counters of the linear-algebra work one run actually performed.

    Attributes
    ----------
    solves:
        Linear systems solved (one per matrix per dispatch, independent
        of how many RHS columns ride along).
    factorizations:
        LU factorizations performed; lower than ``solves`` whenever
        :func:`solve_reusing_lu` serves a repeat frequency from cache.
    stacked_calls:
        Batched LAPACK dispatches issued (each covers many systems).
    fallbacks:
        Batched dispatches that tripped ``LinAlgError`` and were re-run
        request-by-request to isolate the singular system.
    """

    solves: int = 0
    factorizations: int = 0
    stacked_calls: int = 0
    fallbacks: int = 0

    def merge(self, other: "KernelStats") -> None:
        """Fold another run's counters into this one."""
        self.solves += other.solves
        self.factorizations += other.factorizations
        self.stacked_calls += other.stacked_calls
        self.fallbacks += other.fallbacks

    def as_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "factorizations": self.factorizations,
            "stacked_calls": self.stacked_calls,
            "fallbacks": self.fallbacks,
        }


def frequency_chunk(n: int) -> int:
    """Frequencies per dispatch keeping the stack within the budget."""
    return max(1, int(STACK_BUDGET // max(n * n, 1)))


def _fill_pencils(
    out: np.ndarray, G: np.ndarray, C: np.ndarray, frequencies: np.ndarray
) -> None:
    """Write ``G + jω_k C`` into ``out[..., k, :, :]``, one plane at a time.

    ``G`` and ``C`` are ``(n, n)`` or a ``(B, n, n)`` batch; ``out`` is
    the matching complex ``(F, n, n)`` or ``(B, F, n, n)`` buffer.  The
    real and imaginary planes are written in place, with no complex
    temporaries, yet every entry is bit-identical to the historical
    expression ``G[None] + (2jπf)[:, None, None] · C[None]`` for every
    real pencil and every finite frequency ``f >= 0``.  That expression
    promotes ``C`` to complex, so its product is
    ``(0·c − ω·0) + j(0·0 + ω·c)``, and the sum with ``g + 0j`` adds
    ``0.0`` to the imaginary part:

    * real plane ``g + (0·c − 0)``: that is ``g`` itself unless ``c`` is
      infinite or NaN (``0·∞`` is NaN) or ``g`` is −0.0 (folded to +0.0)
      — neither occurs in an MNA pencil, which accumulates from +0.0,
      but both are reproduced;
    * imaginary plane ``ω·c + 0``: the ``+ 0`` only folds a −0.0
      product to +0.0, so it runs only when one can occur — a sign-bit
      ``c`` (negative or −0.0) whose product with the smallest ω
      rounds to zero (``f = 0``, a −0.0 entry, or underflow).

    NaN payloads are not part of the contract: where ``g`` is NaN and
    ``c`` infinite the historical sum itself picks either NaN's sign.
    """
    omega = 2.0 * np.pi * frequencies
    out.real[...] = (G + (0.0 * C - 0.0))[..., np.newaxis, :, :]
    imag = out.imag
    np.multiply(
        omega[:, np.newaxis, np.newaxis], C[..., np.newaxis, :, :], out=imag
    )
    if omega.size and np.any(np.signbit(C) & (omega.min() * C == 0.0)):
        imag += 0.0


def assemble_stack(
    G: np.ndarray, C: np.ndarray, frequencies_hz: np.ndarray
) -> np.ndarray:
    """3-D stack ``G + jω_k C`` over a frequency vector (hertz).

    Bit-identical to the historical per-sweep assembly
    ``G[None] + (2jπf)[:, None, None] · C[None]`` (see
    :func:`_fill_pencils`), so stacked and loop solves see the same
    matrices.
    """
    frequencies = np.asarray(frequencies_hz, dtype=float)
    out = np.empty((frequencies.size,) + G.shape, dtype=complex)
    _fill_pencils(out, G, C, frequencies)
    return out


@dataclass
class SweepRequest:
    """One frequency sweep the kernel should solve.

    A request is self-describing: the real pencil ``(G, C)``, a complex
    right-hand side of one or more columns, and enough identity to
    raise the loop engine's exact error message on singularity.

    Attributes
    ----------
    G, C:
        Real ``(n, n)`` conductance / susceptance-slope matrices.
    rhs:
        Complex ``(n, k)`` right-hand side, shared by every frequency.
    title:
        Circuit title used in singularity error messages.
    singular_what:
        Message fragment between the title and the frequency range —
        ``"MNA matrix singular"`` for plain sweeps (matching
        ``MnaSystem.sweep_voltage``) or ``"singular"`` for the fast
        engine's multi-RHS sweeps.
    tag:
        Free-form caller context (config index, fault label, ...);
        opaque to the kernel.
    """

    G: np.ndarray
    C: np.ndarray
    rhs: np.ndarray
    title: str
    singular_what: str = "MNA matrix singular"
    tag: object = None

    def __post_init__(self) -> None:
        rhs = np.asarray(self.rhs, dtype=complex)
        if rhs.ndim == 1:
            rhs = rhs[:, np.newaxis]
        self.rhs = rhs
        if self.G.shape != self.C.shape or self.G.shape[0] != rhs.shape[0]:
            raise AnalysisError(
                f"{self.title}: inconsistent sweep-request shapes "
                f"G{self.G.shape} C{self.C.shape} rhs{rhs.shape}"
            )

    @property
    def size(self) -> int:
        return int(self.G.shape[0])

    @property
    def n_rhs(self) -> int:
        return int(self.rhs.shape[1])

    def singular_error(
        self, f_lo: float, f_hi: float
    ) -> SingularCircuitError:
        """The loop engine's error for a singular chunk of this sweep."""
        return SingularCircuitError(
            f"{self.title}: {self.singular_what} within "
            f"[{f_lo:g}, {f_hi:g}] Hz"
        )


#: per-request outcome of :func:`solve_requests`
RequestOutcome = Union[np.ndarray, SingularCircuitError]


def solve_requests(
    requests: Sequence[SweepRequest],
    frequencies_hz: np.ndarray,
    stats: Optional[KernelStats] = None,
) -> List[RequestOutcome]:
    """Solve every request over the shared frequency grid, batched.

    Returns one entry per request, in order: the ``(F, n, k)`` solution
    array, or the :class:`SingularCircuitError` the loop engine would
    have raised for that sweep.  Errors are *returned*, not raised, so
    a singular configuration in a campaign stack degrades only itself;
    the caller decides raise-order (normally: first error in loop
    order).

    Requests are grouped by matrix size; equal-size requests are padded
    to a common RHS width and stacked into one LAPACK dispatch, chunked
    so the matrix workspace stays within :data:`STACK_BUDGET`.  Chunk
    boundaries reproduce the loop engine's (`frequency_chunk`), keeping
    failure localisation — which chunk's range an error names —
    identical as well.
    """
    frequencies = np.asarray(frequencies_hz, dtype=float)
    stats = stats if stats is not None else KernelStats()
    results: List[Optional[RequestOutcome]] = [None] * len(requests)

    groups: Dict[int, List[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.size, []).append(index)

    for n, indices in groups.items():
        chunk = frequency_chunk(n)
        if frequencies.size <= chunk and frequencies.size > 0:
            # The whole sweep fits one chunk: stack whole requests.
            block = max(
                1, int(STACK_BUDGET // max(frequencies.size * n * n, 1))
            )
        else:
            block = 1
        for start in range(0, len(indices), block):
            picked = indices[start:start + block]
            outcomes = _solve_block(
                [requests[i] for i in picked], frequencies, chunk, stats
            )
            for i, outcome in zip(picked, outcomes):
                results[i] = outcome

    return results  # type: ignore[return-value]


def _solve_block(
    block: List[SweepRequest],
    frequencies: np.ndarray,
    chunk: int,
    stats: KernelStats,
) -> List[RequestOutcome]:
    """Solve a same-size block of requests over all frequency chunks."""
    n = block[0].size
    k_max = max(request.n_rhs for request in block)
    outputs = [
        np.empty((frequencies.size, n, request.n_rhs), dtype=complex)
        for request in block
    ]
    errors: List[Optional[SingularCircuitError]] = [None] * len(block)

    for start in range(0, frequencies.size, chunk):
        freqs = frequencies[start:start + chunk]
        f_slice = slice(start, start + freqs.size)
        if len(block) == 1:
            request = block[0]
            matrices = assemble_stack(request.G, request.C, freqs)
            rhs = np.broadcast_to(
                request.rhs, (freqs.size,) + request.rhs.shape
            )
        else:
            matrices = np.empty(
                (len(block), freqs.size, n, n), dtype=complex
            )
            _fill_pencils(
                matrices,
                np.stack([request.G for request in block]),
                np.stack([request.C for request in block]),
                freqs,
            )
            matrices = matrices.reshape(len(block) * freqs.size, n, n)
            rhs = np.zeros(
                (len(block), freqs.size, n, k_max), dtype=complex
            )
            for b, request in enumerate(block):
                rhs[b, :, :, : request.n_rhs] = request.rhs[np.newaxis]
            rhs = rhs.reshape(len(block) * freqs.size, n, k_max)

        stats.stacked_calls += 1
        try:
            solutions = np.linalg.solve(matrices, rhs)
        except np.linalg.LinAlgError:
            # At least one matrix of the stack is singular.  Re-solve
            # request by request so only the offender degrades — every
            # healthy request of the chunk still completes.
            stats.fallbacks += 1
            for b, request in enumerate(block):
                if errors[b] is not None:
                    continue
                stats.stacked_calls += 1
                try:
                    single = np.linalg.solve(
                        assemble_stack(request.G, request.C, freqs),
                        np.broadcast_to(
                            request.rhs, (freqs.size,) + request.rhs.shape
                        ),
                    )
                except np.linalg.LinAlgError:
                    errors[b] = request.singular_error(
                        freqs[0], freqs[-1]
                    )
                else:
                    stats.solves += freqs.size
                    stats.factorizations += freqs.size
                    outputs[b][f_slice] = single
            continue

        stats.solves += len(block) * freqs.size
        stats.factorizations += len(block) * freqs.size
        if len(block) == 1:
            outputs[0][f_slice] = solutions
        else:
            solutions = solutions.reshape(
                len(block), freqs.size, n, k_max
            )
            for b, request in enumerate(block):
                outputs[b][f_slice] = solutions[b, :, :, : request.n_rhs]

    return [
        errors[b] if errors[b] is not None else outputs[b]
        for b in range(len(block))
    ]


def solve_reusing_lu(
    matrix: np.ndarray,
    rhs: np.ndarray,
    cache: Dict,
    key,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` reusing a cached LU factorization.

    On the first call for ``key`` the matrix is factored (``scipy``'s
    ``lu_factor`` when installed, falling back to a plain
    ``numpy.linalg.solve`` otherwise) and the factors are stored in
    ``cache``; subsequent calls with the same key skip straight to the
    triangular solves.  The cache is FIFO-bounded at
    :data:`LU_CACHE_LIMIT` entries.

    Raises ``numpy.linalg.LinAlgError`` on a singular matrix regardless
    of backend — scipy's ``lu_factor`` only *warns* on an exactly zero
    pivot, so the pivot check here restores ``numpy.linalg.solve``'s
    exception semantics (callers translate it to
    :class:`~repro.errors.SingularCircuitError`).
    """
    stats = stats if stats is not None else KernelStats()
    if not HAVE_SCIPY:
        stats.solves += 1
        stats.factorizations += 1
        return np.linalg.solve(matrix, rhs)

    factors = cache.get(key)
    if factors is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factors = _scipy_lu_factor(matrix, check_finite=False)
        lu = factors[0]
        if not np.all(np.isfinite(lu)) or np.any(
            np.diagonal(lu) == 0.0
        ):
            raise np.linalg.LinAlgError(
                "Singular matrix (zero pivot in LU factorization)"
            )
        stats.factorizations += 1
        if len(cache) >= LU_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = factors
    stats.solves += 1
    return _scipy_lu_solve(factors, rhs, check_finite=False)
